"""Tests for GF(256) arithmetic and linear algebra."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import gf256

ELEMENTS = st.integers(min_value=0, max_value=255)
NONZERO = st.integers(min_value=1, max_value=255)


def mat_mul(a, b):
    """Matrix product over GF(256): the oracle for ``mat_invert``."""
    return [
        [
            reduce(gf256.add, (gf256.mul(x, y) for x, y in zip(row, col)), 0)
            for col in zip(*b)
        ]
        for row in a
    ]


class TestFieldAxioms:
    @given(ELEMENTS, ELEMENTS)
    @settings(max_examples=200, deadline=None)
    def test_mul_commutes(self, a, b):
        assert gf256.mul(a, b) == gf256.mul(b, a)

    @given(ELEMENTS, ELEMENTS, ELEMENTS)
    @settings(max_examples=200, deadline=None)
    def test_mul_associates(self, a, b, c):
        assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))

    @given(ELEMENTS, ELEMENTS, ELEMENTS)
    @settings(max_examples=200, deadline=None)
    def test_distributivity(self, a, b, c):
        left = gf256.mul(a, gf256.add(b, c))
        right = gf256.add(gf256.mul(a, b), gf256.mul(a, c))
        assert left == right

    @given(NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a):
        assert gf256.mul(a, gf256.inv(a)) == 1

    @given(ELEMENTS)
    @settings(max_examples=50, deadline=None)
    def test_identity_elements(self, a):
        assert gf256.mul(a, 1) == a
        assert gf256.add(a, 0) == a
        assert gf256.add(a, a) == 0  # characteristic 2

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_power(self):
        assert gf256.power(2, 0) == 1
        assert gf256.power(0, 5) == 0
        assert gf256.power(3, 2) == gf256.mul(3, 3)


class TestMatrices:
    def test_identity_mul(self):
        matrix = [[3, 7], [1, 9]]
        assert mat_mul(matrix, gf256.identity(2)) == matrix

    def test_invert_round_trip(self):
        matrix = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        inverse = gf256.mat_invert(matrix)
        assert mat_mul(matrix, inverse) == gf256.identity(3)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            gf256.mat_invert([[1, 1], [1, 1]])

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gf256.mat_invert([[1, 2, 3], [4, 5, 6]])


class TestVandermonde:
    def test_shape(self):
        matrix = gf256.vandermonde(5, 3)
        assert len(matrix) == 5
        assert all(len(row) == 3 for row in matrix)

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            gf256.vandermonde(300, 2)

    def test_any_square_subset_invertible(self):
        import itertools

        matrix = gf256.vandermonde(6, 3)
        for rows in itertools.combinations(range(6), 3):
            subset = [matrix[row] for row in rows]
            gf256.mat_invert(subset)  # must not raise


class TestSystematicGenerator:
    def test_top_is_identity(self):
        generator = gf256.systematic_generator(4, 7)
        assert generator[:4] == gf256.identity(4)

    def test_any_subset_invertible(self):
        import itertools

        generator = gf256.systematic_generator(3, 6)
        for rows in itertools.combinations(range(6), 3):
            subset = [generator[row] for row in rows]
            gf256.mat_invert(subset)  # must not raise

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            gf256.systematic_generator(0, 3)
        with pytest.raises(ValueError):
            gf256.systematic_generator(4, 3)
