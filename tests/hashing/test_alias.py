"""Unit and property tests for the inverse-CDF sampling table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.alias import CumulativeTable


#: Weight lists with zeros among them (at either end and in between).
WEIGHTS = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
).filter(lambda values: sum(values) > 0)
DRAWS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestCumulativeTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CumulativeTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CumulativeTable([-1.0, 2.0])

    def test_boundaries(self):
        table = CumulativeTable([1.0, 1.0])
        assert table.select(0.0) == 0
        assert table.select(0.49999) == 0
        assert table.select(0.5) == 1
        assert table.select(0.99999) == 1

    def test_rejects_out_of_range_draw(self):
        table = CumulativeTable([1.0])
        with pytest.raises(ValueError):
            table.select(1.0)

    @given(WEIGHTS, st.lists(DRAWS, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_boundaries_partition_the_unit_interval(self, weights, draws):
        """Outcome ``i`` owns ``[b_{i-1}, b_i)``, of length ``w_i / W``.

        ``select`` returns ``i`` at both ends of its interval and only
        inside it, and a zero-weight outcome owns an empty interval, so
        no draw — not even one exactly on a boundary — returns it.
        """
        table = CumulativeTable(weights)
        bounds = table.boundaries()
        total = sum(weights)
        assert len(bounds) == len(table) == len(weights)
        assert bounds[-1] == 1.0
        lower = 0.0
        for index, (weight, upper) in enumerate(zip(weights, bounds)):
            assert upper - lower == pytest.approx(weight / total, abs=1e-12)
            if weight == 0.0:
                assert upper == lower
            elif lower < upper:
                assert table.select(lower) == index
                assert table.select(math.nextafter(upper, 0.0)) == index
            lower = upper
        edges = [0.0] + [b for b in bounds if b < 1.0]
        for draw in edges + [math.nextafter(b, 0.0) for b in edges] + draws:
            index = table.select(draw)
            assert weights[index] > 0.0
            assert (bounds[index - 1] if index else 0.0) <= draw < bounds[index]
