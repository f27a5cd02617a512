"""Tests for weighted RAID pattern striping."""

import collections
import hashlib

import pytest

import repro._compat as compat
from repro.exceptions import ConfigurationError
from repro.placement import WeightedStripingStrategy
from repro.types import bins_from_capacities


class TestWeightedStriping:
    def test_redundancy(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([8, 4, 2, 2]), copies=2
        )
        for address in range(1000):
            placement = strategy.place(address)
            assert len(set(placement)) == 2

    def test_shares_track_capacity(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([8, 4, 2, 2]), copies=2, resolution=128
        )
        shares = strategy.expected_shares()
        assert shares["bin-0"] == pytest.approx(0.5, abs=0.02)
        assert shares["bin-1"] == pytest.approx(0.25, abs=0.02)

    def test_empirical_matches_pattern_shares(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([6, 3, 3]), copies=2, resolution=64
        )
        counts = collections.Counter()
        balls = 20_000
        for address in range(balls):
            for bin_id in strategy.place(address):
                counts[bin_id] += 1
        # With k=2 the big disk deserves min(1, 2*0.5)/2 = 0.5 of copies.
        assert counts["bin-0"] / (2 * balls) == pytest.approx(0.5, abs=0.05)

    def test_resolution_validated(self):
        with pytest.raises(ConfigurationError):
            WeightedStripingStrategy(
                bins_from_capacities([5, 5]), copies=2, resolution=0
            )

    def test_pattern_length(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([5, 5]), copies=2, resolution=16
        )
        assert strategy.pattern_length == 32

    def test_homogeneous_perfectly_balanced(self):
        strategy = WeightedStripingStrategy(bins_from_capacities([5] * 4), copies=2)
        counts = collections.Counter()
        balls = 4096  # multiple of the pattern period
        for address in range(balls):
            for bin_id in strategy.place(address):
                counts[bin_id] += 1
        shares = {bin_id: count / (2 * balls) for bin_id, count in counts.items()}
        for share in shares.values():
            assert share == pytest.approx(0.25, abs=1e-9)

    def test_full_reshuffle_on_growth(self):
        """The paper's adaptivity criticism: adding a disk moves ~everything."""
        before = WeightedStripingStrategy(bins_from_capacities([5] * 6), copies=2)
        after = WeightedStripingStrategy(bins_from_capacities([5] * 7), copies=2)
        balls = 2000
        moved = sum(
            1 for address in range(balls) if before.place(address) != after.place(address)
        )
        assert moved / balls > 0.8


#: fleet -> sha256 of ``repr`` of the weighted pattern, computed with the
#: per-slot ``max(credits, key=(credit, id))`` build on both legs.  The
#: equal fleet ties at almost every slot, so it pins the tie-break (the
#: largest id as a string: ``bin-9`` beats ``bin-15``).
PATTERN_PINS = {
    "bench": (
        list(range(500, 2001, 100)),
        "4d55465badc928e82a57197abbdb4db4996562d3ec2e6a98f57fe64edfc28cb9",
    ),
    "equal": (
        [1] * 16,
        "115d4364f86432e4c98ebbfab0976306db35acd6eb35ba68356019b39027f271",
    ),
    "wide": (
        [1000 + index % 7 for index in range(200)],
        "121e0a5db02472082f7196c86b6d3e43091a9e1ee74fae8b1c49af233c36a869",
    ),
}


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize("fleet", sorted(PATTERN_PINS))
def test_weighted_pattern_is_pinned(monkeypatch, fleet, leg):
    if leg == "pure-python":
        monkeypatch.setattr(compat, "np", None)
    elif not compat.HAVE_NUMPY:
        pytest.skip("NumPy unavailable")
    capacities, expected = PATTERN_PINS[fleet]
    strategy = WeightedStripingStrategy(bins_from_capacities(capacities))
    digest = hashlib.sha256(repr(strategy._pattern).encode()).hexdigest()
    assert digest == expected
