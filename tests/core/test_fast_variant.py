"""Tests for the O(k) precomputed variant (Section 3.3)."""

import collections

import pytest

from repro.core import FastRedundantShare, RedundantShare
from repro.types import BinSpec, bins_from_capacities


def empirical_shares(strategy, balls):
    counts = collections.Counter()
    for address in range(balls):
        for bin_id in strategy.place(address):
            counts[bin_id] += 1
    total = sum(counts.values())
    return {bin_id: count / total for bin_id, count in counts.items()}


class TestBasics:
    def test_deterministic(self):
        strategy = FastRedundantShare(bins_from_capacities([5, 4, 3, 2]), copies=2)
        assert strategy.place(99) == strategy.place(99)

    def test_redundancy(self):
        strategy = FastRedundantShare(
            bins_from_capacities([9, 7, 5, 3, 1]), copies=3
        )
        for address in range(2000):
            placement = strategy.place(address)
            assert len(set(placement)) == 3

    def test_copy_ranks_increase(self):
        strategy = FastRedundantShare(
            bins_from_capacities([9, 7, 5, 3, 1]), copies=3
        )
        ranks = {
            spec.bin_id: i
            for i, spec in enumerate(strategy.scan_equivalent.ordered_bins)
        }
        for address in range(500):
            positions = [ranks[b] for b in strategy.place(address)]
            assert positions == sorted(positions)

    def test_expected_shares_match_scan(self):
        bins = bins_from_capacities([8, 6, 4, 2])
        fast = FastRedundantShare(bins, copies=2)
        scan = RedundantShare(bins, copies=2)
        assert fast.expected_shares() == scan.expected_shares()


class TestDistributionEquivalence:
    BALLS = 40_000

    def test_fairness_matches_targets(self):
        capacities = [500, 600, 700, 800, 900, 1000, 1100, 1200]
        strategy = FastRedundantShare(bins_from_capacities(capacities), copies=2)
        expected = strategy.expected_shares()
        observed = empirical_shares(strategy, self.BALLS)
        for bin_id, share in expected.items():
            assert observed.get(bin_id, 0.0) == pytest.approx(share, abs=0.012)

    def test_fairness_k4(self):
        capacities = [900, 800, 700, 600, 500, 400]
        strategy = FastRedundantShare(bins_from_capacities(capacities), copies=4)
        expected = strategy.expected_shares()
        observed = empirical_shares(strategy, self.BALLS // 2)
        for bin_id, share in expected.items():
            assert observed.get(bin_id, 0.0) == pytest.approx(share, abs=0.015)

    def test_joint_distribution_matches_scan_variant(self):
        """Pair frequencies of (primary, secondary) agree between variants."""
        bins = bins_from_capacities([5, 4, 3, 2])
        fast = FastRedundantShare(bins, copies=2, namespace="f")
        scan = RedundantShare(bins, copies=2, namespace="s")
        balls = 30_000
        fast_pairs = collections.Counter(fast.place(a) for a in range(balls))
        scan_pairs = collections.Counter(scan.place(a) for a in range(balls))
        pairs = set(fast_pairs) | set(scan_pairs)
        for pair in pairs:
            assert fast_pairs[pair] / balls == pytest.approx(
                scan_pairs[pair] / balls, abs=0.012
            )


class TestAdaptivity:
    def _movement(self, cls):
        before = cls(bins_from_capacities([1000] * 8), copies=2)
        grown = bins_from_capacities([1000] * 8) + [BinSpec("bin-new", 1000)]
        after = cls(grown, copies=2)
        balls = 5000
        return (
            sum(1 for a in range(balls) if before.place(a) != after.place(a))
            / balls
        )

    def test_cdf_selector_cascades_more(self):
        """Documented trade-off: inverse-CDF boundary shifts cascade, so
        the O(k) variant moves strictly more data than the scan variant."""
        assert self._movement(FastRedundantShare) > self._movement(
            RedundantShare
        )
