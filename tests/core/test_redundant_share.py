"""Behavioural tests for RedundantShare / LinMirror (Algorithms 2 and 4)."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinMirror, RedundantShare
from repro.exceptions import ConfigurationError
from repro.types import BinSpec, bins_from_capacities


def empirical_shares(strategy, balls):
    counts = collections.Counter()
    for address in range(balls):
        for bin_id in strategy.place(address):
            counts[bin_id] += 1
    total = sum(counts.values())
    return {bin_id: count / total for bin_id, count in counts.items()}


class TestConstruction:
    def test_rejects_more_copies_than_bins(self):
        with pytest.raises(ConfigurationError):
            RedundantShare(bins_from_capacities([5, 5]), copies=3)

    def test_rejects_zero_copies(self):
        with pytest.raises(ConfigurationError):
            RedundantShare(bins_from_capacities([5, 5]), copies=0)

    def test_clipping_enabled_by_default(self):
        strategy = RedundantShare(bins_from_capacities([100, 1, 1]), copies=2)
        assert strategy.ordered_bins[0].bin_id == "bin-0"
        assert strategy.table.capacities[0] == pytest.approx(2.0)

    def test_ordered_bins_descending(self):
        strategy = RedundantShare(bins_from_capacities([3, 9, 6]), copies=2)
        capacities = [spec.capacity for spec in strategy.ordered_bins]
        assert capacities == [9, 6, 3]


class TestPlacementBasics:
    def test_deterministic(self):
        strategy = RedundantShare(bins_from_capacities([5, 4, 3, 2]), copies=2)
        assert strategy.place(123) == strategy.place(123)

    def test_redundancy_all_distinct(self):
        strategy = RedundantShare(bins_from_capacities([9, 7, 5, 3, 1]), copies=3)
        for address in range(2000):
            placement = strategy.place(address)
            assert len(placement) == 3
            assert len(set(placement)) == 3

    def test_copies_land_in_descending_rank_order(self):
        # The scan guarantees copy i+1 sits on a strictly later rank.
        strategy = RedundantShare(bins_from_capacities([9, 7, 5, 3, 1]), copies=3)
        ranks = {spec.bin_id: i for i, spec in enumerate(strategy.ordered_bins)}
        for address in range(500):
            placement = strategy.place(address)
            positions = [ranks[bin_id] for bin_id in placement]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)

    def test_place_copy_matches_place(self):
        strategy = RedundantShare(bins_from_capacities([8, 6, 4, 2]), copies=3)
        for address in range(300):
            placement = strategy.place(address)
            for position in range(3):
                assert strategy.place_copy(address, position) == placement[position]

    def test_place_copy_rejects_bad_position(self):
        strategy = RedundantShare(bins_from_capacities([2, 2]), copies=2)
        with pytest.raises(IndexError):
            strategy.place_copy(1, 2)

    def test_primary_accessor(self):
        strategy = RedundantShare(bins_from_capacities([4, 3, 2]), copies=2)
        assert strategy.primary(7) == strategy.place(7)[0]

    def test_n_equals_k_uses_all_bins(self):
        strategy = RedundantShare(bins_from_capacities([5, 4, 3]), copies=3)
        assert set(strategy.place(0)) == {"bin-0", "bin-1", "bin-2"}

    def test_k1_single_copy(self):
        strategy = RedundantShare(bins_from_capacities([6, 3, 1]), copies=1)
        placement = strategy.place(0)
        assert len(placement) == 1


class TestPositionAccessors:
    """``place_copy``/``primary``/``secondary`` read positions of ``place``."""

    def strategy(self):
        return RedundantShare(
            bins_from_capacities([9, 7, 5, 3, 2, 1]), copies=3
        )

    def test_primary_and_secondary_match_place(self):
        strategy = self.strategy()
        for address in range(500):
            placement = strategy.place(address)
            assert strategy.primary(address) == placement[0]
            assert strategy.place_copy(address, 1) == placement[1]
        mirror = LinMirror(bins_from_capacities([9, 7, 5, 3, 2, 1]))
        for address in range(500):
            placement = mirror.place(address)
            assert mirror.primary(address) == placement[0]
            assert mirror.secondary(address) == placement[1]

    def test_accessors_before_place_agree(self):
        # Query the per-position accessors first, then the full scan.
        cold = self.strategy()
        primaries = [cold.place_copy(address, 0) for address in range(300)]
        seconds = [cold.place_copy(address, 1) for address in range(300)]
        for address in range(300):
            placement = cold.place(address)
            assert primaries[address] == placement[0]
            assert seconds[address] == placement[1]

    def test_place_copy_agrees_with_place(self):
        strategy = RedundantShare(
            bins_from_capacities([9, 7, 5, 3, 1]), copies=3
        )
        for address in range(120):
            placement = strategy.place(address)
            walked = [strategy.place_copy(address, p) for p in range(3)]
            assert tuple(walked) == placement


class TestFairness:
    BALLS = 40_000

    def check(self, capacities, copies, tolerance=0.012):
        strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
        expected = strategy.expected_shares()
        observed = empirical_shares(strategy, self.BALLS)
        for bin_id, share in expected.items():
            assert observed.get(bin_id, 0.0) == pytest.approx(share, abs=tolerance)

    def test_heterogeneous_k2(self):
        self.check([500, 600, 700, 800, 900, 1000, 1100, 1200], copies=2)

    def test_heterogeneous_k4(self):
        self.check([500, 600, 700, 800, 900, 1000, 1100, 1200], copies=4)

    def test_homogeneous_k2(self):
        self.check([1000] * 8, copies=2)

    def test_boundary_vector(self):
        # [4, 4, 3] exercises the b̃ inhomogeneity correction.
        self.check([4, 4, 3], copies=2)

    def test_clipped_oversized_bin(self):
        # Raw [100, 6, 1] clips to [7, 6, 1]: shares 1/2, 3/7, 1/14.
        strategy = RedundantShare(bins_from_capacities([100, 6, 1]), copies=2)
        observed = empirical_shares(strategy, self.BALLS)
        assert observed["bin-0"] == pytest.approx(0.5, abs=0.012)
        assert observed["bin-1"] == pytest.approx(6 / 14, abs=0.012)
        assert observed["bin-2"] == pytest.approx(1 / 14, abs=0.012)

    def test_per_copy_marginals_match_table(self):
        strategy = RedundantShare(
            bins_from_capacities([5, 4, 3, 2, 1]), copies=2
        )
        counts = [collections.Counter() for _ in range(2)]
        balls = 30_000
        for address in range(balls):
            for position, bin_id in enumerate(strategy.place(address)):
                counts[position][bin_id] += 1
        ranks = [spec.bin_id for spec in strategy.ordered_bins]
        for copy in range(2):
            for rank, bin_id in enumerate(ranks):
                expected = strategy.table.marginals[copy][rank]
                assert counts[copy][bin_id] / balls == pytest.approx(
                    expected, abs=0.012
                )


class TestAdaptivityKeying:
    def test_disjoint_configs_mostly_agree(self):
        """Adding one bin leaves the vast majority of placements intact."""
        before = RedundantShare(bins_from_capacities([1000] * 8), copies=2)
        grown_bins = bins_from_capacities([1000] * 8) + [BinSpec("bin-new", 1000)]
        after = RedundantShare(grown_bins, copies=2)
        balls = 5000
        moved = sum(
            1
            for address in range(balls)
            if before.place(address) != after.place(address)
        )
        # The new bin should receive ~2/9 of copies; the number of balls
        # with any change should be well below half.
        assert moved / balls < 0.5

    def test_namespace_isolates(self):
        bins = bins_from_capacities([5, 4, 3, 2])
        first = RedundantShare(bins, copies=2, namespace="a")
        second = RedundantShare(bins, copies=2, namespace="b")
        differing = sum(
            1 for address in range(500) if first.place(address) != second.place(address)
        )
        assert differing > 100  # placements are decorrelated


class TestLinMirror:
    def test_is_k2(self):
        mirror = LinMirror(bins_from_capacities([5, 4, 3]))
        assert mirror.copies == 2

    def test_secondary_accessor(self):
        mirror = LinMirror(bins_from_capacities([5, 4, 3]))
        assert mirror.secondary(9) == mirror.place(9)[1]

    def test_matches_redundant_share_k2(self):
        bins = bins_from_capacities([5, 4, 3, 2])
        mirror = LinMirror(bins, namespace="same")
        general = RedundantShare(bins, copies=2, namespace="same")
        for address in range(500):
            assert mirror.place(address) == general.place(address)


@given(
    st.lists(st.integers(min_value=1, max_value=2000), min_size=3, max_size=10),
    st.integers(min_value=2, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_property_redundancy_never_violated(capacities, copies):
    if len(capacities) < copies:
        return
    strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
    for address in range(200):
        placement = strategy.place(address)
        assert len(set(placement)) == copies
