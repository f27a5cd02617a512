"""Shared behavioural tests for all single-copy placers."""

import collections

import pytest

from repro.placement import (
    AliasPlacer,
    ConsistentHashingPlacer,
    RendezvousPlacer,
    SharePlacer,
    ShareWeightedPlacer,
)
from repro.types import bins_from_capacities

EXACT_PLACERS = [RendezvousPlacer, AliasPlacer]
APPROXIMATE_PLACERS = [ConsistentHashingPlacer, SharePlacer]
ALL_PLACERS = EXACT_PLACERS + APPROXIMATE_PLACERS


def empirical_shares(placer, balls):
    counts = collections.Counter(placer.place(address) for address in range(balls))
    return {bin_id: count / balls for bin_id, count in counts.items()}


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestCommonBehaviour:
    def test_deterministic(self, placer_cls):
        placer = placer_cls(bins_from_capacities([5, 3, 2]))
        assert placer.place(17) == placer.place(17)

    def test_returns_known_bin(self, placer_cls):
        placer = placer_cls(bins_from_capacities([5, 3, 2]))
        ids = {spec.bin_id for spec in placer.bins}
        for address in range(200):
            assert placer.place(address) in ids

    def test_single_bin(self, placer_cls):
        placer = placer_cls(bins_from_capacities([7]))
        assert placer.place(0) == "bin-0"

    def test_rejects_empty(self, placer_cls):
        with pytest.raises(ValueError):
            placer_cls([])

    def test_describe_mentions_bins(self, placer_cls):
        placer = placer_cls(bins_from_capacities([5, 3]))
        assert "2 bins" in placer.describe()


@pytest.mark.parametrize("placer_cls", EXACT_PLACERS)
class TestExactFairness:
    def test_heterogeneous_shares(self, placer_cls):
        capacities = [100, 300, 600]
        placer = placer_cls(bins_from_capacities(capacities))
        observed = empirical_shares(placer, 30_000)
        assert observed.get("bin-0", 0.0) == pytest.approx(0.1, abs=0.01)
        assert observed.get("bin-1", 0.0) == pytest.approx(0.3, abs=0.012)
        assert observed.get("bin-2", 0.0) == pytest.approx(0.6, abs=0.012)


@pytest.mark.parametrize("placer_cls", APPROXIMATE_PLACERS)
class TestApproximateFairness:
    def test_heterogeneous_shares_loose(self, placer_cls):
        capacities = [100, 300, 600]
        placer = placer_cls(bins_from_capacities(capacities))
        observed = empirical_shares(placer, 20_000)
        # Approximate schemes: right ordering and rough magnitudes.
        assert observed.get("bin-2", 0.0) > observed.get("bin-1", 0.0)
        assert observed.get("bin-1", 0.0) > observed.get("bin-0", 0.0)
        assert observed.get("bin-2", 0.0) == pytest.approx(0.6, abs=0.15)


class TestRendezvousSpecifics:
    def test_place_top_distinct(self):
        placer = RendezvousPlacer(bins_from_capacities([5, 4, 3, 2]))
        top = placer.place_top(11, 3)
        assert len(set(top)) == 3
        assert top[0] == placer.place(11)

    def test_place_top_too_many(self):
        placer = RendezvousPlacer(bins_from_capacities([5, 4]))
        with pytest.raises(ValueError):
            placer.place_top(0, 3)

    def test_one_competitive_adaptivity(self):
        """Only balls won by the new bin move (rendezvous's key property)."""
        before = RendezvousPlacer(bins_from_capacities([100, 100, 100]))
        after = RendezvousPlacer(bins_from_capacities([100, 100, 100, 100]))
        balls = 5000
        moved = 0
        for address in range(balls):
            first, second = before.place(address), after.place(address)
            if first != second:
                moved += 1
                assert second == "bin-3"  # moves only onto the new bin
        assert moved / balls == pytest.approx(0.25, abs=0.03)


class TestConsistentHashingSpecifics:
    def test_successor_chain_distinct(self):
        placer = ConsistentHashingPlacer(bins_from_capacities([5, 4, 3, 2]))
        chain = placer.place_successors(3, 3)
        assert len(set(chain)) == 3
        assert chain[0] == placer.place(3)

    def test_expected_shares_are_arcs(self):
        placer = ConsistentHashingPlacer(bins_from_capacities([5, 5]))
        shares = placer.expected_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_unweighted_mode(self):
        placer = ConsistentHashingPlacer(
            bins_from_capacities([10, 1]), weight_points=False
        )
        assert placer.ring.points_of("bin-0") == placer.ring.points_of("bin-1")

    def test_bad_points_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashingPlacer(bins_from_capacities([5]), points_per_bin=0)

    def test_removal_only_moves_victims(self):
        before = ConsistentHashingPlacer(bins_from_capacities([5, 5, 5]))
        survivors = bins_from_capacities([5, 5, 5])[:2]
        after = ConsistentHashingPlacer(survivors)
        for address in range(2000):
            owner = before.place(address)
            if owner != "bin-2":
                assert after.place(address) == owner


class TestShareSpecifics:
    @pytest.mark.parametrize(
        "capacities,stretch",
        [([7, 5, 3, 1], 0.0), ([1000, 1, 1], 3.0), ([10] * 16, 0.0), ([3, 2], 0.5)],
    )
    def test_is_the_capacity_face_of_the_weighted_selector(
        self, capacities, stretch
    ):
        # stretch 0.5 over two bins leaves gaps, so the fallback runs too.
        bins = bins_from_capacities(capacities)
        placer = SharePlacer(bins, stretch=stretch)
        twin = ShareWeightedPlacer(
            [spec.bin_id for spec in bins],
            [float(spec.capacity) for spec in bins],
            placer.namespace,
            stretch,
        )
        for address in range(2000):
            assert placer.place(address) == twin.place(address)

    def test_expected_shares_sum_to_one(self):
        placer = SharePlacer(bins_from_capacities([7, 5, 3, 1]))
        assert sum(placer.expected_shares().values()) == pytest.approx(1.0)

    def test_expected_shares_match_empirical(self):
        placer = SharePlacer(bins_from_capacities([7, 5, 3, 1]))
        analytic = placer.expected_shares()
        observed = empirical_shares(placer, 20_000)
        for bin_id, share in analytic.items():
            assert observed.get(bin_id, 0.0) == pytest.approx(share, abs=0.015)

    def test_stretch_default_grows_with_bins(self):
        small = SharePlacer(bins_from_capacities([1] * 4))
        large = SharePlacer(bins_from_capacities([1] * 64))
        assert large.stretch > small.stretch

    def test_coverage_gap_small_with_default_stretch(self):
        placer = SharePlacer(bins_from_capacities([10] * 16))
        assert placer.coverage_gap() < 0.2

    def test_custom_stretch_respected(self):
        placer = SharePlacer(bins_from_capacities([5, 5]), stretch=4.0)
        assert placer.stretch == 4.0

    def test_giant_bin_covers_everything(self):
        # One bin with >= 1/stretch of the capacity gets a full-circle
        # interval; lookups must still work.
        placer = SharePlacer(bins_from_capacities([1000, 1, 1]), stretch=3.0)
        for address in range(200):
            assert placer.place(address) in {"bin-0", "bin-1", "bin-2"}

