"""Shared behavioural tests for the ``placeonecopy`` selector and the
consistent-hashing ring."""

import collections
import math

import pytest

from repro.placement import ConsistentHashingPlacer, WeightedRendezvous
from repro.types import bins_from_capacities

ALL_PLACERS = [WeightedRendezvous, ConsistentHashingPlacer]


def ids_for(weights):
    return [f"bin-{index}" for index in range(len(weights))]


def build(placer_cls, capacities):
    """A placer over ``bin-0..`` weighted by ``capacities``."""
    if placer_cls is ConsistentHashingPlacer:
        return ConsistentHashingPlacer(bins_from_capacities(capacities))
    return placer_cls(ids_for(capacities), capacities, "tests")


def empirical_shares(placer, balls):
    counts = collections.Counter(placer.place(address) for address in range(balls))
    return {bin_id: count / balls for bin_id, count in counts.items()}


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestCommonBehaviour:
    def test_deterministic(self, placer_cls):
        placer = build(placer_cls, [5, 3, 2])
        assert placer.place(17) == placer.place(17)

    def test_returns_known_bin(self, placer_cls):
        placer = build(placer_cls, [5, 3, 2])
        for address in range(200):
            assert placer.place(address) in {"bin-0", "bin-1", "bin-2"}

    def test_single_bin(self, placer_cls):
        placer = build(placer_cls, [7])
        assert placer.place(0) == "bin-0"

    def test_rejects_empty(self, placer_cls):
        with pytest.raises(ValueError):
            build(placer_cls, [])


#: case -> (ids, weights, what the ValueError says)
BAD_INPUTS = {
    "empty": ([], [], "non-empty"),
    "unequal-length": (["a", "b"], [1.0], "equal-length"),
    "duplicate-id": (["a", "a"], [1.0, 1.0], "distinct"),
    "negative": (["a", "b"], [-1.0, 2.0], "non-negative"),
    "nan": (["a", "b"], [math.nan, 1.0], "finite"),
    "inf": (["a", "b"], [math.inf, 1.0], "finite"),
    "all-zero": (["a", "b"], [0.0, 0.0], "positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("placer_cls", [WeightedRendezvous])
def test_every_selector_refuses_the_same_bad_inputs(placer_cls, case):
    ids, weights, message = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        placer_cls(ids, weights, "ns")


@pytest.mark.parametrize("placer_cls", [WeightedRendezvous])
class TestExactFairness:
    def test_heterogeneous_shares(self, placer_cls):
        placer = build(placer_cls, [100, 300, 600])
        observed = empirical_shares(placer, 30_000)
        assert observed.get("bin-0", 0.0) == pytest.approx(0.1, abs=0.01)
        assert observed.get("bin-1", 0.0) == pytest.approx(0.3, abs=0.012)
        assert observed.get("bin-2", 0.0) == pytest.approx(0.6, abs=0.012)


@pytest.mark.parametrize("placer_cls", [ConsistentHashingPlacer])
class TestApproximateFairness:
    def test_heterogeneous_shares_loose(self, placer_cls):
        placer = build(placer_cls, [100, 300, 600])
        observed = empirical_shares(placer, 20_000)
        # Approximate schemes: right ordering and rough magnitudes.
        assert observed.get("bin-2", 0.0) > observed.get("bin-1", 0.0)
        assert observed.get("bin-1", 0.0) > observed.get("bin-0", 0.0)
        assert observed.get("bin-2", 0.0) == pytest.approx(0.6, abs=0.15)


class TestRendezvousSpecifics:
    def test_place_top_distinct(self):
        placer = build(WeightedRendezvous, [5, 4, 3, 2])
        top = placer.top(11, 3)
        assert len(set(top)) == 3
        assert top[0] == placer.place(11)

    def test_place_top_too_many(self):
        placer = build(WeightedRendezvous, [5, 4])
        with pytest.raises(ValueError):
            placer.top(0, 3)

    def test_top_counts_only_ids_that_can_win(self):
        # A zero-weight id never wins, so it cannot fill a place either.
        placer = build(WeightedRendezvous, [5, 0, 4])
        assert sorted(placer.top(0, 2)) == ["bin-0", "bin-2"]
        with pytest.raises(ValueError):
            placer.top(0, 3)

    def test_one_competitive_adaptivity(self):
        """Only balls won by the new bin move (rendezvous's key property)."""
        before = build(WeightedRendezvous, [100, 100, 100])
        after = build(WeightedRendezvous, [100, 100, 100, 100])
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

    def test_removal_only_moves_victims(self):
        before = ConsistentHashingPlacer(bins_from_capacities([5, 5, 5]))
        survivors = bins_from_capacities([5, 5, 5])[:2]
        after = ConsistentHashingPlacer(survivors)
        for address in range(2000):
            owner = before.place(address)
            if owner != "bin-2":
                assert after.place(address) == owner
