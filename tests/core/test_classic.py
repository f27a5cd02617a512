"""Tests for the literal Algorithm 2 (ClassicLinMirror) and the b̃ boost."""

import collections

import pytest

from repro.capacity import clip_capacities
from repro.capacity.weights import (
    first_saturated_index,
    reach_probabilities,
    round_probabilities,
    suffix_sums,
)
from repro.core import ClassicLinMirror, boundary_boost
from repro.types import bins_from_capacities


def analytic_marginals(capacities, boost):
    """Exact expected shares of ClassicLinMirror with rendezvous backend."""
    n = len(capacities)
    sums = suffix_sums(capacities)
    rounds = [min(1.0, value) for value in round_probabilities(capacities, 2)]
    saturated = first_saturated_index(rounds)
    reach = reach_probabilities(rounds)
    primaries = [rounds[i] * reach[i] for i in range(n)]
    shares = [0.0] * n
    for l in range(saturated + 1):
        if primaries[l] == 0.0:
            continue
        shares[l] += primaries[l]
        # Secondary distribution for primaries at l.
        weights = list(capacities[l + 1 :])
        if boost is not None and l == saturated - 1 and weights:
            weights[0] = boost if boost != float("inf") else 1.0
            if boost == float("inf"):
                weights = [1.0] + [0.0] * (len(weights) - 1)
        total = sum(weights)
        for offset, weight in enumerate(weights):
            shares[l + 1 + offset] += primaries[l] * weight / total
    return [value / 2.0 for value in shares]


class TestBoundaryBoost:
    def test_known_example(self):
        # [4, 4, 3]: natural weight 4 must be boosted to 5 (share 5/8).
        assert boundary_boost([4.0, 4.0, 3.0]) == pytest.approx(5.0)

    def test_second_example(self):
        # [5, 4, 4, 2]: boundary at rank 2, boost solves share 3/4 -> b̃ = 6.
        assert boundary_boost([5.0, 4.0, 4.0, 2.0]) == pytest.approx(6.0)

    def test_no_boost_when_boundary_first(self):
        # [2, 1, 1]: č_0 = 1, no predecessor to adjust.
        assert boundary_boost([2.0, 1.0, 1.0]) is None

    def test_no_boost_for_smooth_vectors(self):
        # Homogeneous: natural weights are exact, boost must vanish or be
        # numerically tiny relative to the capacities.
        boost = boundary_boost([1.0, 1.0, 1.0, 1.0])
        assert boost is None or boost == pytest.approx(1.0, abs=1e-6)

    def test_analytic_marginals_are_fair(self):
        for raw in ([4, 4, 3], [5, 4, 4, 2], [9, 7, 5, 3, 1], [6, 6, 6, 1]):
            capacities = clip_capacities(sorted(raw, reverse=True), 2)
            boost = boundary_boost(capacities)
            shares = analytic_marginals(capacities, boost)
            total = sum(capacities)
            for capacity, share in zip(capacities, shares):
                assert share == pytest.approx(capacity / total, abs=1e-9)


class TestClassicLinMirror:
    BALLS = 40_000

    def test_redundancy(self):
        strategy = ClassicLinMirror(bins_from_capacities([5, 4, 3, 2]))
        for address in range(2000):
            placement = strategy.place(address)
            assert len(placement) == 2
            assert placement[0] != placement[1]

    def test_deterministic(self):
        strategy = ClassicLinMirror(bins_from_capacities([5, 4, 3]))
        assert strategy.place(5) == strategy.place(5)

    def test_fairness_with_boost(self):
        strategy = ClassicLinMirror(bins_from_capacities([4, 4, 3]))
        counts = collections.Counter()
        for address in range(self.BALLS):
            for bin_id in strategy.place(address):
                counts[bin_id] += 1
        shares = strategy.expected_shares()
        for bin_id, share in shares.items():
            assert counts[bin_id] / (2 * self.BALLS) == pytest.approx(
                share / 1.0, abs=0.012
            )

    def test_unfairness_without_boost(self):
        """Disabling the b̃ adjustment must visibly starve the boundary bin
        on a vector with a strong inhomogeneity."""
        capacities = [10, 10, 1]
        with_boost = ClassicLinMirror(
            bins_from_capacities(capacities), apply_boost=True
        )
        without = ClassicLinMirror(
            bins_from_capacities(capacities), apply_boost=False
        )
        balls = 30_000

        def share_of(strategy, bin_id):
            hits = sum(
                1
                for address in range(balls)
                for placed in strategy.place(address)
                if placed == bin_id
            )
            return hits / (2 * balls)

        target = with_boost.expected_shares()["bin-1"]
        assert share_of(with_boost, "bin-1") == pytest.approx(target, abs=0.012)
        assert share_of(without, "bin-1") < target - 0.01

    def test_boundary_index_exposed(self):
        strategy = ClassicLinMirror(bins_from_capacities([4, 4, 3]))
        assert strategy.boundary_index == 1
        assert strategy.boost == pytest.approx(5.0)
