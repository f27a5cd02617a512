"""Tests for the (ids, weights) Share selector and its fast-variant role."""

import collections

import pytest

from repro.core import FastRedundantShare
from repro.placement import ShareWeightedPlacer
from repro.types import BinSpec, bins_from_capacities


class TestShareWeightedPlacer:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShareWeightedPlacer([], [], "ns")
        with pytest.raises(ValueError):
            ShareWeightedPlacer(["a"], [1.0, 2.0], "ns")
        with pytest.raises(ValueError):
            ShareWeightedPlacer(["a", "b"], [-1.0, 2.0], "ns")
        with pytest.raises(ValueError):
            ShareWeightedPlacer(["a", "b"], [0.0, 0.0], "ns")

    def test_deterministic(self):
        placer = ShareWeightedPlacer(["a", "b", "c"], [3.0, 2.0, 1.0], "ns")
        assert placer.place(5) == placer.place(5)

    def test_zero_weight_outcomes_never_win(self):
        placer = ShareWeightedPlacer(["a", "b", "c"], [1.0, 0.0, 1.0], "ns")
        for address in range(2000):
            assert placer.place(address) != "b"

    def test_roughly_weight_proportional(self):
        placer = ShareWeightedPlacer(
            ["a", "b", "c"], [0.1, 0.3, 0.6], "ns", stretch=24.0
        )
        counts = collections.Counter(placer.place(a) for a in range(30_000))
        assert counts["c"] / 30_000 == pytest.approx(0.6, abs=0.08)
        assert counts["b"] / 30_000 == pytest.approx(0.3, abs=0.06)

    def test_fairness_error_shrinks_with_stretch(self):
        """Share's (1+eps) guarantee: eps decays as the stretch grows."""
        weights = [0.5, 0.3, 0.2]

        def error(stretch):
            placer = ShareWeightedPlacer(
                ["a", "b", "c"], weights, "ns-e", stretch=stretch
            )
            counts = collections.Counter(
                placer.place(address) for address in range(20_000)
            )
            return max(
                abs(counts[owner] / 20_000 - weight)
                for owner, weight in zip(["a", "b", "c"], weights)
            )

        assert error(32.0) < error(3.0) + 0.01

    def test_dominant_weight_covers_circle(self):
        placer = ShareWeightedPlacer(["big", "tiny"], [100.0, 1.0], "ns")
        counts = collections.Counter(placer.place(a) for a in range(5000))
        assert counts["big"] > 4000

    def test_adaptivity_small_perturbation(self):
        before = ShareWeightedPlacer(["a", "b", "c"], [1.0, 1.0, 1.0], "ns")
        after = ShareWeightedPlacer(["a", "b", "c"], [1.0, 1.0, 1.2], "ns")
        moved = sum(
            1 for address in range(4000) if before.place(address) != after.place(address)
        )
        assert moved / 4000 < 0.35  # a small weight change moves little


class TestShareStateSelector:
    def test_fairness(self):
        capacities = [900, 700, 500, 300]
        strategy = FastRedundantShare(
            bins_from_capacities(capacities), copies=2, state_selector="share"
        )
        counts = collections.Counter()
        balls = 30_000
        for address in range(balls):
            counts.update(strategy.place(address))
        for bin_id, share in strategy.expected_shares().items():
            # Share is (1+eps)-fair, not exact; allow the eps of the
            # stretch used by the state selector.
            assert counts[bin_id] / (2 * balls) == pytest.approx(
                share, abs=0.05
            )

    def test_redundancy(self):
        strategy = FastRedundantShare(
            bins_from_capacities([9, 7, 5, 3, 1]),
            copies=3,
            state_selector="share",
        )
        for address in range(1000):
            assert len(set(strategy.place(address))) == 3

    def test_adaptivity_between_cdf_and_rendezvous(self):
        def movement(selector):
            before = FastRedundantShare(
                bins_from_capacities([1000] * 8),
                copies=2,
                state_selector=selector,
            )
            grown = bins_from_capacities([1000] * 8) + [
                BinSpec("bin-new", 1000)
            ]
            after = FastRedundantShare(
                grown, copies=2, state_selector=selector
            )
            balls = 3000
            return (
                sum(
                    1
                    for address in range(balls)
                    if before.place(address) != after.place(address)
                )
                / balls
            )

        share_movement = movement("share")
        cdf_movement = movement("cdf")
        # Share's interval structure adapts better than the cascading CDF.
        assert share_movement < cdf_movement
