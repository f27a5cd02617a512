"""Tests for the open-problem exploration: balanced top-k rendezvous."""

import pytest

import repro._compat as compat
from repro.capacity.clipping import clipped_shares
from repro.core import BalancedRendezvous, balanced_rendezvous
from repro.core.balanced_rendezvous import race_inclusion
from repro.types import BinSpec, bins_from_capacities

from ..oracles import assert_close, reference_inclusion


class TestConstruction:
    def test_pinning_of_saturated_bins(self):
        # [2, 1, 1], k=2: the big bin's clipped demand is exactly 1.
        strategy = BalancedRendezvous(bins_from_capacities([2, 1, 1]), copies=2)
        assert strategy.pinned_bins == ["bin-0"]
        for address in range(1000):
            assert "bin-0" in strategy.place(address)

    def test_no_pinning_for_balanced_pools(self):
        strategy = BalancedRendezvous(bins_from_capacities([5, 5, 5]), copies=2)
        assert strategy.pinned_bins == []

    def test_all_pinned_when_n_equals_k(self):
        strategy = BalancedRendezvous(bins_from_capacities([5, 3]), copies=2)
        assert len(strategy.pinned_bins) == 2
        assert strategy.place(0) == ("bin-0", "bin-1")


class TestBehaviour:
    def test_redundancy_and_determinism(self):
        strategy = BalancedRendezvous(
            bins_from_capacities([9, 7, 5, 3, 1]), copies=3
        )
        assert strategy.place(3) == strategy.place(3)
        for address in range(1500):
            assert len(set(strategy.place(address))) == 3

    def test_uncalibrated_is_unfair(self):
        """Lemma 2.4, exactly: racing the fair targets themselves as
        weights leaves the big bin more than 0.015 of the copies short.
        [900, 400, 300, 200, 200] at k = 2 pins nothing."""
        targets = [2 * c / 2000 for c in (900, 400, 300, 200, 200)]
        raw = race_inclusion(targets, 2)[0]
        assert raw[0] / 2 < targets[0] / 2 - 0.015
        fitted = BalancedRendezvous(
            bins_from_capacities([900, 400, 300, 200, 200]), copies=2
        )
        assert fitted.pinned_bins == []
        assert fitted.expected_shares()["bin-0"] == pytest.approx(
            targets[0] / 2, rel=1e-9
        )

    def test_near_optimal_set_adaptivity(self):
        """The headline property: adding a device moves (in set terms)
        little more than the copies the device must receive."""
        bins = bins_from_capacities([800, 700, 600, 500, 400])
        before = BalancedRendezvous(bins, copies=2)
        after = BalancedRendezvous(bins + [BinSpec("bin-new", 600)], copies=2)
        moved_set = 0
        used = 0
        for address in range(6000):
            old = set(before.place(address))
            new = set(after.place(address))
            moved_set += len(old - new)
            used += 1 if "bin-new" in new else 0
        factor = moved_set / used
        assert factor < 1.6  # near the optimum of 1.0; RS sits ~1.4-2.7

    def test_removal_moves_only_victims_sets(self):
        bins = bins_from_capacities([600, 600, 600, 600, 600])
        before = BalancedRendezvous(bins, copies=2)
        after = BalancedRendezvous(bins[:4], copies=2)
        moved_set = 0
        used = 0
        for address in range(5000):
            old = set(before.place(address))
            new = set(after.place(address))
            moved_set += len(old - new)
            used += 1 if "bin-4" in old else 0
        # Calibration re-fitting adds some churn beyond the pure-rendezvous
        # optimum; it must stay a small multiple.
        assert moved_set / used < 2.0


#: ``(capacities, copies)``: the 16-device fleet of ``benchmarks/e2e``, a
#: fleet with a pinned bin, and one whose bins are given out of capacity
#: order.
CALIBRATION_FLEETS = [
    (list(range(500, 2001, 100)), 3),
    ([1000, 100, 100, 100, 50], 2),
    ([100] * 8 + [37, 900], 4),
]

#: ``(capacities, copies)`` small enough for :func:`reference_inclusion`:
#: a pinned fleet (one racing copy), the TAB-FUT fleet, a pinned bin with
#: three racing copies, and a 1:1000 capacity spread.
EXACT_FLEETS = [
    ([1000, 100, 100, 100, 50], 2),
    ([800, 700, 600, 500, 400, 300], 2),
    ([100] * 8 + [37, 900], 4),
    ([1, 10, 100] + [1000] * 5, 3),
]


class TestExactCalibration:
    """The race's inclusion probabilities are computed, not sampled: the
    production integral matches an exhaustive enumeration, the fitted
    weights meet the fair targets, and the build is one code path that
    makes no hash draws, so both legs fit the same floats."""

    @pytest.mark.parametrize("capacities, copies", EXACT_FLEETS)
    def test_inclusion_matches_the_enumeration(self, capacities, copies):
        strategy = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies
        )
        race = copies - len(strategy.pinned_bins)
        weights = strategy.weights
        shares = strategy.expected_shares()
        assert_close(
            [copies * shares[bin_id] for bin_id in weights],
            reference_inclusion(list(weights.values()), race),
            rel=1e-9,
        )
        # Unfitted weights too: the capacities raced as they are.
        assert_close(
            race_inclusion(capacities, race)[0],
            reference_inclusion(capacities, race),
            rel=1e-9,
        )

    @pytest.mark.parametrize(
        "capacities, copies", EXACT_FLEETS + CALIBRATION_FLEETS
    )
    def test_fitted_weights_meet_the_fair_targets(self, capacities, copies):
        shares = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies
        ).expected_shares()
        order = sorted(range(len(capacities)), key=lambda i: -capacities[i])
        fair = clipped_shares([capacities[i] for i in order], copies)
        assert_close(
            [shares[f"bin-{i}"] for i in order], fair, rel=1e-9
        )

    @pytest.mark.parametrize("capacities, copies", CALIBRATION_FLEETS)
    def test_weights_equal_on_both_legs(self, monkeypatch, capacities, copies):
        bins = bins_from_capacities(capacities)
        weights = BalancedRendezvous(bins, copies=copies).weights
        monkeypatch.setattr(compat, "np", None)
        assert BalancedRendezvous(bins, copies=copies).weights == weights

    def test_build_draws_no_hashes(self, monkeypatch):
        draws = []
        original = balanced_rendezvous.unit_from_base_open
        monkeypatch.setattr(
            balanced_rendezvous,
            "unit_from_base_open",
            lambda base, address: draws.append(address)
            or original(base, address),
        )
        capacities, copies = CALIBRATION_FLEETS[0]
        strategy = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies
        )
        assert draws == []
        strategy.place(0)
        assert len(draws) == len(capacities)
