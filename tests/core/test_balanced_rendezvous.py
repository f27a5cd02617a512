"""Tests for the open-problem exploration: balanced top-k rendezvous."""

import collections
import math

import pytest

import repro._compat as compat
from repro.core import BalancedRendezvous, balanced_rendezvous
from repro.placement import kernels
from repro.types import BinSpec, bins_from_capacities


class TestConstruction:
    def test_rate_validated(self):
        with pytest.raises(ValueError):
            BalancedRendezvous(
                bins_from_capacities([5, 4]), copies=2, calibration_rate=0.0
            )

    @pytest.mark.parametrize(
        "option", ["calibration_samples", "calibration_iterations"]
    )
    def test_negative_calibration_sizes_rejected(self, option):
        """-1 used to mean "uncalibrated" silently; 0 is the documented
        ablation switch and the only one."""
        bins = bins_from_capacities([5, 4, 3])
        with pytest.raises(ValueError, match="calibration"):
            BalancedRendezvous(bins, copies=2, **{option: -1})
        raw = BalancedRendezvous(bins, copies=2, **{option: 0})
        assert raw.weights == {
            bin_id: share * 2
            for bin_id, share in raw.expected_shares().items()
        }

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

    def test_calibrated_fairness(self):
        capacities = [1000, 400, 300, 200, 100]
        strategy = BalancedRendezvous(bins_from_capacities(capacities), copies=2)
        counts = collections.Counter()
        balls = 25_000
        for address in range(balls):
            counts.update(strategy.place(address))
        for bin_id, share in strategy.expected_shares().items():
            assert counts[bin_id] / (2 * balls) == pytest.approx(
                share, abs=0.02
            ), bin_id

    def test_uncalibrated_is_unfair(self):
        """Ablation: without calibration this is the trivial strategy and
        under-loads the big bin (Lemma 2.4)."""
        capacities = [1000, 400, 300, 200, 100]
        raw = BalancedRendezvous(
            bins_from_capacities(capacities), copies=2, calibration_samples=0
        )
        balls = 15_000
        hits = sum(
            1 for address in range(balls) if "bin-0" in raw.place(address)
        )
        # bin-0 is pinned only via t=1; here t_0 = 1.0 exactly -> pinned!
        # Use a slightly smaller big bin so nothing is pinned.
        capacities = [900, 400, 300, 200, 200]
        raw = BalancedRendezvous(
            bins_from_capacities(capacities), copies=2, calibration_samples=0
        )
        target = raw.expected_shares()["bin-0"]
        counts = collections.Counter()
        for address in range(balls):
            counts.update(raw.place(address))
        assert counts["bin-0"] / (2 * balls) < target - 0.015

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


def scalar_weights(monkeypatch, capacities, copies, **options):
    """The weights the scalar calibration (the oracle) fits."""
    with monkeypatch.context() as patch:
        patch.setattr(compat, "np", None)
        return BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies, **options
        ).weights


class TestCalibrationLegs:
    """The NumPy-leg calibration counts the same winners as the scalar
    one, so the fitted weights are equal as floats, not approximately.
    Under ``REPRO_PURE_PYTHON=1`` both builds are the scalar leg."""

    @pytest.mark.parametrize("capacities, copies", CALIBRATION_FLEETS)
    def test_weights_equal_the_scalar_calibration(
        self, monkeypatch, capacities, copies
    ):
        strategy = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies
        )
        assert strategy.weights == scalar_weights(
            monkeypatch, capacities, copies
        )

    @pytest.mark.parametrize("capacities, copies", CALIBRATION_FLEETS)
    def test_refused_samples_are_counted_by_the_scalar_race(
        self, monkeypatch, capacities, copies
    ):
        """An infinite guard refuses every sample: the counts all come
        from ``_race`` and the weights must not move."""
        options = dict(calibration_samples=1_500, calibration_iterations=5)
        expected = scalar_weights(monkeypatch, capacities, copies, **options)
        monkeypatch.setattr(kernels, "TIE_GUARD", math.inf)
        strategy = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies, **options
        )
        assert strategy.weights == expected

    @pytest.mark.skipif(
        not compat.HAVE_NUMPY, reason="the batch counter is NumPy-only"
    )
    def test_no_scalar_draws_when_nothing_is_refused(self, monkeypatch):
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
