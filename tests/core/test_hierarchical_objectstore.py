"""Tests for hierarchical (rack-aware) placement."""

import collections

import pytest

from repro.core import HierarchicalRedundantShare
from repro.exceptions import ConfigurationError
from repro.placement import ChooseleafCrush
from repro.types import bins_from_capacities


def make_racks():
    return {
        "rack-a": bins_from_capacities([800, 600], prefix="a"),
        "rack-b": bins_from_capacities([700, 700], prefix="b"),
        "rack-c": bins_from_capacities([500, 400, 300], prefix="c"),
    }


class TestHierarchicalRedundantShare:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchicalRedundantShare(
                {"only": bins_from_capacities([5, 5])}, copies=2
            )
        with pytest.raises(ConfigurationError):
            HierarchicalRedundantShare(
                {"a": [], "b": bins_from_capacities([5])}, copies=2
            )

    def test_copies_land_in_distinct_racks(self):
        strategy = HierarchicalRedundantShare(make_racks(), copies=2)
        for address in range(3000):
            placement = strategy.place(address)
            racks = {strategy.rack_of(device) for device in placement}
            assert len(racks) == 2
            assert len(set(placement)) == 2

    def test_rack_failure_loses_at_most_one_copy(self):
        strategy = HierarchicalRedundantShare(make_racks(), copies=3)
        rack_a_devices = {spec.bin_id for spec in make_racks()["rack-a"]}
        for address in range(1500):
            placement = strategy.place(address)
            assert sum(1 for d in placement if d in rack_a_devices) <= 1

    def test_deterministic(self):
        strategy = HierarchicalRedundantShare(make_racks(), copies=2)
        assert strategy.place(9) == strategy.place(9)

    def test_device_fairness(self):
        strategy = HierarchicalRedundantShare(make_racks(), copies=2)
        expected = strategy.expected_shares()
        assert sum(expected.values()) == pytest.approx(1.0)
        counts = collections.Counter()
        balls = 40_000
        for address in range(balls):
            counts.update(strategy.place(address))
        for device, share in expected.items():
            assert counts[device] / (2 * balls) == pytest.approx(
                share, abs=0.012
            ), device

    def test_composed_shares_match_flat_targets_when_unclipped(self):
        # Balanced racks: hierarchical shares equal flat k*b_d/B scaled
        # to sum 1, i.e. b_d / B.
        racks = {
            "r1": bins_from_capacities([600, 400], prefix="r1"),
            "r2": bins_from_capacities([500, 500], prefix="r2"),
            "r3": bins_from_capacities([700, 300], prefix="r3"),
        }
        strategy = HierarchicalRedundantShare(racks, copies=2)
        total = 3000
        for device, share in strategy.expected_shares().items():
            capacity = next(
                spec.capacity
                for devices in racks.values()
                for spec in devices
                if spec.bin_id == device
            )
            assert share == pytest.approx(capacity / total, abs=1e-9)


class TestChooseleafCrush:
    def test_distinct_racks(self):
        strategy = ChooseleafCrush(make_racks(), copies=3)
        for address in range(2000):
            placement = strategy.place(address)
            racks = {strategy.rack_of(device) for device in placement}
            assert len(racks) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChooseleafCrush({"only": bins_from_capacities([5, 5])}, copies=2)
        with pytest.raises(ConfigurationError):
            ChooseleafCrush({"a": [], "b": bins_from_capacities([5])}, copies=2)

    def test_deterministic(self):
        strategy = ChooseleafCrush(make_racks(), copies=2)
        assert strategy.place(4) == strategy.place(4)
