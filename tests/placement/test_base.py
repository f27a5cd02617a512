"""Tests for the placement-layer interfaces."""

import pytest

from repro.exceptions import ConfigurationError
from repro.placement.base import ReplicationStrategy, check_placement
from repro.types import bins_from_capacities


class RoundRobin(ReplicationStrategy):
    """Minimal concrete strategy for interface testing."""

    name = "round-robin"

    def place(self, address):
        count = len(self._bins)
        return tuple(
            self._bins[(address + offset) % count].bin_id
            for offset in range(self._copies)
        )

    def expected_shares(self):
        return {spec.bin_id: 1 / len(self._bins) for spec in self._bins}


class TestReplicationStrategyBase:
    def test_copies_bounds(self):
        with pytest.raises(ConfigurationError):
            RoundRobin(bins_from_capacities([1, 1]), copies=0)
        with pytest.raises(ConfigurationError):
            RoundRobin(bins_from_capacities([1, 1]), copies=3)

    def test_duplicate_bins_rejected(self):
        bins = bins_from_capacities([1, 1])
        with pytest.raises(ValueError):
            RoundRobin(bins + [bins[0]], copies=2)

    def test_place_copy_default_delegates(self):
        strategy = RoundRobin(bins_from_capacities([1, 1, 1]), copies=2)
        assert strategy.place_copy(4, 1) == strategy.place(4)[1]

    def test_place_copy_bad_position(self):
        strategy = RoundRobin(bins_from_capacities([1, 1]), copies=2)
        with pytest.raises(IndexError):
            strategy.place_copy(0, 5)

    def test_bins_returns_copy(self):
        strategy = RoundRobin(bins_from_capacities([1, 1]), copies=2)
        strategy.bins.clear()
        assert len(strategy.bins) == 2

    def test_expected_shares_is_abstract(self):
        class NoOracle(ReplicationStrategy):
            def place(self, address):
                return ()

        with pytest.raises(TypeError, match="expected_shares"):
            NoOracle(bins_from_capacities([1, 1]), copies=2)

    def test_describe(self):
        strategy = RoundRobin(bins_from_capacities([1, 1]), copies=2)
        assert "k=2" in strategy.describe()

    def test_namespace_default_is_name(self):
        strategy = RoundRobin(bins_from_capacities([1, 1]), copies=2)
        assert strategy.namespace == "round-robin"


class TestCheckPlacement:
    def test_valid(self):
        check_placement(("a", "b"), 2)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            check_placement(("a",), 2)

    def test_duplicate(self):
        with pytest.raises(ValueError):
            check_placement(("a", "a"), 2)
