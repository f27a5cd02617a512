"""Unit tests for the fairness metrics."""

import math

import pytest

from repro.metrics import fairness
from repro.placement.base import BatchPlacement
from repro.simulation import FairnessResult


class TestFillPercentages:
    def test_basic(self):
        fills = fairness.fill_percentages({"a": 5}, {"a": 10.0, "b": 20.0})
        assert fills["a"] == pytest.approx(50.0)
        assert fills["b"] == pytest.approx(0.0)

    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            fairness.fill_percentages({"a": 1}, {"a": 0.0})

    def test_spread(self):
        counts = {"a": 5, "b": 10}
        fills = fairness.fill_percentages(counts, {"a": 10.0, "b": 10.0})
        result = FairnessResult(label="step", fills=fills, copies_per_bin=counts)
        assert result.spread == pytest.approx(50.0)


class TestDeviation:
    def test_max_deviation(self):
        deviation = fairness.max_share_deviation(
            {"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5}
        )
        assert deviation == pytest.approx(0.1)

    def test_missing_keys_count(self):
        deviation = fairness.max_share_deviation({"a": 1.0}, {"b": 1.0})
        assert deviation == pytest.approx(1.0)


class TestChiSquare:
    def test_perfect_fit_is_zero(self):
        statistic = fairness.chi_square_statistic(
            {"a": 50, "b": 50}, {"a": 0.5, "b": 0.5}
        )
        assert statistic == pytest.approx(0.0)

    def test_impossible_bin_is_infinite(self):
        statistic = fairness.chi_square_statistic(
            {"a": 1, "b": 1}, {"a": 1.0, "b": 0.0}
        )
        assert math.isinf(statistic)

    def test_no_counts_raises(self):
        with pytest.raises(ValueError):
            fairness.chi_square_statistic({}, {"a": 1.0})


class TestCountCopies:
    def test_tallies(self):
        batch = BatchPlacement(["a", "b", "c"], [[0, 0], [1, 2]])
        assert batch.counts() == {"a": 2, "b": 1, "c": 1}

    def test_empty(self):
        assert BatchPlacement(["a", "b"], [[], []]).counts() == {}
