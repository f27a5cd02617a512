"""Unit tests for the fairness metrics."""

import math

import pytest

from repro.metrics import fairness


class TestFillPercentages:
    def test_basic(self):
        fills = fairness.fill_percentages({"a": 5}, {"a": 10.0, "b": 20.0})
        assert fills["a"] == pytest.approx(50.0)
        assert fills["b"] == pytest.approx(0.0)

    def test_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            fairness.fill_percentages({"a": 1}, {"a": 0.0})

    def test_spread(self):
        spread = fairness.max_fill_spread(
            {"a": 5, "b": 10}, {"a": 10.0, "b": 10.0}
        )
        assert spread == pytest.approx(50.0)


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


class TestJain:
    def test_equal_is_one(self):
        assert fairness.jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hot_spot(self):
        assert fairness.jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert fairness.jain_index([0.0, 0.0]) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fairness.jain_index([])


class TestGini:
    def test_even_is_zero(self):
        assert fairness.gini_coefficient([2.0, 2.0, 2.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_concentration_increases(self):
        even = fairness.gini_coefficient([1, 1, 1, 1])
        skewed = fairness.gini_coefficient([4, 0, 0, 0])
        assert skewed > even

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fairness.gini_coefficient([-1.0, 2.0])

    def test_all_zero_is_zero(self):
        assert fairness.gini_coefficient([0.0, 0.0]) == 0.0


class TestCountCopies:
    def test_tallies(self):
        counts = fairness.count_copies([("a", "b"), ("a", "c")])
        assert counts == {"a": 2, "b": 1, "c": 1}

    def test_empty(self):
        assert fairness.count_copies([]) == {}
