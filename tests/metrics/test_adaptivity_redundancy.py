"""Tests for the adaptivity and redundancy metrics."""

import pytest

from repro.core import RedundantShare
from repro.metrics import compare_strategies, count_violations
from repro.types import BinSpec, bins_from_capacities


def make(capacities, copies=2):
    return RedundantShare(bins_from_capacities(capacities), copies=copies)


class TestCompareStrategies:
    def test_identical_strategies_move_nothing(self):
        before = make([5, 4, 3])
        after = make([5, 4, 3])
        report = compare_strategies(before, after, range(500), [])
        assert report.moved_positional == 0
        assert report.moved_set == 0

    def test_mismatched_copies_rejected(self):
        with pytest.raises(ValueError):
            compare_strategies(
                make([5, 4, 3], 2), make([5, 4, 3], 1), range(10), []
            )

    def test_addition_counts_usage_in_after(self):
        bins = bins_from_capacities([1000] * 4)
        before = RedundantShare(bins, copies=2)
        after = RedundantShare(bins + [BinSpec("bin-new", 1000)], copies=2)
        report = compare_strategies(before, after, range(2000), ["bin-new"])
        # New bin deserves 1/5 of all copies.
        assert report.used_on_affected / (2000 * 2) == pytest.approx(0.2, abs=0.03)
        assert report.moved_positional >= report.used_on_affected
        assert report.moved_set <= report.moved_positional

    def test_removal_counts_usage_in_before(self):
        bins = bins_from_capacities([1000] * 4)
        before = RedundantShare(bins, copies=2)
        after = RedundantShare(bins[:3], copies=2)
        report = compare_strategies(before, after, range(2000), ["bin-3"])
        assert report.used_on_affected > 0
        assert report.factor_positional >= 1.0

    def test_factor_zero_when_unaffected(self):
        before = make([5, 4, 3])
        report = compare_strategies(before, before, range(100), ["ghost"])
        assert report.factor_positional == 0.0
        assert report.factor_set == 0.0

    def test_optimal_bound(self):
        # The optimum any strategy must move is every copy the added bin
        # ends up holding, and nothing else.
        before = make([5, 4, 3])
        after = RedundantShare(
            bins_from_capacities([5, 4, 3]) + [BinSpec("bin-new", 4)], copies=2
        )
        report = compare_strategies(before, after, range(300), ["bin-new"])
        placed = after.place_many(range(300)).counts()["bin-new"]
        assert report.used_on_affected == placed > 0
        assert report.moved_set >= report.used_on_affected


class TestRedundancyMetrics:
    def test_no_violations_for_redundant_share(self):
        strategy = make([9, 7, 5, 3], copies=3)
        assert count_violations(strategy, range(1000)) == 0
