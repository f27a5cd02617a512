"""Unit and property tests for alias / cumulative sampling tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.alias import AliasTable, CumulativeTable, build_selector
from repro.hashing.primitives import unit_interval


WEIGHTS = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=20,
).filter(lambda values: sum(values) > 0)


class TestAliasTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasTable([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])

    def test_rejects_out_of_range_draw(self):
        table = AliasTable([1.0, 1.0])
        with pytest.raises(ValueError):
            table.select(1.0)
        with pytest.raises(ValueError):
            table.select(-0.1)

    def test_single_outcome(self):
        table = AliasTable([3.0])
        assert table.select(0.0) == 0
        assert table.select(0.999) == 0

    def test_zero_weight_outcome_never_selected(self):
        table = AliasTable([1.0, 0.0, 1.0])
        for i in range(2000):
            assert table.select(unit_interval("z", i)) != 1

    @given(WEIGHTS)
    @settings(max_examples=50, deadline=None)
    def test_probabilities_reconstruct_weights(self, weights):
        table = AliasTable(weights)
        probs = table.probabilities()
        total = sum(weights)
        for weight, prob in zip(weights, probs):
            assert abs(prob - weight / total) < 1e-9

    def test_empirical_frequencies_match(self):
        weights = [5.0, 3.0, 2.0]
        table = AliasTable(weights)
        counts = [0, 0, 0]
        n = 30000
        for i in range(n):
            counts[table.select(unit_interval("freq", i))] += 1
        for weight, count in zip(weights, counts):
            assert abs(count / n - weight / 10.0) < 0.02


class TestCumulativeTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CumulativeTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CumulativeTable([-1.0, 2.0])

    def test_boundaries(self):
        table = CumulativeTable([1.0, 1.0])
        assert table.select(0.0) == 0
        assert table.select(0.49999) == 0
        assert table.select(0.5) == 1
        assert table.select(0.99999) == 1

    def test_rejects_out_of_range_draw(self):
        table = CumulativeTable([1.0])
        with pytest.raises(ValueError):
            table.select(1.0)

    @given(WEIGHTS, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_alias_in_distribution(self, weights, seed):
        """Alias and cumulative tables encode the same distribution."""
        alias = AliasTable(weights)
        probs = alias.probabilities()
        total = sum(weights)
        for index, weight in enumerate(weights):
            assert abs(probs[index] - weight / total) < 1e-9


class TestBuildSelector:
    def test_single_positive_weight_is_constant(self):
        selector = build_selector([0.0, 4.0, 0.0])
        for i in range(100):
            assert selector.select(unit_interval("c", i)) == 1

    def test_default_is_alias(self):
        selector = build_selector([1.0, 2.0])
        assert isinstance(selector, AliasTable)
