"""Unit tests for suffix sums and round probabilities."""

import pytest

from repro.capacity import weights


class TestSuffixSums:
    def test_simple(self):
        assert weights.suffix_sums([3, 2, 1]) == [6, 3, 1, 0]

    def test_empty(self):
        assert weights.suffix_sums([]) == [0.0]

    def test_single(self):
        assert weights.suffix_sums([5]) == [5, 0]


class TestSortedCheck:
    def test_descending_ok(self):
        assert weights.is_sorted_descending([5, 5, 3, 1])

    def test_ascending_not_ok(self):
        assert not weights.is_sorted_descending([1, 2])

    def test_empty_and_single_are_sorted(self):
        assert weights.is_sorted_descending([])
        assert weights.is_sorted_descending([7])


class TestRoundProbabilities:
    def test_paper_example_k2(self):
        # Bins [2, 1, 1]: č_0 = 2*2/4 = 1, so the big bin is always primary —
        # exactly the Figure 1 requirement the trivial strategy misses.
        probs = weights.round_probabilities([2, 1, 1], k=2)
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(1.0)
        assert probs[2] == pytest.approx(2.0)

    def test_last_round_equals_k(self):
        for k in (1, 2, 3, 5):
            probs = weights.round_probabilities([4, 3, 2, 2], k=k)
            assert probs[-1] == pytest.approx(k)

    def test_requires_descending(self):
        with pytest.raises(ValueError):
            weights.round_probabilities([1, 2], k=2)

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            weights.round_probabilities([2, 1], k=0)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            weights.round_probabilities([], k=2)


class TestReachProbabilities:
    def test_caps_at_one(self):
        reach = weights.reach_probabilities([0.5, 2.0, 0.5])
        assert reach == pytest.approx([1.0, 0.5, 0.0, 0.0])

    def test_monotone_nonincreasing(self):
        reach = weights.reach_probabilities([0.1, 0.2, 0.3])
        assert all(a >= b for a, b in zip(reach, reach[1:]))


class TestFirstSaturatedIndex:
    def test_finds_stop(self):
        probs = [0.4, 0.9, 1.0, 2.0]
        assert weights.first_saturated_index(probs) == 2

    def test_no_stop_raises(self):
        with pytest.raises(ValueError):
            weights.first_saturated_index([0.1, 0.2])
