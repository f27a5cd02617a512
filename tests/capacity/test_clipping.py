"""Tests for Lemma 2.1 / Lemma 2.2 / Algorithm 1 (capacity clipping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import clipping
from repro.exceptions import ConfigurationError


CAPACITY_VECTORS = st.lists(
    st.integers(min_value=1, max_value=10_000), min_size=2, max_size=12
).map(lambda values: sorted(values, reverse=True))


class TestLemma21:
    def test_balanced_system_is_efficient(self):
        assert clipping.is_capacity_efficient([4, 4, 4], k=2)

    def test_paper_figure1_system_is_efficient(self):
        # [2, 1, 1] with k=2: 2*2 <= 4, exactly on the boundary.
        assert clipping.is_capacity_efficient([2, 1, 1], k=2)

    def test_oversized_bin_is_not(self):
        assert not clipping.is_capacity_efficient([10, 1, 1], k=2)

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            clipping.is_capacity_efficient([1, 2], k=2)  # not descending
        with pytest.raises(ConfigurationError):
            clipping.is_capacity_efficient([2], k=2)  # fewer bins than k
        with pytest.raises(ConfigurationError):
            clipping.is_capacity_efficient([2, 0], k=2)  # non-positive
        with pytest.raises(ConfigurationError):
            clipping.is_capacity_efficient([2, 1], k=0)


class TestWaterFill:
    def test_efficient_system_uses_b_over_k(self):
        assert clipping.water_fill_limit([4, 4, 4], k=2) == pytest.approx(6.0)

    def test_oversized_bin_binds(self):
        # [10, 6, 1], k=2: m* = 7 (bin 0 clipped to 7).
        assert clipping.water_fill_limit([10, 6, 1], k=2) == pytest.approx(7.0)

    def test_tie_heavy_vector(self):
        # [100, 2, 2, 2], k=3: m* = 3 — a regression test for segment
        # scanning with repeated capacities.
        assert clipping.water_fill_limit([100, 2, 2, 2], k=3) == pytest.approx(3.0)

    def test_n_equals_k_limits_to_smallest(self):
        assert clipping.water_fill_limit([5, 4, 2], k=3) == pytest.approx(2.0)

    def test_max_balls_integer(self):
        assert clipping.max_balls([10, 6, 1], k=2) == 7
        assert clipping.max_balls([100, 2, 2, 2], k=3) == 3

    @given(CAPACITY_VECTORS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_water_fill_is_the_exact_maximum(self, capacities, k):
        """m* satisfies the constraint; m*+1 does not (integer check)."""
        if len(capacities) < k:
            return
        m = clipping.max_balls(capacities, k)
        assert sum(min(b, m) for b in capacities) >= k * m
        assert sum(min(b, m + 1) for b in capacities) < k * (m + 1)


class TestOptimalWeights:
    def test_no_clipping_when_efficient(self):
        capacities = [4, 4, 3]
        assert clipping.optimal_weights(capacities, k=2) == [4.0, 4.0, 3.0]

    def test_single_clip(self):
        assert clipping.optimal_weights([10, 6, 1], k=2) == [7.0, 6.0, 1.0]

    def test_nested_clip(self):
        # k=3, [100, 100, 1, 1]: inner recursion clips bin 1 to 2, then bin 0
        # to (2+1+1)/2 = 2.
        assert clipping.optimal_weights([100, 100, 1, 1], k=3) == [2.0, 2.0, 1.0, 1.0]

    def test_k1_never_clips(self):
        assert clipping.optimal_weights([100, 1], k=1) == [100.0, 1.0]

    def test_result_stays_descending(self):
        result = clipping.optimal_weights([50, 20, 5, 5, 1], k=4)
        assert all(a >= b - 1e-9 for a, b in zip(result, result[1:]))

    @given(CAPACITY_VECTORS, st.integers(min_value=2, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_water_filling(self, capacities, k):
        """Algorithm 1 and the water-fill fixed point produce the same b̂."""
        if len(capacities) < k:
            return
        recursive = clipping.optimal_weights(capacities, k)
        filled = clipping.clip_capacities(capacities, k)
        for a, b in zip(recursive, filled):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-6)

    @given(CAPACITY_VECTORS, st.integers(min_value=2, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_clipped_vector_is_feasible(self, capacities, k):
        """After clipping, Lemma 2.1's condition holds."""
        if len(capacities) < k:
            return
        clipped = clipping.optimal_weights(capacities, k)
        assert k * clipped[0] <= sum(clipped) + 1e-6


class TestClippedShares:
    def test_shares_sum_to_one(self):
        shares = clipping.clipped_shares([10, 6, 1], k=2)
        assert sum(shares) == pytest.approx(1.0)

    def test_efficient_system_keeps_raw_shares(self):
        shares = clipping.clipped_shares([4, 4, 2], k=2)
        assert shares == pytest.approx([0.4, 0.4, 0.2])

    def test_oversized_bin_share_is_capped_at_1_over_k(self):
        shares = clipping.clipped_shares([1000, 6, 1], k=2)
        assert shares[0] == pytest.approx(0.5)


class TestWastedCapacity:
    """What clipping discards: the capacity redundancy makes unusable."""

    def test_no_waste_when_efficient(self):
        assert sum(clipping.clip_capacities([4, 4, 4], k=2)) == 12.0

    def test_waste_of_oversized_bin(self):
        lost = 17.0 - sum(clipping.clip_capacities([10, 6, 1], k=2))
        assert lost == pytest.approx(3.0)
