"""Tests for the trivial replication baseline and Lemma 2.4 / Figure 1."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    ResidualPerformancePlacement,
    TrivialReplication,
    trivial_miss_probability,
    trivial_wasted_fraction,
)
from repro.placement.trivial import race_inclusion
from repro.types import bins_from_capacities

from ..oracles import assert_close, reference_inclusion


class TestMissProbability:
    def test_figure1_example(self):
        # [2, 1, 1], k=2: the big bin is missed with probability exactly 1/6.
        assert trivial_miss_probability([2, 1, 1], 2, 0) == pytest.approx(1 / 6)

    def test_small_bins_symmetric(self):
        first = trivial_miss_probability([2, 1, 1], 2, 1)
        second = trivial_miss_probability([2, 1, 1], 2, 2)
        assert first == pytest.approx(second)

    def test_k_equals_n_never_misses(self):
        assert trivial_miss_probability([2, 1, 1], 3, 0) == pytest.approx(0.0)

    def test_rejects_too_many_copies(self):
        with pytest.raises(ValueError):
            trivial_miss_probability([1, 1], 3, 0)

    @pytest.mark.parametrize("bin_index", [3, 99, -1])
    def test_rejects_a_bin_index_out_of_range(self, bin_index):
        with pytest.raises(ValueError, match="no bin"):
            trivial_miss_probability([2, 1, 1], 2, bin_index)


class TestWastedFraction:
    def test_figure1_waste_is_one_twelfth(self):
        assert trivial_wasted_fraction([2, 1, 1], 2) == pytest.approx(1 / 12)

    def test_homogeneous_wastes_nothing(self):
        assert trivial_wasted_fraction([5, 5, 5, 5], 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_waste_grows_with_skew(self):
        mild = trivial_wasted_fraction([3, 2, 2, 2], 2)
        strong = trivial_wasted_fraction([6, 2, 2, 2], 2)
        assert strong > mild


class TestTrivialStrategy:
    def test_redundancy_holds(self):
        strategy = TrivialReplication(bins_from_capacities([5, 4, 3, 2]), copies=3)
        for address in range(2000):
            placement = strategy.place(address)
            assert len(set(placement)) == 3

    def test_deterministic(self):
        strategy = TrivialReplication(bins_from_capacities([5, 4, 3]), copies=2)
        assert strategy.place(4) == strategy.place(4)

    def test_empirical_miss_matches_analytic(self):
        strategy = TrivialReplication(bins_from_capacities([2, 1, 1]), copies=2)
        balls = 30_000
        missed = sum(
            1 for address in range(balls) if "bin-0" not in strategy.place(address)
        )
        assert missed / balls == pytest.approx(1 / 6, abs=0.01)

    def test_expected_shares_match_empirical(self):
        strategy = TrivialReplication(bins_from_capacities([4, 2, 1, 1]), copies=2)
        shares = strategy.expected_shares()
        counts = collections.Counter()
        balls = 30_000
        for address in range(balls):
            for bin_id in strategy.place(address):
                counts[bin_id] += 1
        for bin_id, share in shares.items():
            assert counts[bin_id] / (2 * balls) == pytest.approx(share, abs=0.01)

    def test_big_bin_underloaded_vs_fair_target(self):
        """Lemma 2.4: the trivial strategy under-loads the biggest bin."""
        capacities = [4, 2, 1, 1]
        strategy = TrivialReplication(bins_from_capacities(capacities), copies=2)
        shares = strategy.expected_shares()
        fair = capacities[0] / sum(capacities)  # 0.5 == k*c/k with k=2
        assert shares["bin-0"] < fair

    def test_expected_shares_for_large_systems(self):
        for devices in (13, 40, 1000):
            bins = bins_from_capacities(
                [50 + (i * 7919) % 1000 for i in range(devices)]
            )
            for cls in (TrivialReplication, ResidualPerformancePlacement):
                shares = cls(bins, copies=3).expected_shares()
                assert len(shares) == devices
                assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


def races(spread):
    """``(weights, copies)``: 2 to 7 weights in ``[1, spread]`` and
    ``1 <= copies <= len(weights)``."""
    return st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1.0, spread), min_size=n, max_size=n),
            st.integers(1, n),
        )
    )


class TestRaceInclusion:
    """Definition 2.3's successive draws are the order in which
    exponential clocks fire, so :func:`race_inclusion` must equal the
    enumeration of every ordered draw sequence."""

    @given(race=races(1e4))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_enumeration(self, race):
        weights, copies = race
        assert_close(
            race_inclusion(weights, copies)[0],
            reference_inclusion(weights, copies),
            rel=1e-12,
        )

    @given(race=races(1e6))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_enumeration_at_wide_spreads(self, race):
        weights, copies = race
        assert_close(
            race_inclusion(weights, copies)[0],
            reference_inclusion(weights, copies),
            rel=1e-9,
        )
