"""SequentialChecking: epochs, exact zero movement, batch equivalence.

The method's whole value proposition is the *exact* guarantee: adding a
device generation appends epochs without touching any earlier one, so
every address below the old capacity limit keeps its placement bit for
bit.  The tests here assert that as set equality over full address
populations — no tolerance — plus the watermark table construction, the
overflow policies, and the scalar/vectorized/pure-Python equivalence the
rest of the zoo already pins.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY
from repro.capacity import max_balls
from repro.core import SequentialChecking
from repro.exceptions import CapacityExceededError, ConfigurationError
from repro.metrics import compare_scale_out, compare_strategies
from repro.types import BinSpec, bins_from_capacities

BINS = bins_from_capacities([400, 300, 200, 100])

capacity_vectors = st.lists(
    st.integers(min_value=20, max_value=900), min_size=3, max_size=8
)
address_lists = st.lists(
    st.integers(min_value=0, max_value=2**70), min_size=1, max_size=48
)


class TestEpochTable:
    def test_watermarks_follow_the_addition_history(self):
        strategy = SequentialChecking(BINS, copies=2)
        spans = [
            (epoch.prefix, epoch.start, epoch.stop)
            for epoch in strategy.epochs
        ]
        # Prefix 1 cannot hold two distinct copies; each later prefix's
        # stop is the Lemma 2.2 watermark of its first p capacities.
        assert spans == [(2, 0, 300), (3, 300, 450), (4, 450, 500)]
        assert strategy.capacity_limit == 500

    def test_epoch_weights_favour_the_new_device(self):
        strategy = SequentialChecking(BINS, copies=2)
        second = strategy.epochs[1]  # d2 (cap 200) just arrived
        weights = dict(zip(("bin-0", "bin-1", "bin-2"), second.weights))
        assert weights["bin-2"] == max(weights.values())

    def test_generations_group_the_history(self):
        grouped = SequentialChecking(BINS, copies=2, generations=[2, 2])
        assert [epoch.prefix for epoch in grouped.epochs] == [2, 4]
        assert grouped.capacity_limit == 500

    def test_generations_must_sum_to_the_fleet(self):
        with pytest.raises(ConfigurationError, match="sum to"):
            SequentialChecking(BINS, copies=2, generations=[2, 3])
        with pytest.raises(ConfigurationError, match="positive"):
            SequentialChecking(BINS, copies=2, generations=[0, 4])

    def test_too_small_fleet_is_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct copies"):
            SequentialChecking(bins_from_capacities([5, 5]), copies=3)


class TestPlacementContract:
    def test_k_distinct_devices_within_the_owning_prefix(self):
        strategy = SequentialChecking(BINS, copies=2)
        for epoch in strategy.epochs:
            for address in (epoch.start, epoch.stop - 1):
                placement = strategy.place(address)
                assert len(placement) == 2
                assert len(set(placement)) == 2
                owners = {spec.bin_id for spec in BINS[: epoch.prefix]}
                assert set(placement) <= owners

    def test_wrap_folds_overflow_addresses_back(self):
        strategy = SequentialChecking(BINS, copies=2)
        limit = strategy.capacity_limit
        # Folding shares the epoch, not the draw: the full address still
        # salts the hash, so wrapped placements need not repeat.
        epoch_of = lambda a: strategy._epoch_for(a).prefix
        assert epoch_of(limit + 10) == epoch_of(10)

    def test_error_overflow_raises_scalar_and_batch(self):
        strategy = SequentialChecking(BINS, copies=2, overflow="error")
        limit = strategy.capacity_limit
        assert strategy.place(limit - 1)
        with pytest.raises(CapacityExceededError, match=str(limit)):
            strategy.place(limit)
        with pytest.raises(CapacityExceededError):
            strategy.place_many([0, 1, limit + 3])


class TestZeroMovement:
    def test_adding_a_device_moves_exactly_nothing(self):
        before = SequentialChecking(BINS, copies=2)
        after = SequentialChecking(
            list(BINS) + [BinSpec("bin-4", 250)], copies=2
        )
        population = range(before.capacity_limit)
        report = compare_strategies(before, after, population, ["bin-4"])
        assert report.moved_positional == 0
        assert report.moved_set == 0

    def test_registry_path_preserves_the_guarantee(self):
        before_bins = bins_from_capacities([400, 300, 200])
        after_bins = before_bins + [BinSpec("bin-3", 100), BinSpec("bin-4", 250)]
        report = compare_scale_out(
            "sequential-checking", before_bins, after_bins, range(400)
        )
        assert report.moved_set == 0

    @given(capacities=capacity_vectors, extra=st.integers(50, 900))
    @settings(max_examples=25, deadline=None)
    def test_zero_movement_holds_for_any_history(self, capacities, extra):
        bins = bins_from_capacities(capacities)
        before = SequentialChecking(bins, copies=2)
        after = SequentialChecking(
            list(bins) + [BinSpec("late", extra)], copies=2
        )
        population = range(min(before.capacity_limit, 400))
        assert compare_strategies(
            before, after, population, ["late"]
        ).moved_set == 0

    def test_epochs_are_append_only_under_scale_out(self):
        before = SequentialChecking(BINS, copies=2)
        after = SequentialChecking(
            list(BINS) + [BinSpec("bin-4", 250)], copies=2
        )
        assert after.epochs[: len(before.epochs)] == before.epochs


class TestBatchEquivalence:
    @given(capacities=capacity_vectors, addresses=address_lists)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(self, capacities, addresses):
        strategy = SequentialChecking(
            bins_from_capacities(capacities), copies=2
        )
        batch = strategy.place_many(addresses)
        assert batch.tuples() == [strategy.place(a) for a in addresses]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both legs")
    def test_pure_python_leg_is_bit_identical(self, monkeypatch):
        strategy = SequentialChecking(BINS, copies=3)
        addresses = list(range(0, 700, 7))
        vectorized = strategy.place_many(addresses).tuples()
        monkeypatch.setattr(compat, "np", None)
        fallback = strategy.place_many(addresses).tuples()
        assert fallback == vectorized

    def test_batch_covers_every_epoch(self):
        strategy = SequentialChecking(BINS, copies=2)
        addresses = list(range(strategy.capacity_limit))
        rows = strategy.place_many(addresses).tuples()
        assert len(rows) == len(addresses)
        # Last-epoch addresses may land on the newest device.
        tail = {bin_id for row in rows[450:] for bin_id in row}
        assert "bin-3" in tail


def test_capacity_limit_matches_lemma_2_2():
    strategy = SequentialChecking(BINS, copies=2)
    descending = sorted((spec.capacity for spec in BINS), reverse=True)
    assert strategy.capacity_limit == max_balls(descending, 2)
