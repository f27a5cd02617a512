"""WeightedStripingStrategy batch engine: NumPy vs scalar vs pure-Python.

The stripe-table engine reduces every address to its start slot
``(a · k) mod L`` and gathers a precomputed start → ranks table, so the
equivalence here is *exact integer arithmetic* — no tie guard involved.
The delicate part is the modular reduction: it must match Python's
big-int semantics for negative addresses and for magnitudes beyond
int64, which the hypothesis ranges below force.  Also covers the start
table (built on the first batch call, owned by the instance) and the
degenerate-pattern error path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY
from repro.exceptions import ConfigurationError
from repro.placement.striping import WeightedStripingStrategy
from repro.types import bins_from_capacities

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=4, max_size=12
)
replication_degrees = st.integers(min_value=2, max_value=4)
resolutions = st.integers(min_value=1, max_value=16)
address_lists = st.lists(
    st.integers(min_value=-(2**127), max_value=2**127),
    min_size=0,
    max_size=64,
)


def scalar_rows(strategy, addresses):
    return [strategy.place(address) for address in addresses]


class TestBatchEquivalence:
    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        resolution=resolutions,
        addresses=address_lists,
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar(
        self, capacities, copies, resolution, addresses
    ):
        strategy = WeightedStripingStrategy(
            bins_from_capacities(capacities), copies=copies,
            resolution=resolution,
        )
        # A coarse pattern may lack k distinct disks; then the scalar
        # loop raises for every address and the batch must do the same.
        try:
            expected = scalar_rows(strategy, addresses)
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                strategy.place_many(addresses)
            return
        batch = strategy.place_many(addresses)
        assert [tuple(row) for row in batch.tuples()] == expected

    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        addresses=address_lists,
    )
    @settings(max_examples=25, deadline=None)
    def test_numpy_leg_matches_pure_python_leg(
        self, capacities, copies, addresses
    ):
        bins = bins_from_capacities(capacities)

        def run_leg():
            strategy = WeightedStripingStrategy(bins, copies=copies)
            # Extreme skew can starve small disks out of the pattern so
            # placement legitimately raises (see the degenerate-pattern
            # tests below); the legs must agree on that outcome too.
            try:
                return [
                    tuple(row)
                    for row in strategy.place_many(addresses).tuples()
                ]
            except ConfigurationError:
                return "pattern lacks k distinct disks"

        numpy_rows = run_leg()
        saved = compat.np
        compat.np = None
        try:
            pure_rows = run_leg()
        finally:
            compat.np = saved
        assert numpy_rows == pure_rows

    @pytest.mark.skipif(not HAVE_NUMPY, reason="array inputs need NumPy")
    def test_numpy_array_addresses_match_scalar(self):
        np = compat.get_numpy()
        strategy = WeightedStripingStrategy(
            bins_from_capacities([9, 7, 5, 3]), copies=3
        )
        unsigned = np.array([0, 1, 2**64 - 1, 2**63], dtype=np.uint64)
        assert [tuple(row) for row in strategy.place_many(unsigned)] == [
            strategy.place(int(value)) for value in unsigned
        ]
        signed = np.array([-1, -(2**63), 5, 2**62], dtype=np.int64)
        assert [tuple(row) for row in strategy.place_many(signed)] == [
            strategy.place(int(value)) for value in signed
        ]

    def test_single_device_cluster(self):
        strategy = WeightedStripingStrategy(bins_from_capacities([7]), copies=1)
        addresses = [0, 1, -3, 2**63]
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_copies_equal_device_count(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([5, 4, 3, 2]), copies=4
        )
        addresses = list(range(-20, 300))
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_empty_batch(self):
        strategy = WeightedStripingStrategy(
            bins_from_capacities([5, 3, 2]), copies=2
        )
        assert list(strategy.place_many([])) == []

    def test_empty_batch_skips_degenerate_pattern_error(self):
        # Extreme skew at resolution 1: the tiny disks never win a slot,
        # so any *placement* raises — but an empty batch places nothing,
        # exactly like the scalar loop.
        strategy = WeightedStripingStrategy(
            bins_from_capacities([10_000, 1, 1, 1]), copies=3, resolution=1
        )
        assert list(strategy.place_many([])) == []
        with pytest.raises(ConfigurationError):
            strategy.place(0)
        with pytest.raises(ConfigurationError):
            strategy.place_many([0])
        with pytest.raises(ConfigurationError):
            strategy.expected_shares()


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector engine needs NumPy")
def test_vector_engine_is_used_not_generic_loop(monkeypatch):
    strategy = WeightedStripingStrategy(
        bins_from_capacities([90, 70, 50, 30, 20]), copies=3
    )
    calls = []
    original = WeightedStripingStrategy.place

    def counting_place(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(WeightedStripingStrategy, "place", counting_place)
    count = 5_000
    strategy.place_many(range(count))
    assert len(calls) < count, (
        "place_many consulted the scalar loop for every address — the "
        "vectorized engine is not running"
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="engine state needs NumPy")
class TestStartTableBundle:
    BINS = bins_from_capacities([120, 80, 200, 40, 160, 90])

    def build(self, **overrides):
        options = dict(copies=3)
        options.update(overrides)
        return WeightedStripingStrategy(self.BINS, **options)

    def test_lazy_until_first_batch(self):
        strategy = self.build()
        assert strategy._table is None
        strategy.place_many(range(32))
        assert strategy._table is not None

    def test_instances_share_no_state(self):
        warm, cold = self.build(), self.build()
        warm.place_many(range(64))
        assert cold._table is None
        for strategy in (warm, cold):
            assert strategy.place_many(range(64)).tuples() == [
                strategy.place(address) for address in range(64)
            ]
