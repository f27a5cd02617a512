"""CrushStrategy batch engine: NumPy vs scalar vs pure-Python.

The straw2-descent engine batches the per-replica straw races and
re-draws only the collision tail per retry attempt; it must reproduce
the scalar ``choose firstn`` walk exactly — including the
:class:`PlacementError` when an address exhausts its retries, which
heavily skewed small pools genuinely hit.  Also covers the engine
state: built on the first batch call, owned by the instance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY
from repro.exceptions import PlacementError
from repro.placement.crush import CrushStrategy
from repro.types import bins_from_capacities

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=4, max_size=12
)
replication_degrees = st.integers(min_value=2, max_value=4)
namespaces = st.sampled_from(["", "ns-a", "tenant/7"])
address_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=0,
    max_size=64,
)


def scalar_rows(strategy, addresses):
    return [strategy.place(address) for address in addresses]


def assert_batch_matches_scalar(strategy, addresses):
    """Batch equals the scalar loop — results and exhaustion errors."""
    try:
        expected = scalar_rows(strategy, addresses)
    except PlacementError:
        with pytest.raises(PlacementError):
            strategy.place_many(addresses)
        return
    batch = strategy.place_many(addresses)
    assert [tuple(row) for row in batch.tuples()] == expected


class TestBatchEquivalence:
    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        namespace=namespaces,
        addresses=address_lists,
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar(
        self, capacities, copies, namespace, addresses
    ):
        strategy = CrushStrategy(
            bins_from_capacities(capacities), copies=copies,
            namespace=namespace,
        )
        assert_batch_matches_scalar(strategy, addresses)

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
            strategy = CrushStrategy(bins, copies=copies)
            try:
                rows = strategy.place_many(addresses).tuples()
            except PlacementError:
                return "exhausted"
            return [tuple(row) for row in rows]

        numpy_rows = run_leg()
        saved = compat.np
        compat.np = None
        try:
            pure_rows = run_leg()
        finally:
            compat.np = saved
        assert numpy_rows == pure_rows

    def test_collision_tail_with_copies_equal_device_count(self):
        # k == n forces retries on nearly every address; a skewed pool
        # also makes genuine exhaustion reachable, which must surface as
        # the scalar loop's PlacementError for exactly those addresses.
        strategy = CrushStrategy(bins_from_capacities([9, 7, 5, 3]), copies=4)
        placeable = []
        for address in range(2_000):
            try:
                strategy.place(address)
                placeable.append(address)
            except PlacementError:
                pass
        batch = strategy.place_many(placeable)
        assert [tuple(row) for row in batch.tuples()] == scalar_rows(
            strategy, placeable
        )

    def test_exhaustion_raises_like_scalar(self):
        strategy = CrushStrategy(
            bins_from_capacities([10_000, 1, 1, 1]), copies=4
        )
        exhausted = None
        for address in range(5_000):
            try:
                strategy.place(address)
            except PlacementError:
                exhausted = address
                break
        assert exhausted is not None, "expected an exhausting address"
        with pytest.raises(PlacementError, match=f"ball {exhausted} "):
            strategy.place_many([exhausted])

    def test_single_device_cluster(self):
        strategy = CrushStrategy(bins_from_capacities([7]), copies=1)
        addresses = [0, 1, -3, 2**63]
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_empty_batch(self):
        strategy = CrushStrategy(bins_from_capacities([5, 3, 2]), copies=2)
        assert list(strategy.place_many([])) == []


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector engine needs NumPy")
def test_vector_engine_is_used_not_generic_loop(monkeypatch):
    strategy = CrushStrategy(
        bins_from_capacities([90, 70, 50, 30, 20]), copies=3
    )
    calls = []
    original = CrushStrategy.place

    def counting_place(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(CrushStrategy, "place", counting_place)
    count = 5_000
    strategy.place_many(range(count))
    assert len(calls) < count, (
        "place_many consulted the scalar loop for every address — the "
        "vectorized engine is not running"
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="engine state needs NumPy")
class TestStrawBundle:
    BINS = bins_from_capacities([120, 80, 200, 40, 160, 90])

    def build(self, **overrides):
        options = dict(copies=3)
        options.update(overrides)
        return CrushStrategy(self.BINS, **options)

    def test_lazy_until_first_batch(self):
        strategy = self.build()
        assert strategy._vector is None
        strategy.place_many(range(32))
        assert strategy._vector is not None

    def test_instances_share_no_state(self):
        warm, cold = self.build(), self.build()
        warm.place_many(range(64))
        assert cold._vector is None
        for strategy in (warm, cold):
            assert strategy.place_many(range(64)).tuples() == [
                strategy.place(address) for address in range(64)
            ]
