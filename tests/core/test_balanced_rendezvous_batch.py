"""BalancedRendezvous batch engine: NumPy vs scalar vs pure-Python.

The top-k race engine built on the shared kernels must be bit-identical
to the scalar sort-based :meth:`place` for any configuration — including
pinned (saturated) bins, all-pinned maps where no race runs at all, and
exact score ties (which the scalar sort breaks by bin id, so the tie
guard must defer them).  Also covers the engine state: built on the
first batch call, owned by the instance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY
from repro.core import balanced_rendezvous
from repro.core.balanced_rendezvous import BalancedRendezvous
from repro.types import bins_from_capacities

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=5, max_size=12
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


class TestBatchEquivalence:
    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        namespace=namespaces,
        addresses=address_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(
        self, capacities, copies, namespace, addresses
    ):
        strategy = BalancedRendezvous(
            bins_from_capacities(capacities), copies=copies, namespace=namespace
        )
        batch = strategy.place_many(addresses)
        assert [tuple(row) for row in batch.tuples()] == scalar_rows(
            strategy, addresses
        )

    @given(
        capacities=capacities_vectors,
        copies=replication_degrees,
        addresses=address_lists,
    )
    @settings(max_examples=20, deadline=None)
    def test_numpy_leg_matches_pure_python_leg(
        self, capacities, copies, addresses
    ):
        bins = bins_from_capacities(capacities)

        def run_leg():
            strategy = BalancedRendezvous(bins, copies=copies)
            return [
                tuple(row)
                for row in strategy.place_many(addresses).tuples()
            ]

        numpy_rows = run_leg()
        saved = compat.np
        compat.np = None
        try:
            pure_rows = run_leg()
        finally:
            compat.np = saved
        assert numpy_rows == pure_rows

    def test_all_pinned_has_no_race(self):
        # Two equal bins at k = 2 saturate both: every placement is the
        # constant pinned tuple and the engine races nothing.
        strategy = BalancedRendezvous(bins_from_capacities([10, 10]), copies=2)
        assert strategy._race_copies == 0
        addresses = list(range(-5, 50))
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_single_device_cluster(self):
        strategy = BalancedRendezvous(bins_from_capacities([7]), copies=1)
        addresses = [0, 1, -3, 2**63]
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_copies_equal_device_count(self):
        strategy = BalancedRendezvous(
            bins_from_capacities([5, 4, 3, 2]), copies=4
        )
        addresses = list(range(200))
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )

    def test_empty_batch(self):
        strategy = BalancedRendezvous(
            bins_from_capacities([5, 3, 2]), copies=2
        )
        assert list(strategy.place_many([])) == []

    def test_uncalibrated_ablation_matches_scalar(self, monkeypatch):
        """Raw target weights: the paper's trivial strategy."""
        monkeypatch.setattr(
            balanced_rendezvous, "fit_weights", lambda targets, copies: targets
        )
        strategy = BalancedRendezvous(
            bins_from_capacities([9, 5, 2, 1]), copies=2
        )
        addresses = list(range(500))
        assert [tuple(row) for row in strategy.place_many(addresses)] == (
            scalar_rows(strategy, addresses)
        )


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector engine needs NumPy")
def test_vector_engine_is_used_not_generic_loop(monkeypatch):
    strategy = BalancedRendezvous(
        bins_from_capacities([90, 70, 50, 30, 20]), copies=3
    )
    calls = []
    original = BalancedRendezvous.place

    def counting_place(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(BalancedRendezvous, "place", counting_place)
    count = 5_000
    strategy.place_many(range(count))
    assert len(calls) < count, (
        "place_many consulted the scalar loop for every address — the "
        "vectorized engine is not running"
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="engine state needs NumPy")
class TestRaceBundle:
    BINS = bins_from_capacities([120, 80, 200, 40, 160, 90])

    def build(self):
        return BalancedRendezvous(self.BINS, copies=3)

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
