"""Batch placement equivalence: ``place_many`` vs the scalar loop.

The vectorized pipeline (and its pure-Python fallback) must agree
element-wise with ``[place(a) for a in addresses]`` for every strategy,
across random capacity vectors, replication degrees and namespaces.
"""

import collections
import math
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro import obs
from repro.core import (
    BalancedRendezvous,
    ClassicLinMirror,
    FastRedundantShare,
    LinMirror,
    RedundantShare,
    SequentialChecking,
)
from repro.exceptions import ConfigurationError, PlacementError
from repro.placement import (
    BatchPlacement,
    CrushStrategy,
    ResidualPerformancePlacement,
    TrivialReplication,
    WeightedStripingStrategy,
    kernels,
)
from repro.placement.registry import create, strategy_names
from repro.types import bins_from_capacities

try:  # array inputs are accepted on both legs, whenever NumPy is importable
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

REPLICATED_FACTORIES = {
    "redundant-share": lambda bins, copies, ns: RedundantShare(
        bins, copies=copies, namespace=ns
    ),
    "lin-mirror": lambda bins, copies, ns: LinMirror(bins, namespace=ns),
    "fast-redundant-share": lambda bins, copies, ns: FastRedundantShare(
        bins, copies=copies, namespace=ns
    ),
    "trivial": lambda bins, copies, ns: TrivialReplication(
        bins, copies=copies, namespace=ns
    ),
    "crush": lambda bins, copies, ns: CrushStrategy(
        bins, copies=copies, namespace=ns
    ),
    "classic-lin-mirror": lambda bins, copies, ns: ClassicLinMirror(
        bins, namespace=ns
    ),
    "weighted-striping": lambda bins, copies, ns: WeightedStripingStrategy(
        bins, copies=copies, namespace=ns
    ),
    "balanced-rendezvous": lambda bins, copies, ns: BalancedRendezvous(
        bins, copies=copies, namespace=ns
    ),
    "sequential-checking": lambda bins, copies, ns: SequentialChecking(
        bins, copies=copies, namespace=ns
    ),
    "rpdp": lambda bins, copies, ns: ResidualPerformancePlacement(
        bins, copies=copies, namespace=ns
    ),
}

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=5, max_size=12
)
replication_degrees = st.integers(min_value=2, max_value=4)
namespaces = st.sampled_from(["", "ns-a", "tenant/7"])
address_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=1,
    max_size=64,
)


def scalar_rows(strategy, addresses):
    return [tuple(strategy.place(address)) for address in addresses]


def input_forms(addresses):
    """The same batch through every ingestion branch: a list, a tuple, a
    ``range``, an ``array('Q')`` of the non-negative values, a list that
    no int64 column holds (the exact fallback) and — where the values
    fit — ``int64`` / ``uint64`` arrays."""
    start = addresses[0] % 2**32
    forms = [
        addresses,
        tuple(addresses),
        range(start, start + 9),
        array("Q", [a for a in addresses if a >= 0] or [2**64 - 1]),
        [-1, 2**63, 5],
    ]
    if numpy is not None:
        forms.append(
            numpy.asarray(
                [a for a in addresses if -(2**63) <= a < 2**63] or [-1],
                dtype=numpy.int64,
            )
        )
        forms.append(
            numpy.asarray(
                [a for a in addresses if a >= 0] or [2**64 - 1],
                dtype=numpy.uint64,
            )
        )
    return forms


def test_factory_table_covers_the_registry():
    assert sorted(REPLICATED_FACTORIES) == sorted(strategy_names())


@pytest.mark.parametrize("name", sorted(REPLICATED_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(
    capacities=capacities_vectors,
    copies=replication_degrees,
    namespace=namespaces,
    addresses=address_lists,
)
def test_place_many_matches_scalar_loop(
    name, capacities, copies, namespace, addresses
):
    forms = input_forms(addresses)
    try:
        strategy = REPLICATED_FACTORIES[name](
            bins_from_capacities(capacities), copies, namespace
        )
        expected = [
            scalar_rows(strategy, [int(a) for a in form]) for form in forms
        ]
    except (PlacementError, ConfigurationError):
        # CRUSH's bounded retry can fail on pathological weight vectors,
        # a striping pattern can lack k distinct disks, a fleet can be
        # too small for one ball; those are properties of the strategy,
        # not of the batch engine.
        assume(False)
    for form, rows in zip(forms, expected):
        batch = strategy.place_many(form)
        assert len(batch) == len(form)
        assert [tuple(row) for row in batch.tuples()] == rows


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="the guard is NumPy-only")
@pytest.mark.parametrize(
    "name",
    [
        "trivial",
        "rpdp",
        "crush",
        "balanced-rendezvous",
        "sequential-checking",
        "classic-lin-mirror",
    ],
)
def test_refused_rows_are_settled_by_the_scalar_loop(name, monkeypatch):
    """With an infinite guard every race is "too close to call": the
    engine refuses every row, the driver must re-derive each through
    ``place()``, and the batch must still equal the scalar loop."""
    monkeypatch.setattr(kernels, "TIE_GUARD", math.inf)
    strategy = create(
        name, bins_from_capacities([90, 70, 50, 30, 20, 10]), copies=3
    )
    addresses = list(range(-3, 200))
    with obs.capture():
        batch = strategy.place_many(addresses)
        counters = obs.metrics().snapshot()["counters"]
    obs.reset_metrics()
    assert batch.tuples() == scalar_rows(strategy, addresses)
    assert counters[
        f"placement.kernel.{strategy.kernel}.tie_recomputes"
    ] == len(addresses)


@settings(max_examples=25, deadline=None)
@given(
    capacities=capacities_vectors,
    copies=replication_degrees,
    addresses=address_lists,
)
def test_batch_counts_match_scalar_histogram(capacities, copies, addresses):
    strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
    expected = collections.Counter(
        bin_id
        for address in addresses
        for bin_id in strategy.place(address)
    )
    assert strategy.place_many(addresses).counts() == dict(expected)


class TestPurePythonFallback:
    """The fallback path must agree exactly with the NumPy pipeline."""

    ADDRESSES = list(range(-7, 400)) + [2**63, 2**64 - 1]

    def fixed_strategies(self):
        bins = bins_from_capacities([100, 250, 60, 400, 90, 130, 310, 55])
        return [
            RedundantShare(bins, copies=3),
            LinMirror(bins),
            TrivialReplication(bins, copies=3),
        ]

    def test_fallback_matches_numpy_pipeline(self, monkeypatch):
        baseline = [
            [tuple(row) for row in s.place_many(self.ADDRESSES).tuples()]
            for s in self.fixed_strategies()
        ]
        monkeypatch.setattr(compat, "np", None)
        fallback = [
            [tuple(row) for row in s.place_many(self.ADDRESSES).tuples()]
            for s in self.fixed_strategies()
        ]
        assert fallback == baseline

    def test_fallback_matches_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(compat, "np", None)
        for strategy in self.fixed_strategies():
            batch = strategy.place_many(self.ADDRESSES)
            assert isinstance(batch, BatchPlacement)
            assert [tuple(row) for row in batch.tuples()] == scalar_rows(
                strategy, self.ADDRESSES
            )

    def test_fallback_counts(self, monkeypatch):
        monkeypatch.setattr(compat, "np", None)
        strategy = RedundantShare(
            bins_from_capacities([10, 20, 30, 40]), copies=2
        )
        batch = strategy.place_many(range(200))
        expected = collections.Counter(
            bin_id for row in batch.tuples() for bin_id in row
        )
        assert batch.counts() == dict(expected)


class TestBatchPlacementApi:
    def strategy(self):
        return RedundantShare(
            bins_from_capacities([120, 80, 200, 40, 160]), copies=3
        )

    def test_len_copies_and_iteration(self):
        batch = self.strategy().place_many(range(50))
        assert len(batch) == 50
        assert batch.copies == 3
        assert list(batch) == batch.tuples()

    def test_ids_at_position(self):
        strategy = self.strategy()
        batch = strategy.place_many(range(50))
        assert list(batch.ids_at(0)) == [
            strategy.place(address)[0] for address in range(50)
        ]
        assert list(batch.ids_at(2)) == [
            strategy.place(address)[2] for address in range(50)
        ]

    def test_empty_batch(self):
        batch = self.strategy().place_many([])
        assert len(batch) == 0
        assert batch.tuples() == []
        assert batch.counts() == {}
