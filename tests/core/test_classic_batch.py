"""ClassicLinMirror batch engine: ``place_many`` vs the literal Algorithm 2.

The engine (rank-major primary scan, one rendezvous race per primary
rank) must equal ``[place(a) for a in addresses]`` row for row on every
shape of the boundary: a real ``b̃`` boost, an infinite one, no boost,
the boundary at rank 0, forced secondaries.  Nothing here depends on the
leg, so the file runs unchanged under ``REPRO_PURE_PYTHON=1`` (where
``place_many`` *is* the scalar loop).
"""

import random

import pytest

from repro._compat import HAVE_NUMPY
from repro.core import ClassicLinMirror
from repro.hashing.primitives import derive_base
from repro.placement import kernels
from repro.types import bins_from_capacities, sort_bins_by_capacity

from ..splitmix_inverse import address_for_word

#: The 16-device fleet of ``benchmarks/e2e`` (``harness.CAPACITIES``).
BENCH_FLEET = list(range(500, 2001, 100))


def addresses_with_duplicates(count, seed=7):
    """Signed, huge and repeated addresses: a third of the batch is drawn
    from 64 hot keys."""
    rng = random.Random(seed)
    hot = [rng.randrange(-(2**63), 2**64) for _ in range(64)]
    return [
        rng.choice(hot) if rng.random() < 1 / 3
        else rng.randrange(-(2**63), 2**64)
        for _ in range(count)
    ]


def assert_batch_is_scalar_loop(strategy, addresses):
    batch = strategy.place_many(addresses)
    assert len(batch) == len(addresses)
    assert batch.tuples() == [strategy.place(int(a)) for a in addresses]


def test_bench_fleet_with_duplicates():
    strategy = ClassicLinMirror(
        bins_from_capacities(BENCH_FLEET, prefix="store")
    )
    assert strategy._has_engine
    assert 0 < strategy.boundary_index
    assert_batch_is_scalar_loop(strategy, addresses_with_duplicates(20_000))


@pytest.mark.parametrize(
    "capacities, boundary, boost",
    [
        ([5, 4, 3, 2], 2, pytest.approx(10 / 3)),
        # The paper's example: natural weight 4 boosted to 5 at the boundary.
        ([4, 4, 3], 1, pytest.approx(5.0)),
        # Every secondary of rank 1 must land on rank 2: a forced column
        # next to a real race for the primaries at rank 0.
        ([4, 4, 4, 1e-13, 1e-13], 2, float("inf")),
        # No rank ever draws: every primary is rank 0.
        ([2, 1, 1], 0, None),
        ([9, 2, 2, 2, 1], 0, None),
        # Two bins: both copies are forced.
        ([3, 3], 0, None),
    ],
)
def test_boundary_shapes(capacities, boundary, boost):
    strategy = ClassicLinMirror(bins_from_capacities(capacities))
    assert strategy.boundary_index == boundary
    assert strategy.boost == boost
    assert_batch_is_scalar_loop(strategy, addresses_with_duplicates(3_000))


@pytest.mark.parametrize("capacities", [BENCH_FLEET, [5, 4, 3, 2], [4, 4, 3]])
def test_without_the_boost(capacities):
    strategy = ClassicLinMirror(
        bins_from_capacities(capacities), apply_boost=False
    )
    assert strategy.boost is None
    assert_batch_is_scalar_loop(strategy, addresses_with_duplicates(3_000))


def test_rank_columns_index_bins_order():
    # Bins given smallest first: scan order (by capacity) is the reverse
    # of rank order, and the engine must translate between them.
    strategy = ClassicLinMirror(bins_from_capacities([1, 2, 3, 4, 5, 6]))
    assert strategy.rank_ids == [spec.bin_id for spec in strategy.bins]
    assert_batch_is_scalar_loop(strategy, range(-50, 2_000))


@pytest.mark.parametrize("addresses", [[0], [-1], [2**64 - 1], [12345]])
def test_one_address_batch(addresses):
    strategy = ClassicLinMirror(bins_from_capacities(BENCH_FLEET))
    assert_batch_is_scalar_loop(strategy, addresses)


def test_empty_batch():
    strategy = ClassicLinMirror(bins_from_capacities([5, 4, 3, 2]))
    assert strategy.place_many([]).tuples() == []


@pytest.mark.skipif(not HAVE_NUMPY, reason="array inputs need NumPy")
@pytest.mark.parametrize(
    "dtype, low, high",
    [("int64", -(2**63), 2**63), ("uint64", 0, 2**64)],
)
def test_array_inputs(dtype, low, high):
    import numpy

    rng = random.Random(3)
    values = [low, high - 1] + [rng.randrange(low, high) for _ in range(5_000)]
    strategy = ClassicLinMirror(bins_from_capacities(BENCH_FLEET))
    assert_batch_is_scalar_loop(strategy, numpy.asarray(values, dtype=dtype))


@pytest.mark.skipif(not HAVE_NUMPY, reason="the engine is NumPy-only")
def test_engine_runs_instead_of_the_loop(monkeypatch):
    strategy = ClassicLinMirror(bins_from_capacities(BENCH_FLEET))
    calls = []
    original = ClassicLinMirror.place
    monkeypatch.setattr(
        ClassicLinMirror,
        "place",
        lambda self, address: calls.append(address) or original(self, address),
    )
    strategy.place_many(range(5_000))
    assert len(calls) < 50, "place_many walked place() per address"


@pytest.mark.skipif(not HAVE_NUMPY, reason="thresholds need NumPy")
@pytest.mark.parametrize("capacities", [BENCH_FLEET, [5, 4, 3, 2], [4, 4, 3]])
def test_primary_scan_threshold_words(capacities):
    """Per scan rank before the boundary, addresses crafted to draw the
    words just below and at the rank's threshold (and the two extreme
    words): the batch places them as ``place`` does, and where the scan
    reaches the rank, ``T - 1`` stops it there and ``T`` does not."""
    strategy = ClassicLinMirror(bins_from_capacities(capacities))
    scan_ids = [spec.bin_id for spec in sort_bins_by_capacity(strategy.bins)]
    rounds = strategy._rounds[: strategy.boundary_index]
    crafted = []  # (address, scan rank, word is below the threshold)
    for rank, threshold in enumerate(kernels.word_thresholds(rounds)):
        base = derive_base(strategy.namespace, "primary", scan_ids[rank])
        for word in (int(threshold) - 1, int(threshold), 0, 2**64 - 1):
            crafted.append(
                (address_for_word(base, word), rank, word < threshold)
            )
    addresses = [address for address, _, _ in crafted]
    assert_batch_is_scalar_loop(strategy, addresses)
    reached = 0
    for address, rank, takes in crafted:
        primary = scan_ids.index(strategy.place(address)[0])
        if primary >= rank:
            reached += 1
            assert (primary == rank) == takes
    assert reached >= 4
