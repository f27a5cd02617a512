"""TrivialReplication's vectorized batch engine must actually be faster.

Regression pin for the 0.91x slowdown the throughput table once showed:
``place_many`` used to fall through to the generic per-address loop even
with NumPy importable, paying batch-assembly overhead for zero vector
work.  Now the masked-rendezvous engine must beat the scalar loop on a
100k-address batch — the scalar side is rated on a subsample so the test
stays cheap.

Also pins the near-tie guard: addresses whose winning margin is below
``kernels.TIE_GUARD`` are re-derived by the scalar loop, keeping the batch
bit-identical even where NumPy's SIMD ``log`` differs from ``math.log``
by an ulp.
"""

import time

import pytest

from repro._compat import HAVE_NUMPY
from repro.placement import TrivialReplication
from repro.types import bins_from_capacities

BINS = bins_from_capacities(
    [100, 137, 174, 211, 248, 285, 322, 359, 396, 433, 470, 507]
)


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector engine needs NumPy")
def test_batch_beats_scalar_loop_at_100k():
    strategy = TrivialReplication(BINS, copies=3)
    population = list(range(100_000))
    sample = population[:10_000]

    strategy.place_many(population[:64])  # warm lazy state
    start = time.perf_counter()
    batch = strategy.place_many(population)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = [strategy.place(address) for address in sample]
    scalar_seconds = time.perf_counter() - start

    assert batch.tuples()[: len(sample)] == scalar

    batch_rate = len(population) / batch_seconds
    scalar_rate = len(sample) / scalar_seconds
    speedup = batch_rate / scalar_rate
    assert speedup > 1.0, (
        f"vectorized trivial engine is not faster than the scalar loop "
        f"({speedup:.2f}x; batch {batch_rate:,.0f}/s vs scalar "
        f"{scalar_rate:,.0f}/s)"
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector engine needs NumPy")
def test_vector_engine_is_used_not_generic_loop(monkeypatch):
    # If the vector engine runs, the scalar place() is never consulted for
    # clear-margin addresses; only near-ties fall back to it.  A batch
    # where place() is called for every address means the engine
    # regressed to the generic loop.
    strategy = TrivialReplication(BINS, copies=3)
    calls = []
    original = TrivialReplication.place

    def counting_place(self, address):
        calls.append(address)
        return original(self, address)

    monkeypatch.setattr(TrivialReplication, "place", counting_place)
    count = 5_000
    strategy.place_many(range(count))
    assert len(calls) < count, (
        "place_many consulted the scalar loop for every address — the "
        "vectorized engine is not running"
    )
