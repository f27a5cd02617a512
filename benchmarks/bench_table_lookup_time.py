"""Time efficiency (Sections 3.1-3.3) — lookup latency measurements.

Paper claims: the scan strategies run in O(n) per redundancy group; the
Section 3.3 variant runs in O(k) using precomputed per-state distributions.
This bench measures single-lookup latency across system sizes for both, and
for the baselines at a fixed size, using real pytest-benchmark timing.

Expected shape: the scan variant's latency grows with n, the fast
variant's stays ~flat; baselines sit in between depending on their own
complexity.
"""

import pytest

from repro.core import FastRedundantShare, RedundantShare
from repro.placement import (
    ConsistentHashingPlacer,
    CrushStrategy,
    TrivialReplication,
    WeightedRendezvous,
)
from repro.types import bins_from_capacities

SIZES = (16, 64, 256, 1024)
COPIES = 3


def heterogeneous(count):
    return bins_from_capacities(
        [1000 + 37 * (index % 29) for index in range(count)]
    )


@pytest.mark.parametrize("size", SIZES)
def test_lookup_scan_redundant_share(benchmark, size):
    strategy = RedundantShare(heterogeneous(size), copies=COPIES)
    counter = iter(range(10**9))
    benchmark(lambda: strategy.place(next(counter)))
    benchmark.extra_info["bins"] = size


@pytest.mark.parametrize("size", SIZES)
def test_lookup_fast_redundant_share(benchmark, size):
    strategy = FastRedundantShare(heterogeneous(size), copies=COPIES)
    for address in range(512):
        strategy.place(address)  # warm the lazy state tables
    counter = iter(range(10**9))
    benchmark(lambda: strategy.place(next(counter)))
    benchmark.extra_info["bins"] = size
    benchmark.extra_info["states"] = strategy.state_count()


@pytest.mark.parametrize("size", SIZES)
def test_batch_lookup_scan_redundant_share(benchmark, size):
    """Throughput of the vectorized batch path across system sizes.

    Complements the single-lookup latency rows above: ``place_many``
    amortises the per-address Python overhead, so addresses/sec stays
    orders of magnitude above the scalar loop until the O(n) rank scan
    itself dominates.
    """
    strategy = RedundantShare(heterogeneous(size), copies=COPIES)
    addresses = list(range(20_000))
    strategy.place_many(addresses[:64])  # warm the lazy vector tables
    result = benchmark.pedantic(
        lambda: strategy.place_many(addresses), rounds=3, iterations=1
    )
    benchmark.extra_info["bins"] = size
    benchmark.extra_info["addresses"] = len(addresses)
    assert len(result) == len(addresses)


@pytest.mark.parametrize(
    "name",
    ["trivial", "crush", "consistent-hashing", "rendezvous"],
)
def test_lookup_baselines_at_64_bins(benchmark, name):
    bins = heterogeneous(64)
    ids = [spec.bin_id for spec in bins]
    capacities = [float(spec.capacity) for spec in bins]
    if name == "trivial":
        strategy = TrivialReplication(bins, copies=COPIES)
        call = strategy.place
    elif name == "crush":
        strategy = CrushStrategy(bins, copies=COPIES)
        call = strategy.place
    elif name == "consistent-hashing":
        placer = ConsistentHashingPlacer(bins)
        call = lambda address: placer.place_successors(address, COPIES)
    else:
        placer = WeightedRendezvous(ids, capacities, "rendezvous")
        call = lambda address: placer.top(address, COPIES)
    counter = iter(range(10**9))
    benchmark(lambda: call(next(counter)))


def test_fast_variant_latency_is_size_insensitive(benchmark):
    """The O(k) claim, asserted: 16x more bins must not cost ~16x time.

    Measured inside one test to compare apples to apples.
    """
    import time

    def mean_latency(strategy, rounds=4000):
        for address in range(256):
            strategy.place(address)
        start = time.perf_counter()
        for address in range(rounds):
            strategy.place(address)
        return (time.perf_counter() - start) / rounds

    small_scan = RedundantShare(heterogeneous(32), copies=COPIES)
    large_scan = RedundantShare(heterogeneous(512), copies=COPIES)
    small_fast = FastRedundantShare(heterogeneous(32), copies=COPIES)
    large_fast = FastRedundantShare(heterogeneous(512), copies=COPIES)

    def experiment():
        return {
            "scan_32": mean_latency(small_scan),
            "scan_512": mean_latency(large_scan),
            "fast_32": mean_latency(small_fast),
            "fast_512": mean_latency(large_fast),
        }

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    scan_growth = result["scan_512"] / result["scan_32"]
    fast_growth = result["fast_512"] / result["fast_32"]
    benchmark.extra_info.update(
        {key: round(value * 1e6, 2) for key, value in result.items()}
    )
    benchmark.extra_info["scan_growth_16x_bins"] = round(scan_growth, 2)
    benchmark.extra_info["fast_growth_16x_bins"] = round(fast_growth, 2)
    # O(n) scan: grows substantially with 16x bins.  O(k log n) fast
    # variant: grows far less.
    assert scan_growth > 4.0, result
    assert fast_growth < scan_growth / 2, result
