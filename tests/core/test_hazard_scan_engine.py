"""Deterministic pins of the rank-major hazard-scan batch engine.

The hypothesis suite in ``tests/placement/test_batch.py`` draws at most
64 addresses on 5-12 bins; these cases run 20 000 addresses (with
duplicates) through the shapes that stress the engine — the benchmark
fleet, a wide fleet, forced ranks, one copy, clipping — and count the
engine's work exactly, so a per-copy pass over the bins cannot creep
back unnoticed.  The engine has two paths, the rank scan and, for a
small batch, one dense pass over each copy's window of ranks: the
threshold pins and a property over random fleets run both against
``place``, and the window's edges have a case each.
"""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.core import LinMirror, RedundantShare, redundant_share
from repro.hashing.primitives import derive_base
from repro.placement import kernels
from repro.types import bins_from_capacities

from ..splitmix_inverse import address_for_word

try:  # array inputs are accepted on both legs, whenever NumPy is importable
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

BENCH_FLEET = list(range(500, 2001, 100))  # benchmarks/e2e: 16 devices
WIDE_FLEET = [1000 + index % 7 for index in range(200)]
OVERSIZED = [1000, 1, 1]  # clips to [2, 1, 1]: copy 0 is forced at rank 0
# Lemma 2.1 with equality (k * b_0 == B): clipping leaves the vector as it
# is, yet copy 0 is forced at rank 0 all the same.
BOUNDARY_K3 = [4, 2, 2, 2, 2]
BOUNDARY_K2 = [3, 1, 1, 1]

#: id -> (class, capacities, constructor keywords)
CASES = {
    "rs-bench-fleet-k3": (RedundantShare, BENCH_FLEET, {"copies": 3}),
    "rs-wide-fleet-k3": (RedundantShare, WIDE_FLEET, {"copies": 3}),
    "rs-k-equals-n": (RedundantShare, [50, 40, 30, 20, 10], {"copies": 5}),
    "rs-single-copy": (RedundantShare, BENCH_FLEET, {"copies": 1}),
    "rs-clipped": (RedundantShare, OVERSIZED, {"copies": 2}),
    "rs-unclipped": (RedundantShare, BOUNDARY_K3, {"copies": 3}),
    "lm-bench-fleet": (LinMirror, BENCH_FLEET, {}),
    "lm-wide-fleet": (LinMirror, WIDE_FLEET, {}),
    "lm-k-equals-n": (LinMirror, [30, 20], {}),
    "lm-clipped": (LinMirror, OVERSIZED, {}),
    "lm-unclipped": (LinMirror, BOUNDARY_K2, {}),
}


def build(case):
    cls, capacities, keywords = CASES[case]
    return cls(bins_from_capacities(capacities), **keywords)


def batch_addresses(count=20_000, distinct=2_500, seed=14):
    """``count`` draws from ``distinct`` addresses spread over the whole
    signed/unsigned 64-bit range, so the batch repeats addresses."""
    rng = random.Random(seed)
    pool = [rng.randrange(-(2**63), 2**64) for _ in range(distinct)]
    return [rng.choice(pool) for _ in range(count)]


def scalar_rows(strategy, addresses):
    memo = {}
    for address in addresses:
        if address not in memo:
            memo[address] = strategy.place(address)
    return [memo[address] for address in addresses]


def window_words(strategy):
    """The words the dense pass hashes per address: copy ``c`` can stand
    only at ranks ``c`` to ``n - k + c``, and the last of them, its
    deadline, takes every word unhashed."""
    copies, bins = strategy.copies, len(strategy.rank_ids)
    return copies * (bins - copies)


def dense_limit(strategy):
    """The largest batch ``place_many`` places in one dense pass."""
    return min(
        redundant_share._DENSE_PAIRS // strategy.copies,
        redundant_share._DENSE_WORDS // max(window_words(strategy), 1),
    )


def count_words(monkeypatch):
    """Record the size of every word-kernel call into a list."""
    calls = []
    words = kernels.words_from_premixed

    def counting(base, mixed, *args, **kwargs):
        calls.append(numpy.broadcast(numpy.asarray(base), mixed).size)
        return words(base, mixed, *args, **kwargs)

    monkeypatch.setattr(kernels, "words_from_premixed", counting)
    return calls


def engine_rows(strategy, addresses, path):
    """``place_many(addresses).tuples()`` through one engine path: cut
    into batches the dense pass takes, or padded past its limit so that
    the rank scan takes the whole batch."""
    limit = dense_limit(strategy)
    if path == "dense":
        return [
            row
            for start in range(0, len(addresses), limit)
            for row in strategy.place_many(
                addresses[start : start + limit]
            ).tuples()
        ]
    padding = batch_addresses(count=limit + 1)
    return strategy.place_many(addresses + padding).tuples()[: len(addresses)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_large_batch_equals_scalar_place(case):
    strategy = build(case)
    addresses = batch_addresses()
    expected = scalar_rows(strategy, addresses)
    batch = strategy.place_many(addresses)
    assert batch.tuples() == expected
    assert batch.counts() == dict(
        collections.Counter(bin_id for row in expected for bin_id in row)
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_address_and_array_inputs(case):
    strategy = build(case)
    forms = [[-5], [2**64 - 1]]
    if numpy is not None:
        signed = numpy.arange(-300, 300, dtype=numpy.int64) * 2**53
        forms += [signed, signed.view(numpy.uint64), signed[:1]]
    for form in forms:
        assert strategy.place_many(form).tuples() == [
            strategy.place(int(address)) for address in form
        ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_and_pure_python_legs_agree(case, monkeypatch):
    strategy = build(case)
    addresses = batch_addresses(count=3_000, distinct=1_000)
    reference = strategy.place_many(addresses)
    monkeypatch.setattr(compat, "np", None)
    fallback = strategy.place_many(addresses)
    assert fallback.tuples() == reference.tuples()
    assert fallback.counts() == reference.counts()


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="thresholds need NumPy")
@pytest.mark.parametrize("case", sorted(CASES))
def test_threshold_words_decide_like_place(case):
    """At every (copy, rank) cell, an address crafted to draw the last
    word that takes there (``T - 1``) and one to draw the first that
    does not (``T``) — or, at a forced cell, the words 0 and
    ``2**64 - 1`` — is placed by the batch exactly as by ``place``, by the
    dense pass and by the rank scan.  Where the scalar walk consults the
    crafted cell, ``T - 1`` takes and ``T`` does not."""
    strategy = build(case)
    ids, copies = strategy.rank_ids, strategy.copies
    crafted = []  # (address, copy, rank, takes or None when forced)
    for copy in range(copies):
        hazards = strategy.table.hazards[copy]
        for rank, bin_id in enumerate(ids):
            base = derive_base(strategy.namespace, "copy", copy, bin_id)
            if rank >= len(ids) - copies + copy or hazards[rank] >= 1.0:
                words = {0: None, 2**64 - 1: None}
            else:
                threshold = int(kernels.word_thresholds(hazards[rank]))
                words = {threshold - 1: True, threshold: False}
            for word, takes in words.items():
                crafted.append(
                    (address_for_word(base, word), copy, rank, takes)
                )
    addresses = [address for address, *_ in crafted]
    expected = scalar_rows(strategy, addresses)
    # Word 0 at salt base 0 is what the finished addresses' never-taking
    # slot would draw for this address, were its premix not replaced.
    slot_zero = [address_for_word(0, 0)] * 3 + addresses
    for path in ("dense", "scan"):
        assert engine_rows(strategy, addresses, path) == expected
        assert engine_rows(strategy, slot_zero, path) == (
            scalar_rows(strategy, slot_zero[:1]) * 3 + expected
        )
    consulted = 0
    for (_, copy, rank, takes), row in zip(crafted, expected):
        ranks = [-1] + [ids.index(bin_id) for bin_id in row]
        if ranks[copy] < rank <= ranks[copy + 1]:
            consulted += 1
            assert (ranks[copy + 1] == rank) == (takes is not False)
    assert consulted >= copies


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="pins the NumPy engine")
@settings(max_examples=40, deadline=None)
@given(
    capacities=st.lists(st.integers(1, 2_000), min_size=2, max_size=60),
    copies=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_engine_paths_equal_place(capacities, copies, seed):
    """On random fleets, with ``k = n`` (every cell forced) whenever the
    fleet is at most five wide, the largest batch the dense pass takes
    and the smallest the rank scan takes are both placed as by
    ``place``."""
    copies = min(copies, len(capacities))
    strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
    rng = random.Random(seed)
    addresses = [rng.randrange(2**64) for _ in range(dense_limit(strategy) + 1)]
    expected = scalar_rows(strategy, addresses)
    assert strategy.place_many(addresses).tuples() == expected
    assert strategy.place_many(addresses[:-1]).tuples() == expected[:-1]


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="counts the NumPy engine")
@pytest.mark.parametrize("copies", [2, 3, 4])
@pytest.mark.parametrize("capacities", [BENCH_FLEET, WIDE_FLEET[:40]])
def test_one_pass_over_the_bins_whatever_k(copies, capacities, monkeypatch):
    """One ``place_many`` of a large batch calls the word kernel at most
    once per bin and hashes one element per visited (address, rank),
    plus only the compaction slack: a finished address is hashed on
    until the live set is compacted, which happens once a quarter of it
    has finished, so fewer than a quarter of any hashed vector are
    finished addresses.  A small batch calls it exactly once, over its
    ``k * (n - k) * B`` window cube, within the cube's memory cap."""
    calls = count_words(monkeypatch)
    strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
    batch = strategy.place_many(batch_addresses(count=5_000))
    # The scan of an address visits every rank up to its last copy's.
    visited = int((batch.columns[-1] + 1).sum())
    slack = sum((size - 1) // 4 for size in calls)
    assert 0 < len(calls) <= len(capacities)
    assert visited <= sum(calls) <= visited + slack
    calls.clear()
    small = dense_limit(strategy)
    strategy.place_many(batch_addresses(count=small))
    assert calls == [window_words(strategy) * small]
    assert calls[0] <= redundant_share._DENSE_WORDS


@pytest.mark.skipif(not compat.HAVE_NUMPY, reason="counts the NumPy engine")
@pytest.mark.parametrize(
    "case", ["rs-k-equals-n", "lm-k-equals-n", "rs-single-copy", "rs-clipped"]
)
@pytest.mark.parametrize("size", ["one", "limit"])
def test_window_edges_equal_place(case, size, monkeypatch):
    """The window's edges: ``k = n`` (width 1, every cell forced, no
    word hashed), ``k = 1`` (the whole fleet) and a clipped fleet whose
    forced ``h >= 1`` cell lies inside copy 0's window, each with one
    address and with a batch exactly at the dense limit: one kernel call
    over the window cube, and every row as ``place`` has it."""
    strategy = build(case)
    copies, bins = strategy.copies, len(strategy.rank_ids)
    hazards = strategy.table.hazards
    inside = [h >= 1.0 for h in hazards[0][: bins - copies]]
    assert any(inside) == (case == "rs-clipped")
    count = 1 if size == "one" else dense_limit(strategy)
    addresses = batch_addresses(count=count, distinct=min(count, 2_500))
    calls = count_words(monkeypatch)
    assert strategy.place_many(addresses).tuples() == scalar_rows(
        strategy, addresses
    )
    assert calls == [window_words(strategy) * count]
