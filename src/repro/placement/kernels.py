"""Shared vectorized placement kernels.

Every batch engine in this library is assembled from the same handful of
idioms, first proven one strategy at a time (the Algorithm 2/4 hazard
scan in :mod:`repro.core.redundant_share`, the ``searchsorted`` gather in
:mod:`repro.core.fast_variant`, the masked rendezvous races in
:mod:`repro.placement.trivial`) and now extracted here so new strategies
port onto tested building blocks instead of re-deriving them:

* **Single-pass SplitMix64 premix** — :func:`premix` mixes the address
  vector once; every subsequent draw is then pure integer work
  (``u64_from_base(base, a) == sm64(sm64(base ^ sm64(a)))``,
  :func:`words_from_premixed`), shared by all (copy, bin) draws of the
  batch.
* **Scan or cube** — a rank scan hashes one word per live address per
  rank; a small batch hashes its whole (copy, rank, address) cube in one
  call, bases broadcast as a column (the hazard scan, DESIGN.md §5).
* **Words compared as integers** — ``unit_from_base(base, a) < p``
  exactly when the word is below :func:`word_thresholds` of ``p``, so a
  draw only compared with fixed probabilities (the hazard scans, the
  CDF gather, :func:`bernoulli_indices`) never pays NumPy's scalar-loop
  ``uint64 → float64`` cast.
* **Blocked score matrices** — :func:`blocks` carves the batch into
  :data:`BLOCK`-sized slices so the (addresses × bins) float64 matrices
  stay L2-sized; results are independent per address, so blocking can
  never change them.
* **Draw matrices** — :func:`open_draw_matrix` evaluates
  ``unit_from_base_open(base_j, a_i)`` for a whole block at once,
  bit-for-bit identical to the scalar pipeline (the uint64 → float64
  rounding is the same in both); the score races need the float.
* **Guarded selection** — :func:`argmax_with_guard` /
  :func:`topk_with_guard` implement masked (without-replacement) argmax
  races with the sub-ulp :data:`TIE_GUARD` contract below.
* **CDF gather** — :func:`cdf_gather` runs
  :meth:`repro.hashing.alias.CumulativeTable.select` as one
  ``searchsorted`` of the words over the thresholds of *exactly* the
  scalar table's boundaries.

The ``TIE_GUARD`` contract
--------------------------

NumPy's SIMD ``log`` may differ from ``math.log`` by 1 ulp, so a
vectorized score race can disagree with its scalar reference when two
scores are within ~1e-15 relative of each other.  The kernels therefore
never decide close calls: any row whose winning margin is at most
``abs(best) * TIE_GUARD`` is reported back as *unsafe*, and the calling
strategy re-derives that address with its scalar ``place()`` — the
scalar loop is always the authority.  Margins above the guard are
provably identical under both logs, so the batch stays bit-exact without
giving up the vectorized bulk.  Strategy authors porting onto these
kernels must (a) compare like with like — the vector leg must compute
the *same float expression* as the scalar loop, e.g. ``(-w) / log(u)``,
not ``-w * (1 / log(u))`` — and (b) route every unsafe row through the
scalar path before publishing the batch.

Legs
----

There is one: NumPy.  The matrix kernels below run only on the NumPy
leg — the batch driver
(:meth:`repro.placement.base.ReplicationStrategy.place_many`)
and ``ReadScheduler.choose_many`` consult
:func:`repro._compat.get_numpy` per call and never enter an engine
without it — so this module binds ``np`` once at import, and
``REPRO_PURE_PYTHON=1`` means *the scalar loop*, not a list-based twin
of these functions.  Each kernel's oracle is the scalar expression it
vectorizes (``unit_from_base_open``, ``-w / log(u)``,
``CumulativeTable.select``, ...), pinned by the kernel tests.  The two
helpers at the bottom that the no-NumPy platform path also reaches
(:func:`bernoulli_indices` for the fleet engine,
:func:`class_histogram` for the scan-depth record) keep a list branch
and decide per call.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .._compat import get_numpy
from ..hashing.primitives import (
    _MASK64,
    _units,
    splitmix64,
    splitmix64_array,
    u64s_from_base,
    unit_from_base,
)

#: Bound once: everything down to :func:`cumcount` is NumPy-only (see
#: "Legs" above).
np = get_numpy()

#: Relative score margin below which a vectorized race defers to the
#: scalar loop (see "The TIE_GUARD contract" above).
TIE_GUARD = 1e-9

#: Addresses per vector block.  The engines materialise several
#: (addresses × bins) float64 matrices per draw; blocking keeps that
#: working set around L2-sized so throughput does not collapse to main
#: memory bandwidth on large batches.
BLOCK = 8192


def blocks(count: int, block: int = BLOCK) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(count)`` block-wise."""
    for start in range(0, count, block):
        yield start, min(start + block, count)


#: SplitMix64-mix a ``uint64`` address vector once, for reuse by every
#: draw: element ``i`` equals ``splitmix64(a_i)``, the inner mix of
#: ``u64_from_base`` shared across all bases.
premix = splitmix64_array


def words_from_premixed(base, mixed, out=None, scratch=None):
    """Hash words over premixed addresses, for one salt base (an ``int``)
    or a ``uint64`` base array broadcastable against ``mixed``: element
    ``i`` equals ``u64_from_base(base_i, a_i)`` where ``mixed[i]`` is
    ``premix([a_i, ...])[i]``.  One base per address gives a vector, a
    ``(..., 1)`` column of bases a word per (base, address) cell.  Both
    mixes run in place in ``out`` (which may be ``base``; it has the
    broadcast shape), shifting through ``scratch``; either is allocated
    if not given."""
    state = np.bitwise_xor(np.asarray(base, dtype=np.uint64), mixed, out=out)
    splitmix64_array(state, out=state, scratch=scratch)
    return splitmix64_array(state, out=state, scratch=scratch)


def word_thresholds(probabilities):
    """The exact word threshold ``T(p)`` of each probability in ``[0, 1)``:
    ``unit_from_base(...) < p`` exactly when the draw's word is below
    ``T(p)`` (``uint64``).  Every draw is below a ``p >= 1``, which has
    no ``uint64`` threshold: callers treat it as forced.

    With ``x = p * 2**64`` (exact): ``ceil(x)`` while ``x <= 2**53``;
    above, the words from the midpoint between ``x`` and the float below
    it round up to ``x``, the midpoint itself if its tie goes to ``x``
    (DESIGN.md §5 has the derivation).
    """
    x = np.asarray(probabilities, dtype=np.float64) * 2.0**64
    half_gap = np.floor((x - np.nextafter(x, 0.0)) / 2).astype(np.uint64)
    midpoint = np.ceil(x).astype(np.uint64) - half_gap
    return midpoint + (midpoint.astype(np.float64) < x)


def state_matrix(bases, mixed):
    """First ``u64_from_base`` fold: rows = addresses, cols = bases.

    Entry ``(i, j)`` equals ``sm64(bases[j] ^ sm64(a_i))`` — the hash
    state after folding the address, before any further per-draw values.
    Multi-value draws (CRUSH's ``(address, replica, attempt)``) fold the
    remaining values in with :func:`fold_salt` and finish with
    :func:`open_draws_from_state`; single-value draws can go straight to
    the finisher (that composition is :func:`open_draw_matrix`).
    """
    return splitmix64_array(
        np.asarray(bases, dtype=np.uint64)[None, :] ^ mixed[:, None]
    )


def fold_salt(states, salt: int):
    """Fold one scalar draw value into running ``u64_from_base`` states.

    Element-wise ``sm64(state ^ sm64(salt))`` — one step of the
    ``u64_from_base`` chain with the same ``salt`` for the whole batch,
    e.g. CRUSH's replica index or retry attempt.
    """
    return splitmix64_array(states ^ np.uint64(splitmix64(salt & _MASK64)))


def open_draws_from_state(states):
    """Finish ``u64_from_base`` states into open-interval ``(0, 1)`` draws.

    Element-wise the final mix plus the open-interval mapping of
    ``unit_from_base_open``, bit-for-bit.
    """
    state = splitmix64_array(states)
    return _units(np.bitwise_or(state, np.uint64(1), out=state))


def open_draw_matrix(bases, mixed):
    """Open-interval ``(0, 1)`` draw matrix: rows = addresses, cols = bases.

    Entry ``(i, j)`` equals ``unit_from_base_open(bases[j], a_i)`` — the
    draw the scalar rendezvous/straw races consume.
    """
    return open_draws_from_state(state_matrix(bases, mixed))


def hrw_score_matrix(weights, uniforms):
    """Rendezvous (highest-random-weight) scores ``-w / ln(u)``.

    Computes exactly the scalar expression ``-weight / log(uniform)``
    (unary minus on the weight, then one division) so clear-margin rows
    agree with the scalar race bit-for-bit.
    """
    return (-np.asarray(weights, dtype=np.float64))[None, :] / np.log(uniforms)


def straw2_score_matrix(weights, uniforms):
    """CRUSH straw2 scores ``ln(u) / w`` (negative; closest to 0 wins)."""
    return np.log(uniforms) / np.asarray(weights, dtype=np.float64)[None, :]


def argmax_with_guard(scores):
    """Row-wise argmax plus the mask of rows the guard refuses to decide.

    Returns ``(winners, unsafe)``: for each row the index of its maximum
    entry (first index on exact ties, like the scalar ``>`` races), and
    True where the margin over the runner-up is at most
    ``abs(best) * TIE_GUARD`` — those rows must be settled by the scalar
    path.  **Consumes the winning entries**: the per-row maxima are left
    at ``-inf`` so repeated calls implement a without-replacement race;
    copy the matrix first if it must survive.
    """
    rows = np.arange(scores.shape[0])
    winners = np.argmax(scores, axis=1)
    best = scores[rows, winners]
    scores[rows, winners] = -np.inf
    runner = np.max(scores, axis=1) if scores.shape[1] else best
    unsafe = (best - runner) <= np.abs(best) * TIE_GUARD
    return winners, unsafe


def topk_with_guard(scores, count: int):
    """Top-``count`` without-replacement race over a score matrix.

    Returns ``(winners, unsafe)`` where ``winners[d]`` holds the d-th
    draw's per-row winner (descending score order, matching a scalar
    sort) and ``unsafe`` flags rows where *any* draw was decided within
    the guard.  Consumes ``scores`` (winners are masked to ``-inf``).
    """
    winners = []
    unsafe = np.zeros(scores.shape[0], dtype=bool)
    for _ in range(count):
        draw_winners, draw_unsafe = argmax_with_guard(scores)
        winners.append(draw_winners)
        unsafe |= draw_unsafe
    return winners, unsafe


def masked_hrw_race(weights, draw_bases, mixed):
    """One weighted-rendezvous race per draw, without replacement.

    Definition 2.3 for a block of premixed addresses: draw ``d`` scores
    every bin with ``-w / ln(u)`` from its own salt bases
    (``draw_bases[d]``), bins that already won an earlier draw of the
    same address are masked out, and the best remaining score wins —
    exactly the scalar skip-and-compare loop.  Returns ``(winners,
    unsafe)``: a ``(draws, block)`` matrix of winning bin indices and the
    rows where any draw was decided within the guard.
    """
    block = mixed.shape[0]
    winners = np.empty((len(draw_bases), block), dtype=np.int64)
    taken = np.zeros((block, len(weights)), dtype=bool)
    unsafe = np.zeros(block, dtype=bool)
    rows = np.arange(block)
    for draw, bases in enumerate(draw_bases):
        scores = hrw_score_matrix(weights, open_draw_matrix(bases, mixed))
        scores[taken] = -np.inf
        winners[draw], draw_unsafe = argmax_with_guard(scores)
        unsafe |= draw_unsafe
        taken[rows, winners[draw]] = True
    return winners, unsafe


def cdf_gather(thresholds, words):
    """Batch :meth:`~repro.hashing.alias.CumulativeTable.select` of the
    draws of hash ``words``, given :func:`word_thresholds` of the table's
    own :meth:`boundaries` below 1 (no draw reaches the others): ``b`` is
    at most a draw exactly when ``T(b)`` is at most its word."""
    return np.searchsorted(thresholds, words, side="right")


def draw_column(base: int, start: int, count: int):
    """Seeded ``uint64`` draws for sequence numbers ``[start, start+count)``.

    Element ``i`` equals ``u64_from_base(base, start + i)`` — the draw a
    scheduler's scalar ``choose()`` computes for its ``(start + i)``-th
    request, so sequential policies consume precomputed integers instead
    of re-hashing per request.
    """
    return u64s_from_base(
        base, np.arange(start, start + count, dtype=np.uint64)
    )


def cumcount(arr):
    """Occurrence index of each element among its equals, in stream order.

    ``cumcount([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` over an ``int64``
    vector — the per-address counter value round-robin would have seen
    at each request, assuming counters start at zero — via a stable
    argsort instead of a dict walk.
    """
    size = len(arr)
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    is_start = np.empty(size, dtype=bool)
    is_start[0] = True
    is_start[1:] = ordered[1:] != ordered[:-1]
    group_start = np.maximum.accumulate(
        np.where(is_start, np.arange(size, dtype=np.int64), 0)
    )
    occurrence = np.arange(size, dtype=np.int64) - group_start
    result = np.empty(size, dtype=np.int64)
    result[order] = occurrence
    return result


def bernoulli_indices(bases, count: int, probability: float):
    """``{row: ascending indices i in [0, count) with unit_from_base(
    bases[row], i) < probability}`` for the rows that select any index.

    Bit-for-bit the same on both legs (``int64`` arrays with NumPy, lists
    without).  The fleet engine passes one base per epoch, derived from
    ``(seed, epoch)``, to draw a chunk of epochs' device failures at once.
    """
    np = get_numpy()
    if np is None:
        selected = (
            [i for i in range(count) if unit_from_base(base, i) < probability]
            for base in bases
        )
        return {row: hits for row, hits in enumerate(selected) if hits}
    words = words_from_premixed(
        np.asarray(bases, dtype=np.uint64)[:, None],
        premix(np.arange(count, dtype=np.uint64)),
    )
    # Every draw is below 1, so p >= 1 selects every index.
    rows, indices = np.nonzero(
        words < word_thresholds(probability) if probability < 1.0
        else np.ones(words.shape, dtype=bool)
    )
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return dict(zip(rows[starts].tolist(), np.split(indices, starts[1:])))


def class_histogram(values, classes: int):
    """Occurrence counts of each class ``0 .. classes - 1``.

    ``values`` must already lie in range.  Returns a plain list of ints
    on both legs (``np.bincount`` with ``minlength`` on the NumPy leg),
    so callers can compare histograms across legs with ``==``.
    """
    np = get_numpy()
    if np is None:
        counts = [0] * classes
        for value in values:
            counts[value] += 1
        return counts
    return (
        np.bincount(np.asarray(values, dtype=np.int64), minlength=classes)
        .astype(int)
        .tolist()
    )
