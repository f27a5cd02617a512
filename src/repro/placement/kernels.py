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
* **Bins-major score races** — a race's draw and score matrices are
  ``(bins, addresses)``, addresses innermost (the hazard scan's cube has
  the same layout), so every per-address reduction runs down contiguous
  lanes.  Each ``place_many`` call owns one :class:`Workspace` and runs
  every block and draw in its buffers: the XOR, both SplitMix64 passes,
  the ``| 1``, the cast, the ``log`` and the division all write in place.
* **Cell-bounded blocks** — :func:`blocks` carves the batch into blocks
  of at most :data:`CELLS` (bin, address) cells (or one address), so the
  working set stays L2-sized on a small fleet and flat however wide the
  fleet grows; results are independent per address, so blocking can
  never change them.
* **Exact fast cast** — a score race needs the float of its word for the
  ``log``: :func:`~repro.hashing.primitives._units` builds ``u · 2**-64``
  from the word's two 32-bit halves, both exact, so the one rounding is
  that of ``float(u)`` and NumPy's scalar-loop ``uint64 → float64`` cast
  is never paid.  :func:`open_draw_matrix` is bit-for-bit the scalar
  ``unit_from_base_open(base_j, a_i)``.
* **Guarded selection** — :func:`argmax_with_guard` /
  :func:`topk_with_guard` implement masked (without-replacement) argmax
  races with the sub-ulp :data:`TIE_GUARD` contract below, by column
  reductions: the best score, the first row holding it, the runner-up.
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

from typing import Dict, Iterator, Tuple

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

#: (bin, address) cells per block of a score race.  A race keeps a few
#: ``uint64`` / ``float64`` matrices of this many cells; bounding cells
#: rather than addresses keeps them near L2-sized on a small fleet and
#: keeps peak memory flat on a wide one.
CELLS = 1 << 15


def blocks(count: int, bins: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(count)`` in blocks
    of ``max(1, CELLS // bins)`` addresses, for a race over ``bins``
    bins."""
    step = max(1, CELLS // bins)
    for start in range(0, count, step):
        yield start, min(start + step, count)


class Workspace:
    """The matrices of one batch's score races, reused by every block.

    One flat buffer per role, allocated on first use, large enough for a
    block of ``bins`` bins; :meth:`matrix` hands out its first
    ``b × rows`` cells as a contiguous ``(b, rows)`` matrix, so a narrower
    race (an epoch prefix, a secondary tail, a collision tail) reuses the
    same memory.  Roles: ``words`` / ``shifts`` / ``states`` / ``premixed``
    hold ``uint64`` hash states, ``scores`` ``float64`` draws and scores,
    ``marks`` the guard's row marks.
    """

    def __init__(self, bins: int, count: int) -> None:
        """Size the buffers for races of up to ``bins`` bins over blocks
        of a ``count``-address batch."""
        self._cells = min(bins * count, max(CELLS, bins))
        self._dtypes = dict(scores=np.float64, marks=np.min_scalar_type(bins))
        self._flat: Dict[str, object] = {}

    def matrix(self, role: str, bins: int, rows: int):
        """The ``(bins, rows)`` matrix of one role's buffer."""
        flat = self._flat.get(role)
        if flat is None:
            flat = self._flat[role] = np.empty(
                self._cells, dtype=self._dtypes.get(role, np.uint64)
            )
        return flat[: bins * rows].reshape(bins, rows)


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


def state_matrix(bases, mixed, out=None, scratch=None):
    """First ``u64_from_base`` fold: rows = bases, columns = addresses.

    Entry ``(j, i)`` equals ``sm64(bases[j] ^ sm64(a_i))`` — the hash
    state after folding the address, before any further per-draw values.
    Multi-value draws (CRUSH's ``(address, replica, attempt)``) fold the
    remaining values in with :func:`fold_salt` and finish with
    :func:`open_draws_from_state`; single-value draws can go straight to
    the finisher (that composition is :func:`open_draw_matrix`).  The
    XOR and the mix run in ``out`` (shifting through ``scratch``); either
    is allocated if not given.
    """
    state = np.bitwise_xor(
        np.asarray(bases, dtype=np.uint64)[:, None], mixed, out=out
    )
    return splitmix64_array(state, out=state, scratch=scratch)


def fold_salt(states, salt: int, out=None, scratch=None):
    """Fold one scalar draw value into running ``u64_from_base`` states.

    Element-wise ``sm64(state ^ sm64(salt))`` — one step of the
    ``u64_from_base`` chain with the same ``salt`` for the whole batch,
    e.g. CRUSH's replica index or retry attempt — in ``out`` (which may
    be ``states``) and ``scratch``, allocated if not given.
    """
    state = np.bitwise_xor(
        states, np.uint64(splitmix64(salt & _MASK64)), out=out
    )
    return splitmix64_array(state, out=state, scratch=scratch)


def open_draws_from_state(states, out=None, scratch=None):
    """Finish ``u64_from_base`` states into open-interval ``(0, 1)`` draws.

    Element-wise the final mix plus the open-interval mapping of
    ``unit_from_base_open``, bit-for-bit.  The mix and the ``| 1`` run
    in place in ``states``; the ``float64`` draws go to ``out``.
    """
    state = splitmix64_array(states, out=states, scratch=scratch)
    np.bitwise_or(state, np.uint64(1), out=state)
    return _units(state, out=out, scratch=scratch)


def open_draw_matrix(bases, mixed, work=None):
    """Open-interval ``(0, 1)`` draw matrix: rows = bases, columns =
    addresses, in ``work``'s ``scores`` matrix (a fresh
    :class:`Workspace` if not given).

    Entry ``(j, i)`` equals ``unit_from_base_open(bases[j], a_i)`` — the
    draw the scalar rendezvous/straw races consume.
    """
    shape = (len(bases), len(mixed))
    work = work or Workspace(*shape)
    shifts = work.matrix("shifts", *shape)
    states = state_matrix(
        bases, mixed, out=work.matrix("words", *shape), scratch=shifts
    )
    return open_draws_from_state(
        states, out=work.matrix("scores", *shape), scratch=shifts
    )


def hrw_score_matrix(weights, uniforms):
    """Rendezvous (highest-random-weight) scores ``-w / ln(u)`` of a
    bins-major draw matrix, in place.

    Computes exactly the scalar expression ``-weight / log(uniform)``
    (unary minus on the weight, then one division) so clear-margin rows
    agree with the scalar race bit-for-bit.
    """
    negated = -np.asarray(weights, dtype=np.float64)
    return np.divide(
        negated[:, None], np.log(uniforms, out=uniforms), out=uniforms
    )


def straw2_score_matrix(weights, uniforms):
    """CRUSH straw2 scores ``ln(u) / w`` (negative; closest to 0 wins) of
    a bins-major draw matrix, in place."""
    return np.divide(
        np.log(uniforms, out=uniforms),
        np.asarray(weights, dtype=np.float64)[:, None],
        out=uniforms,
    )


def argmax_with_guard(scores, work=None):
    """Per-column argmax of a bins-major score matrix, plus the mask of
    columns (addresses) the guard refuses to decide.

    Returns ``(winners, unsafe)``: for each column the row of its maximum
    (the first row on exact ties, like the scalar ``>`` races), and True
    where the margin over the runner-up is at most ``abs(best) *
    TIE_GUARD`` — those addresses must be settled by the scalar path.
    All three are column reductions: ``best`` is the column maximum, the
    winner the smallest row equal to it (a maximum over reversed row
    marks in ``work``'s ``marks`` matrix), the runner-up the maximum once
    the winner is consumed.  **Consumes the winning entries**: they are
    left at ``-inf`` so repeated calls implement a without-replacement
    race; copy the matrix first if it must survive.
    """
    bins, count = scores.shape
    work = work or Workspace(bins, count)
    best = scores.max(axis=0)
    marks = np.equal(scores, best, out=work.matrix("marks", bins, count))
    reversed_rows = np.arange(bins, 0, -1, dtype=marks.dtype)[:, None]
    np.multiply(marks, reversed_rows, out=marks)
    winners = np.subtract(bins, marks.max(axis=0), dtype=np.int64)
    scores[winners, np.arange(count)] = -np.inf
    runner = scores.max(axis=0)
    unsafe = (best - runner) <= np.abs(best) * TIE_GUARD
    return winners, unsafe


def topk_with_guard(scores, count: int, work=None):
    """Top-``count`` without-replacement race over a bins-major score
    matrix.

    Returns ``(winners, unsafe)`` where ``winners[d]`` holds the d-th
    draw's per-address winner (descending score order, matching a scalar
    sort) and ``unsafe`` flags addresses where *any* draw was decided
    within the guard.  Consumes ``scores`` (winners are masked to
    ``-inf``).
    """
    winners = []
    unsafe = np.zeros(scores.shape[1], dtype=bool)
    for _ in range(count):
        draw_winners, draw_unsafe = argmax_with_guard(scores, work)
        winners.append(draw_winners)
        unsafe |= draw_unsafe
    return winners, unsafe


def masked_hrw_race(weights, draw_bases, mixed, work=None):
    """One weighted-rendezvous race per draw, without replacement.

    Definition 2.3 for a block of premixed addresses: draw ``d`` scores
    every bin with ``-w / ln(u)`` from its own salt bases
    (``draw_bases[d]``), bins that already won an earlier draw of the
    same address are masked out, and the best remaining score wins —
    exactly the scalar skip-and-compare loop.  Returns ``(winners,
    unsafe)``: a ``(draws, block)`` matrix of winning bin indices and the
    addresses where any draw was decided within the guard.  Every draw
    runs in ``work`` (a fresh :class:`Workspace` if not given).
    """
    count = mixed.shape[0]
    work = work or Workspace(len(weights), count)
    winners = np.empty((len(draw_bases), count), dtype=np.int64)
    unsafe = np.zeros(count, dtype=bool)
    lanes = np.arange(count)
    for draw, bases in enumerate(draw_bases):
        scores = hrw_score_matrix(weights, open_draw_matrix(bases, mixed, work))
        scores[winners[:draw], lanes] = -np.inf
        winners[draw], draw_unsafe = argmax_with_guard(scores, work)
        unsafe |= draw_unsafe
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
