"""Redundant Share — the paper's core contribution (Section 3).

:class:`RedundantShare` implements k-fold replicated placement over
arbitrary heterogeneous bins with

* **perfect fairness** in expectation (bin ``i`` stores a
  ``b̂_i / sum(b̂)`` share of all copies, with capacities clipped per
  Lemma 2.2 so the share is achievable),
* **redundancy** (the k copies always land on k distinct bins),
* **O(n + k) lookups** (the Algorithm 2/4 scan),
* **bounded adaptivity** (expected ``k^2``-competitive block movement under
  bin insertions/removals — Lemmas 3.2/3.5), and
* **position awareness** (the i-th copy is identified, so erasure codes can
  replace plain mirroring).

The scan walks the bins in descending capacity order; at (copy ``c``, bin
``i``) a pseudo-random draw keyed on *(namespace, copy, bin name, ball
address)* is compared against the precomputed hazard ``h_c(i)`` (see
:mod:`repro.core.preprocess`).  Keying draws on bin *names* — not ranks —
is what keeps decisions stable when unrelated bins enter or leave, the
essence of the adaptivity bound.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import obs
from ..capacity.clipping import clip_capacities
from ..hashing.primitives import prefixed_bases, unit_from_base
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..types import BinSpec, Placement, sort_bins_by_capacity
from .preprocess import HazardTable, compute_hazards

#: The batch scan drops finished addresses from its live set once this
#: fraction of it has finished, not after every rank: hashing them a few
#: ranks longer costs less than compacting that often.
_COMPACT_FRACTION = 0.25

#: A batch of at most ``_DENSE_PAIRS`` (copy, address) pairs whose hashed
#: ``(k, n - k, B)`` window cube holds at most ``_DENSE_WORDS`` words (8
#: MB) skips the rank scan for one dense pass: that small, the scan's
#: per-rank call overhead costs more than hashing every cell (DESIGN.md §5).
_DENSE_PAIRS, _DENSE_WORDS = 1024, 2**20


class RedundantShare(ReplicationStrategy):
    """k-fold replicated placement with fairness and redundancy."""

    name = "redundant-share"
    kernel = "hazard-scan"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
    ) -> None:
        """Build the strategy for a configuration snapshot.

        Capacities are clipped per Lemma 2.2 / Algorithm 1, which leaves a
        capacity-efficient vector (Lemma 2.1) unchanged.

        Args:
            bins: The participating storage devices.
            copies: Replication degree ``k``.
            namespace: Hash salt prefix; strategies with equal namespaces
                and bin names produce correlated placements (intended — it
                is how adaptivity across configurations works).
        """
        super().__init__(bins, copies, namespace)
        self._ordered = sort_bins_by_capacity(self._bins)
        raw = [float(spec.capacity) for spec in self._ordered]
        self._table = compute_hazards(clip_capacities(raw, copies), copies)
        self.rank_ids = [spec.bin_id for spec in self._ordered]
        # Per-(copy, rank) salt bases: lookups then mix integers only.
        self._draw_bases = [
            prefixed_bases((self._namespace, "copy", copy), self._rank_ids)
            for copy in range(copies)
        ]
        # Deadline rank for each copy: the scan must select at this rank at
        # the latest so that enough bins remain for the following copies.
        self._deadlines = [len(self._bins) - copies + c for c in range(copies)]
        # The batch engine's tables, built on first use.
        self._scan_tables = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def table(self) -> HazardTable:
        """The preprocessed hazard table (read-only use intended)."""
        return self._table

    @property
    def ordered_bins(self) -> List[BinSpec]:
        """Bins in scan order (descending capacity, ties by id)."""
        return list(self._ordered)

    def expected_shares(self) -> Dict[str, float]:
        """Exact expected share of all stored copies per bin (sums to 1)."""
        return {
            spec.bin_id: target / self._copies
            for spec, target in zip(self._ordered, self._table.targets)
        }

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, address: int) -> Placement:
        """Return the ordered bin ids of all ``k`` copies of ``address``:
        the Algorithm 2/4 scan over rank indices, the scalar reference the
        vectorized engine is pinned to."""
        result: List[str] = []
        rank = 0
        for copy in range(self._copies):
            hazards = self._table.hazards[copy]
            deadline = self._deadlines[copy]
            bases = self._draw_bases[copy]
            while True:
                if (
                    rank >= deadline
                    or hazards[rank] >= 1.0
                    or unit_from_base(bases[rank], address) < hazards[rank]
                ):
                    result.append(self._rank_ids[rank])
                    rank += 1
                    break
                rank += 1
        return tuple(result)

    # ------------------------------------------------------------------
    # Batch placement
    # ------------------------------------------------------------------

    def _engine_tables(self, np):
        """The batch engine's tables, built once: the scan's rank-major
        ``(n, k + 1)`` salt bases and last taking words, and the dense
        pass's ``(k, n - k, 1)`` windows of them (copy ``c`` at ranks ``c``
        to ``n - k + c - 1``).  A cell takes when its word is at most
        ``word_thresholds(h) - 1``, a forced one (deadline rank, ``h >=
        1``) always.  Column ``k`` never takes: base 0 and last word 0
        against the word ``sm64(sm64(0))``, nonzero, of the premix 0
        finished addresses get.  A word compare cannot also say "never",
        so no unforced cell may have ``h <= 0``; the hazard solve keeps a
        positive natural hazard at every unreachable cell.
        """
        if self._scan_tables is None:
            hazards = np.array(self._table.hazards, dtype=np.float64).T
            ranks = np.arange(len(hazards))[:, None]
            forced = (hazards >= 1.0) | (ranks >= np.array(self._deadlines))
            if (hazards[~forced] <= 0.0).any():
                raise AssertionError("a reachable scan cell never takes")
            tables = np.zeros((2, len(hazards), self._copies + 1), np.uint64)
            tables[0, :, :-1] = np.array(self._draw_bases, np.uint64).T
            # A forced cell's threshold is 0, so its last word wraps round
            # to 2**64 - 1: every word takes there.
            tables[1, :, :-1] = kernels.word_thresholds(
                np.where(forced, 0, hazards)
            ) - 1
            copy = np.arange(self._copies)[:, None]
            window = copy + np.arange(self._deadlines[0])
            self._scan_tables = tables, tables[:, window, copy, None]
        return self._scan_tables

    def _fill_ranks(self, np, keys, columns):
        """Vectorized Algorithm 2/4 over a whole address batch: one pass
        over the bins, whatever ``k`` is.

        The scalar walk advances exactly one rank per step whether or
        not a copy is taken there, so at step ``r`` *every* unfinished
        address stands at rank ``r`` and its only state is the index of
        the copy it is looking for.  One iteration per rank therefore
        gathers each live address's salt base and last taking word for
        (its copy, ``r``), hashes one word each in two reused buffers,
        and records ``r`` where the word takes.  An address whose last
        copy landed moves to the never-taking slot; the finished leave
        the live set once :data:`_COMPACT_FRACTION` of it has finished.
        Element-wise identical to :meth:`place` (the property tests pin
        this), so no row is ever refused.  A small batch takes
        :meth:`_fill_dense` instead.  Gathers pass ``mode="clip"`` (as
        ``crush`` does), since ``mode="raise"`` buffers ``out`` and every
        index is in range: ``copy`` stays in ``[0, k]``, a rank's ``k + 1``
        table columns, and ``taken`` / ``unfinished`` come from ``nonzero``.
        """
        (bases, lasts), windows = self._engine_tables(np)
        mixed = kernels.premix(keys)
        cube = windows[0].size * len(keys)  # the dense pass's hashed words
        if self._copies * len(keys) <= _DENSE_PAIRS and cube <= _DENSE_WORDS:
            return self._fill_dense(np, *windows, mixed, columns)
        live = np.arange(keys.shape[0])
        copy = np.zeros(keys.shape[0], dtype=np.intp)
        words, scratch = np.empty_like(mixed), np.empty_like(mixed)
        last, finished = self._copies - 1, 0
        for rank in range(len(bases)):
            bases[rank].take(copy, out=words, mode="clip")
            kernels.words_from_premixed(words, mixed, words, scratch)
            lasts[rank].take(copy, out=scratch, mode="clip")
            taken = (words <= scratch).nonzero()[0]
            taken_copy = copy.take(taken, mode="clip")
            columns[taken_copy, live.take(taken, mode="clip")] = rank
            copy[taken] = taken_copy + 1
            done = taken[taken_copy == last]
            if done.size:
                mixed[done] = 0
                finished += done.size
                if finished >= _COMPACT_FRACTION * live.size:
                    unfinished = (copy <= last).nonzero()[0]
                    if unfinished.size == 0:
                        break
                    live = live.take(unfinished, mode="clip")
                    copy = copy.take(unfinished, mode="clip")
                    mixed = mixed.take(unfinished, mode="clip")
                    words = words[: unfinished.size]
                    scratch = scratch[: unfinished.size]
                    finished = 0
        return ()

    def _fill_dense(self, np, bases, lasts, mixed, columns):
        """The scan of a small batch in one pass over each copy's window
        (:meth:`_engine_tables`): hash every (copy, window rank, address)
        cell in one kernel call and compare the cube with the last taking
        words once; the deadline row below takes every word unhashed.  In
        window coordinates copy ``c`` stands at the first taking index no
        lower than copy ``c - 1``'s: element-wise identical to
        :meth:`place`, like the scan."""
        takes = np.ones((len(bases), len(bases[0]) + 1, len(mixed)), bool)
        # Addresses innermost: each (copy, rank) row hashes and compares
        # one contiguous vector against a single base and last word.
        words = kernels.words_from_premixed(bases, mixed)
        np.less_equal(words, lasts, out=takes[:, :-1])
        index = np.arange(takes.shape[1])[:, None]
        for copy, rows in enumerate(takes):
            if copy:
                rows &= index >= columns[copy - 1]
            np.argmax(rows, axis=0, out=columns[copy])
        columns += np.arange(len(takes))[:, None]  # window -> rank
        return ()

    def _record_engine_events(self, sink, columns) -> None:
        """Record one batch hazard scan: the ``placement.scan`` event and
        the ``placement.scan_depth`` histogram.

        The scan depth of an address (ranks visited until the last copy
        was placed) is the rank of its last copy plus one, so both legs
        reduce the last rank column to the same aggregate and traces are
        identical between them.
        """
        by_rank = kernels.class_histogram(columns[-1], len(self._rank_ids))
        histogram = obs.metrics().histogram("placement.scan_depth")
        depth_sum = depth_max = addresses = 0
        for rank, count in enumerate(by_rank):
            if count:
                depth_max = rank + 1
                histogram.observe(depth_max, count)
                depth_sum += depth_max * count
                addresses += count
        if addresses:
            sink.emit(
                "placement.scan",
                strategy=self.name,
                addresses=addresses,
                depth_sum=depth_sum,
                depth_max=depth_max,
            )

    def primary(self, address: int) -> str:
        """Convenience accessor for the primary copy's bin."""
        return self.place_copy(address, 0)


class LinMirror(RedundantShare):
    """Algorithm 2: the 2-fold mirroring special case of Redundant Share.

    Kept as its own class because the paper develops and evaluates it
    separately (Figures 2 and 3); behaviourally identical to
    ``RedundantShare(copies=2)``.
    """

    name = "lin-mirror"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        namespace: str = "",
    ) -> None:
        super().__init__(bins, copies=2, namespace=namespace)

    def secondary(self, address: int) -> str:
        """Convenience accessor for the mirror copy's bin."""
        return self.place_copy(address, 1)
