"""The O(k) Redundant Share variant (Section 3.3 of the paper).

Instead of scanning the bins per copy, this variant precomputes — per
(copy index, previous bin) state — the conditional landing distribution of
the next copy, and draws from it directly with a single hash:

* copy 1 uses the marginal distribution ``p_i = č_i * prod_{j<i}(1 - č_j)``;
* copy ``c > 1`` given "copy ``c-1`` landed on bin ``l``" uses the hazard
  chain restricted to ranks ``> l``.

That is exactly the paper's "O(n) hash functions per copy, chosen in O(1)"
construction: O(k·n) state distributions, one draw per copy, O(k) lookup
(with an O(log n) inverse-CDF per draw in this implementation; the paper's
O(1) assumes constant-time hash-function evaluation — see the class note).

The joint placement distribution is *identical* to
:class:`~repro.core.redundant_share.RedundantShare` built from the same
bins (both are determined by the same hazard table); individual placements
differ because randomness is consumed differently.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from ..hashing.alias import CumulativeTable
from ..hashing.primitives import derive_base, unit_from_base
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..types import BinSpec, Placement
from .redundant_share import RedundantShare


class FastRedundantShare(ReplicationStrategy):
    """Precomputed-state Redundant Share with O(k) lookups.

    Note on adaptivity: each state is drawn through an inverse CDF
    (:class:`~repro.hashing.alias.CumulativeTable`), whose boundary shifts
    *cascade* when the configuration changes, so a reconfiguration moves
    more data than the scan variant does (TAB-TRADE) — the price of the
    O(k) lookup the paper's Section 3.3 alludes to.
    """

    name = "fast-redundant-share"
    kernel = "cdf-gather"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
    ) -> None:
        """Build the state tables.

        Args:
            bins: The participating storage devices.
            copies: Replication degree ``k``.
            namespace: Hash salt prefix.
        """
        super().__init__(bins, copies, namespace)
        # Lazy per-(copy, previous rank) state, built as lookups visit it:
        # the conditional tables and salt bases ``place`` consults, and
        # the batch engine's NumPy mirrors ``(forced_rank, base,
        # thresholds)`` — a forced state has ``forced_rank >= 0`` and no
        # table, a sampled one ``forced_rank == -1`` plus the uint64 base
        # and the word thresholds of the scalar :class:`CumulativeTable`.
        self._tables: Dict[Tuple[int, int], Union[CumulativeTable, int]] = {}
        self._bases: Dict[Tuple[int, int], int] = {}
        self._np_states: Dict[Tuple[int, int], tuple] = {}
        # Reuse the scan variant's preprocessing (ordering, clipping,
        # hazard solve); this also guarantees both variants agree.
        self._scan = RedundantShare(bins, copies=copies, namespace=namespace)
        self.rank_ids = self._scan.rank_ids

    @property
    def scan_equivalent(self) -> RedundantShare:
        """The O(n) strategy this variant is distribution-equivalent to."""
        return self._scan

    def expected_shares(self) -> Dict[str, float]:
        """Same closed form as the scan variant."""
        return self._scan.expected_shares()

    def _state_table(
        self, copy: int, previous_rank: int
    ) -> Union[CumulativeTable, int]:
        """Conditional distribution table for (copy, previous rank), or
        the forced rank of a degenerate state (one positive outcome)."""
        key = (copy, previous_rank)
        if key not in self._tables:
            tail = self._scan.table.conditional_distribution(
                copy + 1, previous_rank
            )[previous_rank + 1 :]
            positive = [rank for rank, value in enumerate(tail) if value > 0.0]
            if not positive:
                raise AssertionError("state has no positive outcome")
            self._tables[key] = (
                CumulativeTable(tail) if len(positive) > 1
                else previous_rank + 1 + positive[0]
            )
        return self._tables[key]

    def _select(self, copy: int, previous_rank: int, address: int) -> int:
        table = self._state_table(copy, previous_rank)
        if isinstance(table, int):
            return table
        draw = unit_from_base(self._state_base(copy, previous_rank), address)
        return previous_rank + 1 + table.select(draw)

    def _state_base(self, copy: int, previous_rank: int) -> int:
        """Salt base for the (copy, previous rank) state draw (memoised)."""
        key = (copy, previous_rank)
        if key not in self._bases:
            anchor = "root" if previous_rank < 0 else self._rank_ids[previous_rank]
            self._bases[key] = derive_base(
                self._namespace, "state", copy, anchor
            )
        return self._bases[key]

    def place(self, address: int) -> Placement:
        """O(k) lookup: one precomputed draw per copy."""
        ranks: List[int] = []
        previous = -1
        for copy in range(self._copies):
            previous = self._select(copy, previous, address)
            ranks.append(previous)
        return tuple(self._rank_ids[rank] for rank in ranks)

    # ------------------------------------------------------------------
    # Batch placement
    # ------------------------------------------------------------------

    def _fill_ranks(self, np, keys, columns):
        """Batch lookup through the precomputed state tables.

        One SplitMix64 pass plus a ``searchsorted`` gather of the words
        per visited state — the Section 3.3 O(k) bound per address,
        element-wise identical to :meth:`place` because the gather
        counts the exact word thresholds of the very same
        :class:`CumulativeTable` boundaries, so no row is ever refused.
        """
        count = keys.shape[0]
        mixed = kernels.premix(keys)
        previous = np.full(count, -1, dtype=np.int64)
        for copy in range(self._copies):
            out = columns[copy]
            for prev in np.unique(previous):
                prev_rank = int(prev)
                chosen = np.flatnonzero(previous == prev)
                forced, base, thresholds = self._np_state(np, copy, prev_rank)
                if thresholds is None:
                    out[chosen] = forced
                else:
                    words = kernels.words_from_premixed(base, mixed[chosen])
                    out[chosen] = prev_rank + 1 + kernels.cdf_gather(
                        thresholds, words
                    )
            previous = out
        return ()

    def _np_state(self, np, copy: int, previous_rank: int) -> tuple:
        """NumPy mirror of one state: forced rank or (base, thresholds),
        the word thresholds of the boundaries below 1.

        Built lazily per state actually visited by a batch (mirroring the
        scalar laziness) and kept on the instance.
        """
        key = (copy, previous_rank)
        state = self._np_states.get(key)
        if state is None:
            table = self._state_table(copy, previous_rank)
            if isinstance(table, int):
                state = (table, None, None)
            else:
                state = (
                    -1,
                    np.uint64(self._state_base(copy, previous_rank)),
                    kernels.word_thresholds(
                        [b for b in table.boundaries() if b < 1.0]
                    ),
                )
            self._np_states[key] = state
        return state

    def state_count(self) -> int:
        """Number of state tables materialised so far (for the memory
        accounting in the time-efficiency bench)."""
        return len(self._tables)
