"""RAID-style pattern striping — the classic pre-calculated layouts.

RAID ([10] in the paper) stripes blocks across all disks in a fixed
rotating pattern.  On *homogeneous* disks this is perfectly fair with zero
metadata, which is why small arrays use it; the paper's two criticisms,
both reproduced here, are

* **heterogeneity** — a fixed rotating pattern cannot give a larger disk
  a larger share; :class:`WeightedStripingStrategy` answers with the
  AdaptRaid-style weighted pattern (cf. [4]), fair only up to its
  pattern resolution, and
* **adaptivity** — the pattern depends on the disk count, so adding one
  disk relocates nearly *all* blocks (the benches show movement close to
  100%, against < 2 b_i for Redundant Share).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .._compat import get_numpy
from ..exceptions import ConfigurationError
from ..hashing.primitives import int64_column
from ..types import BinSpec, Placement
from .base import ReplicationStrategy


class WeightedStripingStrategy(ReplicationStrategy):
    """AdaptRaid-style striping: larger disks appear in more pattern rows.

    A smooth weighted round-robin sequence is precomputed in which disk
    ``i`` occupies a number of slots proportional to its capacity; the k
    copies of block ``a`` occupy the next k *distinct* disks starting at
    pattern slot ``a * k mod L``.  Fairness approaches capacity proportions
    as the pattern resolution grows; adaptivity remains as poor as RAID's.
    """

    name = "weighted-striping"
    kernel = "stripe-table"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
        resolution: int = 64,
    ) -> None:
        """Build the pattern.

        Args:
            bins: The disks.
            copies: Replication degree.
            namespace: Unused (striping consumes no hashes); kept for
                interface parity.
            resolution: Average pattern slots per disk; higher is fairer
                and costs memory (``n * resolution`` slots).
        """
        super().__init__(bins, copies, namespace)
        if resolution < 1:
            raise ConfigurationError("resolution must be >= 1")
        total = sum(spec.capacity for spec in self._bins)
        slots = max(len(self._bins), len(self._bins) * resolution)
        # Smooth weighted round-robin (interleaved, not blocked): at every
        # slot, hand the slot to the disk with the largest accumulated
        # credit, the largest id on a tie.  Keeps any window of the
        # pattern close to proportional.
        rates = {
            spec.bin_id: spec.capacity / total for spec in self._bins
        }
        pattern: List[str] = []
        np = get_numpy()
        if np is None:
            credits = {bin_id: 0.0 for bin_id in rates}
            for _ in range(slots):
                for bin_id in credits:
                    credits[bin_id] += rates[bin_id]
                winner = max(
                    credits, key=lambda bin_id: (credits[bin_id], bin_id)
                )
                credits[winner] -= 1.0
                pattern.append(winner)
        else:
            # Every credit moves at every slot, so no heap can track them;
            # one vector add per slot can.  Disks in descending id order
            # make argmax's first maximum the largest id.
            ids = sorted(rates, reverse=True)
            step = np.asarray([rates[bin_id] for bin_id in ids])
            credits = np.zeros(len(ids))
            for _ in range(slots):
                np.add(credits, step, out=credits)
                winner = int(np.argmax(credits))
                credits[winner] -= 1.0
                pattern.append(ids[winner])
        self._pattern = pattern
        self._resolution = resolution
        self._rows: Optional[List[Tuple[int, ...]]] = None
        self._table = None

    @property
    def pattern_length(self) -> int:
        """Number of slots in the precomputed pattern."""
        return len(self._pattern)

    def _start_rows(self) -> List[Tuple[int, ...]]:
        """Per start slot ``(a · k) mod L``, the ranks of the next k
        distinct disks of the pattern: all a placement depends on.  Walked
        once, on first use; :meth:`place` looks its row up and the batch
        engine gathers from the same rows.  A pattern that lacks k
        distinct disks raises :class:`ConfigurationError` at every start
        (one lap from any start scans the whole pattern)."""
        if self._rows is None:
            length = len(self._pattern)
            ranks = [self._rank_index[bin_id] for bin_id in self._pattern]
            rows = []
            for start in range(length):
                row: List[int] = []
                for offset in range(length):
                    candidate = ranks[(start + offset) % length]
                    if candidate not in row:
                        row.append(candidate)
                        if len(row) == self._copies:
                            break
                else:
                    raise ConfigurationError(
                        "pattern resolution too small for distinct copies"
                    )
                rows.append(tuple(row))
            self._rows = rows
        return self._rows

    def place(self, address: int) -> Placement:
        row = self._start_rows()[(address * self._copies) % len(self._pattern)]
        return tuple([self._rank_ids[rank] for rank in row])

    def _engine_keys(self, np, addresses):
        """Exact start slot ``(a · k) mod L`` per address, as an int64
        vector — not the address mod 2^64, which loses the sign.

        Must match Python's big-int arithmetic for *any* int the scalar
        loop accepts: signed vectors use NumPy's floored ``%`` (same as
        Python's) after reducing the address first so the small multiply
        cannot overflow; unsigned vectors reduce in uint64; anything else
        falls back to exact per-element big-int reduction of ``int(a)``.
        """
        length = len(self._pattern)
        copies = self._copies
        keys = np.asarray(int64_column(addresses))  # typed: keeps its sign
        if keys.dtype.kind in "iu":
            reduced = keys % keys.dtype.type(length)
            return (reduced.astype(np.int64, copy=False) * copies) % length
        return np.asarray(
            [(int(address) * copies) % length for address in addresses],
            dtype=np.int64,
        )

    def _fill_ranks(self, np, keys, columns):
        """Vectorized striping: gather the start-slot table.

        Exact integer arithmetic end to end, so the result is identical
        to the scalar :meth:`place` loop and no row is ever refused.
        """
        if self._table is None:
            self._table = np.asarray(self._start_rows(), dtype=np.int64).T
        # The keys are residues mod the pattern length, so "clip" never
        # clips; it only lets take() write into ``columns`` unbuffered.
        np.take(self._table, keys, axis=1, out=columns, mode="clip")
        return ()

    def expected_shares(self) -> Dict[str, float]:
        """Exact share of the copies placed: the start slots ``(a · k)
        mod L`` are the multiples of ``gcd(k, L)``, each reached equally
        often over any ``L`` consecutive addresses, so the share is the
        mean of their rows (not the pattern's slot share: the walk skips
        a disk that repeats)."""
        rows = self._start_rows()[:: math.gcd(self._copies, len(self._pattern))]
        counts = Counter(rank for row in rows for rank in row)
        return {
            bin_id: counts[rank] / (self._copies * len(rows))
            for rank, bin_id in enumerate(self._rank_ids)
        }
