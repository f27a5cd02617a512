"""Consistent hashing (Karger et al., STOC 1997) with capacity weighting.

Each bin places virtual points on the unit circle in proportion to its
weight; a ball lands on the owner of its hash position's clockwise
successor point.  With ``P`` points per bin the share of a bin concentrates
around its weight with relative deviation ``O(1/sqrt(P))`` — only
*approximately* fair, which is one of the motivations for Share and for the
paper's own strategies (their data structures would need ``n log n`` bits for
comparable precision, cf. Section 1.2).

Adaptivity is the strategy's strength: adding a bin steals only the arcs the
new points cover (1-competitive); removing a bin reassigns only its own arcs.

:class:`ConsistentHashingPlacer` is the ring over a bin configuration; its
:meth:`~ConsistentHashingPlacer.place_successors` is the ring-successor
replication baseline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..hashing.primitives import derive_base, unit_from_base
from ..hashing.rings import HashRing
from ..types import BinSpec, validate_bins

#: Virtual points of a bin of average capacity.
POINTS_PER_BIN = 128


class ConsistentHashingPlacer:
    """Weighted consistent hashing over a configuration of bins."""

    name = "consistent-hashing"

    def __init__(self, bins: Sequence[BinSpec], namespace: str = "") -> None:
        """Build the ring; ``namespace`` defaults to :attr:`name`."""
        validate_bins(bins)
        namespace = namespace or self.name
        self._ring = HashRing(namespace)
        average = sum(spec.capacity for spec in bins) / len(bins)
        for spec in bins:
            points = max(1, round(POINTS_PER_BIN * spec.capacity / average))
            self._ring.add_owner(spec.bin_id, points)
        self._ball_base = derive_base(namespace, "ball")

    def place(self, address: int) -> str:
        """Owner of the ball's clockwise successor point."""
        return self._ring.successor(unit_from_base(self._ball_base, address))

    def place_successors(self, address: int, count: int) -> List[str]:
        """First ``count`` distinct owners clockwise — the classic replica
        chain used by DHT storage systems (a *trivial* replication in the
        paper's sense)."""
        return self._ring.successors(
            unit_from_base(self._ball_base, address), count
        )

    def expected_shares(self) -> Dict[str, float]:
        """Exact arc shares of the concrete ring (not the ideal weights)."""
        return dict(self._ring.arc_length())  # type: ignore[arg-type]
