"""The Share strategy (Brinkmann, Salzwedel, Scheideler — SPAA 2002).

Share reduces *non-uniform* placement to a uniform sub-problem.  Every bin
``i`` claims an interval of length ``stretch * c_i`` on the unit circle,
starting at a hash of its name.  A ball hashes to a point ``x``; the bins
whose intervals cover ``x`` form the candidate set, and a uniform
sub-strategy (here: rendezvous keyed on ball and bin) picks the winner.

Interval lengths above 1 wrap: such a bin covers every point
``floor(length)`` times (its *multiplicity*) plus one fractional arc, and
the candidate rendezvous weights each bin by its local cover count.  With
a logarithmic stretch factor every point is covered w.h.p. and cover
counts concentrate around ``stretch``, which makes Share fair up to a
``(1 + eps)`` factor and (amortized) ``(1 + eps)``-competitive for
adaptivity — the state of the art for heterogeneous bins *without*
replication that the paper builds on (its ``placeonecopy`` can be exactly
this strategy).

The implementation precomputes the elementary segments of the circle (the
arcs between consecutive interval endpoints) together with their covering
bin sets, so a lookup is a binary search plus a small weighted rendezvous.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..types import BinSpec
from .base import SingleCopyPlacer
from .share_weighted import ShareWeightedPlacer, default_stretch, local_weights


class SharePlacer(SingleCopyPlacer):
    """Share over a configuration of bins: the capacity-carrying face of
    :class:`~repro.placement.share_weighted.ShareWeightedPlacer`."""

    name = "share"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        namespace: str = "",
        stretch: float = 0.0,
    ) -> None:
        """Build the segment index.

        Args:
            bins: Configuration snapshot.
            namespace: Hash salt prefix.
            stretch: Interval stretch factor; 0 selects
                :func:`default_stretch` for the bin count.
        """
        super().__init__(bins, namespace)
        self._stretch = stretch if stretch > 0 else default_stretch(len(bins))
        self._selector = ShareWeightedPlacer(
            [spec.bin_id for spec in self._bins],
            [float(spec.capacity) for spec in self._bins],
            self._namespace,
            self._stretch,
        )

    @property
    def stretch(self) -> float:
        """The stretch factor in effect."""
        return self._stretch

    def place(self, address: int) -> str:
        return self._selector.place(address)

    def expected_shares(self) -> Dict[str, float]:
        """Exact expected shares of this concrete instance.

        Computed segment by segment: a ball is uniform on the circle, and
        within a segment the weighted rendezvous picks each candidate with
        probability proportional to its local cover count.  Uncovered
        segments fall back to capacity-proportional choice.
        """
        boundaries, covers, multiplicity = self._selector.segments()
        shares: Dict[str, float] = {spec.bin_id: 0.0 for spec in self._bins}
        total_capacity = sum(spec.capacity for spec in self._bins)
        boundaries = list(boundaries) + [1.0]
        for index, cover in enumerate(covers):
            length = boundaries[index + 1] - boundaries[index]
            if length <= 0:
                continue
            candidates = local_weights(cover, multiplicity)
            if candidates:
                weight_total = sum(candidates.values())
                for bin_id, weight in candidates.items():
                    shares[bin_id] += length * weight / weight_total
            else:
                for spec in self._bins:
                    shares[spec.bin_id] += (
                        length * spec.capacity / total_capacity
                    )
        return shares

    def coverage_gap(self) -> float:
        """Total circle length not covered by any interval (fallback zone)."""
        boundaries, covers, multiplicity = self._selector.segments()
        if multiplicity:
            return 0.0
        gap = 0.0
        boundaries = list(boundaries) + [1.0]
        for index, cover in enumerate(covers):
            if not cover:
                gap += boundaries[index + 1] - boundaries[index]
        return gap
