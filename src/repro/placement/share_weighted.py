"""Share (Brinkmann, Salzwedel, Scheideler — SPAA 2002) as a ``placeonecopy``.

Share reduces *non-uniform* placement to a uniform sub-problem.  Every id
claims an interval of length ``stretch * w_i / W`` on the unit circle,
starting at a hash of its name.  A ball hashes to a point ``x``; the ids
whose intervals cover ``x`` form the candidate set, and a weighted
rendezvous keyed on ball and id picks the winner.  Lengths above 1 wrap:
such an id covers every point ``floor(length)`` times (its
*multiplicity*) plus one fractional arc, and the candidate rendezvous
weights each id by its local cover count.  With a logarithmic stretch
every point is covered w.h.p. and cover counts concentrate around
``stretch``, which makes Share fair up to a ``(1 + eps)`` factor and
(amortized) ``(1 + eps)``-competitive for adaptivity.

Section 3.3 of the paper obtains O(k) lookups by pairing the precomputed
state distributions with a (near-)constant-time single-copy placement;
Share is the natural candidate.  After an O(n log n) build of the circle's
elementary segments and their covering id sets, a lookup is one binary
search plus a weighted rendezvous over the (expected O(stretch)-sized)
candidate set — and, unlike an alias table, it *adapts*: small weight
changes only perturb interval lengths, moving a proportional fraction of
the keys.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

from ..hashing.primitives import (
    derive_base,
    unit_from_base,
    unit_from_base_open,
    unit_interval,
)
from .base import WeightedPlacer
from .rendezvous import rendezvous_score


def default_stretch(bin_count: int) -> float:
    """The logarithmic stretch factor suggested by the Share analysis."""
    return max(3.0, 2.0 * math.log(bin_count + 1.0))


def build_segments(
    owners: Sequence[Tuple[str, float]], namespace: str, stretch: float
):
    """Shared Share-geometry builder.

    Args:
        owners: (owner, relative weight) pairs; weights should sum to ~1.
        namespace: Hash salt for interval starts.
        stretch: Interval stretch factor.

    Returns:
        ``(boundaries, covers, multiplicity)`` — the sorted segment starts,
        the covering owner tuple per segment, and each owner's whole-circle
        multiplicity (0 for short intervals).
    """
    pieces: List[Tuple[float, float, str]] = []
    multiplicity: Dict[str, int] = {}
    for owner, weight in owners:
        if weight <= 0:
            continue
        length = stretch * weight
        wraps = int(length)
        if wraps:
            multiplicity[owner] = wraps
        fraction = length - wraps
        if fraction <= 0:
            continue
        start = unit_interval(namespace, "interval", owner)
        end = start + fraction
        if end <= 1.0:
            pieces.append((start, end, owner))
        else:
            pieces.append((start, 1.0, owner))
            pieces.append((0.0, end - 1.0, owner))

    events: List[Tuple[float, int, str]] = []
    for start, end, owner in pieces:
        events.append((start, +1, owner))
        events.append((end, -1, owner))
    events.sort(key=lambda item: (item[0], -item[1]))

    boundaries: List[float] = [0.0]
    covers: List[Tuple[str, ...]] = []
    active: Dict[str, int] = {}
    position = 0.0
    for point, delta, owner in events:
        if point > position:
            covers.append(tuple(sorted(active)))
            boundaries.append(point)
            position = point
        count = active.get(owner, 0) + delta
        if count:
            active[owner] = count
        else:
            active.pop(owner, None)
    covers.append(tuple(sorted(active)))
    return boundaries, covers, multiplicity


def local_weights(
    segment: Tuple[str, ...], multiplicity: Dict[str, int]
) -> Dict[str, float]:
    """Candidate weights at a point: multiplicity plus the local arcs."""
    weights: Dict[str, float] = {
        owner: float(count) for owner, count in multiplicity.items()
    }
    for owner in segment:
        weights[owner] = weights.get(owner, 0.0) + 1.0
    return weights


class ShareWeightedPlacer(WeightedPlacer):
    """(ids, weights) Share selector with precomputed segments."""

    def __init__(
        self,
        ids: Sequence[str],
        weights: Sequence[float],
        namespace: str,
        stretch: float = 0.0,
    ) -> None:
        super().__init__(ids, weights, namespace)
        total = sum(self._weights)
        self._stretch = stretch if stretch > 0 else default_stretch(len(ids))
        self._boundaries, self._covers, self._multiplicity = build_segments(
            [
                (owner, weight / total)
                for owner, weight in zip(self._ids, self._weights)
            ],
            namespace,
            self._stretch,
        )
        self._ball_base = derive_base(namespace, "ball")
        self._pick_bases = {
            owner: derive_base(namespace, "pick", owner) for owner in ids
        }

    def _segment_lengths(self):
        """``(length, cover)`` for every elementary segment of the circle."""
        ends = self._boundaries[1:] + [1.0]
        return [
            (end - start, cover)
            for start, end, cover in zip(self._boundaries, ends, self._covers)
        ]

    def expected_shares(self) -> Dict[str, float]:
        """Exact expected shares of this concrete instance.

        Computed segment by segment: a ball is uniform on the circle, and
        within a segment the weighted rendezvous picks each candidate with
        probability proportional to its local cover count.  Uncovered
        segments fall back to weight-proportional choice.
        """
        shares: Dict[str, float] = {owner: 0.0 for owner in self._ids}
        for length, cover in self._segment_lengths():
            candidates = local_weights(cover, self._multiplicity)
            if not candidates:
                candidates = dict(zip(self._ids, self._weights))
            weight_total = sum(candidates.values())
            for owner, weight in candidates.items():
                shares[owner] += length * weight / weight_total
        return shares

    def coverage_gap(self) -> float:
        """Total circle length not covered by any interval (fallback zone)."""
        if self._multiplicity:
            return 0.0
        return sum(
            length for length, cover in self._segment_lengths() if not cover
        )

    def place(self, address: int) -> str:
        position = unit_from_base(self._ball_base, address)
        index = bisect.bisect_right(self._boundaries, position) - 1
        candidates = local_weights(self._covers[index], self._multiplicity)
        if not candidates:
            # Uncovered gap (rare with logarithmic stretch): fall back to a
            # weighted rendezvous over everything, keeping lookups total.
            candidates = {
                owner: weight
                for owner, weight in zip(self._ids, self._weights)
                if weight > 0
            }
        best_id = None
        best_score = -math.inf
        for owner, weight in candidates.items():
            uniform = unit_from_base_open(self._pick_bases[owner], address)
            score = rendezvous_score(weight, uniform)
            if score > best_score:
                best_score = score
                best_id = owner
        assert best_id is not None
        return best_id

