"""Share as a bare (ids, weights) selector — the O(1) ``placeonecopy``.

Section 3.3 of the paper obtains O(k) lookups by pairing the precomputed
state distributions with "an algorithm for the placement of a single copy"
that runs in (near-)constant time.  Share is the natural candidate: after
an O(n log n) build, a lookup is one binary search over the precomputed
circle segments plus a weighted rendezvous over the (expected
O(stretch)-sized) candidate set — and, unlike an alias table, it *adapts*:
small weight changes only perturb interval lengths, moving a proportional
fraction of the keys.

An owner's interval has length ``stretch * weight / total``; lengths above
1 wrap around the circle, contributing ``floor(length)`` full covers (a
constant *multiplicity* at every point) plus one fractional arc.  The
candidate rendezvous weights each owner by its local multiplicity, which
is what makes the shares track the weights as the stretch grows.

This module is the :class:`~repro.placement.base.WeightedPlacer` face of
the same construction as :class:`~repro.placement.share.SharePlacer`
(which works on :class:`~repro.types.BinSpec` capacities).
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
        if len(ids) != len(weights) or not ids:
            raise ValueError("ids and weights must be equal-length, non-empty")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self._namespace = namespace
        self._ids = list(ids)
        self._weights = [float(weight) for weight in weights]
        self._stretch = stretch if stretch > 0 else default_stretch(len(ids))
        self._boundaries, self._covers, self._multiplicity = build_segments(
            [(owner, weight / total) for owner, weight in zip(ids, weights)],
            namespace,
            self._stretch,
        )
        self._ball_base = derive_base(namespace, "ball")
        self._pick_bases = {
            owner: derive_base(namespace, "pick", owner) for owner in ids
        }

    def segments(self):
        """The geometry as read-only ``(boundaries, covers, multiplicity)``
        — see :func:`build_segments`."""
        return self._boundaries, self._covers, self._multiplicity

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


def make_share(
    ids: Sequence[str], weights: Sequence[float], namespace: str
) -> ShareWeightedPlacer:
    """Factory with the ``WeightedPlacerFactory`` signature."""
    return ShareWeightedPlacer(ids, weights, namespace)
