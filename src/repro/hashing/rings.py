"""Hash-ring data structure used by consistent hashing.

A :class:`HashRing` stores named points on the unit circle ``[0, 1)`` and
answers successor queries ("which point follows position x clockwise?") in
``O(log P)`` via binary search.  Points are placed deterministically from the
owner's name and a replica index, so the ring is identical across processes
and an owner's points do not depend on which other owners are present —
the property that makes consistent hashing 1-competitive for adaptivity.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from .primitives import unit_interval


class HashRing:
    """A unit-circle ring of labelled points with successor lookup."""

    def __init__(self, namespace: str = "ring") -> None:
        self._namespace = namespace
        self._positions: List[float] = []
        self._labels: List[str] = []
        self._points_per_owner: Dict[str, int] = {}
        self._dirty = False
        self._pending: List[Tuple[float, str]] = []

    @staticmethod
    def point_position(namespace: str, owner: str, replica: int) -> float:
        """Deterministic position of the ``replica``-th point of ``owner``."""
        return unit_interval(namespace, owner, replica)

    def add_owner(self, owner: str, points: int) -> None:
        """Insert ``points`` virtual points for ``owner``.

        Raises:
            ValueError: if the owner is already on the ring or ``points < 1``.
        """
        if owner in self._points_per_owner:
            raise ValueError(f"owner {owner!r} already on the ring")
        if points < 1:
            raise ValueError("an owner needs at least one point")
        self._points_per_owner[owner] = points
        for replica in range(points):
            position = self.point_position(self._namespace, owner, replica)
            self._pending.append((position, owner))
        self._dirty = True

    def _flush(self) -> None:
        """Merge pending insertions into the sorted arrays."""
        if not self._dirty:
            return
        merged = list(zip(self._positions, self._labels)) + self._pending
        merged.sort()
        self._positions = [position for position, _ in merged]
        self._labels = [label for _, label in merged]
        self._pending = []
        self._dirty = False

    def successor(self, position: float) -> str:
        """Owner of the first point at or after ``position`` (wrapping).

        Raises:
            LookupError: if the ring is empty.
        """
        self._flush()
        if not self._positions:
            raise LookupError("ring is empty")
        index = bisect.bisect_left(self._positions, position)
        if index == len(self._positions):
            index = 0
        return self._labels[index]

    def successors(self, position: float, count: int) -> List[str]:
        """First ``count`` *distinct* owners clockwise from ``position``.

        Used for replica chains in classic consistent-hashing replication.

        Raises:
            LookupError: if the ring is empty.
            ValueError: if fewer distinct owners exist than requested.
        """
        self._flush()
        if not self._positions:
            raise LookupError("ring is empty")
        if count > len(self._points_per_owner):
            raise ValueError(
                f"requested {count} distinct owners, ring has "
                f"{len(self._points_per_owner)}"
            )
        result: List[str] = []
        seen = set()
        start = bisect.bisect_left(self._positions, position)
        total = len(self._positions)
        for offset in range(total):
            label = self._labels[(start + offset) % total]
            if label not in seen:
                seen.add(label)
                result.append(label)
                if len(result) == count:
                    break
        return result

    def __len__(self) -> int:
        self._flush()
        return len(self._positions)

    def __contains__(self, owner: str) -> bool:
        return owner in self._points_per_owner

    def arc_length(self, owner: Optional[str] = None) -> float:
        """Total clockwise arc owned by ``owner`` (or a dict for all owners).

        The arc of a point extends from the previous point (exclusive) to the
        point itself (inclusive); an owner's arc is the sum over its points.
        This is exactly the probability that a uniform position maps to the
        owner, and is used in tests to bound fairness deviations.
        """
        self._flush()
        if not self._positions:
            raise LookupError("ring is empty")
        totals: Dict[str, float] = {name: 0.0 for name in self._points_per_owner}
        previous = self._positions[-1] - 1.0
        for position, label in zip(self._positions, self._labels):
            totals[label] += position - previous
            previous = position
        if owner is None:
            return totals  # type: ignore[return-value]
        return totals[owner]
