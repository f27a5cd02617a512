"""Inverse-CDF tables: weighted sampling driven by hash values.

The O(k) variant of Redundant Share (Section 3.3 of the paper) precomputes,
for every recursion state, a distribution over the remaining bins and then
draws from it with one hash.  :class:`CumulativeTable` is that draw: after
an O(n) build, one uniform draw in ``[0, 1)`` selects an outcome with the
desired probabilities by binary search over the cumulative boundaries.

The table is a *deterministic consumer* of hash values — it takes the
uniform draw as an argument instead of sampling it — so the same ball
address always maps to the same outcome.
"""

from __future__ import annotations

import math
from typing import List, Sequence


class CumulativeTable:
    """Binary-searchable cumulative distribution (O(log n) per draw)."""

    __slots__ = ("_cumulative",)

    def __init__(self, weights: Sequence[float]) -> None:
        if len(weights) == 0:
            raise ValueError("cumulative table needs at least one outcome")
        running = 0.0
        cumulative: List[float] = []
        for weight in weights:
            if weight < 0 or math.isnan(weight):
                raise ValueError(f"negative or NaN weight: {weight}")
            running += weight
            cumulative.append(running)
        if running <= 0:
            raise ValueError("at least one weight must be positive")
        self._cumulative = [value / running for value in cumulative]

    def select(self, uniform: float) -> int:
        """Map one uniform draw in ``[0, 1)`` to an outcome index."""
        if not 0.0 <= uniform < 1.0:
            raise ValueError(f"uniform draw must be in [0, 1), got {uniform}")
        lo, hi = 0, len(self._cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if uniform < self._cumulative[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def boundaries(self) -> List[float]:
        """The normalised cumulative boundaries (ascending, ends at 1.0).

        Exposed so vectorized consumers can run :meth:`select` as a batch
        ``searchsorted`` over *exactly* the floats the scalar binary search
        compares against — the bit-identity of the two paths depends on
        sharing these values rather than re-deriving them.
        """
        return list(self._cumulative)

    def __len__(self) -> int:
        return len(self._cumulative)
