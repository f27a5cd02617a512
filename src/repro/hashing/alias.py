"""Alias tables: O(1) weighted sampling driven by hash values.

The O(k) variant of Redundant Share (Section 3.3 of the paper) precomputes,
for every recursion state, a distribution over the remaining bins and then
draws from it in constant time.  Walker/Vose alias tables provide exactly
that: after an O(n) build, one uniform draw in ``[0, 1)`` selects an outcome
with the desired probabilities.

The tables here are *deterministic consumers* of hash values — they take the
uniform draw as an argument instead of sampling it — so the same ball address
always maps to the same outcome.
"""

from __future__ import annotations

import math
from typing import List, Sequence


class AliasTable:
    """Walker alias table over outcomes ``0..n-1`` with given weights."""

    __slots__ = ("_size", "_prob", "_alias")

    def __init__(self, weights: Sequence[float]) -> None:
        """Build the table in O(n).

        Args:
            weights: Non-negative weights; at least one must be positive.

        Raises:
            ValueError: on empty input, negative weights, or all-zero weights.
        """
        if len(weights) == 0:
            raise ValueError("alias table needs at least one outcome")
        total = 0.0
        for weight in weights:
            if weight < 0 or math.isnan(weight):
                raise ValueError(f"negative or NaN weight: {weight}")
            total += weight
        if total <= 0:
            raise ValueError("at least one weight must be positive")

        size = len(weights)
        scaled = [weight * size / total for weight in weights]
        prob = [0.0] * size
        alias = [0] * size
        small: List[int] = []
        large: List[int] = []
        for index, value in enumerate(scaled):
            (small if value < 1.0 else large).append(index)
        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
            (small if scaled[hi] < 1.0 else large).append(hi)
        for index in large:
            prob[index] = 1.0
            alias[index] = index
        for index in small:  # numerical leftovers
            prob[index] = 1.0
            alias[index] = index

        self._size = size
        self._prob = prob
        self._alias = alias

    def select(self, uniform: float) -> int:
        """Map one uniform draw in ``[0, 1)`` to an outcome index.

        The draw is split into a column choice and a coin flip, the standard
        trick for using a single uniform with an alias table.
        """
        if not 0.0 <= uniform < 1.0:
            raise ValueError(f"uniform draw must be in [0, 1), got {uniform}")
        scaled = uniform * self._size
        column = int(scaled)
        if column >= self._size:  # guard against float rounding at 1.0
            column = self._size - 1
        fraction = scaled - column
        if fraction < self._prob[column]:
            return column
        return self._alias[column]

    def __len__(self) -> int:
        return self._size

    def probabilities(self) -> List[float]:
        """Reconstruct the outcome probabilities encoded by the table.

        Exact up to float rounding; used by tests to verify the build.
        """
        result = [0.0] * self._size
        share = 1.0 / self._size
        for column in range(self._size):
            result[column] += self._prob[column] * share
            result[self._alias[column]] += (1.0 - self._prob[column]) * share
        return result


class CumulativeTable:
    """Binary-searchable cumulative distribution (O(log n) per draw).

    A simpler, allocation-light alternative to :class:`AliasTable`; used
    where the distribution is built once and queried rarely, and in tests as
    an oracle for the alias table.
    """

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


def build_selector(weights: Sequence[float]):
    """Return the selector for ``weights``: a trivial constant selector for
    a single-outcome distribution, an :class:`AliasTable` otherwise."""
    positive = [index for index, weight in enumerate(weights) if weight > 0]
    if len(positive) == 1:
        only = positive[0]

        class _Constant:
            def select(self, uniform: float) -> int:
                return only

            def __len__(self) -> int:
                return len(weights)

        return _Constant()
    return AliasTable(weights)
