"""Capacity-efficiency theory: Lemmas 2.1 / 2.2 and Algorithm 1 of the paper.

A heterogeneous system can only be *perfectly fair* under k-replication if no
bin is so large that it would have to hold more than one copy of some ball.
Lemma 2.1 makes this precise: with capacities sorted descending, all capacity
is usable iff ``k * b_0 <= B``.  When the condition fails, Lemma 2.2 gives the
maximum number of storable balls via recursively *clipped* capacities
``b̂`` (Algorithm 1, ``optimalweights``): the strategies then target the
clipped shares, deliberately leaving the excess capacity of oversized bins
unused — it could never be used without violating redundancy.

Two independent formulations are implemented:

* :func:`optimal_weights` — the paper's recursive Algorithm 1, on reals.
* :func:`water_fill_limit` / :func:`clip_capacities` — the equivalent
  water-filling fixed point ``m* = max{m : sum_i min(b_i, m) >= k*m}``,
  ``b̂_i = min(b_i, m*)``.

Their agreement is property-tested in ``tests/capacity``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import ConfigurationError
from .weights import is_sorted_descending


def is_capacity_efficient(capacities: Sequence[float], k: int) -> bool:
    """Lemma 2.1: can fairness and redundancy use *all* capacity?

    Args:
        capacities: Bin capacities sorted in descending order.
        k: Replication degree.

    Returns:
        True iff ``k * b_0 <= B``.
    """
    _validate(capacities, k)
    return k * capacities[0] <= sum(capacities)


def optimal_weights(capacities: Sequence[float], k: int) -> List[float]:
    """Algorithm 1 (``optimalweights``): recursively clip oversized bins.

    If the largest bin exceeds ``1/(k-1)`` of the rest, it is saturated: it
    will hold one copy of *every* ball, and the remaining ``k-1`` copies must
    form a ``(k-1)``-replication on the tail — so the tail is clipped
    recursively first, then the head is capped at ``1/(k-1)`` of the clipped
    tail.

    Args:
        capacities: Bin capacities sorted in descending order.
        k: Replication degree (``k >= 1``).

    Returns:
        The clipped capacity vector ``b̂`` (same order, possibly fractional).
    """
    _validate(capacities, k)
    clipped = list(map(float, capacities))
    _optimal_weights_in_place(clipped, k, start=0)
    return clipped


def _optimal_weights_in_place(capacities: List[float], k: int, start: int) -> None:
    """Recursive worker for :func:`optimal_weights` operating on a suffix."""
    if k <= 1:
        return  # single copies are unconstrained
    tail_sum = sum(capacities[start + 1 :])
    if capacities[start] * (k - 1) > tail_sum:
        _optimal_weights_in_place(capacities, k - 1, start + 1)
        tail_sum = sum(capacities[start + 1 :])
        capacities[start] = tail_sum / (k - 1)


def water_fill_limit(capacities: Sequence[float], k: int) -> float:
    """Lemma 2.2 as a fixed point: maximum storable balls ``m*``.

    ``m* = max{m : sum_i min(b_i, m) >= k * m}``.  Since the left side is
    piecewise linear and concave in ``m``, the maximum is found exactly by
    scanning the sorted breakpoints.
    """
    _validate(capacities, k)
    ordered = sorted(capacities)  # ascending
    n = len(ordered)
    prefix = 0.0  # sum of bins smaller than the current water level
    for index, level in enumerate(ordered):
        # With water level m in (ordered[index-1], ordered[index]],
        # sum_i min(b_i, m) = prefix + (n - index) * m, so the constraint
        # reads prefix + (n - index) * m >= k * m.
        remaining = n - index
        if remaining >= k:
            # Non-negative slope: the constraint holds through this segment.
            prefix += level
            continue
        candidate = prefix / (k - remaining)
        if candidate <= level:
            # The zero crossing of the concave constraint lies here.
            return candidate
        # Still feasible at the segment end; keep scanning.
        prefix += level
    # Feasible all the way up: the binding level is B / k (>= max capacity).
    return sum(capacities) / k


def clip_capacities(capacities: Sequence[float], k: int) -> List[float]:
    """Clip every capacity at the water-fill limit: ``b̂_i = min(b_i, m*)``."""
    limit = water_fill_limit(capacities, k)
    return [min(float(capacity), limit) for capacity in capacities]


def max_balls(capacities: Sequence[int], k: int) -> int:
    """Integer form of Lemma 2.2: most balls storable with k copies each.

    ``max{m in N : sum_i min(b_i, m) >= k * m}``.
    """
    _validate(capacities, k)
    return int(water_fill_limit(capacities, k) + 1e-9)


def clipped_shares(capacities: Sequence[float], k: int) -> List[float]:
    """Fair target share of each bin: ``b̂_i / sum(b̂)``.

    This is the distribution the placement strategies aim for; for capacity
    efficient systems (Lemma 2.1) it coincides with the raw relative
    capacities.
    """
    clipped = clip_capacities(capacities, k)
    total = sum(clipped)
    return [value / total for value in clipped]


def _validate(capacities: Sequence[float], k: int) -> None:
    if k < 1:
        raise ConfigurationError(f"replication degree must be >= 1, got {k}")
    if len(capacities) < k:
        raise ConfigurationError(
            f"need at least k={k} bins for redundancy, got {len(capacities)}"
        )
    if any(capacity <= 0 for capacity in capacities):
        raise ConfigurationError("capacities must be positive")
    if not is_sorted_descending(capacities):
        raise ConfigurationError("capacities must be sorted in descending order")
