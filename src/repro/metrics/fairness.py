"""Fairness metrics — how well a placement honours capacity proportions.

The paper's headline fairness claim (Figures 2 and 4) is phrased as *fill
percentage*: after placing ``m`` balls, every bin should be filled to the
same percentage of its (usable) capacity.  This module provides that view
plus the standard statistical summaries used in the comparison benches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

from ..placement.base import ReplicationStrategy


def fill_percentages(
    copy_counts: Mapping[str, int], capacities: Mapping[str, float]
) -> Dict[str, float]:
    """Percent of each bin's capacity in use — the Figure 2/4 metric."""
    result = {}
    for bin_id, capacity in capacities.items():
        if capacity <= 0:
            raise ValueError(f"bin {bin_id!r} has non-positive capacity")
        result[bin_id] = 100.0 * copy_counts.get(bin_id, 0) / capacity
    return result


def max_fill_spread(
    copy_counts: Mapping[str, int], capacities: Mapping[str, float]
) -> float:
    """Largest minus smallest fill percentage — 0 for perfect fairness."""
    fills = fill_percentages(copy_counts, capacities)
    return max(fills.values()) - min(fills.values())


def max_share_deviation(
    observed: Mapping[str, float], expected: Mapping[str, float]
) -> float:
    """Largest absolute deviation between observed and expected shares."""
    keys = set(observed) | set(expected)
    return max(
        abs(observed.get(key, 0.0) - expected.get(key, 0.0)) for key in keys
    )


def chi_square_statistic(
    copy_counts: Mapping[str, int], expected_shares: Mapping[str, float]
) -> float:
    """Pearson chi-square of counts against expected shares.

    Compared against the chi-square quantile for ``len(bins) - 1`` degrees
    of freedom in the statistical fairness tests.
    """
    total = sum(copy_counts.values())
    if total <= 0:
        raise ValueError("no copies counted")
    statistic = 0.0
    for bin_id, share in expected_shares.items():
        expected = share * total
        if expected <= 0:
            if copy_counts.get(bin_id, 0) > 0:
                return math.inf
            continue
        delta = copy_counts.get(bin_id, 0) - expected
        statistic += delta * delta / expected
    return statistic


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 for perfectly equal values, 1/n for one hot
    spot.  Applied to *fill fractions*, equality is exactly the paper's
    fairness notion."""
    if not values:
        raise ValueError("need at least one value")
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = perfectly even)."""
    if not values:
        raise ValueError("need at least one value")
    if any(value < 0 for value in values):
        raise ValueError("values must be non-negative")
    ordered = sorted(values)
    total = sum(ordered)
    if total == 0:
        return 0.0
    n = len(ordered)
    weighted = sum((index + 1) * value for index, value in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def count_copies(placements: Iterable[Sequence[str]]) -> Dict[str, int]:
    """Tally copies per bin over an iterable of placements.

    Also accepts a column-oriented
    :class:`~repro.placement.base.BatchPlacement` (the result of
    ``strategy.place_many``), in which case the histogram is collected
    with a bincount over the rank columns instead of a Python loop over
    per-ball tuples — the fast path of the fairness experiments.
    """
    counter = getattr(placements, "counts", None)
    if callable(counter):
        return counter()
    counts: Dict[str, int] = {}
    for placement in placements:
        for bin_id in placement:
            counts[bin_id] = counts.get(bin_id, 0) + 1
    return counts


def count_violations(
    strategy: ReplicationStrategy, addresses: Iterable[int]
) -> int:
    """Number of balls whose placement repeats a device (the paper's
    redundancy condition says there must be none)."""
    violations = 0
    for address in addresses:
        placement = strategy.place(address)
        if len(set(placement)) != len(placement):
            violations += 1
    return violations
