"""Fairness metrics — how well a placement honours capacity proportions.

The paper's headline fairness claim (Figures 2 and 4) is phrased as *fill
percentage*: after placing ``m`` balls, every bin should be filled to the
same percentage of its (usable) capacity.  This module provides that view,
the share distance and chi-square statistic the acceptance tests and
benches read, and the redundancy-violation count.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

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
