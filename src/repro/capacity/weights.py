"""Capacity arithmetic shared by the placement strategies.

The paper works with a capacity vector ``b_0 >= b_1 >= ... >= b_{n-1}``;
nearly every formula is phrased in terms of the suffix sums
``B_i = sum_{j>=i} b_j`` and the round probabilities
``č_i = k * b_i / B_i``.  This module centralises that arithmetic so the
core algorithm, its fast variant, and the analytical tests all share one
implementation.
"""

from __future__ import annotations

from typing import List, Sequence


def suffix_sums(capacities: Sequence[float]) -> List[float]:
    """Return ``B_i = sum_{j >= i} capacities[j]`` for every ``i``.

    The returned list has ``len(capacities) + 1`` entries; the final entry is
    ``0`` so ``sums[i + 1]`` is always valid.
    """
    sums = [0.0] * (len(capacities) + 1)
    for index in range(len(capacities) - 1, -1, -1):
        sums[index] = sums[index + 1] + capacities[index]
    return sums


def is_sorted_descending(capacities: Sequence[float]) -> bool:
    """True if the vector satisfies the paper's ``b_i >= b_{i+1}`` requirement."""
    return all(
        capacities[index] >= capacities[index + 1]
        for index in range(len(capacities) - 1)
    )


def round_probabilities(capacities: Sequence[float], k: int) -> List[float]:
    """The paper's ``č_i = k * b_i / B_i`` for a descending capacity vector.

    Values may exceed 1; callers cap them at 1 (the deterministic stop of the
    while loop in Algorithms 2 and 4).

    Raises:
        ValueError: if the vector is not sorted descending, is empty, or k < 1.
    """
    if k < 1:
        raise ValueError(f"replication degree must be >= 1, got {k}")
    if not capacities:
        raise ValueError("capacity vector must not be empty")
    if not is_sorted_descending(capacities):
        raise ValueError("capacities must be sorted in descending order")
    sums = suffix_sums(capacities)
    return [
        k * capacity / sums[index] for index, capacity in enumerate(capacities)
    ]


def reach_probabilities(round_probs: Sequence[float]) -> List[float]:
    """``P_i = prod_{j < i} (1 - min(č_j, 1))``: probability round i is reached.

    The returned list has one extra entry: ``P_n`` is the probability that no
    primary was chosen at all, which must be 0 for a well-formed strategy.
    """
    reach = [1.0]
    for prob in round_probs:
        effective = min(prob, 1.0)
        reach.append(reach[-1] * (1.0 - effective))
    return reach


def first_saturated_index(round_probs: Sequence[float]) -> int:
    """Index ``T`` of the first round with ``č_T >= 1`` (deterministic stop).

    Raises:
        ValueError: if no round saturates (the selection could fall through).
    """
    for index, prob in enumerate(round_probs):
        if prob >= 1.0:
            return index
    raise ValueError("no saturated round: selection would not terminate")
