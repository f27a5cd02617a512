"""Capacity-efficiency theory of the paper (Section 2).

:mod:`repro.capacity.weights` holds the shared suffix-sum / round-probability
arithmetic; :mod:`repro.capacity.clipping` implements Lemma 2.1, Lemma 2.2
and Algorithm 1 (``optimalweights``).
"""

from .clipping import (
    clip_capacities,
    clipped_shares,
    is_capacity_efficient,
    max_balls,
    optimal_weights,
    water_fill_limit,
)
from .weights import (
    first_saturated_index,
    is_sorted_descending,
    reach_probabilities,
    round_probabilities,
    suffix_sums,
)

__all__ = [
    "clip_capacities",
    "clipped_shares",
    "first_saturated_index",
    "is_capacity_efficient",
    "is_sorted_descending",
    "max_balls",
    "optimal_weights",
    "reach_probabilities",
    "round_probabilities",
    "suffix_sums",
    "water_fill_limit",
]
