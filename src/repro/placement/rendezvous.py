"""Weighted rendezvous hashing (highest random weight).

The cleanest *perfectly fair* single-copy strategy for heterogeneous bins,
used as the default ``placeonecopy`` backend of Redundant Share:

    score(bin) = - weight(bin) / ln(u)        u = hash(bin, address) in (0,1)

and the ball goes to the bin with the highest score.  Because
``-w/ln(u) > t  <=>  u > exp(-w/t)``, the score is distributed like an
exponential race with rate ``1/w``, so

    P(bin i wins) = w_i / sum_j w_j            (exactly)

Rendezvous is 1-competitive for adaptivity: adding a bin moves exactly the
balls the new bin wins (a ``w_new/W`` fraction), removing a bin moves exactly
its own balls, and no other assignment changes — each bin's score is
independent of the others.

Lookup is O(n); the O(1) alternative (at the cost of adaptivity) is
:mod:`repro.placement.alias_placer`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..hashing.primitives import derive_base, unit_from_base_open
from .base import WeightedPlacer


def rendezvous_score(weight: float, uniform: float) -> float:
    """The HRW score ``-w / ln(u)`` for a draw ``u`` in (0, 1)."""
    return -weight / math.log(uniform)


class WeightedRendezvous(WeightedPlacer):
    """(ids, weights) rendezvous selector: the default ``placeonecopy``."""

    def __init__(
        self, ids: Sequence[str], weights: Sequence[float], namespace: str
    ) -> None:
        super().__init__(ids, weights, namespace)
        # Per-id salt bases: the hot loop then only mixes integers.
        self._entries = [
            (bin_id, weight, derive_base(namespace, bin_id))
            for bin_id, weight in zip(self._ids, self._weights)
            if weight > 0
        ]

    def race_columns(
        self,
    ) -> Tuple[Tuple[str, ...], Tuple[float, ...], Tuple[int, ...]]:
        """The race as read-only ``(ids, weights, bases)`` columns.

        One entry per positive-weight id, in the order :meth:`place`
        compares them (first wins an exact tie) — everything a batch
        engine needs to reproduce this selector over an address vector.
        """
        return tuple(zip(*self._entries))

    def place(self, address: int) -> str:
        best_id = None
        best_score = -math.inf
        for bin_id, weight, base in self._entries:
            uniform = unit_from_base_open(base, address)
            score = -weight / math.log(uniform)
            if score > best_score:
                best_score = score
                best_id = bin_id
        assert best_id is not None  # guaranteed by constructor validation
        return best_id

    def top(self, address: int, count: int) -> List[str]:
        """The ``count`` highest-scoring ids, best first.

        The classic (trivial, in the paper's terminology) way of deriving
        ``count`` replicas from rendezvous hashing.

        Raises:
            ValueError: if fewer than ``count`` ids have a positive weight.
        """
        if count > len(self._entries):
            raise ValueError(
                f"requested {count} ids, only {len(self._entries)} can win"
            )
        scored = sorted(
            (
                (-weight / math.log(unit_from_base_open(base, address)), bin_id)
                for bin_id, weight, base in self._entries
            ),
            reverse=True,
        )
        return [bin_id for _, bin_id in scored[:count]]
