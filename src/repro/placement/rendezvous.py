"""Weighted rendezvous hashing (highest random weight).

The cleanest *perfectly fair* single-copy strategy for heterogeneous bins,
used as the ``placeonecopy`` of Algorithm 2:

    score(bin) = - weight(bin) / ln(u)        u = hash(bin, address) in (0,1)

and the ball goes to the bin with the highest score.  Because
``-w/ln(u) > t  <=>  u > exp(-w/t)``, the score is distributed like an
exponential race with rate ``1/w``, so

    P(bin i wins) = w_i / sum_j w_j            (exactly)

Rendezvous is 1-competitive for adaptivity: adding a bin moves exactly the
balls the new bin wins (a ``w_new/W`` fraction), removing a bin moves exactly
its own balls, and no other assignment changes — each bin's score is
independent of the others.

Lookup is O(n).  The Section 3.3 variant
(:class:`~repro.core.fast_variant.FastRedundantShare`) trades this
adaptivity for O(k) lookups through precomputed inverse-CDF state tables.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..hashing.primitives import derive_base, unit_from_base_open


def rendezvous_score(weight: float, uniform: float) -> float:
    """The HRW score ``-w / ln(u)`` for a draw ``u`` in (0, 1)."""
    return -weight / math.log(uniform)


class WeightedRendezvous:
    """``placeonecopy``: a fair single-copy selector over (ids, weights).

    :class:`~repro.core.classic.ClassicLinMirror` runs one over a tail of
    the bins with clipped and possibly b̃-boosted weights.  Zero weights
    are allowed (the id never wins).
    """

    def __init__(
        self, ids: Sequence[str], weights: Sequence[float], namespace: str
    ) -> None:
        """Validate the selector's inputs and salt one base per id.

        Raises:
            ValueError: on empty or unequal-length ``ids``/``weights``, a
                duplicate id, a negative or non-finite weight, or weights
                that are all zero.
        """
        if not ids or len(ids) != len(weights):
            raise ValueError("ids and weights must be equal-length, non-empty")
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be distinct")
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError("weights must be finite and non-negative")
        if not any(weights):
            raise ValueError("at least one weight must be positive")
        # Per-id salt bases: the hot loop then only mixes integers.
        self._entries = [
            (bin_id, float(weight), derive_base(namespace, bin_id))
            for bin_id, weight in zip(ids, weights)
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
        """Return the selected id for ball ``address``."""
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
