"""Alias-table placement: exactly fair, O(1) lookups, zero adaptivity.

One hash draw per ball feeds a Walker alias table over the bins.  The share
of each bin equals its weight *exactly*, and a lookup costs O(1) — this is
the building block behind the O(k) Redundant Share variant of Section 3.3.

The price is adaptivity: the table is rebuilt on any configuration change and
ball draws are not correlated with bin identities, so in expectation a
constant fraction of *all* balls moves when a bin enters or leaves.  The
ablation bench ``bench_table_placeonecopy_ablation`` quantifies this
trade-off against rendezvous and consistent hashing.
"""

from __future__ import annotations

from typing import Sequence

from ..hashing.alias import build_selector
from ..hashing.primitives import unit_interval
from .base import WeightedPlacer


class AliasWeightedPlacer(WeightedPlacer):
    """(ids, weights) alias-table selector."""

    def __init__(
        self, ids: Sequence[str], weights: Sequence[float], namespace: str
    ) -> None:
        super().__init__(ids, weights, namespace)
        self._selector = build_selector(self._weights)

    def place(self, address: int) -> str:
        draw = unit_interval(self._namespace, "ball", address)
        return self._ids[self._selector.select(draw)]
