"""Placement strategies: the paper's baselines and building blocks.

Single-copy selectors (the ``placeonecopy`` role), each a
:class:`~repro.placement.base.WeightedPlacer` built as
``cls(ids, weights, namespace)``:

* :class:`~repro.placement.rendezvous.WeightedRendezvous` — exactly fair,
  O(n); the default backend.
* :class:`~repro.placement.alias_placer.AliasWeightedPlacer` — exactly
  fair, O(1), non-adaptive.
* :class:`~repro.placement.share_weighted.ShareWeightedPlacer` — Share
  (SPAA 2002), (1 + eps)-fair, near-O(1), adaptive.
* :class:`~repro.placement.consistent_hashing.RingWeightedPlacer` —
  Karger et al., approximately fair, O(log n).

:class:`~repro.placement.consistent_hashing.ConsistentHashingPlacer` is the
ring over a bin configuration, kept for its ring-successor replica chain.

Replication strategies are populated by :mod:`repro.placement.trivial`,
:mod:`repro.placement.crush`, :mod:`repro.placement.striping` and
:mod:`repro.placement.rpdp`; the paper's own strategy (and the
reallocation-free Sequential Checking) lives in :mod:`repro.core`.
"""

from .alias_placer import AliasWeightedPlacer
from .base import (
    BatchPlacement,
    ReplicationStrategy,
    WeightedPlacer,
    check_placement,
)
from .consistent_hashing import ConsistentHashingPlacer, RingWeightedPlacer
from .crush import ChooseleafCrush, CrushStrategy, Straw2Bucket
from .registry import (
    StrategyEntry,
    create,
    lookup,
    registered_strategies,
    strategy_names,
)
from .rendezvous import WeightedRendezvous
from .rpdp import ResidualPerformancePlacement, utilization
from .share_weighted import ShareWeightedPlacer, default_stretch
from .striping import WeightedStripingStrategy
from .trivial import (
    TrivialReplication,
    trivial_miss_probability,
    trivial_wasted_fraction,
)

__all__ = [
    "AliasWeightedPlacer",
    "BatchPlacement",
    "ChooseleafCrush",
    "ConsistentHashingPlacer",
    "CrushStrategy",
    "ResidualPerformancePlacement",
    "StrategyEntry",
    "Straw2Bucket",
    "TrivialReplication",
    "WeightedStripingStrategy",
    "ReplicationStrategy",
    "RingWeightedPlacer",
    "ShareWeightedPlacer",
    "WeightedPlacer",
    "WeightedRendezvous",
    "check_placement",
    "create",
    "default_stretch",
    "lookup",
    "registered_strategies",
    "strategy_names",
    "trivial_miss_probability",
    "trivial_wasted_fraction",
    "utilization",
]
