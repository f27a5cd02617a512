"""Placement strategies: the paper's baselines and building blocks.

The single-copy selector (the paper's ``placeonecopy``) is
:class:`~repro.placement.rendezvous.WeightedRendezvous`, built as
``WeightedRendezvous(ids, weights, namespace)``: exactly fair, adaptive,
O(n) per lookup.

:class:`~repro.placement.consistent_hashing.ConsistentHashingPlacer`
(Karger et al., approximately fair) is the ring over a bin configuration,
kept for its ring-successor replica chain.

Replication strategies are populated by :mod:`repro.placement.trivial`,
:mod:`repro.placement.crush`, :mod:`repro.placement.striping` and
:mod:`repro.placement.rpdp`; the paper's own strategy (and the
reallocation-free Sequential Checking) lives in :mod:`repro.core`.
"""

from .base import BatchPlacement, ReplicationStrategy
from .consistent_hashing import ConsistentHashingPlacer
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
from .striping import WeightedStripingStrategy
from .trivial import (
    TrivialReplication,
    trivial_miss_probability,
    trivial_wasted_fraction,
)

__all__ = [
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
    "WeightedRendezvous",
    "create",
    "lookup",
    "registered_strategies",
    "strategy_names",
    "trivial_miss_probability",
    "trivial_wasted_fraction",
    "utilization",
]
