"""Placement strategies: the paper's baselines and building blocks.

Single-copy placers (the ``placeonecopy`` role):

* :class:`~repro.placement.rendezvous.RendezvousPlacer` — exactly fair, O(n).
* :class:`~repro.placement.consistent_hashing.ConsistentHashingPlacer` —
  Karger et al., approximately fair, O(log n).
* :class:`~repro.placement.share.SharePlacer` — Share (SPAA 2002).
* :class:`~repro.placement.alias_placer.AliasPlacer` — exactly fair, O(1),
  non-adaptive.

Replication strategies are populated by :mod:`repro.placement.trivial`,
:mod:`repro.placement.crush`, :mod:`repro.placement.striping` and
:mod:`repro.placement.rpdp`; the paper's own strategy (and the
reallocation-free Sequential Checking) lives in :mod:`repro.core`.
"""

from .alias_placer import AliasPlacer, AliasWeightedPlacer, make_alias
from .base import (
    BatchPlacement,
    ReplicationStrategy,
    SingleCopyPlacer,
    WeightedPlacer,
    check_placement,
)
from .consistent_hashing import (
    ConsistentHashingPlacer,
    RingWeightedPlacer,
    make_ring_placer,
)
from .crush import ChooseleafCrush, CrushStrategy, Straw2Bucket
from .registry import (
    StrategyEntry,
    create,
    lookup,
    registered_strategies,
    strategy_names,
)
from .rendezvous import RendezvousPlacer, WeightedRendezvous, make_rendezvous
from .rpdp import ResidualPerformancePlacement, utilization
from .share import SharePlacer
from .share_weighted import ShareWeightedPlacer, default_stretch, make_share
from .striping import StripingStrategy, WeightedStripingStrategy
from .trivial import (
    TrivialReplication,
    trivial_miss_probability,
    trivial_wasted_fraction,
)

__all__ = [
    "AliasPlacer",
    "AliasWeightedPlacer",
    "BatchPlacement",
    "ChooseleafCrush",
    "ConsistentHashingPlacer",
    "CrushStrategy",
    "ResidualPerformancePlacement",
    "StrategyEntry",
    "Straw2Bucket",
    "StripingStrategy",
    "TrivialReplication",
    "WeightedStripingStrategy",
    "RendezvousPlacer",
    "ReplicationStrategy",
    "RingWeightedPlacer",
    "SharePlacer",
    "ShareWeightedPlacer",
    "SingleCopyPlacer",
    "WeightedPlacer",
    "WeightedRendezvous",
    "check_placement",
    "create",
    "default_stretch",
    "lookup",
    "make_alias",
    "make_rendezvous",
    "make_share",
    "make_ring_placer",
    "registered_strategies",
    "strategy_names",
    "trivial_miss_probability",
    "trivial_wasted_fraction",
    "utilization",
]
