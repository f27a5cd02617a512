"""The paper's primary contribution: Redundant Share.

* :class:`~repro.core.redundant_share.RedundantShare` — Algorithms 2/4 via
  an exact hazard table, O(n + k) lookups.
* :class:`~repro.core.redundant_share.LinMirror` — the k = 2 special case.
* :class:`~repro.core.fast_variant.FastRedundantShare` — the Section 3.3
  precomputed variant, O(k) lookups.
* :class:`~repro.core.classic.ClassicLinMirror` — the verbatim Algorithm 2
  with rendezvous as ``placeonecopy`` and the b̃ boundary boost (eqs. 2–5).
* :class:`~repro.core.sequential_checking.SequentialChecking` — the
  reallocation-free contender (zero movement on scale-out).
* :mod:`repro.core.preprocess` — the hazard-table solver.
"""

from .balanced_rendezvous import BalancedRendezvous
from .classic import ClassicLinMirror, boundary_boost
from .fast_variant import FastRedundantShare
from .hierarchical import HierarchicalRedundantShare
from .preprocess import HazardTable, compute_hazards
from .redundant_share import LinMirror, RedundantShare
from .sequential_checking import SequentialChecking
from .virtualizer import VirtualVolume

__all__ = [
    "BalancedRendezvous",
    "ClassicLinMirror",
    "FastRedundantShare",
    "HazardTable",
    "HierarchicalRedundantShare",
    "LinMirror",
    "RedundantShare",
    "SequentialChecking",
    "VirtualVolume",
    "boundary_boost",
    "compute_hazards",
]
