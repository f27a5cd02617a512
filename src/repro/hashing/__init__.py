"""Deterministic hashing substrate.

Everything random in this library is derived from the stable hash functions
in :mod:`repro.hashing.primitives`; :mod:`repro.hashing.rings` and
:mod:`repro.hashing.alias` build the two lookup structures (hash rings,
inverse-CDF tables) the placement strategies are made of.
"""

from .alias import CumulativeTable
from .primitives import (
    as_u64_array,
    splitmix64,
    splitmix64_array,
    stable_u64,
    u64s_from_base,
    unit_interval,
    unit_interval_open,
    units_from_base,
)
from .rings import HashRing

__all__ = [
    "CumulativeTable",
    "HashRing",
    "as_u64_array",
    "splitmix64",
    "splitmix64_array",
    "stable_u64",
    "u64s_from_base",
    "unit_interval",
    "unit_interval_open",
    "units_from_base",
]
