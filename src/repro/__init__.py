"""repro — a reproduction of *Dynamic and Redundant Data Placement*.

Brinkmann, Effert, Meyer auf der Heide, Scheideler — ICDCS 2007.

The library implements the paper's **Redundant Share** placement strategies
(LinMirror for mirroring, k-replication for arbitrary replication degrees,
and the O(k) precomputed variant), the capacity-efficiency theory behind
them, the baselines they are compared against (trivial replication,
consistent hashing, Share, CRUSH, RAID striping), erasure-coding
consumers, and a storage-cluster simulator that regenerates the paper's
evaluation figures.

Quickstart::

    from repro import BinSpec, RedundantShare

    bins = [BinSpec("disk-a", 1200), BinSpec("disk-b", 800),
            BinSpec("disk-c", 500)]
    strategy = RedundantShare(bins, copies=2)
    print(strategy.place(42))   # ('disk-a', 'disk-c')  - deterministic

See ``examples/`` for full scenarios and ``benchmarks/`` for the paper's
experiments.
"""

from .exceptions import (
    BadFrameError,
    BlockNotFoundError,
    CapacityExceededError,
    ChecksumMismatchError,
    ConfigurationError,
    DecodingError,
    DeviceNotFoundError,
    DeviceUnavailableError,
    InfeasibleRedundancyError,
    OversizedFrameError,
    PlacementError,
    RepairTimeoutError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    TruncatedFrameError,
)
from .types import (
    Address,
    BinSpec,
    Placement,
    bins_from_capacities,
    relative_capacities,
    total_capacity,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "BadFrameError",
    "BinSpec",
    "BlockNotFoundError",
    "CapacityExceededError",
    "ChecksumMismatchError",
    "ConfigurationError",
    "DecodingError",
    "DeviceNotFoundError",
    "DeviceUnavailableError",
    "InfeasibleRedundancyError",
    "OversizedFrameError",
    "Placement",
    "PlacementError",
    "RedundantShare",
    "RepairTimeoutError",
    "ReproError",
    "ServiceError",
    "ServiceUnavailableError",
    "TruncatedFrameError",
    "__version__",
    "bins_from_capacities",
    "relative_capacities",
    "total_capacity",
]


def __getattr__(name):
    """Lazy re-exports of the heavier subsystems.

    Keeps ``import repro`` light while still offering the flat API surface
    (``repro.RedundantShare`` etc.).
    """
    if name == "RedundantShare":
        from .core.redundant_share import RedundantShare

        return RedundantShare
    if name == "FastRedundantShare":
        from .core.fast_variant import FastRedundantShare

        return FastRedundantShare
    if name == "VirtualVolume":
        from .core.virtualizer import VirtualVolume

        return VirtualVolume
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
