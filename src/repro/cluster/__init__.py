"""The cluster simulator: devices, block map, reconfiguration, failures."""

from .blockmap import BlockMap
from .cluster import Cluster, ClusterStats, MigrationReport
from .device import DeviceState, FlakyProfile, StorageDevice
from .rebalancer import RebalanceProgress, Rebalancer
from .scrub import ChecksumIndex, ScrubReport, Scrubber, corrupt_share

__all__ = [
    "BlockMap",
    "ChecksumIndex",
    "Cluster",
    "ClusterStats",
    "DeviceState",
    "FlakyProfile",
    "MigrationReport",
    "RebalanceProgress",
    "Rebalancer",
    "ScrubReport",
    "Scrubber",
    "StorageDevice",
    "corrupt_share",
]
