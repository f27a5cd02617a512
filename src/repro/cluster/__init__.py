"""The cluster simulator: devices, block map, reconfiguration, failures."""

from .blockmap import BlockMap
from .cluster import Cluster, ClusterStats, MigrationReport
from .device import DeviceState, StorageDevice
from .events import Event, EventLog
from .policies import PolicyStore, StoragePolicy
from .rebalancer import RebalanceProgress, Rebalancer
from .scrub import ChecksumIndex, ScrubReport, Scrubber, corrupt_share
from .snapshot import (
    restore_from_json,
    restore_snapshot,
    snapshot_to_json,
    take_snapshot,
)

__all__ = [
    "BlockMap",
    "ChecksumIndex",
    "Cluster",
    "ClusterStats",
    "DeviceState",
    "Event",
    "EventLog",
    "MigrationReport",
    "PolicyStore",
    "RebalanceProgress",
    "Rebalancer",
    "ScrubReport",
    "Scrubber",
    "StorageDevice",
    "StoragePolicy",
    "corrupt_share",
    "restore_from_json",
    "restore_snapshot",
    "snapshot_to_json",
    "take_snapshot",
]
