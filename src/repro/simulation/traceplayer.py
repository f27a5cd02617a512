"""Trace player: drive a cluster with a request trace and measure load.

The paper's fairness definition covers "the data and the requests": a
device with x% of the capacity should also see x% of the I/O.  The trace
player replays a :mod:`repro.workloads` trace against a cluster, routes
each read through a pluggable :mod:`repro.scheduling` policy (per-block
round-robin by default), and models per-device service with a simple
deterministic queue — one client request per time unit, one time unit
per share operation:

    busy_until = max(busy_until, arrival) + 1

which yields per-device utilisation and mean response times — enough to
see imbalance turn into latency, without a full storage-stack model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..exceptions import BlockNotFoundError, ConfigurationError
from ..scheduling import registry as sched_registry
from ..scheduling.cache import LruCacheModel
from ..workloads.traces import Op, Request
from ..cluster.cluster import Cluster

#: Time one share operation occupies its device; requests arrive one per
#: time unit.
SERVICE_TIME = 1.0
#: Bytes of each write payload (and of each read's accounted transfer).
PAYLOAD_SIZE = 64


@dataclass
class DeviceLoad:
    """Per-device accounting.

    Attributes:
        operations: Share operations served.
        bytes_moved: Payload bytes read or written.
        busy_time: Total service time accumulated.
        response_total: Sum of response times (queueing + service).
    """

    operations: int = 0
    bytes_moved: int = 0
    busy_time: float = 0.0
    response_total: float = 0.0
    _busy_until: float = 0.0

    def serve(self, arrival: float, service: float, size: int) -> float:
        """Serve one operation; returns its response time."""
        start = max(self._busy_until, arrival)
        finish = start + service
        self._busy_until = finish
        self.operations += 1
        self.bytes_moved += size
        self.busy_time += service
        self.response_total += finish - arrival
        return finish - arrival

    @property
    def mean_response(self) -> float:
        """Mean response time over served operations."""
        if self.operations == 0:
            return 0.0
        return self.response_total / self.operations


@dataclass
class PlaybackReport:
    """Outcome of replaying a trace.

    Attributes:
        requests: Client requests replayed.
        reads: Read requests.
        writes: Write requests.
        unserved_reads: Reads no device could serve (every copy's device
            down); charged to nobody.
        device_loads: Per-device accounting.
        duration: Arrival span of the trace (arrival rate is 1 request per
            time unit by construction).
    """

    requests: int = 0
    reads: int = 0
    writes: int = 0
    unserved_reads: int = 0
    device_loads: Dict[str, DeviceLoad] = field(default_factory=dict)
    duration: float = 0.0

    def operation_shares(self) -> Dict[str, float]:
        """Fraction of share operations served per device."""
        total = sum(load.operations for load in self.device_loads.values())
        if total == 0:
            return {device: 0.0 for device in self.device_loads}
        return {
            device: load.operations / total
            for device, load in self.device_loads.items()
        }

    def utilisations(self) -> Dict[str, float]:
        """busy_time / duration per device."""
        if self.duration <= 0:
            return {device: 0.0 for device in self.device_loads}
        return {
            device: load.busy_time / self.duration
            for device, load in self.device_loads.items()
        }


class TracePlayer:
    """Replays request traces against a cluster with a service-time model."""

    def __init__(
        self,
        cluster: Cluster,
        read_policy: str = "rotate",
        *,
        seed: int = 0,
        cache: Optional[LruCacheModel] = None,
    ) -> None:
        """Build the player.

        Args:
            cluster: The cluster to drive.
            read_policy: Any online policy registered in
                :mod:`repro.scheduling.registry` — ``"rotate"`` (the
                round-robin alias, default), ``"primary"``, ``"random"``,
                ``"least-loaded"``, ``"power-of-two"``, ...
            seed: Determinism seed for the scheduler's hash draws.
            cache: Optional per-device LRU cache model the scheduler
                consults for service costs.

        Raises:
            ConfigurationError: for an unknown policy name, or an
                offline baseline (water-filling) that cannot schedule
                per-request.
        """
        entry = sched_registry.lookup(read_policy)
        if not entry.online:
            raise ConfigurationError(
                f"read_policy {entry.name!r} is an offline baseline; "
                f"the trace player schedules per-request"
            )
        self._cluster = cluster
        self._read_policy = entry.name
        self._scheduler = entry.build(
            cluster.device_ids(), seed=seed, cache=cache
        )

    @property
    def scheduler(self):
        """The live read scheduler (per-device load counters and all)."""
        return self._scheduler

    def play(self, trace: Iterable[Request]) -> PlaybackReport:
        """Replay a trace; unknown blocks are auto-written on first read."""
        report = PlaybackReport()
        cluster = self._cluster
        loads = report.device_loads
        for device_id in cluster.device_ids():
            loads[device_id] = DeviceLoad()

        arrival = 0.0
        for request in trace:
            report.requests += 1
            arrival += 1.0
            address = request.address
            if request.op is Op.WRITE:
                report.writes += 1
                cluster.write(address, request.payload(PAYLOAD_SIZE))
                for device_id in cluster.placement_of(address):
                    # The devices the write stored on: same test as write's.
                    if cluster.device(device_id).is_active:
                        loads.setdefault(device_id, DeviceLoad()).serve(
                            arrival, SERVICE_TIME, PAYLOAD_SIZE
                        )
            else:
                report.reads += 1
                try:
                    placement = cluster.placement_of(address)
                except BlockNotFoundError:
                    cluster.write(address, request.payload(PAYLOAD_SIZE))
                    placement = cluster.placement_of(address)
                # One share operation per read: the scheduler's preferred
                # copy, or the next position a serving device holds.
                shares, _ = cluster.collect_shares(
                    address, need=1, scheduler=self._scheduler
                )
                if not shares:
                    report.unserved_reads += 1
                    continue
                (copy,) = shares
                loads.setdefault(placement[copy], DeviceLoad()).serve(
                    arrival, SERVICE_TIME, PAYLOAD_SIZE
                )
        report.duration = arrival
        return report
