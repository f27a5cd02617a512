"""Recovery pipeline: priority re-replication and degraded reads.

Two pieces:

* :class:`RepairQueue` — a priority queue of lost shares, ordered by how
  many survivors their block still has (fewest first), so the blocks
  closest to data loss are re-replicated before comfortably-redundant
  ones.  Ties break on (address, position, arrival), keeping the drain
  order a pure function of the queue contents.
* :func:`degraded_read` — resolve a block while devices are down by
  falling back across the ``k`` copy positions via ``place_copy``,
  collecting shares from whatever available devices hold them until the
  erasure code can decode.

:class:`RepairPolicy` carries the knobs the controller's repair worker
uses: global repair rate, per-task retry budget with exponential backoff
(for flaky targets), and a wall-clock timeout after which the task is
abandoned with a :class:`~repro.exceptions.RepairTimeoutError`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..exceptions import (
    ConfigurationError,
    DeviceNotFoundError,
    DeviceUnavailableError,
)
from .health import HealthLedger


@dataclass(frozen=True)
class RepairTask:
    """One share to re-replicate.

    Attributes:
        address: Block address of the lost share.
        position: Copy position (0-based) of the lost share.
        device_id: Device the share must be rebuilt onto.
        survivors: Shares of the block still readable when the task was
            enqueued — the priority key (fewer survivors = more urgent).
        enqueued_at: Simulation time the task entered the queue (feeds the
            timeout check and the repair-latency histogram).
    """

    address: int
    position: int
    device_id: str
    survivors: int
    enqueued_at: float


class RepairQueue:
    """Min-heap of repair tasks, most-endangered block first."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, int, RepairTask]] = []
        self._arrival = itertools.count()

    def push(self, task: RepairTask) -> None:
        """Enqueue a task at priority ``(survivors, address, position)``."""
        heapq.heappush(
            self._heap,
            (
                task.survivors,
                task.address,
                task.position,
                next(self._arrival),
                task,
            ),
        )

    def pop(self) -> RepairTask:
        """Dequeue the most urgent task.

        Raises:
            IndexError: when the queue is empty.
        """
        return heapq.heappop(self._heap)[-1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass(frozen=True)
class RepairPolicy:
    """Knobs for the rate-limited repair worker.

    Attributes:
        rate: Repairs attempted per time unit (global limit; the worker
            spaces attempts ``1 / rate`` apart).
        max_attempts: Attempts per task before giving up.
        timeout: Wall-clock budget per task (from enqueue to completion);
            exceeded tasks are abandoned as timed out.
        backoff_base: Delay before the first retry.
        backoff_factor: Multiplier applied per subsequent retry.
        backoff_max: Ceiling on any single backoff delay.
    """

    rate: float = 8.0
    max_attempts: int = 5
    timeout: float = 30.0
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 8.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("repair rate must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if (
            self.backoff_base <= 0
            or self.backoff_factor < 1
            or self.backoff_max < self.backoff_base
        ):
            raise ConfigurationError(
                "backoff needs base > 0, factor >= 1, max >= base"
            )

    @property
    def interval(self) -> float:
        """Spacing between repair attempts, ``1 / rate``."""
        return 1.0 / self.rate

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), clamped.

        Exponential: ``base * factor**(attempt - 1)``, capped at
        ``backoff_max``.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )


@dataclass
class DegradedReadResult:
    """What a degraded read saw.

    Attributes:
        payload: The decoded block.
        shares_used: Shares gathered to decode.
        positions_skipped: Copy positions skipped because their device was
            unavailable (the degradation being measured).
    """

    payload: bytes
    shares_used: int
    positions_skipped: List[int] = field(default_factory=list)


def gather_shares(
    cluster: Cluster,
    address: int,
    ledger: HealthLedger,
    *,
    need: Optional[int] = None,
    scheduler=None,
) -> Tuple[Dict[int, bytes], List[int]]:
    """Collect readable shares of a block, routing around sick devices.

    Walks copy positions — ``0..k-1`` by default, or in the preferred
    order of a :class:`repro.scheduling.base.ReadScheduler` when one is
    passed (its availability mask is first synced from the ledger, so a
    freshly-crashed device stops being chosen on the very next read) —
    resolving each through the current strategy's placement of the
    address (computed once, whatever ``need`` is) and falling back to the
    recorded placement when the map disagrees (a lazy rebalance in
    flight).  Stops early once ``need`` shares are gathered.

    Returns:
        ``(shares, skipped)``: payloads by position, and the positions
        whose device was unavailable.
    """
    placement = cluster.placement_of(address)
    current = cluster.strategy.place(address)
    shares: Dict[int, bytes] = {}
    skipped: List[int] = []
    positions = range(len(placement))
    if scheduler is not None:
        for device_id in placement:
            if ledger.available(device_id):
                scheduler.mark_online(device_id)
            else:
                scheduler.mark_offline(device_id)
        try:
            positions = scheduler.order(address, placement)
        except DeviceUnavailableError:
            # Nothing schedulable; fall through to the plain walk so the
            # caller still gets an accurate skipped-positions report.
            positions = range(len(placement))
    for position in positions:
        if need is not None and len(shares) >= need:
            break
        candidates = [current[position]]
        if placement[position] not in candidates:
            candidates.append(placement[position])
        found = False
        for device_id in candidates:
            try:
                device = cluster.device(device_id)
            except DeviceNotFoundError:  # device left the configuration
                continue
            if not ledger.available(device_id) or not device.is_active:
                continue
            if device.holds((address, position)):
                shares[position] = device.fetch((address, position))
                found = True
                break
        if not found and not any(
            ledger.available(candidate) for candidate in candidates
        ):
            skipped.append(position)
    return shares, skipped


def degraded_read(
    cluster: Cluster, address: int, ledger: HealthLedger, *, scheduler=None
) -> DegradedReadResult:
    """Read a block while devices are down, degrading across positions.

    With a ``scheduler`` (see :mod:`repro.scheduling`), the preferred
    copy is read first and load is accounted against it — degraded reads
    then spread over the survivors instead of hammering position 0.

    Raises:
        BlockNotFoundError: if the block was never written.
        DeviceUnavailableError: if too few shares are reachable *because*
            devices are unavailable (retrying later may succeed).
        DecodingError: if the data is simply gone (shares lost on devices
            that are up) — retrying will not help.
    """
    need = cluster.code.data_shares
    shares, skipped = gather_shares(
        cluster, address, ledger, need=need, scheduler=scheduler
    )
    if len(shares) < need and skipped:
        raise DeviceUnavailableError(
            f"block {address}: only {len(shares)}/{need} shares reachable; "
            f"positions {skipped} are on unavailable devices"
        )
    payload = cluster.code.decode(shares)  # DecodingError if truly lost
    size = cluster.block_size_of(address)
    return DegradedReadResult(
        payload=payload[:size],
        shares_used=len(shares),
        positions_skipped=skipped,
    )


def rebuild_share(
    cluster: Cluster,
    task: RepairTask,
    ledger: HealthLedger,
) -> bytes:
    """Reconstruct the payload of one lost share from survivors.

    Raises:
        DeviceUnavailableError: when too few survivors are currently
            reachable (the caller should back off and retry).
        DecodingError: when the block is unrecoverable outright.
    """
    need = cluster.code.data_shares
    shares, skipped = gather_shares(cluster, task.address, ledger, need=need)
    if len(shares) < need and skipped:
        raise DeviceUnavailableError(
            f"cannot rebuild share ({task.address}, {task.position}): "
            f"only {len(shares)}/{need} survivors reachable"
        )
    return cluster.rebuild_share(shares, task.position)
