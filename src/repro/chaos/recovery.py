"""Recovery pipeline: priority re-replication.

:class:`RepairQueue` is a priority queue of lost shares, ordered by how
many survivors their block still has (fewest first), so the blocks
closest to data loss are re-replicated before comfortably-redundant
ones.  Ties break on (address, position, arrival), keeping the drain
order a pure function of the queue contents.  Reading a block while
devices are down is :meth:`repro.cluster.Cluster.read`.

:class:`RepairPolicy` carries the knobs the controller's repair worker
uses: global repair rate, per-task retry budget with exponential backoff
(for flaky targets), and a wall-clock timeout after which the task is
abandoned with a :class:`~repro.exceptions.RepairTimeoutError`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Tuple

from ..exceptions import ConfigurationError


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
