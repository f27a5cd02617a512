"""A minimal discrete-event simulation engine.

The placement experiments are time-free, but the failure-recovery example
wants realistic interleavings (failures arriving while rebuilds run).  This
engine is deliberately tiny: a priority queue of timestamped callbacks with
deterministic tie-breaking.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, List, Optional, Tuple

from .. import obs

Action = Callable[[], None]


class Simulator:
    """Event-driven clock with schedule/run semantics."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Action]] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, delay: float, action: Action) -> None:
        """Run ``action`` ``delay`` time units from now.

        Raises:
            ValueError: for negative delays.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._counter), action)
        )

    def schedule_at(self, time: float, action: Action) -> None:
        """Run ``action`` at absolute time ``time`` (>= now)."""
        if time < self._now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (time, next(self._counter), action))

    def schedule_many(self, events: Iterable[Tuple[float, Action]]) -> int:
        """Bulk-schedule ``(delay, action)`` pairs; returns the count.

        Appends the whole batch and re-heapifies once — O(queue + batch)
        instead of O(batch · log queue) — which is what makes loading a
        million-event trace into the simulator cheap.  Ordering semantics
        are identical to calling :meth:`schedule` per pair.

        Raises:
            ValueError: for negative delays (the queue is left unchanged).
        """
        base = self._now
        staged: List[Tuple[float, int, Action]] = []
        for delay, action in events:
            if delay < 0:
                raise ValueError("cannot schedule into the past")
            staged.append((base + delay, next(self._counter), action))
        if staged:
            self._queue.extend(staged)
            heapq.heapify(self._queue)
        return len(staged)

    def step(self) -> bool:
        """Execute the next event; False if the queue is empty."""
        if not self._queue:
            return False
        if obs.sink().enabled:
            # Queue depth *including* the event about to run — the
            # per-tick backlog the heavy-traffic benches watch.
            registry = obs.metrics()
            registry.histogram("sim.queue_depth").observe(len(self._queue))
            registry.counter("sim.events").add(1)
        time, _, action = heapq.heappop(self._queue)
        self._now = time
        action()
        self._processed += 1
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue empties or ``until`` is reached."""
        processed_before = self._processed
        while self._queue:
            time = self._queue[0][0]
            if until is not None and time > until:
                break
            self.step()
        if until is not None and (not self._queue or self._queue[0][0] > until):
            self._now = max(self._now, until)
        sink = obs.sink()
        if sink.enabled:
            sink.emit(
                "sim.run",
                processed=self._processed - processed_before,
                now=self._now,
                pending=len(self._queue),
            )

    def pending(self) -> int:
        """Number of scheduled events not yet run."""
        return len(self._queue)
