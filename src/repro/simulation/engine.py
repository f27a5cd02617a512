"""A minimal discrete-event simulation engine.

The placement experiments are time-free, but the chaos controller
(:mod:`repro.chaos.controller`) wants realistic interleavings (failures
arriving while rebuilds run).  This engine is deliberately tiny: a
priority queue of timestamped callbacks with deterministic tie-breaking,
and exactly the calls the controller makes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

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

    @property
    def pending(self) -> int:
        """Events scheduled and not yet run."""
        return len(self._queue)

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

    def run(self) -> None:
        """Run events until the queue empties."""
        processed_before = self._processed
        while self.step():
            pass
        sink = obs.sink()
        if sink.enabled:
            sink.emit(
                "sim.run",
                processed=self._processed - processed_before,
                now=self._now,
                pending=self.pending,
            )
