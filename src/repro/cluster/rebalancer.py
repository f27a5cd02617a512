"""Throttled, incremental rebalancing.

A real system never migrates everything in one synchronous pass — it
trickles moves so client I/O keeps flowing.  The :class:`Rebalancer`
packages the lazy path the cluster exposes (``add_device(rebalance=False)``
commits the new strategy without draining): it snapshots the out-of-place
backlog and hands it, in bounded steps, to
:meth:`~repro.cluster.cluster.Cluster.migrate` — the same mover an eager
reconfiguration drains through — reporting progress.  Reads and writes
remain correct at every intermediate point because the block map, not the
strategy, is the ground truth for stored blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import obs
from .cluster import Cluster


@dataclass
class RebalanceProgress:
    """Progress counters of an incremental rebalance.

    Attributes:
        total_blocks: Blocks in the backlog when the rebalance started.
        migrated_blocks: Blocks moved so far.
        moved_shares: Shares physically moved so far.
    """

    total_blocks: int
    migrated_blocks: int = 0
    moved_shares: int = 0

    @property
    def remaining(self) -> int:
        """Blocks still out of place."""
        return self.total_blocks - self.migrated_blocks

    @property
    def done(self) -> bool:
        """True when the backlog is drained."""
        return self.migrated_blocks >= self.total_blocks

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1]."""
        if self.total_blocks == 0:
            return 1.0
        return self.migrated_blocks / self.total_blocks


class Rebalancer:
    """Drains a cluster's out-of-place backlog in bounded steps."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._backlog: List[int] = cluster.out_of_place()
        self._progress = RebalanceProgress(total_blocks=len(self._backlog))
        sink = obs.sink()
        if sink.enabled:
            sink.emit("rebalance.start", backlog=len(self._backlog))

    @property
    def progress(self) -> RebalanceProgress:
        """Current progress counters."""
        return self._progress

    def step(self, max_blocks: int = 100) -> int:
        """Migrate up to ``max_blocks`` blocks; returns blocks moved.

        The chunk goes to
        :meth:`~repro.cluster.cluster.Cluster.migrate`, which places it in
        one batch against the cluster's *current* strategy (so strategy
        swaps between steps stay correct) and only does per-block work for
        blocks that actually move.

        Blocks deleted while queued, or that became in-place on their own
        (e.g. rewritten by a client under the new layout), still count as
        completed backlog; only the former are not counted as migrated.
        """
        if max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        chunk = self._backlog[-max_blocks:]
        if not chunk:
            return 0
        del self._backlog[-len(chunk):]
        # Pop order (end of the backlog first) is preserved.
        stored = [
            address for address in reversed(chunk) if address in self._cluster
        ]
        moved_shares, _ = self._cluster.migrate(stored)
        migrated = len(stored)
        self._progress.migrated_blocks += len(chunk)
        self._progress.moved_shares += moved_shares
        sink = obs.sink()
        if sink.enabled:
            registry = obs.metrics()
            registry.counter("rebalance.steps").add(1)
            registry.counter("rebalance.migrated_blocks").add(migrated)
            registry.counter("rebalance.moved_shares").add(moved_shares)
            registry.histogram("rebalance.step_blocks").observe(len(chunk))
            sink.emit(
                "rebalance.step",
                chunk=len(chunk),
                migrated=migrated,
                moved_shares=moved_shares,
                remaining=self._progress.remaining,
            )
            if self._progress.done:
                sink.emit(
                    "rebalance.done",
                    migrated=self._progress.migrated_blocks,
                    moved_shares=self._progress.moved_shares,
                )
        return migrated

    def run_to_completion(self, step_size: int = 100) -> RebalanceProgress:
        """Drain the whole backlog (still via bounded steps)."""
        while not self._progress.done:
            if self.step(step_size) == 0 and not self._backlog:
                break
        return self._progress
