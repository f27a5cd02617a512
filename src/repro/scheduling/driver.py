"""Batch driver: placement strategy × read scheduler × address stream.

:func:`run_reads` is the engine behind ``repro sched`` and the
request-balance bench.  It places each *distinct* address once through
the strategy's columnar ``place_many`` batch engine, expands the result
back to the full request stream (so ten million requests over ten
thousand blocks cost ten thousand placements), hands the columnar batch
to the scheduler, and reports per-device request/load deltas.

:func:`fractional_lower_bound` exposes the water-filling fractional
optimum for a stream without running any scheduler — what the bench
gates online peaks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from .._compat import get_numpy
from ..hashing.primitives import int64_column
from ..placement.base import BatchPlacement, ReplicationStrategy
from .base import ReadScheduler
from .water_filling import WaterFillingScheduler, fractional_peak_bound


@dataclass
class ScheduleOutcome:
    """What one :func:`run_reads` pass did to the device pool."""

    policy: str
    strategy: str
    requests: int
    positions: List[int]
    device_counts: Dict[str, int]
    device_loads: Dict[str, float]
    cache_hits: int = 0
    cache_misses: int = 0
    lower_bound: Optional[float] = None

    def shares(self) -> Dict[str, float]:
        """Fraction of requests each device served."""
        if not self.requests:
            return {device: 0.0 for device in self.device_counts}
        return {
            device: count / self.requests
            for device, count in self.device_counts.items()
        }

    def peak_count(self) -> int:
        """Requests on the busiest device."""
        return max(self.device_counts.values(), default=0)

    def peak_load(self) -> float:
        """Accumulated load on the most loaded device."""
        return max(self.device_loads.values(), default=0.0)

    def peak_share(self) -> float:
        """Request share of the busiest device."""
        return self.peak_count() / self.requests if self.requests else 0.0


def _expanded_placements(
    strategy: ReplicationStrategy, addresses
) -> Tuple[Sequence[int], object]:
    """Place distinct addresses once; expand to the request stream.

    Returns ``(addresses, placements)`` ready for ``choose_many`` —
    columnar on the NumPy leg, per-request id-tuples on the pure leg.
    """
    np = get_numpy()
    if np is not None:
        if not hasattr(addresses, "__len__"):
            addresses = list(addresses)
        stream = np.asarray(int64_column(addresses), dtype=np.int64)
        if len(stream) == 0:
            return stream, []
        unique, inverse = np.unique(stream, return_inverse=True)
        batch = strategy.place_many(unique)
        columns = [column[inverse] for column in batch.columns]
        return stream, BatchPlacement(batch.rank_ids, columns)
    stream = [int(address) for address in addresses]
    if not stream:
        return stream, []
    unique = sorted(set(stream))
    index = {address: i for i, address in enumerate(unique)}
    rows = strategy.place_many(unique).tuples()
    return stream, [rows[index[address]] for address in stream]


def run_reads(
    strategy: ReplicationStrategy,
    scheduler: ReadScheduler,
    addresses,
) -> ScheduleOutcome:
    """Schedule a whole read stream; report per-device deltas.

    The outcome counts only this run — schedulers carry state across
    runs, so deltas are taken against the counters at entry.
    """
    before_counts = scheduler.counts()
    before_loads = scheduler.loads()
    cache = scheduler.cache
    before_hits = cache.hits if cache is not None else 0
    before_misses = cache.misses if cache is not None else 0
    stream, placements = _expanded_placements(strategy, addresses)
    positions = scheduler.choose_many(stream, placements) if len(stream) else []
    device_counts = {
        device: count - before_counts.get(device, 0)
        for device, count in scheduler.counts().items()
    }
    device_loads = {
        device: load - before_loads.get(device, 0.0)
        for device, load in scheduler.loads().items()
    }
    lower_bound = (
        scheduler.last_lower_bound
        if isinstance(scheduler, WaterFillingScheduler)
        else None
    )
    outcome = ScheduleOutcome(
        policy=scheduler.name,
        strategy=strategy.name,
        requests=len(stream),
        positions=positions,
        device_counts=device_counts,
        device_loads=device_loads,
        cache_hits=(cache.hits - before_hits) if cache is not None else 0,
        cache_misses=(cache.misses - before_misses) if cache is not None else 0,
        lower_bound=lower_bound,
    )
    sink = obs.sink()
    if sink.enabled:
        registry = obs.metrics()
        registry.counter("sched.runs").add(1)
        for device in sorted(device_counts):
            registry.histogram("sched.device_requests").observe(
                device_counts[device]
            )
        if cache is not None:
            registry.counter("sched.cache.hits").add(outcome.cache_hits)
            registry.counter("sched.cache.misses").add(outcome.cache_misses)
        sink.emit(
            "sched.run",
            policy=scheduler.name,
            strategy=strategy.name,
            requests=outcome.requests,
            peak_count=outcome.peak_count(),
        )
    return outcome


def fractional_lower_bound(
    strategy: ReplicationStrategy,
    addresses,
    *,
    offline: Sequence[str] = (),
) -> Optional[float]:
    """Water-filling fractional optimum of the stream's peak load.

    Computed straight from per-block demands and copy sets — no
    schedule is realized.  ``None`` when the live pool exceeds the
    exact DP's device ceiling.

    Raises:
        DeviceUnavailableError: when some block's copies are all in
            ``offline``.
    """
    demands: Dict[int, int] = {}
    for address in addresses:
        block = int(address)
        demands[block] = demands.get(block, 0) + 1
    if not demands:
        return 0.0
    blocks = sorted(demands)
    copysets = dict(zip(blocks, strategy.place_many(blocks).tuples()))
    down = set(offline)
    live = [spec.bin_id for spec in strategy.bins if spec.bin_id not in down]
    return fractional_peak_bound(demands, copysets, live)
