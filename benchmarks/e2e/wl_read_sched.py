"""``read-sched``: which placed copy serves each read of a skewed stream.

One round runs ``scheduling.driver.run_reads`` over the same Zipf(1.1)
stream once per online policy, each on a fresh scheduler.  Speed and
load-balance quality are measured together — the busiest device's load
under power-of-two against the fractional optimum of Aktaş & Soljanin —
so that neither is traded for the other unseen.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Sequence

from harness import (
    CAPACITIES,
    COPIES,
    STRATEGY,
    NullTracer,
    Round,
    Tracer,
    Workload,
    geometric_mean,
    get_numpy,
)
from repro.placement.base import BatchPlacement
from repro.placement.registry import create
from repro.scheduling import fractional_lower_bound, run_reads
from repro.scheduling import registry as sched_registry
from repro.types import bins_from_capacities
from repro.workloads import ZipfGenerator

UNIVERSE = 10000
REQUESTS = 50000
ZIPF_ALPHA = 1.1
#: The policy the service client reads with; its calls are the timed
#: operations and its peak load is the quality figure.
QUALITY_POLICY = "power-of-two"


class ReadSched(Workload):
    name = "read-sched"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.bins = bins_from_capacities(CAPACITIES, prefix="store")
        self.devices = [spec.bin_id for spec in self.bins]
        self.policies = sched_registry.scheduler_names(online_only=True)

    def setup(self) -> None:
        self.strategy = create(STRATEGY, self.bins, copies=COPIES)
        zipf = ZipfGenerator(self.scaled(UNIVERSE), ZIPF_ALPHA, seed=self.seed)
        started = time.perf_counter()
        self.requests = zipf.sample(self.scaled(REQUESTS))
        self.sample_s = time.perf_counter() - started
        started = time.perf_counter()
        self.bound = fractional_lower_bound(self.strategy, self.requests)
        self.bound_s = time.perf_counter() - started
        self.outcomes = {}
        self.round(NullTracer())  # warm

    def round(self, tracer: Tracer) -> Round:
        rates: Dict[str, float] = {}
        latencies = []
        began = time.perf_counter()
        for request, policy in enumerate(self.policies):
            scheduler = sched_registry.create(policy, self.devices, seed=self.seed)
            started = time.perf_counter()
            outcome = run_reads(self.strategy, scheduler, self.requests)
            ended = time.perf_counter()
            rates[policy] = outcome.requests / (ended - started)
            tracer.record(f"scheduling.{policy}", started, ended, request=request)
            if policy == QUALITY_POLICY:
                latencies.append(ended - started)
            self.outcomes[policy] = outcome
        return Round(
            work=len(self.policies) * len(self.requests),
            elapsed=time.perf_counter() - began,
            latencies=latencies,
            attempted=len(self.policies),
            rates=rates,
        )

    def rate(self, rounds: Sequence[Round], policy: str) -> float:
        """Median over rounds of one policy's rate, on an undisturbed host."""
        return statistics.median(r.rates[policy] * r.slowdown for r in rounds)

    def throughput(self, rounds: Sequence[Round]) -> float:
        """Geometric mean over policies of scheduled requests/s."""
        return geometric_mean([self.rate(rounds, p) for p in self.policies])

    def quality(self) -> float:
        """Power-of-two's busiest device over the fractional optimum."""
        return self.outcomes[QUALITY_POLICY].peak_count() / self.bound

    def verify(self):
        """Every scheduled read lands on a placed copy of its address, and
        the per-device counts are the counts of those landings."""
        distinct = sorted({int(address) for address in self.requests})
        rows = dict(zip(distinct, self.strategy.place_many(distinct).tuples()))
        failed = 0
        for outcome in self.outcomes.values():
            landed: Dict[str, int] = {}
            for address, position in zip(self.requests, outcome.positions):
                if not 0 <= position < COPIES:
                    failed += 1
                    continue
                device = rows[int(address)][int(position)]
                landed[device] = landed.get(device, 0) + 1
            served = {d: c for d, c in outcome.device_counts.items() if c}
            failed += landed != served
        return len(self.outcomes) * (len(self.requests) + 1), failed

    def layers(self, tracer, rounds, seconds) -> Dict[str, float]:
        metrics = {
            "scheduling.expand_s": self.expand_s(),
            "scheduling.fractional_bound_s": self.bound_s,
            "workloads.zipf_sample_s": self.sample_s,
        }
        for policy in self.policies:
            metrics[f"scheduling.{policy}.requests_per_s"] = self.rate(rounds, policy)
            metrics[f"scheduling.{policy}.peak_share"] = self.outcomes[
                policy
            ].peak_share()
        return metrics

    def expand_s(self) -> float:
        """Place each distinct address once and gather the rows back onto
        the stream — what ``run_reads`` does before any policy runs."""
        np = get_numpy()
        started = time.perf_counter()
        unique, inverse = np.unique(
            np.asarray(self.requests, dtype=np.int64), return_inverse=True
        )
        batch = self.strategy.place_many([int(a) for a in unique])
        BatchPlacement(
            batch.rank_ids,
            [np.asarray(column, dtype=np.int64)[inverse] for column in batch.columns],
        )
        return time.perf_counter() - started


WORKLOAD = ReadSched
