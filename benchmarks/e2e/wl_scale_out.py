"""``scale-out``: the paper's adaptivity claim on the real storage path.

A ``Cluster`` of 12 heterogeneous devices holds written blocks and goes
through add, add, remove, remove, fail + repair, add, remove.  The last
two steps put back the removed device and take out the remaining new one,
so the fleet ends on its starting device set and — placement being a pure
function of the device set — on its starting layout: every round does
identical work without rewriting the blocks.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from harness import (
    CAPACITIES,
    COPIES,
    STRATEGY,
    UNIVERSE,
    NullTracer,
    Round,
    Tracer,
    Workload,
)
from repro.cluster import Cluster
from repro.metrics.adaptivity import compare_strategies
from repro.placement.registry import create
from repro.types import BinSpec, bins_from_capacities
from repro.workloads import uniform_sample

DEVICES = 12
BLOCKS = 10000
BLOCK_BYTES = 64
#: Device capacities count shares; this keeps the fleet a third full.
SHARES_PER_CAPACITY_UNIT = 20
READ_ONE_IN = 10

NEW = [
    BinSpec("new-0", 1700 * SHARES_PER_CAPACITY_UNIT),
    BinSpec("new-1", 1800 * SHARES_PER_CAPACITY_UNIT),
]
REMOVED = "store-3"
FAILED = "store-5"


def payload_of(address: int) -> bytes:
    return address.to_bytes(8, "big") * (BLOCK_BYTES // 8)


def factory(bins):
    return create(STRATEGY, bins, copies=COPIES)


class ScaleOut(Workload):
    name = "scale-out"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # Sorted by id, the order Cluster rebuilds its strategy in.
        self.bins = sorted(
            bins_from_capacities(
                [c * SHARES_PER_CAPACITY_UNIT for c in CAPACITIES[:DEVICES]],
                prefix="store",
            ),
            key=lambda spec: spec.bin_id,
        )
        self.removed_spec = next(s for s in self.bins if s.bin_id == REMOVED)

    def setup(self) -> None:
        self.addresses = sorted(
            {
                int(a)
                for a in uniform_sample(self.scaled(BLOCKS), UNIVERSE, seed=self.seed)
            }
        )
        self.sampled = self.addresses[::READ_ONE_IN]
        self.cluster = Cluster(self.bins, factory)
        started = time.perf_counter()
        for address in self.addresses:
            self.cluster.write(address, payload_of(address))
        self.write_s = time.perf_counter() - started
        self.initial = [self.cluster.placement_of(a) for a in self.sampled]
        self.steps: Dict[str, List[float]] = {}
        self.moved = self.used = self.rebuilt = 0
        self.round(NullTracer())  # warm; also proves the cycle closes

    def round(self, tracer: Tracer) -> Round:
        cluster = self.cluster
        shares = cluster.block_count * COPIES
        plan = [
            ("add", lambda: cluster.add_device(NEW[0])),
            ("add", lambda: cluster.add_device(NEW[1])),
            ("remove", lambda: cluster.remove_device(REMOVED)),
            ("remove", lambda: cluster.remove_device(NEW[0].bin_id)),
            ("repair", lambda: self._fail_and_repair()),
            ("add", lambda: cluster.add_device(self.removed_spec)),
            ("remove", lambda: cluster.remove_device(NEW[1].bin_id)),
        ]
        latencies = []
        moved = used = rebuilt = 0
        for request, (kind, step) in enumerate(plan):
            started = time.perf_counter()
            report = step()
            ended = time.perf_counter()
            latencies.append(ended - started)
            self.steps.setdefault(kind, []).append(ended - started)
            tracer.record(f"cluster.{kind}", started, ended, request=request)
            if request == 0:
                self.first_add = report
            if kind == "repair":
                rebuilt += report
            else:
                moved += report.moved_shares
                used += report.used_on_affected
                rebuilt += report.rebuilt_shares
        self.moved, self.used, self.rebuilt = moved, used, rebuilt
        started = time.perf_counter()
        wrong = sum(cluster.read(a) != payload_of(a) for a in self.sampled)
        self.steps.setdefault("read", []).append(time.perf_counter() - started)
        started = time.perf_counter()
        try:
            cluster.verify()
        except AssertionError:
            wrong += 1
        self.steps.setdefault("verify", []).append(time.perf_counter() - started)
        # Back on the starting device set means back on the starting layout.
        wrong += sorted(cluster.device_ids()) != [s.bin_id for s in self.bins]
        wrong += self.initial != [cluster.placement_of(a) for a in self.sampled]
        return Round(
            work=len(plan) * shares,
            elapsed=sum(latencies),
            latencies=latencies,
            attempted=len(plan) + len(self.sampled) + 3,
            failed=wrong,
        )

    def _fail_and_repair(self) -> int:
        self.cluster.fail_device(FAILED)
        return self.cluster.repair_device(FAILED)

    def quality(self) -> float:
        """Shares moved over shares on the affected devices (Fig. 3/5)."""
        return self.moved / self.used

    def compare(self):
        """The first step again, as ``metrics.adaptivity`` counts it."""
        return compare_strategies(
            factory(self.bins), factory(self.bins + [NEW[0]]),
            self.addresses, affected_bins=[NEW[0].bin_id],
        )

    def verify(self):
        """``compare_strategies`` must count the moves the cluster made."""
        report = self.compare()
        same = (
            report.moved_positional == self.first_add.moved_shares
            and report.used_on_affected == self.first_add.used_on_affected
        )
        return 1, not same

    def layers(self, tracer, rounds, seconds) -> Dict[str, float]:
        def median(kind):
            return statistics.median(self.steps[kind])

        started = time.perf_counter()
        self.compare()
        compare = time.perf_counter() - started
        grown = factory(self.bins + [NEW[0]])
        started = time.perf_counter()
        grown.place_many(self.addresses).tuples()
        replace = time.perf_counter() - started
        return {
            "cluster.write_blocks_per_s": len(self.addresses) / self.write_s,
            "cluster.read_blocks_per_s": len(self.sampled) / median("read"),
            "cluster.add_s": median("add"),
            "cluster.remove_s": median("remove"),
            "cluster.repair_s": median("repair"),
            "cluster.verify_s": median("verify"),
            "cluster.moved_shares": self.moved,
            "cluster.rebuilt_shares": self.rebuilt,
            "cluster.migrate_self_s": median("add") - replace,
            "placement.replace_all_s": replace,
            "metrics.compare_s": compare,
        }


WORKLOAD = ScaleOut
