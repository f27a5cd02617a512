"""``place-local``: every registry strategy, in process, no service.

The kernels do all the work here and the service none, which makes this
the bypass for every service optimisation.  Each round times, per
strategy, one large ``place_many`` batch, a run of request-sized batches
and a run of scalar ``place()`` calls, then a run of mid-sized batches on
the paper's strategy (the timed operation).  The traced run adds the
pure-Python leg: this file run as a script under ``REPRO_PURE_PYTHON=1``,
the only place the default (no-NumPy) install is measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from harness import (
    CAPACITIES,
    COPIES,
    STRATEGY,
    UNIVERSE,
    Round,
    Tracer,
    Workload,
    fairness_ratio,
    geometric_mean,
    get_numpy,
)
from repro.hashing.primitives import splitmix64_array
from repro.placement.registry import create, registered_strategies
from repro.types import bins_from_capacities
from repro.workloads import uniform_sample

BATCH = 65536
#: Entries without a vectorized engine loop over ``place()``; a smaller
#: batch keeps their share of a round comparable.
LOOP_BATCH = 4096
SMALL = 256
SMALL_BATCHES = 8
#: The timed operation is one mid-sized batch on the paper's strategy:
#: long enough (~7 ms) that a scheduling hiccup of the host does not set
#: its p90, short enough for a few hundred samples per run.
OP_BATCH = 16384
OP_BATCHES = 16
SCALARS = 250
PURE_BATCH = 1024
#: Addresses on which the NumPy, pure-Python and scalar legs must agree.
AGREE = 1000


def digest(rows: Sequence[Sequence[str]]) -> str:
    """Order-sensitive fingerprint of a list of placements."""
    text = "\n".join(",".join(row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class PlaceLocal(Workload):
    name = "place-local"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.bins = bins_from_capacities(CAPACITIES, prefix="store")
        self.entries = registered_strategies()
        self.pure_digests = None

    def setup(self) -> None:
        self.build()
        # Warm every engine on the shapes the rounds use.
        for entry in self.entries:
            strategy = self.strategies[entry.name]
            if entry.vectorized:
                strategy.place_many(self.big[entry.name])
            strategy.place_many(self.small[0])
            strategy.place(self.scalars[0])

    def build(self) -> None:
        """Strategies through the registry, and the address lists."""
        self.build_s: Dict[str, float] = {}
        self.strategies = {}
        for entry in self.entries:
            started = time.perf_counter()
            self.strategies[entry.name] = create(
                entry.name, self.bins, copies=COPIES
            )
            self.build_s[entry.name] = time.perf_counter() - started
        addresses = [
            int(a) for a in uniform_sample(self.scaled(BATCH), UNIVERSE, seed=self.seed)
        ]
        self.big = {
            entry.name: addresses
            if entry.vectorized
            else addresses[: self.scaled(LOOP_BATCH)]
            for entry in self.entries
        }
        self.small = [
            addresses[i * SMALL : (i + 1) * SMALL]
            for i in range(self.scaled(SMALL_BATCHES))
        ]
        self.scalars = addresses[: self.scaled(SCALARS)]
        self.op_batch = addresses[: self.scaled(OP_BATCH)]
        self.fairness = None

    def round(self, tracer: Tracer) -> Round:
        rates: Dict[str, float] = {}
        latencies: List[float] = []
        fairness = []
        began = time.perf_counter()
        for entry in self.entries:
            name, strategy = entry.name, self.strategies[entry.name]
            started = time.perf_counter()
            batch = strategy.place_many(self.big[name])
            ended = time.perf_counter()
            rates[f"{name}.batch"] = len(batch) / (ended - started)
            tracer.record(f"placement.{name}.batch", started, ended)
            if self.fairness is None and entry.heterogeneity_aware:
                fairness.append(
                    fairness_ratio(batch.counts(), self.bins, strategy.copies)
                )
            spent = 0.0
            for addresses in self.small:
                started = time.perf_counter()
                strategy.place_many(addresses)
                ended = time.perf_counter()
                spent += ended - started
            rates[f"{name}.small_batch"] = SMALL * len(self.small) / spent
            place = strategy.place
            started = time.perf_counter()
            for address in self.scalars:
                place(address)
            rates[f"{name}.scalar"] = len(self.scalars) / (
                time.perf_counter() - started
            )
        if self.fairness is None:
            self.fairness = geometric_mean(fairness)
        place_many = self.strategies[STRATEGY].place_many
        for _ in range(OP_BATCHES):
            started = time.perf_counter()
            place_many(self.op_batch)
            ended = time.perf_counter()
            latencies.append(ended - started)
            tracer.record(f"placement.{STRATEGY}.op_batch", started, ended)
        calls = len(self.entries) * (1 + len(self.small) + len(self.scalars))
        calls += OP_BATCHES
        return Round(
            work=sum(len(self.big[entry.name]) for entry in self.entries),
            elapsed=time.perf_counter() - began,
            latencies=latencies,
            attempted=calls,
            rates=rates,
        )

    def rate(self, rounds: Sequence[Round], key: str) -> float:
        """Median over rounds of one named rate, on an undisturbed host."""
        return statistics.median(r.rates[key] * r.slowdown for r in rounds)

    def throughput(self, rounds: Sequence[Round]) -> float:
        """Geometric mean over strategies of large-batch addresses/s."""
        return geometric_mean(
            [self.rate(rounds, f"{entry.name}.batch") for entry in self.entries]
        )

    def quality(self) -> float:
        """Fairness over the heterogeneity-aware strategies (geometric mean)."""
        return self.fairness

    def agreement(self) -> Dict[str, str]:
        """Per strategy, the digest of ``place_many`` on the shared sample."""
        sample = self.big[STRATEGY][:AGREE]
        return {
            name: digest(strategy.place_many(sample).tuples())
            for name, strategy in self.strategies.items()
        }

    def verify(self):
        """The batch engine, scalar ``place()`` and (traced) the pure leg
        agree on the sample; every row has k distinct devices."""
        sample = self.big[STRATEGY][:AGREE]
        batch = self.agreement()
        failed = 0
        for name, strategy in self.strategies.items():
            rows = [strategy.place(address) for address in sample]
            failed += digest(rows) != batch[name]
            failed += any(len(set(row)) != strategy.copies for row in rows)
            if self.pure_digests is not None:
                failed += self.pure_digests[name] != batch[name]
        return 3 * len(self.strategies), failed

    def layers(self, tracer, rounds, seconds) -> Dict[str, float]:
        metrics = {}
        for entry in self.entries:
            name = entry.name
            for kind in ("batch", "small_batch", "scalar"):
                metrics[f"placement.{name}.{kind}_per_s"] = self.rate(
                    rounds, f"{name}.{kind}"
                )
            metrics[f"placement.{name}.build_s"] = self.build_s[name]
        pure = self.pure_leg(seconds)
        self.pure_digests = {name: leg["digest"] for name, leg in pure.items()}
        for name, leg in pure.items():
            metrics[f"placement.{name}.pure_batch_per_s"] = leg["rate"]
        metrics["placement.pure_per_s"] = geometric_mean(
            [leg["rate"] for leg in pure.values()]
        )
        np = get_numpy()
        values = np.asarray(self.big[STRATEGY], dtype=np.uint64)
        spent = []
        for _ in range(9):
            started = time.perf_counter()
            splitmix64_array(values)
            spent.append(time.perf_counter() - started)
        metrics["hashing.splitmix_per_s"] = len(values) / statistics.median(spent)
        return metrics

    def pure_leg(self, seconds: float) -> Dict[str, Dict[str, object]]:
        """Run this file as a script without NumPy and read its report."""
        done = subprocess.run(
            [sys.executable, __file__, str(self.seed), str(seconds), str(self.scale)],
            env=dict(os.environ, REPRO_PURE_PYTHON="1", PYTHONHASHSEED="0"),
            capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])


WORKLOAD = PlaceLocal


def main(seed: int, seconds: float, scale: float) -> None:
    """The pure-Python leg: per strategy, ``place_many`` rate and digest."""
    workload = PlaceLocal(seed, scale)
    workload.build()
    digests = workload.agreement()
    batch = workload.big[STRATEGY][: workload.scaled(PURE_BATCH)]
    spent: Dict[str, List[float]] = {name: [] for name in workload.strategies}
    deadline = time.perf_counter() + seconds
    while True:
        for name, strategy in workload.strategies.items():
            started = time.perf_counter()
            strategy.place_many(batch)
            spent[name].append(time.perf_counter() - started)
        if time.perf_counter() >= deadline:
            break
    print(
        json.dumps(
            {
                name: {
                    "rate": len(batch) / statistics.median(times),
                    "digest": digests[name],
                }
                for name, times in spent.items()
            }
        )
    )


if __name__ == "__main__":
    main(int(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]))
