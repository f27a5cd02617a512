"""The repository's end-to-end benchmark: one command, eight workloads.

``python3 benchmarks/e2e/run.py --seed 0`` runs every workload, each in a
fresh subprocess, and prints every end-to-end metric by name with its
unit; ``--trace 1`` adds the traced run and its per-layer metrics.  With
``--workload NAME`` it runs that one workload in this process and prints
the contract's JSON object as the last line of standard output.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import harness
from harness import OUT, Workload

#: Every workload.  ``BENCHMARK.json`` lists the four the driver gates: its
#: hour holds 22 runs of each, and a run short enough for eight is shorter
#: than this host's disturbances (README, "Gated and extended workloads").
WORKLOADS = (
    "lookup-single",
    "lookup-batch",
    "lookup-bulk",
    "block-io",
    "place-local",
    "scale-out",
    "fleet-sim",
    "read-sched",
)

#: ``--smoke`` divides every count by this and measures for SMOKE_SECONDS.
SMOKE_DIVISOR = 20
SMOKE_SECONDS = 0.3

#: Counts that must repeat exactly between two runs of one seed.
EXACT_METRICS = (
    "quality_ratio",
    "service.protocol.request_bytes",
    "service.protocol.response_bytes",
    "service.rpc.rpcs",
    "cluster.moved_shares",
    "chaos.fleet.lost_blocks",
)


def build(name: str, seed: int, scale: float) -> Workload:
    """The workload called ``name``; its module is imported only now, so a
    run's peak memory is that workload's alone."""
    if name.startswith("lookup-"):
        from wl_lookup import Lookup

        return Lookup(name, seed, scale)
    module = __import__("wl_" + name.replace("-", "_"))
    return module.WORKLOAD(seed, scale)


def run_one(args, benchmark) -> int:
    """Driver mode: measure one workload here, print the result object."""
    trace = bool(args.trace)
    workload = build(args.workload, args.seed, args.scale)
    measurement = harness.measure(
        workload, args.seconds, trace, setup_repeats=args.setup_repeats
    )
    result = harness.result_line(benchmark, measurement, trace)
    print(
        f"{args.workload}: {measurement.rounds} rounds, "
        f"{measurement.samples} timed operations in the faster half "
        f"(p{measurement.tail[0]:g} = {measurement.tail[1]:.4f} ms), "
        f"{result['attempted']} attempted, {result['failed']} failed; "
        f"calibration kernel took {measurement.slowdown:.2f} x its undisturbed time"
    )
    for name, metric in result["metrics"].items():
        if metric["value"] or not trace:
            print(f"  {name:44s} {metric['value']:16.4f} {metric['unit']}")
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if trace else ""
    with open(OUT / f"result-{args.workload}{suffix}.json", "w") as handle:
        json.dump(
            dict(result, workload=args.workload, seconds=args.seconds,
                 fingerprint=harness.fingerprint(args.seed, args.scale)),
            handle, indent=1, sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args, name: str, trace: int) -> Dict[str, object]:
    """One workload in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, __file__,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale), "--setup-repeats", str(args.setup_repeats),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: exited {done.returncode} without a result")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_set(args) -> Dict[str, Dict[str, object]]:
    """Every workload, untraced and (with ``--trace 1``) traced."""
    jobs = [(name, trace) for name in WORKLOADS for trace in range(args.trace + 1)]
    # Timing needs the host to itself; a smoke run only checks plumbing.
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        results = pool.map(lambda job: run_child(args, *job), jobs)
        return dict(zip(jobs, results))


def check_repeat(args, benchmark) -> int:
    """Two full sets must agree: timings within bounds, counts exactly."""
    args.trace = 1
    first, second = run_set(args), run_set(args)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bad: List[str] = []
    for job in first:
        for name, metric in first[job]["metrics"].items():
            a, b = metric["value"], second[job]["metrics"][name]["value"]
            if name in EXACT_METRICS:
                if a != b:
                    bad.append(f"{job[0]} {name}: {a} != {b} (exact count)")
            elif name in bounds and abs(b - a) / a > bounds[name]:
                bad.append(f"{job[0]} {name}: {a:.4f} vs {b:.4f}")
    print("\n".join(bad) if bad else "two sets agree within every bound")
    return 1 if bad else 0


def main() -> int:
    benchmark = harness.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-repeats", type=int, default=harness.SETUP_REPEATS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    args.jobs = 1
    if args.smoke:
        args.scale, args.seconds = 1.0 / SMOKE_DIVISOR, SMOKE_SECONDS
        args.setup_repeats, args.jobs = 1, os.cpu_count() or 1
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # Same hash order on every run; exec keeps the one process.
            os.execve(
                sys.executable, [sys.executable] + sys.argv,
                dict(os.environ, PYTHONHASHSEED="0"),
            )
        return run_one(args, benchmark)
    if args.check_repeat:
        return check_repeat(args, benchmark)
    started = time.perf_counter()
    results = run_set(args)
    failed = sum(result["failed"] for result in results.values())
    incorrect = [job[0] for job, result in results.items() if not result["correct"]]
    print(
        f"{len(results)} runs in {time.perf_counter() - started:.1f} s, "
        f"{failed} failed operations"
        + (f", incorrect: {sorted(set(incorrect))}" if incorrect else "")
    )
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
