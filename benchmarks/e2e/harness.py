"""Timing loop, statistics, spans and result schema shared by every workload.

The harness measures the library from outside: it times calls into public
functions, keeps spans in memory and writes them when the run ends.  One
run of one workload is

1. ``setup()`` several times (the median is ``setup_s``; the last one stays),
2. ``gc.collect(); gc.freeze()`` with the collector left on,
3. rounds of **fixed work over a fixed key set** until ``--seconds`` have
   passed, so every count repeats exactly and only the number of rounds
   depends on the host,
4. the workload's own output verification.

The host is shared, and its other tenants slow this process down in two
ways that a run must not report as the program's speed.  Stalls of
milliseconds to seconds hit single rounds: timings are read off the
**faster half of the rounds** (:func:`faster_half`).  And for a minute or
more at a time everything runs up to 1.5 times slower: every round is
bracketed by a fixed calibration kernel (:func:`host_slowdown`) and its
times are divided by how much slower than undisturbed the kernel ran.

``BENCHMARK.json`` at the repository root is the one list of metric names
and units; a workload that does not exercise a layer reports that layer's
metrics as ``0``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

# The library is measured from its source tree; nothing is installed.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402  (needs the path entry above)
from repro._compat import get_numpy  # noqa: E402
from repro.capacity import clipped_shares  # noqa: E402
from repro.types import sort_bins_by_capacity  # noqa: E402

#: The fleet every service and placement workload shares.
CAPACITIES: Tuple[int, ...] = tuple(range(500, 2001, 100))
COPIES = 3
STRATEGY = "redundant-share"
#: Closed-loop clients, one outstanding operation each (``nproc`` is 2).
CLIENTS = 2
#: Address space the uniform request streams are drawn from.
UNIVERSE = 1 << 40

#: Seconds :func:`_calibration_kernel` takes on this host when nothing
#: disturbs it; reported times are those of such a host.
CALIBRATION_S = 0.0021
#: The kernel's best time of this many tries is the host's speed now.
CALIBRATION_TRIES = 3

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: One request in this many is replayed layer by layer in a traced run.
REPLAY_STRIDE = 16
#: Share of a traced run's ``--seconds`` given to each phase.
TRACE_PHASES = {"untraced": 0.25, "traced": 0.35, "obs": 0.15, "replay": 0.25}

#: Percentile -> one sample in this many lies beyond it.
PERCENTILES = {50.0: 2, 90.0: 10, 99.0: 100, 99.9: 1000}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(count: int) -> float:
    """The highest of :data:`PERCENTILES` with >= 10 samples beyond it."""
    return max(
        (p for p, one_in in PERCENTILES.items() if count >= 10 * one_in),
        default=min(PERCENTILES),
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (one slow entry cannot hide)."""
    if not values or any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _calibration_kernel() -> None:
    """Fixed interpreter and NumPy work, the mix the library itself runs."""
    total = 0
    for i in range(20000):
        total += i * i
    np = get_numpy()
    if np is not None:
        values = np.arange(16384, dtype=np.float64)
        for _ in range(100):
            (values * 1.5).sum()


def host_slowdown() -> float:
    """How many times slower than undisturbed the host runs this process now."""
    best = math.inf
    for _ in range(CALIBRATION_TRIES):
        started = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best / CALIBRATION_S


def faster_half(rounds: Sequence["Round"]) -> List["Round"]:
    """The half of ``rounds`` that ran fastest, in the order they ran.

    Every round does the same work, so a slower round was disturbed: the
    host is shared, and its other tenants stall a process for anything
    from milliseconds to half a minute.  Whole rounds are kept or dropped,
    so what the program itself does in every round (a collection, a slow
    request) stays in; a disturbance has to cover more than half of a run
    before it moves a figure.
    """
    cut = statistics.median_low(r.elapsed / r.work for r in rounds)
    return [r for r in rounds if r.elapsed / r.work <= cut]


def median_us(seconds: Sequence[float]) -> float:
    """Median of second-valued samples, in microseconds (0 when empty)."""
    return statistics.median(seconds) * 1e6 if seconds else 0.0


def fairness_ratio(counts: Dict[str, int], bins: Sequence, copies: int) -> float:
    """Most over-filled device: observed share over its Lemma 2.2 fair share."""
    ordered = sort_bins_by_capacity(bins)
    shares = clipped_shares([spec.capacity for spec in ordered], copies)
    total = sum(counts.values())
    return max(
        counts.get(spec.bin_id, 0) / total / share
        for spec, share in zip(ordered, shares)
    )


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval: a layer boundary crossed for one request."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; a span's id is its index in :attr:`spans`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        """Store an already-timed interval and return its id."""
        self.spans.append(Span(name, start, end, parent, request))
        return len(self.spans) - 1

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> Iterator[int]:
        """Time the body; yields the span id so children can name it."""
        span = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        try:
            yield len(self.spans) - 1
        finally:
            span.end = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [span.duration for span in self.spans if span.name == name]

    def write(self, path: Path, workload: str) -> None:
        """Write the spans as ``repro.obs`` JSONL (``obs.read_jsonl`` reads it)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)  # JsonlSink appends
        with obs.JsonlSink(str(path)) as sink:
            for span in self.spans:
                sink.emit(
                    "bench.span",
                    workload=workload,
                    name=span.name,
                    start=span.start,
                    end=span.end,
                    parent=span.parent,
                    request=span.request,
                )


class NullTracer(Tracer):
    """The untraced run: every recording call is a no-op."""

    enabled = False

    def record(self, name, start, end, parent=None, request=None) -> int:
        return -1

    @contextmanager
    def span(self, name, parent=None, request=None) -> Iterator[int]:
        yield -1


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children may overlap each other and may stick out of the parent; only
    the union of their intervals inside the parent is subtracted.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda item: item.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


# ---------------------------------------------------------------------------
# Workload contract and the measuring loop
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """One pass over a workload's fixed work."""

    work: float
    elapsed: float
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Named rates of the round, for workloads that aggregate their own.
    rates: Dict[str, float] = field(default_factory=dict)
    #: :func:`host_slowdown` around the round; :func:`run_rounds` sets it.
    slowdown: float = 1.0


class Workload:
    """What the loop needs from a workload; see ``wl_*.py``."""

    name = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale

    def scaled(self, count: int) -> int:
        """``count`` at this run's scale (never below 1)."""
        return max(1, round(count * self.scale))

    def setup(self) -> None:
        """Build inputs, start servers, pre-write, and warm one round."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started."""

    def round(self, tracer: Tracer) -> Round:
        """Do the fixed work once."""
        raise NotImplementedError

    def throughput(self, rounds: Sequence[Round]) -> float:
        """Work units per second over ``rounds``, on an undisturbed host."""
        return sum(r.work for r in rounds) / sum(
            r.elapsed / r.slowdown for r in rounds
        )

    def quality(self) -> float:
        """Distance from the workload's quality optimum (1.0 = optimal)."""
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """Post-run output checks as ``(attempted, failed)``."""
        return (0, 0)

    def layers(
        self, tracer: Tracer, rounds: Sequence[Round], seconds: float
    ) -> Dict[str, float]:
        """Per-layer metrics of a traced run (may replay for ``seconds``)."""
        return {}


@dataclass
class Measurement:
    """What one run of one workload produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    rounds: int
    #: Timed operations in the faster half of the rounds.
    samples: int
    #: The highest percentile that sample supports, and its value.
    tail: Tuple[float, float]
    #: Median :func:`host_slowdown` over all rounds (1.0 = undisturbed).
    slowdown: float


def run_rounds(workload: Workload, tracer: Tracer, seconds: float) -> List[Round]:
    """Repeat the fixed work until ``seconds`` have passed (at least once)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    before = host_slowdown()
    while True:
        done = workload.round(tracer)
        after = host_slowdown()
        done.slowdown = (before + after) / 2
        before = after
        rounds.append(done)
        if time.perf_counter() >= deadline:
            return rounds


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    setup_repeats: int = SETUP_REPEATS,
) -> Measurement:
    """Run one workload and return its metrics for this mode."""
    setup_times = []
    before = host_slowdown()
    for attempt in range(setup_repeats):
        if attempt:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        spent = time.perf_counter() - started
        after = host_slowdown()
        setup_times.append(spent / ((before + after) / 2))
        before = after
    gc.collect()
    gc.freeze()
    try:
        if trace:
            rounds, metrics = _traced(workload, seconds)
        else:
            rounds = run_rounds(workload, NullTracer(), seconds)
        checked, missed = workload.verify()
    finally:
        workload.teardown()
        gc.unfreeze()
    kept = faster_half(rounds)
    latencies = [x / r.slowdown for r in kept for x in r.latencies]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": workload.throughput(kept),
            "op_p50_ms": percentile(latencies, 50.0) * 1e3,
            "op_p90_ms": percentile(latencies, 90.0) * 1e3,
            "quality_ratio": workload.quality(),
        }
    tail = supported_percentile(len(latencies))
    return Measurement(
        metrics=metrics,
        attempted=sum(r.attempted for r in rounds) + checked,
        failed=sum(r.failed for r in rounds) + missed,
        rounds=len(rounds),
        samples=len(latencies),
        tail=(tail, percentile(latencies, tail) * 1e3),
        slowdown=statistics.median(r.slowdown for r in rounds),
    )


def _traced(
    workload: Workload, seconds: float
) -> Tuple[List[Round], Dict[str, float]]:
    """The traced run: reference rounds, traced rounds, ``obs`` rounds, replay."""
    base = run_rounds(workload, NullTracer(), seconds * TRACE_PHASES["untraced"])
    tracer = Tracer()
    traced = run_rounds(workload, tracer, seconds * TRACE_PHASES["traced"])
    with obs.capture():
        observed = run_rounds(
            workload, NullTracer(), seconds * TRACE_PHASES["obs"]
        )
    metrics = workload.layers(
        tracer, faster_half(traced), seconds * TRACE_PHASES["replay"]
    )
    reference = workload.throughput(faster_half(base))
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        reference / workload.throughput(faster_half(traced)) - 1.0
    )
    metrics["obs.enabled_overhead_pct"] = 100.0 * (
        reference / workload.throughput(faster_half(observed)) - 1.0
    )
    tracer.write(OUT / f"trace-{workload.name}.jsonl", workload.name)
    return base + traced + observed, metrics


# ---------------------------------------------------------------------------
# Result schema
# ---------------------------------------------------------------------------


def load_benchmark() -> Dict[str, object]:
    """``BENCHMARK.json`` — the one list of workloads, metrics and units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(
    benchmark: Dict[str, object], measurement: Measurement, trace: bool
) -> Dict[str, object]:
    """The contract's result object for one run.

    Every metric of the mode appears; a per-layer metric the workload does
    not exercise reads 0, an end-to-end one it failed to produce is a bug.
    """
    metrics = {}
    for spec in benchmark["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if trace:
            value = measurement.metrics.get(name, 0.0)
        else:
            value = measurement.metrics[name]
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
    unknown = set(measurement.metrics) - set(metrics)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }


def fingerprint(seed: int, scale: float) -> Dict[str, object]:
    """Where and on what a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    np = get_numpy()
    return {
        "commit": commit,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__ if np is not None else None,
        "seed": seed,
        "scale": scale,
    }
