"""Unit tests of the benchmark harness (not part of tier-1's ``testpaths``).

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import harness
from harness import (
    Round,
    Span,
    faster_half,
    geometric_mean,
    percentile,
    self_time,
    supported_percentile,
)
from run import WORKLOADS

RUN = [sys.executable, str(harness.HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Counts whose honest value on a healthy run is zero.
MAY_BE_ZERO = {"service.client.degraded_reads", "chaos.fleet.lost_blocks"}


@pytest.fixture(scope="module")
def benchmark_json():
    return harness.load_benchmark()


def test_percentile_interpolates():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([10, 20], 90) == pytest.approx(19)
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_self_time_subtracts_the_union_of_children():
    parent = Span("parent", 0.0, 10.0)
    children = [
        Span("a", 1.0, 4.0),
        Span("b", 3.0, 6.0),  # overlaps a: covered once
        Span("c", 9.0, 12.0),  # sticks out: only [9, 10] counts
        Span("d", 2.0, 3.0),  # inside a
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(parent, []) == 10.0


def test_geometric_mean():
    assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    assert geometric_mean([8.0]) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([])


def test_faster_half_keeps_whole_rounds_in_order():
    def rounds(*elapsed):
        return [Round(work=10, elapsed=e) for e in elapsed]

    assert [r.elapsed for r in faster_half(rounds(3, 1, 9, 2, 8))] == [3, 1, 2]
    assert [r.elapsed for r in faster_half(rounds(4, 1, 9, 2))] == [1, 2]
    assert [r.elapsed for r in faster_half(rounds(5))] == [5]
    # Ranked by time per unit of work, not by time alone.
    slow_small, fast_big = Round(work=1, elapsed=2), Round(work=10, elapsed=3)
    assert faster_half([slow_small, fast_big]) == [fast_big]


def test_the_driver_gates_workloads_the_harness_knows(benchmark_json):
    gated = [w["name"] for w in benchmark_json["workloads"]]
    assert set(gated) <= set(WORKLOADS)
    # 4 + 22 runs per workload of run_seconds plus set-up fit the driver's hour.
    assert (4 + 22 * len(gated)) * (benchmark_json["run_seconds"] + 8) < 3420


def test_benchmark_json_names_and_units(benchmark_json):
    metrics = benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    names = [m["name"] for m in metrics] + [
        w["name"] for w in benchmark_json["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 for w in benchmark_json["workloads"])


def test_per_layer_names_follow_the_registries(benchmark_json):
    from repro.placement.registry import strategy_names
    from repro.scheduling.registry import scheduler_names

    names = {m["name"] for m in benchmark_json["per_layer"]}
    for strategy in strategy_names():
        for kind in ("batch_per_s", "small_batch_per_s", "scalar_per_s",
                     "pure_batch_per_s", "build_s"):
            assert f"placement.{strategy}.{kind}" in names
    for policy in scheduler_names(online_only=True):
        assert f"scheduling.{policy}.requests_per_s" in names
        assert f"scheduling.{policy}.peak_share" in names


def results(trace):
    suffix = "-trace" if trace else ""
    for name in WORKLOADS:
        with open(harness.OUT / f"result-{name}{suffix}.json") as handle:
            yield name, json.load(handle)


def test_smoke_run_is_quick_and_prints_the_end_to_end_schema(benchmark_json):
    started = time.perf_counter()
    subprocess.run(RUN + ["--smoke", "--seed", "3"], check=True, capture_output=True)
    assert time.perf_counter() - started < 15
    expected = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    for name, result in results(trace=False):
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
        assert result["fingerprint"]["seed"] == 3
        assert result["fingerprint"]["scale"] == pytest.approx(0.05)


def test_traced_smoke_run_prints_the_per_layer_schema(benchmark_json):
    subprocess.run(
        RUN + ["--smoke", "--trace", "1"], check=True, capture_output=True
    )
    expected = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    exercised = set()
    for name, result in results(trace=True):
        assert result["correct"] and result["failed"] == 0, name
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected, name
        exercised |= {k for k, v in result["metrics"].items() if v["value"]}
        spans = harness.obs.read_jsonl(str(harness.OUT / f"trace-{name}.jsonl"))
        assert spans and all(span["kind"] == "bench.span" for span in spans)
        assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    # Every per-layer metric is exercised by at least one workload.
    assert exercised | MAY_BE_ZERO == set(expected)


def test_a_bare_checkout_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no library."""
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fleet-sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
