"""Regression pin of the request-balance bench's output schema.

``BENCH_sched.json`` is the committed table OPERATIONS.md cites, so the
key sets are pinned here as literals — changing the bench payload shape
must break this test first.
"""

import importlib
import pathlib
import sys

import pytest

from repro.scheduling import scheduler_names

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("bench_table_request_balance")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_payload_schema_is_pinned(bench):
    assert bench.PAYLOAD_KEYS == (
        "benchmark",
        "copies",
        "curve",
        "numpy",
        "requests",
        "universe",
    )
    assert bench.CURVE_KEYS == (
        "alpha",
        "lower_bound",
        "peak_count",
        "peak_load",
        "peak_share",
        "policy",
        "strategy",
    )


def test_ablation_sweeps_scheduler_registry_policies(bench):
    # Every ablation policy resolves in the registry (aliases included).
    from repro.scheduling import lookup

    for policy in bench.ABLATION_POLICIES:
        assert lookup(policy).online, policy
    assert bench.ABLATION_POLICIES[0] == "primary"  # the baseline column


def test_reduced_curve_rows_match_schema(bench, monkeypatch):
    monkeypatch.setattr(bench, "REQUESTS", 2_000)
    monkeypatch.setattr(bench, "UNIVERSE", 200)
    monkeypatch.setattr(bench, "CURVE_STRATEGIES", ("redundant-share",))
    monkeypatch.setattr(bench, "CURVE_ALPHAS", (1.1,))
    rows = bench.run_skew_curve()
    assert len(rows) == len(scheduler_names())
    seen = set()
    for row in rows:
        assert tuple(sorted(row)) == bench.CURVE_KEYS
        assert row["strategy"] == "redundant-share"
        assert row["alpha"] == 1.1
        assert 0.0 < row["peak_share"] <= 1.0
        assert row["peak_count"] <= 2_000
        seen.add(row["policy"])
    assert seen == set(scheduler_names())
    # 8 curve devices <= MAX_EXACT_DEVICES, so the bound is always real.
    by_policy = {row["policy"]: row for row in rows}
    bound = by_policy["water-filling"]["lower_bound"]
    assert bound is not None and bound > 0
    for row in rows:
        assert row["peak_load"] >= bound - 1e-6, row["policy"]
