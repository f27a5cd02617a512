"""Regression pin of the trade-off bench's output schema and coverage.

``BENCH_tradeoff.json`` is the committed table README cites, so the key
sets are pinned here as literals — changing the bench payload shape must
break this test first.  Also pins the sweep contract: the bench covers
*every* registered strategy plus the bench-only fitted-crush row, gates
the two new contenders on their headline claims, and every row's sample
follows its own ``expected_shares()``.
"""

import importlib
import pathlib
import sys

import pytest

from repro.placement import strategy_names

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("bench_table_strategy_tradeoff")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_payload_schema_is_pinned(bench):
    assert bench.PAYLOAD_KEYS == (
        "benchmark",
        "copies",
        "fitted_crush",
        "fleet",
        "gates",
        "numpy",
        "population",
        "strategies",
    )
    assert bench.ROW_KEYS == (
        "fair_distance",
        "kernel",
        "moved_fraction",
        "moved_set",
        "movement_class",
        "own_p_value",
        "supports_scale_out",
        "vectorized",
    )
    assert bench.GATE_KEYS == (
        "rpdp_peak_load",
        "sequential_checking_zero_move",
    )


def test_gate_fleets_are_the_documented_ones(bench):
    # The RPDP gate anti-correlates capacity and serving power.
    assert bench.SKEWED_CAPACITIES == (4000, 3000, 2000, 1000)
    assert bench.SKEWED_RATES == (1.0, 2.0, 4.0, 8.0)


def test_reduced_rows_match_schema_for_every_strategy(bench, monkeypatch):
    monkeypatch.setattr(bench, "ADDRESSES", 600)
    from repro.simulation import heterogeneous_bins

    before = heterogeneous_bins(bench.FLEET_SIZE)
    after = heterogeneous_bins(bench.FLEET_SIZE + 1)
    rows, fitted = bench.measure_all(before, after)
    assert set(rows) == set(strategy_names())
    for name, row in [*rows.items(), (bench.FITTED, fitted)]:
        assert tuple(sorted(row)) == bench.ROW_KEYS, name
        assert 0.0 <= row["moved_fraction"] <= 1.0, name
        # The sample follows the strategy's own oracle, on either leg.
        assert row["own_p_value"] >= bench.ALPHA, (name, row["own_p_value"])
    assert rows["sequential-checking"]["moved_set"] == 0
    assert fitted["fair_distance"] <= 1e-9


def test_reduced_gates_hold(bench, monkeypatch):
    monkeypatch.setattr(bench, "ADDRESSES", 600)
    gates = bench.run_gates()
    assert tuple(sorted(gates)) == bench.GATE_KEYS
    zero = gates["sequential_checking_zero_move"]
    assert zero["moved_set"] == 0 and zero["moved_positional"] == 0
    # Computed from the exact shares, so independent of the population.
    assert gates["rpdp_peak_load"] == {"rpdp": 2.341, "capacity_only": 4.611}
