"""Full-zoo trade-off table: movement vs fairness.

One row per registered placement strategy, the two axes the paper's
Table 1 trades against each other (throughput is the e2e harness's
``place-local`` workload, ``benchmarks/e2e/README.md``):

* **movement** — copies whose whole replica set changes when one device
  joins the fleet (via :func:`repro.metrics.compare_scale_out`), as a
  fraction of all stored copies.  The registry's declared
  ``movement_class`` must be honest: a ``"zero"`` strategy moves exactly
  nothing, a ``"bounded"``/``"proportional"`` one stays well under a
  full reshuffle, and only ``"full"`` strategies may approach 1.
* **fairness** — Pearson chi-square and max share deviation of realised
  copy counts against the Lemma 2.2 fair shares of the fleet.

Two headline gates anchor the new strategies:

* ``sequential-checking`` moves **exactly zero** copies on scale-out —
  the reallocation-free guarantee is asserted as an integer equality,
  not a tolerance.
* ``rpdp`` with skewed service rates has peak *load* (copies held over
  rate share) no worse than the capacity-only trivial placement on the
  same fleet — the residual-performance claim.

Results go to ``BENCH_tradeoff.json`` (latest run).
``REPRO_BENCH_TRADEOFF_ADDRESSES`` scales the population for smoke runs
(CI uses 4000).  The payload key sets are pinned by
``tests/placement/test_bench_tradeoff_schema.py``.
"""

import json
import os
import pathlib

from _tables import emit
from repro._compat import HAVE_NUMPY
from repro.capacity import max_balls
from repro.metrics import (
    chi_square_statistic,
    compare_scale_out,
    count_copies,
    fair_copy_shares,
    max_share_deviation,
    usage_shares,
)
from repro.placement import utilization
from repro.placement.registry import create, registered_strategies
from repro.simulation import heterogeneous_bins
from repro.types import bins_from_capacities

#: Address population for the fairness columns; the movement column
#: additionally clamps to the smaller fleet's Lemma 2.2 capacity so
#: sequential-checking's guarantee is exercised in-range.
ADDRESSES = int(os.environ.get("REPRO_BENCH_TRADEOFF_ADDRESSES", "") or 50_000)
#: Replication degree for strategies that honour ``copies``.
COPIES = 3
#: The paper's heterogeneous fleet, before and after one device joins.
FLEET_SIZE = 10

#: The RPDP gate's fleet: capacity and serving power anti-correlated, so
#: a capacity-proportional placement overloads the big slow devices.
SKEWED_CAPACITIES = (4000, 3000, 2000, 1000)
SKEWED_RATES = (1.0, 2.0, 4.0, 8.0)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_tradeoff.json"

#: Pinned output schema (see tests/placement/test_bench_tradeoff_schema.py).
PAYLOAD_KEYS = (
    "benchmark",
    "copies",
    "fleet",
    "gates",
    "numpy",
    "population",
    "strategies",
)
ROW_KEYS = (
    "chi_square",
    "kernel",
    "max_share_deviation",
    "moved_fraction",
    "moved_set",
    "movement_class",
    "supports_scale_out",
    "vectorized",
)
GATE_KEYS = ("rpdp_peak_load", "sequential_checking_zero_move")


def _movement_population(before_bins, copies):
    descending = sorted((spec.capacity for spec in before_bins), reverse=True)
    return range(min(ADDRESSES, max_balls(descending, copies)))


def measure(entry, before_bins, after_bins):
    """One table row: movement and fairness for one entry."""
    copies = entry.effective_copies(COPIES)
    population = _movement_population(before_bins, copies)
    report = compare_scale_out(
        entry.name, before_bins, after_bins, population, copies=COPIES
    )
    stored_copies = len(population) * copies

    strategy = create(entry.name, after_bins, copies=COPIES)
    counts = count_copies(strategy.place_many(list(range(ADDRESSES))))
    capacities = {spec.bin_id: float(spec.capacity) for spec in after_bins}
    expected = fair_copy_shares(capacities, copies)
    return {
        "movement_class": entry.movement_class,
        "supports_scale_out": entry.supports_scale_out,
        "vectorized": entry.vectorized,
        "kernel": entry.kernel,
        "moved_set": report.moved_set,
        "moved_fraction": round(report.moved_set / stored_copies, 4),
        "chi_square": round(chi_square_statistic(counts, expected), 2),
        "max_share_deviation": round(
            max_share_deviation(usage_shares(counts), expected), 4
        ),
    }


def run_gates():
    """The two headline guarantees, measured on their canonical fleets."""
    # Gate 1: sequential checking moves exactly nothing on scale-out.
    before = heterogeneous_bins(FLEET_SIZE)
    after = heterogeneous_bins(FLEET_SIZE + 1)
    population = _movement_population(before, COPIES)
    zero = compare_scale_out(
        "sequential-checking", before, after, population, copies=COPIES
    )

    # Gate 2: RPDP peak load <= capacity-only placement on a skewed fleet.
    bins = bins_from_capacities(SKEWED_CAPACITIES)
    rates = {
        spec.bin_id: rate for spec, rate in zip(bins, SKEWED_RATES)
    }
    addresses = list(range(ADDRESSES))
    rpdp = create("rpdp", bins, copies=COPIES, service_rates=SKEWED_RATES)
    trivial = create("trivial", bins, copies=COPIES)
    rpdp_peak = max(
        utilization(count_copies(rpdp.place_many(addresses)), rates).values()
    )
    trivial_peak = max(
        utilization(
            count_copies(trivial.place_many(addresses)), rates
        ).values()
    )
    return {
        "sequential_checking_zero_move": {
            "population": len(population),
            "moved_set": zero.moved_set,
            "moved_positional": zero.moved_positional,
        },
        "rpdp_peak_load": {
            "rpdp": round(rpdp_peak, 3),
            "capacity_only": round(trivial_peak, 3),
        },
    }


def test_strategy_tradeoff_table(benchmark):
    """Regenerates BENCH_tradeoff.json and asserts both headline gates."""
    before_bins = heterogeneous_bins(FLEET_SIZE)
    after_bins = heterogeneous_bins(FLEET_SIZE + 1)

    def experiment():
        rows = {
            entry.name: measure(entry, before_bins, after_bins)
            for entry in registered_strategies()
        }
        return rows, run_gates()

    results, gates = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "Strategy trade-off (movement vs fairness, "
        f"{FLEET_SIZE}→{FLEET_SIZE + 1} disks, k={COPIES})",
        ["strategy", "movement", "moved", "moved%", "chi²", "max dev"],
        [
            [
                name,
                row["movement_class"],
                row["moved_set"],
                f"{100 * row['moved_fraction']:.1f}%",
                row["chi_square"],
                f"{row['max_share_deviation']:.4f}",
            ]
            for name, row in results.items()
        ],
    )

    payload = {
        "benchmark": "bench_table_strategy_tradeoff",
        "copies": COPIES,
        "fleet": [FLEET_SIZE, FLEET_SIZE + 1],
        "gates": gates,
        "numpy": HAVE_NUMPY,
        "population": ADDRESSES,
        "strategies": results,
    }
    assert tuple(sorted(payload)) == PAYLOAD_KEYS
    for row in results.values():
        assert tuple(sorted(row)) == ROW_KEYS
    assert tuple(sorted(gates)) == GATE_KEYS
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    benchmark.extra_info["numpy"] = HAVE_NUMPY
    for name, row in results.items():
        benchmark.extra_info[f"{name}_moved_fraction"] = row["moved_fraction"]

    # Coverage: the table must sweep the whole registry, every row full.
    assert set(results) == {
        entry.name for entry in registered_strategies()
    }

    # Gate 1: the reallocation-free guarantee is exact, not approximate.
    zero = gates["sequential_checking_zero_move"]
    assert zero["moved_set"] == 0, zero
    assert zero["moved_positional"] == 0, zero
    assert results["sequential-checking"]["moved_set"] == 0

    # Gate 2: residual-performance placement beats capacity-only load.
    load = gates["rpdp_peak_load"]
    assert load["rpdp"] <= load["capacity_only"], load

    # Honesty of the declared movement classes, against a full reshuffle.
    for name, row in results.items():
        if row["movement_class"] == "zero":
            assert row["moved_set"] == 0, name
        elif row["movement_class"] in ("bounded", "proportional"):
            assert row["moved_fraction"] < 0.75, name
