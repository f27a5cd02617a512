"""Full-zoo trade-off table: movement vs distance from fair.

One row per registered placement strategy, plus one bench-only row,
"crush, fitted weight-set" (:func:`_tables.fitted_crush`, under its own
payload key).  The columns are the two axes the paper's Table 1 trades
against each other (throughput is the e2e harness's ``place-local``
workload, ``benchmarks/e2e/README.md``):

* **movement** — copies whose whole replica set changes when one device
  joins the fleet (via :func:`repro.metrics.compare_strategies`), as a
  fraction of all stored copies.  The registry's declared
  ``movement_class`` must be honest: a ``"zero"`` strategy moves exactly
  nothing, a ``"bounded"``/``"proportional"`` one stays well under a
  full reshuffle, and only ``"full"`` strategies may approach 1.
* **distance from fair** — the largest gap between the strategy's exact
  copy shares (``expected_shares()``) and the Lemma 2.2 fair shares of
  the fleet (:func:`_tables.fair_distance`).  Computed: no ball is
  placed for it.
* **own p-value** — the chi-square p-value of the copies a seeded sample
  of addresses lands on each device, against that strategy's *own*
  ``expected_shares()``: the check that placements follow the oracle the
  distance is computed from.  The addresses are uniform over
  ``[0, 2**63)``; ``range(N)`` would sit inside sequential-checking's
  first epoch.

Gates:

* ``sequential-checking`` moves **exactly zero** copies on scale-out —
  the reallocation-free guarantee is asserted as an integer equality,
  not a tolerance.
* ``rpdp`` with skewed service rates has a computed peak *load* (copy
  share over rate share, ``expected_load()``) no worse than the
  capacity-only trivial placement on the same fleet — the
  residual-performance claim.
* The distances: the Redundant Share family and ``classic-lin-mirror``
  are fair to rounding, ``balanced-rendezvous`` and fitted crush to
  their 1e-9 fit, and ``trivial``, ``crush`` and ``rpdp`` race the same
  capacities, so they miss fair by the same Lemma 2.4 gap.
* Every row's own p-value clears ``ALPHA`` (1e-3, Bonferroni over the
  rows).

Results go to ``BENCH_tradeoff.json``, written only at the full-scale
default population: ``REPRO_BENCH_TRADEOFF_ADDRESSES`` scales it for
smoke runs (CI uses 4000), which check the gates and leave the committed
file as it is.  The payload key sets are pinned by
``tests/placement/test_bench_tradeoff_schema.py``.
"""

import json
import os
import pathlib

from _tables import emit, fair_distance, fitted_crush
from repro._compat import HAVE_NUMPY
from repro.capacity import max_balls
from repro.metrics import (
    chi_square_fairness,
    compare_scale_out,
    compare_strategies,
)
from repro.placement import utilization
from repro.placement.registry import create, lookup, registered_strategies
from repro.simulation import heterogeneous_bins
from repro.types import bins_from_capacities
from repro.workloads import uniform_sample

#: The population of the committed ``BENCH_tradeoff.json``.
FULL_SCALE = 50_000
#: Address population for the own-oracle sample; the movement column
#: additionally clamps to the smaller fleet's Lemma 2.2 capacity so
#: sequential-checking's guarantee is exercised in-range.
ADDRESSES = int(
    os.environ.get("REPRO_BENCH_TRADEOFF_ADDRESSES", "") or FULL_SCALE
)
#: Replication degree for strategies that honour ``copies``.
COPIES = 3
#: The paper's heterogeneous fleet, before and after one device joins.
FLEET_SIZE = 10
#: Table name of the bench-only row.
FITTED = "crush, fitted weight-set"
#: Family significance of the own-oracle chi-squares, Bonferroni over
#: every row (the registry and the fitted row).
ALPHA = 1e-3 / (len(registered_strategies()) + 1)

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
    "fitted_crush",
    "fleet",
    "gates",
    "numpy",
    "population",
    "strategies",
)
ROW_KEYS = (
    "fair_distance",
    "kernel",
    "moved_fraction",
    "moved_set",
    "movement_class",
    "own_p_value",
    "supports_scale_out",
    "vectorized",
)
GATE_KEYS = ("rpdp_peak_load", "sequential_checking_zero_move")


def _movement_population(before_bins, copies):
    descending = sorted((spec.capacity for spec in before_bins), reverse=True)
    return range(min(ADDRESSES, max_balls(descending, copies)))


def measure(entry, before_bins, after_bins, build=None):
    """One table row: movement, distance from fair and own p-value.

    ``build(bins)`` makes the strategy; by default the registry's
    ``create(entry.name, bins, copies=COPIES)``.
    """
    build = build or (lambda bins: create(entry.name, bins, copies=COPIES))
    before, after = build(before_bins), build(after_bins)
    population = _movement_population(before_bins, after.copies)
    added = [spec.bin_id for spec in after_bins[len(before_bins):]]
    report = compare_strategies(before, after, population, added)
    sample = after.place_many(uniform_sample(ADDRESSES, 1 << 63))
    own = chi_square_fairness(
        sample.counts(), after.expected_shares(), alpha=ALPHA
    )
    return {
        "movement_class": entry.movement_class,
        "supports_scale_out": entry.supports_scale_out,
        "vectorized": entry.vectorized,
        "kernel": entry.kernel,
        "moved_set": report.moved_set,
        "moved_fraction": round(
            report.moved_set / (len(population) * after.copies), 4
        ),
        "fair_distance": float(f"{fair_distance(after, after_bins):.6g}"),
        "own_p_value": float(f"{own.p_value:.4g}"),
    }


def measure_all(before_bins, after_bins):
    """Every registry row, and the fitted row on crush's entry."""
    rows = {
        entry.name: measure(entry, before_bins, after_bins)
        for entry in registered_strategies()
    }
    fitted = measure(
        lookup("crush"),
        before_bins,
        after_bins,
        build=lambda bins: fitted_crush(bins, COPIES),
    )
    return rows, fitted


def run_gates():
    """The two headline guarantees, on their canonical fleets."""
    # Gate 1: sequential checking moves exactly nothing on scale-out.
    before = heterogeneous_bins(FLEET_SIZE)
    after = heterogeneous_bins(FLEET_SIZE + 1)
    population = _movement_population(before, COPIES)
    zero = compare_scale_out(
        "sequential-checking", before, after, population, copies=COPIES
    )

    # Gate 2: RPDP peak load <= capacity-only placement on a skewed fleet,
    # both computed from the exact shares.
    bins = bins_from_capacities(SKEWED_CAPACITIES)
    rpdp = create("rpdp", bins, copies=COPIES, service_rates=SKEWED_RATES)
    trivial = create("trivial", bins, copies=COPIES)
    capacity_only = utilization(trivial.expected_shares(), rpdp.service_rates)
    return {
        "sequential_checking_zero_move": {
            "population": len(population),
            "moved_set": zero.moved_set,
            "moved_positional": zero.moved_positional,
        },
        "rpdp_peak_load": {
            "rpdp": round(max(rpdp.expected_load().values()), 3),
            "capacity_only": round(max(capacity_only.values()), 3),
        },
    }


def test_strategy_tradeoff_table(benchmark):
    """Asserts every gate, and regenerates BENCH_tradeoff.json at full
    scale."""
    before_bins = heterogeneous_bins(FLEET_SIZE)
    after_bins = heterogeneous_bins(FLEET_SIZE + 1)

    def experiment():
        return measure_all(before_bins, after_bins), run_gates()

    (results, fitted), gates = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    every = {**results, FITTED: fitted}

    emit(
        "Strategy trade-off (movement vs distance from fair, "
        f"{FLEET_SIZE}→{FLEET_SIZE + 1} disks, k={COPIES})",
        ["strategy", "movement", "moved", "moved%", "from fair", "own p"],
        [
            [
                name,
                row["movement_class"],
                row["moved_set"],
                f"{100 * row['moved_fraction']:.1f}%",
                f"{row['fair_distance']:.2e}",
                f"{row['own_p_value']:.3f}",
            ]
            for name, row in every.items()
        ],
    )

    payload = {
        "benchmark": "bench_table_strategy_tradeoff",
        "copies": COPIES,
        "fitted_crush": fitted,
        "fleet": [FLEET_SIZE, FLEET_SIZE + 1],
        "gates": gates,
        "numpy": HAVE_NUMPY,
        "population": ADDRESSES,
        "strategies": results,
    }
    assert tuple(sorted(payload)) == PAYLOAD_KEYS
    for row in every.values():
        assert tuple(sorted(row)) == ROW_KEYS
    assert tuple(sorted(gates)) == GATE_KEYS
    if ADDRESSES == FULL_SCALE:
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

    # Distance from fair, computed.
    distance = {name: row["fair_distance"] for name, row in results.items()}
    for name in (
        "redundant-share",
        "lin-mirror",
        "fast-redundant-share",
        "classic-lin-mirror",
    ):
        assert distance[name] <= 1e-15, (name, distance[name])
    assert distance["balanced-rendezvous"] <= 1e-9, distance
    assert fitted["fair_distance"] <= 1e-9, fitted
    # Lemma 2.4: the three races of the capacities miss by the same gap.
    assert distance["trivial"] == distance["crush"] == distance["rpdp"] > 0

    # Placements follow each row's own oracle.
    for name, row in every.items():
        assert row["own_p_value"] >= ALPHA, (name, row["own_p_value"])

    # Honesty of the declared movement classes, against a full reshuffle.
    for name, row in every.items():
        if row["movement_class"] == "zero":
            assert row["moved_set"] == 0, name
        elif row["movement_class"] in ("bounded", "proportional"):
            assert row["moved_fraction"] < 0.75, name
