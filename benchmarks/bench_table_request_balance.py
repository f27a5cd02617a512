"""Request fairness and read-scheduling load balance.

Section 1 defines fairness as "every storage device with x% of the
available capacity gets x% of the data *and the requests*".  The first
half of this bench checks that claim under uniform traffic; the second
half measures what happens when traffic is *not* uniform — the regime
the paper leaves open and the scheduling subsystem addresses:

* uniform reads over a mirrored pool — per-device request shares must
  track capacity shares;
* zipf-skewed reads, sweeping the read policies registered in
  ``repro.scheduling.registry`` (the ablation that used to be a
  two-value ``rotate``/``primary`` knob);
* **the skew curve** — peak device load vs. Zipf α for every scheduling
  policy × several placement strategies at ``REPRO_BENCH_REQUESTS``
  requests (default one million) through the columnar batch engine,
  with the water-filling fractional optimum as the floor.  The table
  goes to ``BENCH_sched.json``; CI smoke gates assert
  power-of-two-choices and least-loaded never lose to random on peak
  load, and that no online policy beats the offline optimum (which
  would be a bug, not a triumph).
"""

import json
import os
import pathlib

import pytest

from _tables import emit
from repro._compat import HAVE_NUMPY
from repro.core import RedundantShare
from repro.placement.registry import create as create_strategy
from repro.scheduling import create as create_scheduler, run_reads, scheduler_names
from repro.types import bins_from_capacities
from repro.workloads import ZipfGenerator, uniform_sample

CAPACITIES = [4000, 3000, 2000, 1000]
BLOCKS = 2_000
READS = 8_000

#: Skew-curve scale (one million requests by default; CI smoke shrinks it
#: via REPRO_BENCH_REQUESTS).
REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "") or 1_000_000)
UNIVERSE = 20_000
COPIES = 3
SEED = 17
#: The sweep axes: every registered policy × these strategies × these skews.
CURVE_STRATEGIES = ("redundant-share", "crush", "balanced-rendezvous")
CURVE_ALPHAS = (0.8, 1.1, 1.4)
CURVE_CAPACITIES = [3000, 3000, 2000, 2000, 1500, 1500, 1000, 1000]

#: Pinned output schema (the regression test in tests/scheduling checks
#: these, so readers of BENCH_sched.json can rely on them).
PAYLOAD_KEYS = ("benchmark", "copies", "curve", "numpy", "requests", "universe")
CURVE_KEYS = (
    "alpha",
    "lower_bound",
    "peak_count",
    "peak_load",
    "peak_share",
    "policy",
    "strategy",
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_sched.json"


def run_uniform_balance():
    bins = bins_from_capacities(CAPACITIES)
    scheduler = create_scheduler("round-robin", [spec.bin_id for spec in bins])
    outcome = run_reads(
        RedundantShare(bins, copies=2),
        scheduler,
        uniform_sample(READS, BLOCKS, seed=11),
    )
    shares = outcome.shares()
    total = sum(CAPACITIES)
    return {
        spec.bin_id: (spec.capacity / total, shares[spec.bin_id]) for spec in bins
    }


def test_request_shares_track_capacity(benchmark):
    rows = benchmark.pedantic(run_uniform_balance, rounds=1, iterations=1)
    emit(
        "Request balance: uniform reads over mirrored heterogeneous pool",
        ["device", "capacity share", "request share"],
        [
            (device, f"{capacity:.2%}", f"{requests:.2%}")
            for device, (capacity, requests) in sorted(rows.items())
        ],
    )
    for device, (capacity, requests) in rows.items():
        benchmark.extra_info[device] = round(requests, 4)
        assert requests == pytest.approx(capacity, abs=0.04), device


#: The read policies the hotspot ablation compares, by registry name.
ABLATION_POLICIES = ("primary", "rotate", "random", "least-loaded", "power-of-two")


def run_hotspot_ablation():
    bins = bins_from_capacities([2500] * 4)
    strategy = RedundantShare(bins, copies=2)
    addresses = ZipfGenerator(40, alpha=1.4, seed=5).sample(6000)

    def peak_share(policy):
        scheduler = create_scheduler(policy, [spec.bin_id for spec in bins])
        return run_reads(strategy, scheduler, addresses).peak_share()

    return {policy: peak_share(policy) for policy in ABLATION_POLICIES}


def test_read_scheduling_flattens_hotspots(benchmark):
    peaks = benchmark.pedantic(run_hotspot_ablation, rounds=1, iterations=1)
    emit(
        "Zipf(1.4) hotspot: peak per-device request share by read policy "
        "(homogeneous 4-disk mirror; fair = 25%)",
        ["read policy", "peak device share"],
        [(policy, f"{peak:.2%}") for policy, peak in peaks.items()],
    )
    benchmark.extra_info.update(
        {policy: round(peak, 4) for policy, peak in peaks.items()}
    )
    # Every scheduling policy visibly flattens the hot device vs. primary.
    for policy in ABLATION_POLICIES[1:]:
        assert peaks[policy] < peaks["primary"] - 0.03, policy
    # Load feedback does no worse than blind spreading here.
    assert peaks["least-loaded"] <= peaks["random"] + 1e-9
    assert peaks["power-of-two"] <= peaks["random"] + 1e-9


def run_skew_curve():
    """Peak device load per scheduler × strategy × Zipf α."""
    rows = []
    device_ids = None
    for strategy_name in CURVE_STRATEGIES:
        bins = bins_from_capacities(CURVE_CAPACITIES, prefix="disk")
        strategy = create_strategy(strategy_name, bins, copies=COPIES)
        device_ids = [spec.bin_id for spec in bins]
        for alpha in CURVE_ALPHAS:
            addresses = ZipfGenerator(UNIVERSE, alpha=alpha, seed=SEED).sample(
                REQUESTS
            )
            for policy in scheduler_names():
                scheduler = create_scheduler(policy, device_ids, seed=SEED)
                outcome = run_reads(strategy, scheduler, addresses)
                rows.append(
                    {
                        "strategy": strategy_name,
                        "alpha": alpha,
                        "policy": policy,
                        "peak_count": outcome.peak_count(),
                        "peak_share": round(outcome.peak_share(), 6),
                        "peak_load": round(outcome.peak_load(), 2),
                        "lower_bound": (
                            round(outcome.lower_bound, 2)
                            if outcome.lower_bound is not None
                            else None
                        ),
                    }
                )
    return rows


def test_scheduler_skew_curve(benchmark):
    """Regenerates BENCH_sched.json and asserts the scheduling gates."""
    rows = benchmark.pedantic(run_skew_curve, rounds=1, iterations=1)

    policies = list(scheduler_names())
    table = []
    for strategy_name in CURVE_STRATEGIES:
        for alpha in CURVE_ALPHAS:
            cell = {
                row["policy"]: row
                for row in rows
                if row["strategy"] == strategy_name and row["alpha"] == alpha
            }
            bound = cell["water-filling"]["lower_bound"]
            table.append(
                [strategy_name, f"{alpha:.1f}"]
                + [f"{cell[policy]['peak_share']:.2%}" for policy in policies]
                + [f"{bound / REQUESTS:.2%}" if bound is not None else "-"]
            )
    emit(
        f"Peak device request share vs. Zipf skew "
        f"({REQUESTS} requests, {UNIVERSE} blocks, k={COPIES}, "
        f"{len(CURVE_CAPACITIES)} disks)",
        ["strategy", "alpha"] + list(policies) + ["optimum"],
        table,
    )

    payload = {
        "benchmark": "bench_table_request_balance",
        "numpy": HAVE_NUMPY,
        "requests": REQUESTS,
        "universe": UNIVERSE,
        "copies": COPIES,
        "curve": rows,
    }
    assert tuple(sorted(payload)) == PAYLOAD_KEYS
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    by_combo = {}
    for row in rows:
        assert tuple(sorted(row)) == CURVE_KEYS
        by_combo[(row["strategy"], row["alpha"], row["policy"])] = row

    worst_po2 = 0.0
    for strategy_name in CURVE_STRATEGIES:
        for alpha in CURVE_ALPHAS:
            def peak(policy):
                return by_combo[(strategy_name, alpha, policy)]["peak_load"]

            # The CI smoke gate: two choices beat none, feedback beats
            # blind, and nothing beats hindsight.
            assert peak("power-of-two") <= peak("random"), (strategy_name, alpha)
            assert peak("least-loaded") <= peak("random"), (strategy_name, alpha)
            bound = by_combo[(strategy_name, alpha, "water-filling")][
                "lower_bound"
            ]
            if bound is not None:
                for policy in policies:
                    assert peak(policy) >= bound - 1e-6, (
                        strategy_name, alpha, policy,
                    )
            worst_po2 = max(worst_po2, peak("power-of-two") / peak("random"))
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["po2_vs_random_worst_ratio"] = round(worst_po2, 4)
