"""Fleet-scale chaos throughput and mean-field durability (anchor table).

Three measurements:

* **Matched scenario** — the event-driven :class:`ChaosController` and
  the columnar :class:`FleetSimulator` replay the *same* crash-only
  :class:`FaultSchedule` (k=2, 12 devices, one simultaneous device pair
  plus a later single crash) and must agree **exactly** on which blocks
  were lost — the zero-divergence gate the ``fleet-smoke`` CI job runs.
  Each engine's throughput is recorded as block-epochs/second (block
  population x simulated horizon / wall seconds).
* **Fleet scale** — the acceptance scenario (1000 devices x 1M blocks x
  10 years at full scale): the fleet engine's block-epochs/second must
  beat the event-driven controller's matched-scenario rate by the
  pinned multiple (50x at full scale; the controller could not run this
  scenario at all — extrapolating its matched rate, the same campaign
  would take days).
* **Stressed mean-field fit** — a high-churn regime (failure_rate=6/yr)
  where the steady-state copy-count distribution is far from a point
  mass; its total-variation distance to the mean-field prediction must
  stay within the pinned tolerance at full scale, and a small
  repair-rate sweep records the durability phase diagram (lost fraction
  must fall as repair capacity grows).

``REPRO_BENCH_FLEET_BLOCKS`` scales the block population down for smoke
runs (CI uses 20000); the 50x and tolerance gates are asserted at full
scale, with looser always-on floors.  Nothing is written: the tables are
printed and the gates asserted (the e2e ``fleet-sim`` workload is where
fleet throughput is tracked).
"""

import os
import sys
import time
import warnings

from _tables import emit
from repro.chaos import (
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FleetOptions,
    FleetSimulator,
    RepairPolicy,
    crash_epochs,
    durability_phase_diagram,
    run_chaos,
)
from repro.cluster import Cluster
from repro.hashing.primitives import stable_u64
from repro.placement.registry import create
from repro.types import bins_from_capacities

#: ≥1M blocks — the acceptance scale for the 50x and tolerance gates.
FLEET_BLOCKS = int(os.environ.get("REPRO_BENCH_FLEET_BLOCKS", "") or 1_000_000)
FULL_SCALE = FLEET_BLOCKS >= 1_000_000

#: Matched scenario (both engines run it; losses must agree exactly).
MATCHED_DEVICES = 12
MATCHED_COPIES = 2
MATCHED_BLOCKS = min(20_000, FLEET_BLOCKS)
MATCHED_EPOCHS = 20

#: Pinned speedup of fleet block-epochs/sec over the controller's rate.
SPEEDUP_TARGET = 50.0 if FULL_SCALE else 10.0
#: Pinned total-variation tolerance for the stressed mean-field fit.
TV_TOLERANCE = 0.06 if FULL_SCALE else 0.20


def seeded_crash_schedule(device_ids, strategy, blocks, seed):
    """Crash-only schedule both engines can replay divergence-free.

    The simultaneous crash pair is the *placement of a seeded victim
    block* — guaranteed to lose at least that block whatever the
    strategy's co-location structure looks like.  Times are integral and
    far enough apart that repairs drain in between, so the epoch
    discretization (:func:`crash_epochs`) cannot change which blocks
    are simultaneously down: the pair crashes at t=2 (the loss event)
    and one further device crashes at t=12 (repaired cleanly).
    """
    victim = stable_u64("fleet-bench-victim", seed) % blocks
    pair = strategy.place(victim)
    survivors = [device for device in device_ids if device not in pair]
    single = survivors[stable_u64("fleet-bench-single", seed) % len(survivors)]
    return FaultSchedule(
        [FaultEvent(2.0, FaultKind.CRASH, device) for device in pair]
        + [FaultEvent(12.0, FaultKind.CRASH, single)]
    )


def run_matched(seed=5):
    """Both engines on the same schedule; returns the comparison row."""
    capacity = MATCHED_BLOCKS * MATCHED_COPIES * 2 // MATCHED_DEVICES + 16
    bins = bins_from_capacities(
        [capacity] * MATCHED_DEVICES, prefix="dev"
    )
    schedule = seeded_crash_schedule(
        [spec.bin_id for spec in bins],
        create("striping", bins, copies=MATCHED_COPIES),
        MATCHED_BLOCKS,
        seed,
    )

    cluster = Cluster(
        bins, lambda b: create("striping", b, copies=MATCHED_COPIES)
    )
    for address in range(MATCHED_BLOCKS):
        cluster.write(address, b"x" * 8)
    options = ChaosOptions(
        seed=seed,
        policy=RepairPolicy(rate=float(MATCHED_BLOCKS), timeout=1000.0),
        replacement_delay=1.0,
    )
    start = time.perf_counter()
    controller_report = run_chaos(cluster, schedule, options)
    controller_seconds = time.perf_counter() - start

    fleet_options = FleetOptions(
        devices=MATCHED_DEVICES,
        blocks=MATCHED_BLOCKS,
        copies=MATCHED_COPIES,
        epochs=MATCHED_EPOCHS,
        failure_rate=0.0,
        repair_rate=float(MATCHED_BLOCKS),
        seed=seed,
        strategy="striping",
    )
    simulator = FleetSimulator(fleet_options, bins=bins)
    scheduled = crash_epochs(schedule, simulator.device_ids)
    start = time.perf_counter()
    fleet_report = simulator.run(scheduled)
    fleet_seconds = time.perf_counter() - start

    controller_losses = {loss.address for loss in controller_report.loss_events}
    fleet_losses = set(fleet_report.lost_addresses)
    horizon = max(controller_report.horizon, 1.0)
    return {
        "devices": MATCHED_DEVICES,
        "blocks": MATCHED_BLOCKS,
        "copies": MATCHED_COPIES,
        "epochs": MATCHED_EPOCHS,
        "controller_seconds": round(controller_seconds, 4),
        "controller_block_epochs_per_sec": round(
            MATCHED_BLOCKS * horizon / controller_seconds
        ),
        "fleet_seconds": round(fleet_seconds, 4),
        "fleet_block_epochs_per_sec": round(
            MATCHED_BLOCKS * MATCHED_EPOCHS / fleet_seconds
        ),
        "controller_losses": sorted(controller_losses),
        "fleet_losses": sorted(fleet_losses),
        "losses_agree": controller_losses == fleet_losses,
    }


def run_fleet_scale(controller_rate):
    """The acceptance scenario: ≥1000 devices x ≥1M blocks x ≥10 years."""
    options = FleetOptions(
        devices=1000 if FULL_SCALE else 100,
        blocks=FLEET_BLOCKS,
        copies=3,
        years=10.0 if FULL_SCALE else 1.0,
        seed=0,
    )
    start = time.perf_counter()
    report = FleetSimulator(options).run()
    seconds = time.perf_counter() - start
    rate = report.blocks * report.epochs / seconds
    return {
        "devices": options.devices,
        "blocks": options.blocks,
        "copies": options.copies,
        "years": options.horizon_years,
        "epochs": report.epochs,
        "seconds": round(seconds, 2),
        "block_epochs_per_sec": round(rate),
        "device_failures": report.device_failures,
        "repairs": report.repairs_completed,
        "losses": report.lost_blocks,
        "tv_distance": round(report.mean_field_deviation, 6),
        "speedup_vs_controller": round(rate / controller_rate, 1),
    }


def run_stressed():
    """High-churn regime: nontrivial steady state vs mean field + sweep."""
    options = FleetOptions(
        devices=1000 if FULL_SCALE else 250,
        blocks=100_000 if FULL_SCALE else min(FLEET_BLOCKS, 20_000),
        copies=3,
        years=3.0 if FULL_SCALE else 2.0,
        failure_rate=6.0,
        repair_rate=0.0,  # set per run below
        seed=42,
    )
    import dataclasses

    stressed_rate = 0.0125 * options.blocks
    report = FleetSimulator(
        dataclasses.replace(options, repair_rate=stressed_rate)
    ).run()
    sweep_options = dataclasses.replace(
        options,
        blocks=min(options.blocks, 20_000),
        years=min(options.years, 2.0),
    )
    sweep_rates = [
        fraction * sweep_options.blocks
        for fraction in (0.002, 0.006, 0.0125, 0.05)
    ]
    phase = durability_phase_diagram(sweep_options, sweep_rates)
    row = {
        "devices": options.devices,
        "blocks": options.blocks,
        "copies": options.copies,
        "years": options.horizon_years,
        "failure_rate": options.failure_rate,
        "repair_rate": stressed_rate,
        "losses": report.lost_blocks,
        "steady_state": [round(x, 6) for x in report.steady_state],
        "mean_field": [round(x, 6) for x in report.mean_field],
        "tv_distance": round(report.mean_field_deviation, 6),
    }
    phase_rows = [
        {
            "repair_rate": point.repair_rate,
            "lost_fraction": round(point.lost_fraction, 6),
            "mean_copies": round(point.mean_copies, 4),
            "tv_distance": round(point.mean_field_deviation, 6),
        }
        for point in phase
    ]
    return row, phase_rows


def test_fleet_durability_table(benchmark):
    """Prints the fleet tables and asserts the gates."""

    def experiment():
        matched = run_matched()
        fleet = run_fleet_scale(matched["controller_block_epochs_per_sec"])
        stressed, phase = run_stressed()
        return matched, fleet, stressed, phase

    matched, fleet, stressed, phase = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    emit(
        "Fleet chaos throughput (block-epochs simulated per second)",
        ["engine", "devices", "blocks", "horizon", "rate", "losses"],
        [
            [
                "event-driven controller",
                matched["devices"],
                matched["blocks"],
                f"{matched['epochs']} units",
                f"{matched['controller_block_epochs_per_sec']:,}",
                len(matched["controller_losses"]),
            ],
            [
                "fleet (matched)",
                matched["devices"],
                matched["blocks"],
                f"{matched['epochs']} epochs",
                f"{matched['fleet_block_epochs_per_sec']:,}",
                len(matched["fleet_losses"]),
            ],
            [
                "fleet (full campaign)",
                fleet["devices"],
                fleet["blocks"],
                f"{fleet['years']:.0f} years",
                f"{fleet['block_epochs_per_sec']:,}",
                fleet["losses"],
            ],
        ],
    )
    emit(
        "Durability vs repair rate (stressed regime, mean-field fit)",
        ["repair rate/epoch", "lost fraction", "mean copies", "TV"],
        [
            [
                f"{point['repair_rate']:g}",
                f"{point['lost_fraction']:.4f}",
                f"{point['mean_copies']:.3f}",
                f"{point['tv_distance']:.4f}",
            ]
            for point in phase
        ],
    )

    benchmark.extra_info["fleet_rate"] = fleet["block_epochs_per_sec"]
    benchmark.extra_info["speedup"] = fleet["speedup_vs_controller"]
    benchmark.extra_info["tv_distance"] = stressed["tv_distance"]

    # Zero-divergence gate: both engines must agree exactly on loss
    # accounting, and the matched scenario must actually lose blocks
    # (a loss-free scenario would vacuously "agree").
    assert matched["controller_losses"], (
        "matched scenario is degenerate: the simultaneous pair crash "
        "lost no blocks"
    )
    assert matched["losses_agree"], (
        "LOSS DIVERGENCE: controller lost "
        f"{matched['controller_losses']} but the fleet engine lost "
        f"{matched['fleet_losses']}"
    )

    # Phase diagram shape: more repair capacity, less loss.
    assert phase[-1]["lost_fraction"] <= phase[0]["lost_fraction"], (
        "durability phase diagram inverted: raising the repair rate "
        "increased the lost fraction"
    )

    if fleet["speedup_vs_controller"] < SPEEDUP_TARGET:
        message = (
            "PERF REGRESSION: fleet engine only "
            f"{fleet['speedup_vs_controller']:.1f}x the event-driven "
            f"controller's rate (target {SPEEDUP_TARGET:.0f}x at "
            f"{FLEET_BLOCKS} blocks)"
        )
        warnings.warn(message, stacklevel=2)
        print(f"\n*** {message} ***", file=sys.stderr)
        raise AssertionError(message)

    assert stressed["tv_distance"] <= TV_TOLERANCE, (
        "mean-field fit out of tolerance: TV="
        f"{stressed['tv_distance']:.4f} > {TV_TOLERANCE} "
        f"(full_scale={FULL_SCALE})"
    )
