"""``fleet-sim``: the columnar failure/repair simulator over simulated years.

One round is one five-year run of 200 devices; the failure/repair sweeps
dominate and placement is a one-off.  ``--seed`` draws the layout (it
names the devices, which salts every placement hash) while the failure
draws stay on one pinned seed: the cost of a run follows the number of
failures drawn, so every seed does the same amount of repair work on
different data.  Every run of one seed must report the same failures,
repairs, losses and steady state.  The traced run adds a small matched
``run_chaos`` scenario, whose losses the fleet engine must reproduce
exactly.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

from harness import COPIES, STRATEGY, Round, Tracer, Workload
from repro.analysis.mean_field import mean_field_distribution
from repro.chaos import (
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FleetOptions,
    FleetSimulator,
    RepairPolicy,
    crash_epochs,
    run_chaos,
)
from repro.cluster import Cluster
from repro.placement.registry import create
from repro.types import bins_from_capacities

DEVICES = 200
BLOCKS = 20000
YEARS = 5.0
FAILURE_RATE = 0.25
#: Share rebuilds per epoch for every 1000 blocks.
REPAIRS_PER_KILOBLOCK = 3.0
#: Seeds the failure draws of every run, whatever ``--seed`` is.
FAILURE_SEED = 0

#: The matched controller scenario (traced run only).
MATCHED_DEVICES = 12
MATCHED_BLOCKS = 1500
MATCHED_EPOCHS = 30


def fingerprint(report) -> tuple:
    """What two runs of one seed must agree on."""
    return (
        report.device_failures,
        report.repairs_completed,
        tuple(report.lost_addresses),
        report.steady_state,
    )


class FleetSim(Workload):
    name = "fleet-sim"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        blocks = self.scaled(BLOCKS)
        self.options = FleetOptions(
            devices=DEVICES,
            blocks=blocks,
            copies=COPIES,
            years=YEARS,
            failure_rate=FAILURE_RATE,
            repair_rate=REPAIRS_PER_KILOBLOCK * blocks / 1000,
            seed=FAILURE_SEED,
            strategy=STRATEGY,
        )
        self.bins = bins_from_capacities(
            [self.options.device_capacity] * DEVICES, prefix=f"layout{seed}-dev"
        )
        self.matched_ok = None

    def run_fleet(self):
        return FleetSimulator(self.options, bins=self.bins).run()

    def setup(self) -> None:
        self.report = self.run_fleet()  # warm, and the reference
        self.reference = fingerprint(self.report)

    def round(self, tracer: Tracer) -> Round:
        started = time.perf_counter()
        report = self.run_fleet()
        ended = time.perf_counter()
        tracer.record("chaos.fleet.run", started, ended)
        return Round(
            work=report.blocks * report.epochs,
            elapsed=ended - started,
            latencies=[ended - started],
            attempted=1,
            failed=fingerprint(report) != self.reference,
        )

    def quality(self) -> float:
        """k over the steady-state mean copy count (1.0 = never degraded)."""
        mean_copies = sum(
            copies * share for copies, share in enumerate(self.report.steady_state)
        )
        return COPIES / mean_copies

    def layers(self, tracer, rounds, seconds) -> Dict[str, float]:
        options, report = self.options, self.report
        run = statistics.median(r.elapsed for r in rounds)
        started = time.perf_counter()
        create(STRATEGY, self.bins, copies=COPIES).place_many(range(options.blocks))
        place = time.perf_counter() - started
        window = report.samples[len(report.samples) // 2 :]
        started = time.perf_counter()
        mean_field_distribution(
            COPIES,
            options.failure_probability,
            options.repair_rate / options.blocks,
            [sample.epoch for sample in window],
        )
        mean_field = time.perf_counter() - started
        controller, events = self.matched()
        return {
            "chaos.fleet.run_s": run,
            "chaos.fleet.place_s": place,
            "chaos.fleet.epoch_loop_s": run - place,
            "chaos.fleet.failures": report.device_failures,
            "chaos.fleet.repairs": report.repairs_completed,
            "chaos.fleet.lost_blocks": report.lost_blocks,
            "chaos.fleet.mean_field_tv": report.mean_field_deviation,
            "chaos.controller.run_s": controller,
            "chaos.controller.events_per_s": events / controller,
            "analysis.mean_field_s": mean_field,
        }

    def matched(self):
        """Event-driven controller and fleet engine on one crash schedule:
        a block's whole placement crashes at t=2, one more device at t=12."""
        blocks = self.scaled(MATCHED_BLOCKS)
        capacity = blocks * COPIES * 2 // MATCHED_DEVICES + 16
        bins = bins_from_capacities([capacity] * MATCHED_DEVICES, prefix="dev")
        strategy = create(STRATEGY, bins, copies=COPIES)
        victims = strategy.place(self.seed % blocks)
        spare = next(s.bin_id for s in bins if s.bin_id not in victims)
        schedule = FaultSchedule(
            [FaultEvent(2.0, FaultKind.CRASH, device) for device in victims]
            + [FaultEvent(12.0, FaultKind.CRASH, spare)]
        )
        cluster = Cluster(bins, lambda b: create(STRATEGY, b, copies=COPIES))
        for address in range(blocks):
            cluster.write(address, b"x" * 8)
        options = ChaosOptions(
            seed=self.seed,
            policy=RepairPolicy(rate=float(blocks), timeout=1000.0),
            replacement_delay=1.0,
        )
        started = time.perf_counter()
        chaos = run_chaos(cluster, schedule, options)
        seconds = time.perf_counter() - started
        fleet = FleetSimulator(
            FleetOptions(
                devices=MATCHED_DEVICES, blocks=blocks, copies=COPIES,
                epochs=MATCHED_EPOCHS, failure_rate=0.0,
                repair_rate=float(blocks), seed=self.seed, strategy=STRATEGY,
            ),
            bins=bins,
        )
        # The engine numbers devices by the strategy's rank order, which
        # for equal capacities is not the order of ``bins``.
        lost = fleet.run(
            crash_epochs(schedule, strategy.place_many([0]).rank_ids)
        ).lost_addresses
        self.matched_ok = {loss.address for loss in chaos.loss_events} == set(lost)
        return seconds, chaos.attempts + sum(chaos.faults.values())

    def verify(self):
        """The matched scenario's loss sets agree (traced run)."""
        if self.matched_ok is None:
            return 0, 0
        return 1, not self.matched_ok


WORKLOAD = FleetSim
