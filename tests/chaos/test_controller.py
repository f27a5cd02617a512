"""Tests for the chaos controller: determinism, durability, degradation."""

import pytest

from repro import obs
from repro.chaos import (
    ChaosController,
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RepairPolicy,
    generate_schedule,
    run_chaos,
)
from repro.cluster import Cluster, DeviceState
from repro.core import RedundantShare
from repro.exceptions import DeviceNotFoundError, InfeasibleRedundancyError
from repro.types import bins_from_capacities

CAPACITIES = [60, 60, 60, 60, 60, 60]


def make_cluster(copies=3, capacities=CAPACITIES, blocks=40):
    cluster = Cluster(
        bins_from_capacities(list(capacities), prefix="dev"),
        lambda bins: RedundantShare(bins, copies=copies),
    )
    for address in range(blocks):
        cluster.write(address, f"block-{address}".encode())
    return cluster


def mixed_schedule(cluster, seed=7):
    return generate_schedule(
        cluster.device_ids(),
        seed=seed,
        duration=20.0,
        crashes=1,
        outages=1,
        flaky=1,
    )


def final_map(cluster):
    return {a: cluster.placement_of(a) for a in cluster.addresses()}


class TestReadableShares:
    """The survivor count skips unknown devices, and nothing else."""

    def test_unknown_device_counts_as_unreadable(self, break_device):
        cluster = make_cluster()
        controller = ChaosController(cluster, FaultSchedule([]))
        gone = cluster.placement_of(5)[0]
        break_device(cluster, gone, DeviceNotFoundError(gone))
        assert controller._readable_shares(5) == 2

    def test_other_device_errors_propagate(self, break_device):
        cluster = make_cluster()
        controller = ChaosController(cluster, FaultSchedule([]))
        broken = cluster.placement_of(5)[0]
        break_device(cluster, broken, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            controller._readable_shares(5)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        first = make_cluster()
        second = make_cluster()
        with obs.capture() as trace_a:
            report_a = run_chaos(
                first, mixed_schedule(first), ChaosOptions(seed=7)
            )
        with obs.capture() as trace_b:
            report_b = run_chaos(
                second, mixed_schedule(second), ChaosOptions(seed=7)
            )
        assert trace_a.events and trace_a.events == trace_b.events
        assert report_a.repair_order == report_b.repair_order
        assert report_a.samples == report_b.samples
        assert final_map(first) == final_map(second)

    def test_repair_order_prioritises_endangered_blocks(self):
        # With one crash every lost share has the same survivor count, so
        # the order must be (address, position)-sorted — a pure function
        # of the queue contents.
        cluster = make_cluster()
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-0")]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert report.repair_order == sorted(report.repair_order)


class TestSingleFailureSurvival:
    def test_k3_survives_any_single_crash_with_zero_loss(self):
        for victim in [f"dev-{i}" for i in range(len(CAPACITIES))]:
            cluster = make_cluster(copies=3)
            schedule = FaultSchedule(
                [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id=victim)]
            )
            report = run_chaos(cluster, schedule, ChaosOptions(seed=1))
            assert not report.data_loss, f"lost blocks crashing {victim}"
            cluster.verify()
            for address in cluster.addresses():
                assert cluster.read(address) == f"block-{address}".encode()

    def test_post_repair_fairness_passes_chi_square(self):
        cluster = make_cluster(copies=3, blocks=60)
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-2")]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=1, alpha=0.01))
        assert report.fairness is not None
        assert report.fairness.accepted

    def test_repairs_complete_and_are_counted(self):
        cluster = make_cluster(copies=3)
        lost = len(cluster.shares_on("dev-1"))
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-1")]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=1))
        assert report.completed == lost
        assert report.repair_throughput > 0
        assert report.durability is not None
        assert report.durability.mttr > 0


class TestTransientFaults:
    def test_outage_never_loses_data(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.OUTAGE,
                    device_id="dev-3", duration=5.0,
                )
            ]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert not report.data_loss
        assert report.completed == 0  # nothing to repair: data was intact
        cluster.verify()
        # The outage shows up in the at-risk samples, then clears.
        assert report.peak_at_risk > 0
        assert report.samples[-1][1] == 0

    def test_flaky_survivors_force_retries_with_backoff(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.FLAKY, device_id="dev-1",
                    duration=12.0, error_rate=0.6, latency=0.5,
                ),
                FaultEvent(time=2.0, kind=FaultKind.CRASH, device_id="dev-0"),
            ]
        )
        # Backoff spacing means a task can only burn ~7 attempts inside
        # the 12-unit flaky window; with a 12-attempt budget every task
        # outlasts the window and succeeds once the device heals.
        report = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                seed=3,
                policy=RepairPolicy(rate=16.0, max_attempts=12, timeout=100.0),
            ),
        )
        assert report.retries > 0
        assert not report.abandoned
        assert report.attempts == report.completed + report.retries + len(
            report.abandoned
        )
        assert not report.data_loss
        cluster.verify()

    def test_exhausted_retries_are_abandoned_not_raised(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.FLAKY, device_id="dev-1",
                    duration=200.0, error_rate=0.95, latency=0.0,
                ),
                FaultEvent(time=2.0, kind=FaultKind.CRASH, device_id="dev-0"),
            ]
        )
        report = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                seed=2,
                policy=RepairPolicy(rate=8.0, max_attempts=2, timeout=500.0),
            ),
        )
        assert report.abandoned, "0.95 error rate with 2 attempts must abandon"
        for error in report.abandoned:
            assert error.attempts == 2


class TestOverlappingWindows:
    """One state per device: windows on a crashed device change nothing."""

    @staticmethod
    def assert_healed(cluster, report, device_id="dev-0"):
        assert not report.data_loss and not report.abandoned
        assert cluster.device(device_id).state is DeviceState.ACTIVE
        assert len(cluster.shares_on(device_id)) == cluster.device(device_id).used
        cluster.verify()
        for address in cluster.addresses():
            assert len(cluster.collect_shares(address)[0]) == 3

    def test_outage_window_inside_a_crash(self):
        # FaultSchedule refuses a fault after the device's crash, so the
        # outage is injected by hand on the controller's clock.
        cluster = make_cluster()
        controller = ChaosController(
            cluster,
            FaultSchedule(
                [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-0")]
            ),
            ChaosOptions(seed=0, replacement_delay=6.0),
        )
        outage = FaultEvent(
            time=2.0, kind=FaultKind.OUTAGE, device_id="dev-0", duration=1.0
        )
        states = []
        controller._sim.schedule_at(2.0, lambda: controller._inject(outage))
        for time in (2.5, 3.5):
            controller._sim.schedule_at(
                time, lambda: states.append(cluster.device("dev-0").state)
            )
        report = controller.run()
        assert states == [DeviceState.FAILED, DeviceState.FAILED]
        self.assert_healed(cluster, report)

    def test_crash_inside_an_outage_window(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.OUTAGE,
                    device_id="dev-0", duration=5.0,
                ),
                FaultEvent(time=2.0, kind=FaultKind.CRASH, device_id="dev-0"),
            ]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert report.completed == len(cluster.shares_on("dev-0"))
        self.assert_healed(cluster, report)

    def test_write_inside_an_outage_skips_the_offline_device(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.OUTAGE,
                    device_id="dev-0", duration=4.0,
                )
            ]
        )
        controller = ChaosController(cluster, schedule, ChaosOptions(seed=0))
        fresh = next(
            a for a in range(1000, 2000) if "dev-0" in cluster.strategy.place(a)
        )
        stale = cluster.shares_on("dev-0")[0][0]
        gone = cluster.shares_on("dev-0")[1][0]
        seen = {}

        def mutate():
            cluster.write(fresh, b"fresh")
            cluster.write(stale, b"rewritten")
            cluster.delete(gone)
            seen["fresh"] = cluster.collect_shares(fresh)
            cluster.verify()

        controller._sim.schedule_at(2.0, mutate)
        report = controller.run()
        shares, skipped = seen["fresh"]
        assert len(shares) == 2 and len(skipped) == 1
        assert report.completed == 2  # the new share and the rewritten one
        self.assert_healed(cluster, report)
        assert cluster.read(fresh) == b"fresh"
        assert cluster.read(stale) == b"rewritten"
        assert gone not in cluster.addresses()


class TestShrink:
    def test_feasible_shrink_rebalances(self):
        cluster = make_cluster(copies=2, capacities=[80, 80, 80, 80, 80])
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.SHRINK, device_id="dev-4")]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert "dev-4" not in cluster.device_ids()
        assert not report.data_loss
        cluster.verify()

    def test_infeasible_shrink_raises_typed_error(self):
        # Removing a small device leaves k*b_0 > B: dominated by dev-0.
        cluster = make_cluster(copies=2, capacities=[100, 40, 40], blocks=20)
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.SHRINK, device_id="dev-1")]
        )
        with pytest.raises(InfeasibleRedundancyError, match="Lemma 2.1"):
            run_chaos(cluster, schedule, ChaosOptions(seed=0))
        # Gate fired before any data moved.
        assert sorted(cluster.device_ids()) == ["dev-0", "dev-1", "dev-2"]

    def test_allow_degraded_overrides_the_gate(self):
        cluster = make_cluster(copies=2, capacities=[100, 40, 40], blocks=20)
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.SHRINK, device_id="dev-1")]
        )
        report = run_chaos(
            cluster, schedule, ChaosOptions(seed=0, allow_degraded=True)
        )
        assert "dev-1" not in cluster.device_ids()
        assert not report.data_loss
        cluster.verify()


class TestDataLossAccounting:
    def test_simultaneous_crashes_beyond_tolerance_record_losses(self):
        cluster = make_cluster(copies=2, blocks=40)
        # Two crashes in the same instant with k=2: blocks with both
        # copies on the victims are unrecoverable and must be reported.
        schedule = FaultSchedule(
            [
                FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-0"),
                FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-1"),
            ]
        )
        both = {
            address
            for address in cluster.addresses()
            if set(cluster.placement_of(address)) == {"dev-0", "dev-1"}
        }
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert {loss.address for loss in report.loss_events} == both
        # Blocks with one surviving copy were still repaired.
        survivors = set(cluster.addresses()) - both
        repaired = {address for address, _ in report.repair_order}
        assert repaired.issubset(survivors)

    def test_share_on_an_offline_device_is_not_lost(self):
        # The only other copy of a block sits on a device in an outage when
        # its partner crashes: the contents come back, so nothing is lost.
        cluster = make_cluster(copies=2, blocks=40)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.OUTAGE,
                    device_id="dev-0", duration=5.0,
                ),
                FaultEvent(time=2.0, kind=FaultKind.CRASH, device_id="dev-1"),
            ]
        )
        both = [
            address
            for address in cluster.addresses()
            if set(cluster.placement_of(address)) == {"dev-0", "dev-1"}
        ]
        assert both
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert not report.loss_events
        abandoned = {(error.address, error.position) for error in report.abandoned}
        for address in cluster.addresses():
            shares = cluster.collect_shares(address)[0]
            missing = {(address, p) for p in range(2) if p not in shares}
            assert missing <= abandoned
            assert cluster.read(address) == f"block-{address}".encode()


    def test_repairs_abandoned_while_survivors_were_offline_are_retried(self):
        # The survivors of dev-1's blocks sit on dev-0, offline for 30
        # units: the repairs are abandoned meanwhile, and retried when
        # dev-0 serves again, so every block ends back at k copies.
        cluster = make_cluster(copies=2, blocks=40)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind=FaultKind.OUTAGE,
                    device_id="dev-0", duration=30.0,
                ),
                FaultEvent(time=2.0, kind=FaultKind.CRASH, device_id="dev-1"),
            ]
        )
        report = run_chaos(cluster, schedule, ChaosOptions(seed=0))
        assert report.abandoned and not report.loss_events
        for address in cluster.addresses():
            assert len(cluster.collect_shares(address)[0]) == 2

class TestSamplingAndThroughputEdges:
    """Satellite fixes: final sample on short runs, zero-division guards,
    options validation."""

    def test_short_run_still_emits_final_sample(self):
        from repro import obs

        cluster = make_cluster(copies=3, blocks=12)
        schedule = FaultSchedule(
            [FaultEvent(time=0.2, kind=FaultKind.CRASH, device_id="dev-0")]
        )
        sink = obs.MemorySink()
        with obs.use_sink(sink):
            report = run_chaos(
                cluster,
                schedule,
                # Interval far beyond the run: only _finish can sample.
                ChaosOptions(seed=1, sample_interval=1000.0),
            )
        assert report.samples, "short run produced no samples at all"
        assert report.samples[-1][0] == pytest.approx(report.horizon)
        sample_events = [e for e in sink.events if e.kind == "chaos.sample"]
        assert sample_events, "no chaos.sample trace event for a short run"

    def test_final_sample_matches_horizon_without_sink(self):
        cluster = make_cluster(copies=3, blocks=12)
        report = run_chaos(
            cluster, mixed_schedule(cluster), ChaosOptions(seed=3)
        )
        assert report.samples[-1][0] == pytest.approx(report.horizon)

    def test_repair_throughput_guard_on_zero_horizon(self):
        from repro.chaos import ChaosReport

        assert ChaosReport().repair_throughput == 0.0

    def test_zero_elapsed_repair_yields_no_durability_fit(self):
        # An empty cluster crashing with replacement_delay=0: the crash
        # is observed but every "repair" takes zero elapsed time, so
        # there is no repair rate to fit — durability must be None, not
        # a crash.
        cluster = Cluster(
            bins_from_capacities([60] * 6, prefix="dev"),
            lambda bins: RedundantShare(bins, copies=3),
        )
        for address in range(8):
            cluster.write(address, b"x")
        schedule = FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id="dev-0")]
        )
        report = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                seed=0,
                replacement_delay=0.0,
                policy=RepairPolicy(rate=1e9, timeout=1000.0),
            ),
        )
        assert report.faults.get("crash") == 1
        if report.durability is not None:
            assert report.durability.mttr > 0

    def test_options_reject_non_positive_sample_interval(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChaosOptions(sample_interval=0.0)
        with pytest.raises(ConfigurationError):
            ChaosOptions(sample_interval=-1.0)

    def test_options_reject_negative_replacement_delay(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChaosOptions(replacement_delay=-0.5)

    def test_options_reject_bad_alpha(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChaosOptions(alpha=0.0)
        with pytest.raises(ConfigurationError):
            ChaosOptions(alpha=1.0)
