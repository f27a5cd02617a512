"""Instrumented hot paths: events flow when enabled, nothing when not.

Covers the tentpole's instrumentation points: batch placement and the
hazard-scan depth, rebalancer drains, cluster device transitions, chaos
crash rounds and the simulator's per-tick queue depth.
"""

import pytest

import repro._compat as compat
from repro import obs
from repro.chaos import ChaosOptions, FaultKind, generate_schedule, run_chaos
from repro.cluster import Cluster, Rebalancer
from repro.core import LinMirror, RedundantShare
from repro.placement import TrivialReplication
from repro.simulation import Simulator
from repro.types import BinSpec, bins_from_capacities


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def small_cluster(copies=2, capacities=(120, 100, 80, 60)):
    bins = bins_from_capacities(list(capacities), prefix="dev")
    return Cluster(bins, lambda b: RedundantShare(b, copies=copies))


class TestZeroWhenDisabled:
    def test_null_sink_records_no_metrics_or_events(self):
        strategy = RedundantShare(
            bins_from_capacities([5, 4, 3, 2]), copies=2
        )
        strategy.place_many(range(256))
        cluster = small_cluster()
        for address in range(16):
            cluster.write(address, b"p")
        cluster.add_device(BinSpec("dev-new", 90))
        cluster.fail_device("dev-new")
        cluster.repair_device("dev-new")
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert obs.metrics().snapshot() == {"counters": {}, "histograms": {}}


class TestPlacementInstrumentation:
    def test_batch_event_and_counters(self):
        strategy = RedundantShare(
            bins_from_capacities([5, 4, 3, 2]), copies=3
        )
        with obs.capture() as trace:
            strategy.place_many(range(500))
            strategy.place_many(range(500, 700))
        batches = trace.of_kind("placement.batch")
        assert [event.fields["addresses"] for event in batches] == [500, 200]
        assert batches[0].fields["strategy"] == "redundant-share"
        assert batches[0].fields["copies"] == 3
        counters = obs.metrics().counters()
        assert counters["placement.batches"] == 2
        assert counters["placement.addresses"] == 700
        histogram = obs.metrics().histogram("placement.batch_size")
        assert histogram.count == 2

    @pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
    def test_one_call_is_one_batch_record_at_any_size(self, monkeypatch, pure):
        # The batch driver has one path: a large batch is still a single
        # ``placement.batch`` record, and the retired worker-count
        # variable selects nothing.
        if pure:
            monkeypatch.setattr(compat, "np", None)
        monkeypatch.setenv("REPRO_PLACE_WORKERS", "2")
        strategy = RedundantShare(
            bins_from_capacities([5, 4, 3, 2]), copies=3
        )
        with obs.capture() as trace:
            strategy.place_many(range(5000))
        assert trace.kinds() == {"placement.batch": 1, "placement.scan": 1}
        assert trace.of_kind("placement.batch")[0].fields["addresses"] == 5000
        counters = obs.metrics().counters()
        assert counters["placement.batches"] == 1
        assert counters["placement.addresses"] == 5000
        assert not [name for name in counters if "shard" in name]

    def test_scan_depth_histogram_matches_scalar_walks(self):
        strategy = RedundantShare(
            bins_from_capacities([5, 4, 3, 2, 1]), copies=2
        )
        population = range(300)
        ranks = strategy.rank_ids
        expected_depths = [
            ranks.index(strategy.place(address)[-1]) + 1
            for address in population
        ]
        with obs.capture() as trace:
            strategy.place_many(population)
        scan = trace.of_kind("placement.scan")[0]
        assert scan.fields["addresses"] == 300
        assert scan.fields["depth_sum"] == sum(expected_depths)
        assert scan.fields["depth_max"] == max(expected_depths)
        histogram = obs.metrics().histogram("placement.scan_depth")
        assert histogram.count == 300
        assert histogram.total == sum(expected_depths)

    def test_default_loop_strategies_emit_batch_events_too(self):
        strategy = TrivialReplication(
            bins_from_capacities([3, 2, 1]), copies=2
        )
        with obs.capture() as trace:
            strategy.place_many(range(50))
        assert trace.of_kind("placement.batch")[0].fields == {
            "strategy": "trivial",
            "copies": 2,
            "addresses": 50,
        }

    def test_empty_batch_emits_no_scan_event(self):
        strategy = LinMirror(bins_from_capacities([3, 2, 1]))
        with obs.capture() as trace:
            strategy.place_many([])
        assert trace.of_kind("placement.scan") == []
        assert trace.of_kind("placement.batch")[0].fields["addresses"] == 0


class TestClusterInstrumentation:
    def test_device_lifecycle_events(self):
        with obs.capture() as trace:
            cluster = small_cluster()
            for address in range(20):
                cluster.write(address, bytes([address]))
            cluster.add_device(BinSpec("dev-9", 110))
            cluster.fail_device("dev-9")
            cluster.repair_device("dev-9")
            cluster.remove_device("dev-0")
        kinds = trace.kinds()
        assert kinds["cluster.created"] == 1
        assert kinds["device.added"] == 1
        assert kinds["device.failed"] == 1
        assert kinds["device.repaired"] == 1
        assert kinds["device.removed"] == 1
        assert kinds["cluster.migration"] == 2  # the add and the remove
        added = trace.of_kind("device.added")[0].fields
        assert added["device"] == "dev-9"
        assert added["rebalance"] is True
        migration = trace.of_kind("cluster.migration")[0].fields
        assert migration["trigger"] == "add"
        assert migration["moved"] == added["moved"]
        counters = obs.metrics().counters()
        assert counters["cluster.devices_added"] == 1
        assert counters["cluster.devices_removed"] == 1
        assert counters["cluster.devices_failed"] == 1
        assert counters["cluster.devices_repaired"] == 1

    def test_failure_round_event(self):
        # One seeded crash round through the chaos controller.
        cluster = small_cluster()
        for address in range(12):
            cluster.write(address, b"zz")
        schedule = generate_schedule(cluster.device_ids(), seed=3)
        (crash,) = schedule.events
        with obs.capture() as trace:
            report = run_chaos(
                cluster, schedule, ChaosOptions(replacement_delay=0.0)
            )
        fault = trace.of_kind("chaos.fault")[0].fields
        assert (fault["fault"], fault["device"]) == ("crash", crash.device_id)
        assert trace.of_kind("device.failed")[0].fields["device"] == crash.device_id
        replacement = trace.of_kind("chaos.replacement")[0].fields
        assert replacement["queued"] == report.completed > 0
        assert [
            (event.fields["address"], event.fields["position"])
            for event in trace.of_kind("chaos.repair")
        ] == report.repair_order
        finished = trace.of_kind("chaos.finished")[0].fields
        assert finished["completed"] == report.completed
        assert finished["lost"] == len(report.loss_events) == 0
        counters = obs.metrics().counters()
        assert counters["chaos.faults"] == counters["chaos.crash"] == 1
        assert counters["chaos.repair.completed"] == report.completed

    def test_one_window_closed_event_per_outage_and_flaky_fault(self):
        cluster = small_cluster(copies=3)
        for address in range(12):
            cluster.write(address, b"zz")
        schedule = generate_schedule(
            cluster.device_ids(), seed=3, crashes=1, outages=1, flaky=1
        )
        windows = [
            event for event in schedule.events
            if event.kind is not FaultKind.CRASH
        ]
        assert len(schedule.events) == 3 and len(windows) == 2
        with obs.capture() as trace:
            run_chaos(cluster, schedule)
        assert sorted(
            (event.fields["device"], event.fields["time"])
            for event in trace.of_kind("chaos.window_closed")
        ) == sorted((fault.device_id, fault.end) for fault in windows)


class TestRebalancerInstrumentation:
    def test_start_step_done_events_and_counters(self):
        cluster = small_cluster()
        for address in range(40):
            cluster.write(address, b"b")
        cluster.add_device(BinSpec("dev-9", 150), rebalance=False)
        with obs.capture() as trace:
            rebalancer = Rebalancer(cluster)
            progress = rebalancer.run_to_completion(step_size=8)
        start = trace.of_kind("rebalance.start")[0].fields
        assert start["backlog"] == progress.total_blocks
        steps = trace.of_kind("rebalance.step")
        assert sum(event.fields["migrated"] for event in steps) <= progress.total_blocks
        assert steps[-1].fields["remaining"] == 0
        done = trace.of_kind("rebalance.done")[0].fields
        assert done["moved_shares"] == progress.moved_shares
        counters = obs.metrics().counters()
        assert counters["rebalance.moved_shares"] == progress.moved_shares
        assert counters["rebalance.migrated_blocks"] == progress.migrated_blocks
        # Each step's migrate feeds the cluster-level counter too.
        assert counters["cluster.moved_shares"] == progress.moved_shares


class TestSimulatorInstrumentation:
    def test_queue_depth_histogram_and_run_event(self):
        simulator = Simulator()
        with obs.capture() as trace:
            for delay in range(5):
                simulator.schedule(float(delay), lambda: None)
            simulator.run()
        histogram = obs.metrics().histogram("sim.queue_depth")
        assert histogram.count == 5
        assert histogram.maximum == 5  # first tick sees the full queue
        assert histogram.minimum == 1
        run = trace.of_kind("sim.run")[0].fields
        assert run["processed"] == 5
        assert run["pending"] == 0
        assert obs.metrics().counters()["sim.events"] == 5
