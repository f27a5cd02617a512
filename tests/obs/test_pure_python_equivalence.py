"""Trace/metric equivalence of the pure-Python and NumPy legs.

Every instrumented hot path must produce *identical* trace events and
counter/histogram snapshots whichever engine runs underneath — the
observability layer may never leak which leg executed.  The pure leg here
is forced the same way ``REPRO_PURE_PYTHON=1`` does (by nulling
``repro._compat.np``); CI additionally runs this whole file under the
real environment variable, where both legs collapse to pure Python and
the assertions still hold.
"""

import io
import json
import random

import pytest

import repro._compat as compat
from repro import obs
from repro.chaos import ChaosOptions, generate_schedule, run_chaos
from repro.cluster import Cluster, Rebalancer
from repro.core import LinMirror, RedundantShare
from repro.placement import TrivialReplication
from repro.simulation import Simulator
from repro.types import BinSpec, bins_from_capacities


def run_observed_scenario():
    """Exercise every instrumented hot path; return (events, snapshot).

    Events are reduced to (kind, fields) pairs — sequence numbers are
    positional and asserted implicitly by list order.
    """
    with obs.capture() as trace:
        # Placement batch engines (vectorized scan vs scalar walk).
        scan = RedundantShare(
            bins_from_capacities([90, 70, 50, 30, 20]), copies=3
        )
        scan.place_many(range(400))
        mirror = LinMirror(bins_from_capacities([60, 40, 30]))
        mirror.place_many(range(100, 250))
        TrivialReplication(
            bins_from_capacities([3, 2, 1]), copies=2
        ).place_many(range(40))

        # Cluster lifecycle: lazy add + throttled drain, eager remove,
        # failure and repair.
        cluster = Cluster(
            bins_from_capacities([50, 40, 30, 20], prefix="dev"),
            lambda bins: RedundantShare(bins, copies=2),
        )
        for address in range(30):
            cluster.write(address, bytes([address % 251]))
        cluster.add_device(BinSpec("dev-new", 45), rebalance=False)
        Rebalancer(cluster).run_to_completion(step_size=7)
        cluster.remove_device("dev-3")
        cluster.fail_device("dev-0")
        cluster.repair_device("dev-0")
        run_chaos(
            cluster,
            generate_schedule(cluster.device_ids(), seed=5, outages=1),
            ChaosOptions(replacement_delay=0.0),
        )

        # Simulator ticks.
        simulator = Simulator()
        for delay in range(6):
            simulator.schedule(float(delay), lambda: None)
        simulator.run()

        events = [(event.kind, event.fields) for event in trace.events]
        snapshot = obs.metrics().snapshot()
    obs.reset_metrics()
    return events, snapshot


def traced_scan_batch():
    """One 5 000-address hazard-scan batch on the 16-device benchmark
    fleet: (JSONL trace text, metrics snapshot, strategy, addresses)."""
    strategy = RedundantShare(
        bins_from_capacities(range(500, 2001, 100)), copies=3
    )
    rng = random.Random(5)
    addresses = [rng.randrange(-(2**63), 2**64) for _ in range(5_000)]
    stream = io.StringIO()
    obs.reset_metrics()
    with obs.use_sink(obs.JsonlSink(stream)):
        strategy.place_many(addresses)
        snapshot = obs.metrics().snapshot()
    obs.reset_metrics()
    return stream.getvalue(), snapshot, strategy, addresses


class TestScanDepthAcrossLegs:
    """The rank-major engine has no per-copy structure to read the scan
    depth from; ``_record_engine_events`` takes it off the last rank
    column on both legs, so the records cannot tell the legs apart."""

    def test_large_batch_trace_is_byte_identical(self, monkeypatch):
        reference_trace, reference_snapshot, _, _ = traced_scan_batch()
        monkeypatch.setattr(compat, "np", None)
        fallback_trace, fallback_snapshot, _, _ = traced_scan_batch()
        assert fallback_trace == reference_trace
        assert fallback_snapshot == reference_snapshot

    def test_scan_depth_is_the_last_copys_rank_plus_one(self):
        trace, snapshot, strategy, addresses = traced_scan_batch()
        rank = {bin_id: r for r, bin_id in enumerate(strategy.rank_ids)}
        depths = [rank[strategy.place(a)[-1]] + 1 for a in addresses]
        records = [json.loads(line) for line in trace.splitlines()]
        (scan,) = [r for r in records if r["kind"] == "placement.scan"]
        assert scan["depth_sum"] == sum(depths)
        assert scan["depth_max"] == max(depths)
        assert scan["addresses"] == len(addresses)
        histogram = snapshot["histograms"]["placement.scan_depth"]
        assert histogram["count"] == len(addresses)
        assert histogram["sum"] == sum(depths)


class TestLegEquivalence:
    def test_trace_and_metrics_identical_across_legs(self, monkeypatch):
        reference_events, reference_snapshot = run_observed_scenario()
        monkeypatch.setattr(compat, "np", None)
        fallback_events, fallback_snapshot = run_observed_scenario()
        assert fallback_events == reference_events
        assert fallback_snapshot == reference_snapshot

    def test_reference_scenario_covers_every_instrumented_path(self):
        events, snapshot = run_observed_scenario()
        kinds = {kind for kind, _ in events}
        assert {
            "placement.batch",
            "placement.scan",
            "cluster.created",
            "device.added",
            "device.removed",
            "device.failed",
            "device.repaired",
            "cluster.migration",
            "rebalance.start",
            "rebalance.step",
            "rebalance.done",
            "chaos.fault",
            "chaos.window_closed",
            "chaos.replacement",
            "chaos.repair",
            "chaos.finished",
            "sim.run",
        } <= kinds
        counters = snapshot["counters"]
        for name in (
            "placement.batches",
            "rebalance.moved_shares",
            "cluster.moved_shares",
            "chaos.faults",
            "chaos.repair.completed",
            "sim.events",
        ):
            assert name in counters, name
        for name in (
            "placement.batch_size",
            "placement.scan_depth",
            "rebalance.step_blocks",
            "sim.queue_depth",
        ):
            assert name in snapshot["histograms"], name

    def test_event_fields_are_json_scalars(self):
        """NumPy scalar types must never leak into trace fields."""
        events, _ = run_observed_scenario()
        allowed = (str, int, float, bool, type(None))
        for kind, fields in events:
            for key, value in fields.items():
                if isinstance(value, list):
                    assert all(isinstance(item, allowed) for item in value), (
                        kind, key, value
                    )
                else:
                    assert isinstance(value, allowed), (kind, key, value)
                    assert type(value).__module__ == "builtins", (kind, key)
