"""Tests for the trace player and its service model."""

import pytest

from repro.cluster import Cluster
from repro.core import RedundantShare
from repro.exceptions import ConfigurationError
from repro.simulation import TracePlayer
from repro.simulation.traceplayer import SERVICE_TIME
from repro.types import bins_from_capacities
from repro.workloads import Op, Request, mixed, write_population, zipf_reads


def make_cluster(capacities=(4000, 3000, 2000, 1000)):
    return Cluster(
        bins_from_capacities(list(capacities)),
        lambda bins: RedundantShare(bins, copies=2),
    )


class TestValidation:
    def test_bad_policy(self):
        with pytest.raises(ConfigurationError):
            TracePlayer(make_cluster(), read_policy="no-such-policy")

    def test_offline_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            TracePlayer(make_cluster(), read_policy="water-filling")


class TestPlayback:
    def test_counts(self):
        player = TracePlayer(make_cluster())
        report = player.play(mixed(500, 100, read_fraction=0.6, seed=1))
        assert report.requests == 500
        assert report.reads + report.writes == 500
        assert report.duration == pytest.approx(500.0)

    def test_writes_hit_all_copies_reads_hit_one(self):
        cluster = make_cluster()
        player = TracePlayer(cluster)
        trace = [Request(Op.WRITE, 1, payload_seed=1), Request(Op.READ, 1)]
        report = player.play(trace)
        operations = sum(
            load.operations for load in report.device_loads.values()
        )
        assert operations == 3  # 2 write shares + 1 read

    def test_auto_write_on_unknown_read(self):
        cluster = make_cluster()
        player = TracePlayer(cluster)
        report = player.play([Request(Op.READ, 42)])
        assert cluster.block_count == 1
        assert report.reads == 1

    def test_only_a_missing_block_is_auto_written(self, monkeypatch):
        cluster = make_cluster()
        player = TracePlayer(cluster)

        def broken_lookup(address):
            raise RuntimeError("block map bug")

        monkeypatch.setattr(cluster, "placement_of", broken_lookup)
        with pytest.raises(RuntimeError, match="block map bug"):
            player.play([Request(Op.READ, 42)])
        assert cluster.block_count == 0

    def test_operation_shares_track_capacity(self):
        """Fairness of requests, not just data (the paper's definition)."""
        cluster = make_cluster()
        player = TracePlayer(cluster)
        player.play(write_population(3000))
        report = player.play(mixed(6000, 3000, read_fraction=1.0, seed=2))
        shares = report.operation_shares()
        total = 10_000
        for spec in cluster.strategy.bins:
            expected = spec.capacity / total
            assert shares[spec.bin_id] == pytest.approx(expected, abs=0.05)

    def test_rotate_beats_primary_on_hot_blocks(self):
        """Read rotation spreads a zipf hotspot over the mirrors."""

        def max_utilisation(policy):
            cluster = make_cluster((2000, 2000, 2000, 2000))
            player = TracePlayer(cluster, read_policy=policy)
            player.play(write_population(500))
            report = player.play(zipf_reads(4000, 50, alpha=1.4, seed=3))
            shares = report.operation_shares()
            return max(shares.values())

        assert max_utilisation("rotate") < max_utilisation("primary")

    def test_failover_to_live_copy(self):
        cluster = make_cluster()
        player = TracePlayer(cluster, read_policy="primary")
        player.play([Request(Op.WRITE, 5, payload_seed=1)])
        primary = cluster.placement_of(5)[0]
        cluster.fail_device(primary)
        report = player.play([Request(Op.READ, 5)])
        assert report.device_loads[primary].operations <= 2  # only the write

    def test_dead_devices_are_charged_nothing(self):
        cluster = Cluster(
            bins_from_capacities([100, 100, 100]),
            lambda bins: RedundantShare(bins, copies=2),
        )
        cluster.fail_device("bin-0")
        player = TracePlayer(cluster)
        writes = [Request(Op.WRITE, a, payload_seed=a) for a in range(10)]
        report = player.play(writes)
        assert report.device_loads["bin-0"].operations == 0
        assert sum(
            load.operations for load in report.device_loads.values()
        ) == sum("bin-0" != d for a in range(10) for d in cluster.placement_of(a))
        cluster.fail_device("bin-1")
        cluster.fail_device("bin-2")
        report = player.play([Request(Op.READ, a) for a in range(10)])
        assert report.reads == report.unserved_reads == 10
        assert all(
            load.operations == 0 for load in report.device_loads.values()
        )

    def test_utilisation_and_response(self):
        cluster = make_cluster()
        player = TracePlayer(cluster)
        report = player.play(write_population(200))
        utilisations = report.utilisations()
        assert all(0.0 <= value <= 1.1 for value in utilisations.values())
        busiest = max(
            report.device_loads.values(), key=lambda load: load.operations
        )
        assert busiest.mean_response >= SERVICE_TIME
