"""Integration-grade tests for the Cluster (write/read, reconfig, failure)."""

import pytest

from repro.chaos import ChaosOptions, generate_schedule, run_chaos
from repro.cluster import Cluster
from repro.core import RedundantShare
from repro.erasure import MirrorCode, ReedSolomonCode
from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    DecodingError,
    DeviceNotFoundError,
)
from repro.types import BinSpec, bins_from_capacities


def make_cluster(capacities=(2000, 1600, 1200, 800), copies=2, code=None):
    return Cluster(
        bins_from_capacities(list(capacities)),
        lambda bins: RedundantShare(bins, copies=copies),
        code=code,
    )


def fill(cluster, blocks):
    for address in range(blocks):
        cluster.write(address, f"payload-{address}".encode())


class TestDataPath:
    def test_write_read_round_trip(self):
        cluster = make_cluster()
        fill(cluster, 200)
        for address in range(200):
            assert cluster.read(address) == f"payload-{address}".encode()
        cluster.verify()

    def test_unknown_block_raises(self):
        with pytest.raises(BlockNotFoundError):
            make_cluster().read(5)

    def test_overwrite(self):
        cluster = make_cluster()
        cluster.write(1, b"old")
        cluster.write(1, b"new-and-longer")
        assert cluster.read(1) == b"new-and-longer"
        cluster.verify()

    def test_delete(self):
        cluster = make_cluster()
        cluster.write(1, b"x")
        cluster.delete(1)
        with pytest.raises(BlockNotFoundError):
            cluster.read(1)
        with pytest.raises(BlockNotFoundError):
            cluster.delete(1)
        cluster.verify()

    def test_code_share_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cluster(copies=2, code=MirrorCode(3))

    def test_usage_tracks_map(self):
        cluster = make_cluster()
        fill(cluster, 100)
        stats = cluster.stats()
        assert sum(stats.devices.values()) == 200  # 2 shares per block


class TestReconfiguration:
    def test_add_device_migrates_and_stays_consistent(self):
        cluster = make_cluster()
        fill(cluster, 300)
        report = cluster.add_device(BinSpec("bin-new", 1500))
        assert report.trigger == "add"
        assert report.moved_shares > 0
        assert report.used_on_affected > 0
        cluster.verify()
        for address in range(300):
            assert cluster.read(address) == f"payload-{address}".encode()

    def test_add_duplicate_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ConfigurationError):
            cluster.add_device(BinSpec("bin-0", 10))

    def test_remove_device_drains(self):
        cluster = make_cluster()
        fill(cluster, 300)
        report = cluster.remove_device("bin-3")
        assert report.trigger == "remove"
        assert "bin-3" not in cluster.device_ids()
        cluster.verify()
        for address in range(300):
            assert cluster.read(address) == f"payload-{address}".encode()

    def test_remove_unknown_rejected(self):
        with pytest.raises(DeviceNotFoundError):
            make_cluster().remove_device("ghost")

    def test_movement_factor_is_bounded(self):
        cluster = make_cluster((1000,) * 8)
        fill(cluster, 500)
        report = cluster.add_device(BinSpec("zz-new", 1000))
        # Lemma 3.2: expected 4-competitive for k=2.
        assert report.movement_factor < 6.0

    def test_events_logged(self):
        cluster = make_cluster()
        fill(cluster, 10)
        cluster.add_device(BinSpec("bin-new", 500))
        cluster.remove_device("bin-new")
        assert len(cluster.log.of_kind("device-added")) == 1
        assert len(cluster.log.of_kind("device-removed")) == 1


class TestFailures:
    def test_read_survives_single_failure(self):
        cluster = make_cluster()
        fill(cluster, 200)
        cluster.fail_device("bin-0")
        for address in range(200):
            assert cluster.read(address) == f"payload-{address}".encode()

    def test_double_failure_loses_some_blocks_k2(self):
        cluster = make_cluster()
        fill(cluster, 300)
        cluster.fail_device("bin-0")
        cluster.fail_device("bin-1")
        lost = 0
        for address in range(300):
            try:
                cluster.read(address)
            except DecodingError:
                lost += 1
        assert lost > 0

    def test_repair_restores_everything(self):
        cluster = make_cluster()
        fill(cluster, 200)
        cluster.fail_device("bin-1")
        rebuilt = cluster.repair_device("bin-1")
        assert rebuilt > 0
        cluster.verify()
        for address in range(200):
            assert cluster.read(address) == f"payload-{address}".encode()

    def test_verify_rejects_an_orphan_share(self):
        # A share on a device that no block map entry accounts for.
        cluster = make_cluster()
        fill(cluster, 20)
        cluster.device("bin-0").store((10_000, 0), b"stray")
        with pytest.raises(AssertionError, match="orphan share"):
            cluster.verify()

    def test_injector_round_trip(self):
        # One seeded crash injected through the chaos controller, the
        # blank replacement arriving at once.
        cluster = make_cluster()
        fill(cluster, 150)
        schedule = generate_schedule(cluster.device_ids(), seed=42)
        report = run_chaos(
            cluster, schedule, ChaosOptions(replacement_delay=0.0)
        )
        assert report.faults == {"crash": 1}
        assert not report.loss_events
        assert report.completed > 0
        cluster.verify()
        for address in range(150):
            assert cluster.read(address) == f"payload-{address}".encode()

    def test_injector_victim_count_validated(self):
        cluster = make_cluster()
        with pytest.raises(ConfigurationError):
            generate_schedule(cluster.device_ids(), crashes=10)

    def test_degraded_write_then_repair(self):
        """Writes during a failure skip the dead device; repair backfills.

        Regression test for the bug found by the stateful model test: a
        write whose placement includes a failed device used to crash.
        """
        cluster = make_cluster()
        cluster.fail_device("bin-0")
        for address in range(120):
            cluster.write(address, f"degraded-{address}".encode())
        # Everything is readable from the surviving copies.
        for address in range(120):
            assert cluster.read(address) == f"degraded-{address}".encode()
        rebuilt = cluster.repair_device("bin-0")
        assert rebuilt > 0  # the skipped shares were backfilled
        cluster.verify()
        # Full redundancy restored: bin-0 alone can now cover a different
        # single failure.
        cluster.fail_device("bin-1")
        for address in range(120):
            assert cluster.read(address) == f"degraded-{address}".encode()


class TestWithReedSolomon:
    def test_rs_cluster_round_trip_and_rebuild(self):
        # 3 data + 2 parity = 5 shares placed on 6 devices.
        cluster = Cluster(
            bins_from_capacities([1000] * 6),
            lambda bins: RedundantShare(bins, copies=5),
            code=ReedSolomonCode(3, 2),
        )
        for address in range(100):
            cluster.write(address, f"rs-{address}".encode() * 3)
        cluster.fail_device("bin-2")
        cluster.fail_device("bin-4")
        for address in range(100):
            assert cluster.read(address) == f"rs-{address}".encode() * 3
        cluster.repair_device("bin-2")
        cluster.repair_device("bin-4")
        cluster.verify()

    def test_rs_migration_rebuilds_from_parity(self):
        cluster = Cluster(
            bins_from_capacities([1000] * 6),
            lambda bins: RedundantShare(bins, copies=5),
            code=ReedSolomonCode(3, 2),
        )
        for address in range(60):
            cluster.write(address, bytes([address % 251]) * 48)
        cluster.add_device(BinSpec("bin-new", 1000))
        cluster.verify()
        for address in range(60):
            assert cluster.read(address) == bytes([address % 251]) * 48
