"""Tests for lazy device addition and throttled rebalancing."""

import pytest

from repro.cluster import Cluster, Rebalancer
from repro.core import RedundantShare
from repro.exceptions import DecodingError
from repro.types import BinSpec, bins_from_capacities


def make_cluster(blocks=300):
    cluster = Cluster(
        bins_from_capacities([2000, 1600, 1200, 800]),
        lambda bins: RedundantShare(bins, copies=2),
    )
    for address in range(blocks):
        cluster.write(address, f"blk-{address}".encode())
    return cluster


class TestLazyAdd:
    def test_lazy_add_moves_nothing(self):
        cluster = make_cluster()
        report = cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        assert report.moved_shares == 0
        assert cluster.device("bin-new").used == 0
        # Reads still work from the recorded placements.
        for address in range(300):
            assert cluster.read(address) == f"blk-{address}".encode()
        cluster.verify()

    def test_backlog_reported(self):
        cluster = make_cluster()
        assert cluster.out_of_place() == []
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        backlog = cluster.out_of_place()
        assert 0 < len(backlog) < 300

    def test_new_writes_use_new_layout(self):
        cluster = make_cluster(blocks=0)
        cluster.add_device(BinSpec("bin-new", 100_000), rebalance=False)
        for address in range(200):
            cluster.write(address, b"x")
        # The huge new device must attract most copies of fresh writes.
        assert cluster.device("bin-new").used > 150

    def test_migrate_block_is_idempotent(self):
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        backlog = cluster.out_of_place()
        address = backlog[0]
        assert cluster.migrate([address])[0] > 0
        assert cluster.migrate([address]) == (0, 0)


class TestRebalancer:
    def test_step_bounds_work(self):
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        rebalancer = Rebalancer(cluster)
        total = rebalancer.progress.total_blocks
        assert total > 0
        moved = rebalancer.step(max_blocks=10)
        assert moved == 10
        assert rebalancer.progress.migrated_blocks == 10
        assert rebalancer.progress.remaining == total - 10
        assert not rebalancer.progress.done
        with pytest.raises(ValueError):
            rebalancer.step(0)

    def test_run_to_completion_converges(self):
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        progress = Rebalancer(cluster).run_to_completion(step_size=25)
        assert progress.done
        assert progress.fraction == 1.0
        assert cluster.out_of_place() == []
        cluster.verify()
        for address in range(300):
            assert cluster.read(address) == f"blk-{address}".encode()

    def test_reads_and_writes_ok_mid_migration(self):
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        rebalancer = Rebalancer(cluster)
        rebalancer.step(max_blocks=40)
        # Interleave client traffic with the half-done migration.
        cluster.write(999, b"written-mid-migration")
        assert cluster.read(999) == b"written-mid-migration"
        for address in range(0, 300, 17):
            assert cluster.read(address) == f"blk-{address}".encode()
        cluster.verify()
        rebalancer.run_to_completion()
        cluster.verify()

    def test_deleted_block_in_backlog_is_skipped(self):
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        rebalancer = Rebalancer(cluster)
        for address in cluster.out_of_place():
            cluster.delete(address)
        progress = rebalancer.run_to_completion()
        assert progress.done

    def test_unrecoverable_backlog_block_raises(self):
        """Only a deleted block is skipped; a lost one is not "drained"."""
        cluster = make_cluster()
        cluster.add_device(BinSpec("bin-new", 1500), rebalance=False)
        rebalancer = Rebalancer(cluster)
        doomed = cluster.out_of_place()[-1]  # first block the step pops
        for device_id in cluster.placement_of(doomed):
            cluster.fail_device(device_id)
        with pytest.raises(DecodingError):
            rebalancer.step(max_blocks=1)
        assert rebalancer.progress.migrated_blocks == 0

    def test_empty_backlog_progress(self):
        cluster = make_cluster()
        rebalancer = Rebalancer(cluster)
        assert rebalancer.progress.done
        assert rebalancer.progress.fraction == 1.0

    def test_lazy_matches_eager_final_state(self):
        """Lazy + full drain lands exactly where an eager rebalance does."""
        eager = make_cluster()
        lazy = make_cluster()
        eager.add_device(BinSpec("bin-new", 1500))
        lazy.add_device(BinSpec("bin-new", 1500), rebalance=False)
        Rebalancer(lazy).run_to_completion()
        for address in range(300):
            assert eager.placement_of(address) == lazy.placement_of(address)
