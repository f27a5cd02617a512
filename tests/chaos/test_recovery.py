"""Tests for the recovery pipeline: queue order, backoff, and degraded
reads through the cluster's one share walk."""

import pytest

from repro.chaos import RepairPolicy, RepairQueue, RepairTask
from repro.cluster import Cluster
from repro.core import RedundantShare
from repro.exceptions import (
    ConfigurationError,
    DeviceNotFoundError,
    DeviceUnavailableError,
)
from repro.types import bins_from_capacities


def task(address, position=0, survivors=1, device="d0", at=0.0):
    return RepairTask(
        address=address,
        position=position,
        device_id=device,
        survivors=survivors,
        enqueued_at=at,
    )


class TestRepairQueue:
    def test_fewest_survivors_drain_first(self):
        queue = RepairQueue()
        queue.push(task(1, survivors=3))
        queue.push(task(2, survivors=1))
        queue.push(task(3, survivors=2))
        assert [queue.pop().address for _ in range(3)] == [2, 3, 1]

    def test_ties_break_on_address_then_position(self):
        queue = RepairQueue()
        queue.push(task(9, position=1, survivors=2))
        queue.push(task(9, position=0, survivors=2))
        queue.push(task(4, position=2, survivors=2))
        drained = [(t.address, t.position) for t in (queue.pop(), queue.pop(), queue.pop())]
        assert drained == [(4, 2), (9, 0), (9, 1)]

    def test_len_and_truthiness(self):
        queue = RepairQueue()
        assert not queue and len(queue) == 0
        queue.push(task(1))
        assert queue and len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            RepairQueue().pop()


class TestRepairPolicy:
    def test_backoff_grows_exponentially_then_clamps(self):
        policy = RepairPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=3.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(4) == 3.0  # clamped
        assert policy.backoff(10) == 3.0

    def test_interval_is_inverse_rate(self):
        assert RepairPolicy(rate=4.0).interval == 0.25

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            RepairPolicy().backoff(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"max_attempts": 0},
            {"timeout": 0.0},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_base": 2.0, "backoff_max": 1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            RepairPolicy(**kwargs)


def make_cluster(copies=3, capacities=(900, 800, 700, 600, 500)):
    cluster = Cluster(
        bins_from_capacities(list(capacities)),
        lambda bins: RedundantShare(bins, copies=copies),
    )
    for address in range(30):
        cluster.write(address, f"payload-{address}".encode())
    return cluster


class TestDegradedRead:
    def test_reads_normally_when_everything_is_up(self):
        cluster = make_cluster()
        assert cluster.read(5) == b"payload-5"
        assert cluster.collect_shares(5)[1] == []

    def test_falls_back_across_positions(self):
        cluster = make_cluster()
        cluster.device(cluster.placement_of(5)[0]).mark_offline()
        assert cluster.read(5) == b"payload-5"
        shares, skipped = cluster.collect_shares(5, need=1)
        assert list(shares) == [1] and skipped == [0]

    def test_raises_unavailable_when_every_copy_is_down(self):
        cluster = make_cluster()
        for device_id in cluster.placement_of(5):
            cluster.device(device_id).mark_offline()
        with pytest.raises(DeviceUnavailableError, match="reachable"):
            cluster.read(5)

    def test_recovers_once_devices_return(self):
        cluster = make_cluster()
        placement = cluster.placement_of(5)
        for device_id in placement:
            cluster.device(device_id).mark_offline()
        cluster.device(placement[-1]).mark_online()
        assert cluster.read(5) == b"payload-5"


class TestGatherShares:
    def test_routes_around_a_device_that_left_the_configuration(
        self, break_device
    ):
        cluster = make_cluster()
        gone = cluster.placement_of(5)[0]
        break_device(cluster, gone, DeviceNotFoundError(gone))
        shares, skipped = cluster.collect_shares(5)
        assert sorted(shares) == [1, 2] and skipped == []

    def test_other_device_errors_propagate(self, break_device):
        cluster = make_cluster()
        broken = cluster.placement_of(5)[0]
        break_device(cluster, broken, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            cluster.collect_shares(5)


class TestRebuildShare:
    def test_rebuilds_a_lost_share_from_survivors(self):
        cluster = make_cluster()
        victim = cluster.placement_of(3)[1]
        cluster.device(victim).discard((3, 1))
        shares, _ = cluster.collect_shares(3)
        assert sorted(shares) == [0, 2]
        assert cluster.rebuild_share(shares, 1) == cluster.code.encode(
            b"payload-3"
        )[1]

    def test_raises_when_survivors_are_unreachable(self):
        cluster = make_cluster()
        for device_id in cluster.placement_of(3):
            cluster.device(device_id).mark_offline()
        assert cluster.collect_shares(3) == ({}, [0, 1, 2])
        with pytest.raises(DeviceUnavailableError, match="offline"):
            cluster.read(3)
