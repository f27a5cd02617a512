"""Integration: read scheduling under mid-workload device failure.

A ``k = 3`` cluster serves a seeded Zipf read workload through
``Cluster.read(..., scheduler=)`` with a load-aware scheduler.  Mid-stream,
chaos kills one device.  The contract:

* zero failed reads — every request decodes the right payload before,
  during and after the failure;
* the scheduler's choices silently shift to the survivors: the victim's
  request counter freezes at the kill point;
* once the device is repaired, it rejoins the candidate pool and starts
  serving again.
"""

from repro.cluster import Cluster
from repro.core import RedundantShare
from repro.scheduling import create
from repro.types import bins_from_capacities
from repro.workloads import ZipfGenerator

BLOCKS = 120
REQUESTS = 600
KILL_AT = 200
REPAIR_AT = 450


def make_cluster():
    cluster = Cluster(
        bins_from_capacities([1000] * 6),
        lambda bins: RedundantShare(bins, copies=3),
    )
    for address in range(BLOCKS):
        cluster.write(address, f"payload-{address}".encode())
    return cluster


def test_choices_shift_to_survivors_with_zero_failed_reads():
    cluster = make_cluster()
    device_ids = [spec.bin_id for spec in cluster.strategy.bins]
    scheduler = create("least-loaded", device_ids, seed=9)
    addresses = list(ZipfGenerator(BLOCKS, alpha=1.1, seed=13).sample(REQUESTS))
    # Kill the device serving the hottest block's primary copy — the
    # worst case for a scheduler that cannot route around it.
    victim = cluster.placement_of(addresses[0])[0]

    frozen_count = None
    for index, address in enumerate(addresses):
        if index == KILL_AT:
            cluster.fail_device(victim)
            frozen_count = scheduler.count_of(victim)
        if index == REPAIR_AT:
            assert scheduler.count_of(victim) == frozen_count
            cluster.repair_device(victim)
        payload = cluster.read(address, scheduler=scheduler)
        assert payload == f"payload-{address}".encode(), index

    # The victim served reads before the kill and after the repair, but
    # not one in between.
    assert frozen_count is not None and frozen_count > 0
    assert scheduler.count_of(victim) > frozen_count
    assert victim not in scheduler.offline
    # Every request landed somewhere.
    assert sum(scheduler.counts().values()) == REQUESTS


def test_unrepaired_victim_stays_out_of_the_pool():
    cluster = make_cluster()
    device_ids = [spec.bin_id for spec in cluster.strategy.bins]
    scheduler = create("power-of-two", device_ids, seed=4)
    addresses = list(ZipfGenerator(BLOCKS, alpha=1.1, seed=5).sample(REQUESTS))
    victim = cluster.placement_of(addresses[0])[0]

    for index, address in enumerate(addresses):
        if index == KILL_AT:
            cluster.fail_device(victim)
            frozen_count = scheduler.count_of(victim)
        payload = cluster.read(address, scheduler=scheduler)
        assert payload == f"payload-{address}".encode(), index

    assert scheduler.count_of(victim) == frozen_count
    assert scheduler.offline == [victim]
    survivors = [device for device in device_ids if device != victim]
    post_kill = REQUESTS - KILL_AT
    assert sum(scheduler.counts()[device] for device in survivors) >= post_kill
