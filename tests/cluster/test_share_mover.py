"""The share-mover and the repair are one path each.

Eager rebalance (``add_device``) and lazy migration (``add_device(...,
rebalance=False)`` drained by the :class:`Rebalancer`) run the same block
mover, so they must land on the same bytes having moved the same shares;
``fail_device`` + ``repair_device`` and a one-crash chaos run with an
immediate replacement both rebuild the shares the map assigns to the
victim, so they must leave identical devices.
"""

import pytest

from repro.chaos import (
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RepairPolicy,
    run_chaos,
)
from repro.cluster import Cluster, Rebalancer
from repro.placement.registry import create, registered_strategies
from repro.types import BinSpec, bins_from_capacities

CAPACITIES = [9000, 7000, 6000, 5000, 4000]
BLOCKS = 300
STRATEGIES = [entry.name for entry in registered_strategies()]


def make_cluster(name):
    cluster = Cluster(
        bins_from_capacities(CAPACITIES),
        lambda bins: create(name, bins, copies=2),
    )
    for address in range(BLOCKS):
        cluster.write(address, f"block-{address}".encode() * 2)
    return cluster


def contents(cluster):
    """Every stored share, byte for byte, per device."""
    return {
        device_id: {
            key: cluster.device(device_id).fetch(key)
            for key in cluster.device(device_id).share_keys()
        }
        for device_id in cluster.device_ids()
    }


@pytest.mark.parametrize("name", STRATEGIES)
def test_eager_add_equals_lazy_add_plus_drain(name):
    spec = BinSpec("bin-new", 8000)
    eager = make_cluster(name)
    report = eager.add_device(spec)
    lazy = make_cluster(name)
    assert lazy.add_device(spec, rebalance=False).moved_shares == 0
    progress = Rebalancer(lazy).run_to_completion(step_size=17)

    assert report.moved_shares == progress.moved_shares
    assert report.rebuilt_shares == 0
    for address in range(BLOCKS):
        assert eager.placement_of(address) == lazy.placement_of(address)
    assert contents(eager) == contents(lazy)
    eager.verify()
    lazy.verify()


@pytest.mark.parametrize("name", STRATEGIES)
def test_repair_equals_one_crash_chaos_run(name):
    victim = "bin-1"
    direct = make_cluster(name)
    direct.fail_device(victim)
    rebuilt = direct.repair_device(victim)
    chaos = make_cluster(name)
    report = run_chaos(
        chaos,
        FaultSchedule(
            [FaultEvent(time=1.0, kind=FaultKind.CRASH, device_id=victim)]
        ),
        # Fast enough that no task outlives the policy's timeout.
        ChaosOptions(replacement_delay=0.0, policy=RepairPolicy(rate=1000.0)),
    )

    assert rebuilt == report.completed == len(direct.shares_on(victim)) > 0
    assert not report.loss_events
    assert contents(direct) == contents(chaos)
    direct.verify()
    chaos.verify()
