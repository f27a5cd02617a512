"""Strategy freshness across cluster membership and capacity changes.

Strategies are values: everything a strategy derives from its
configuration — hazard tables, Section 3.3 state tables, batch-engine
arrays — lives on the instance.  That is safe only because every cluster
reconfiguration (add, remove, capacity change via re-add) swaps in a
*new* strategy instance rather than mutating the old one.  These tests
pin the contract from the outside: build up the old instance's state
hard, mutate the cluster, and require the post-swap strategy to be a new
object that agrees with a cold instance on every address and position.
"""

import pytest

from repro.cluster import Cluster
from repro.core import FastRedundantShare, RedundantShare
from repro.types import BinSpec, bins_from_capacities

ADDRESSES = list(range(240))


def warm(strategy):
    """Drive the batch engine and every per-position accessor."""
    strategy.place_many(ADDRESSES)
    for address in ADDRESSES[:120]:
        for position in range(strategy.copies):
            strategy.place_copy(address, position)
    return strategy


def assert_matches_cold_instance(strategy):
    """The (warm) strategy must agree with a cold clone everywhere."""
    cold = type(strategy)(strategy.bins, copies=strategy.copies)
    assert (
        warm(strategy).place_many(ADDRESSES).tuples()
        == cold.place_many(ADDRESSES).tuples()
    )
    for address in ADDRESSES[:120]:
        assert strategy.place(address) == cold.place(address)
        for position in range(strategy.copies):
            assert strategy.place_copy(address, position) == cold.place_copy(
                address, position
            )


@pytest.fixture(
    params=[(RedundantShare, 2), (FastRedundantShare, 3)],
    ids=["scan", "fast"],
)
def cluster(request):
    strategy_cls, copies = request.param
    bins = bins_from_capacities([50, 40, 30, 20], prefix="dev")
    return Cluster(bins, lambda b: strategy_cls(b, copies=copies))


class TestSwap:
    def test_add_device_swaps_the_instance(self, cluster):
        stale = warm(cluster.strategy)
        cluster.add_device(BinSpec("dev-9", 60))
        assert cluster.strategy is not stale
        assert "dev-9" in {spec.bin_id for spec in cluster.strategy.bins}
        assert_matches_cold_instance(cluster.strategy)

    def test_remove_device_swaps_the_instance(self, cluster):
        for address in range(20):
            cluster.write(address, b"x")
        stale = warm(cluster.strategy)
        cluster.remove_device("dev-1")
        assert cluster.strategy is not stale
        assert "dev-1" not in {spec.bin_id for spec in cluster.strategy.bins}
        assert_matches_cold_instance(cluster.strategy)

    def test_capacity_change_via_readd(self, cluster):
        stale = warm(cluster.strategy)
        before = {address: stale.place(address) for address in ADDRESSES}
        cluster.remove_device("dev-0")
        # Same id, very different capacity: any state carried over from
        # the old instance would reproduce the old ordering.
        cluster.add_device(BinSpec("dev-0", 5))
        assert_matches_cold_instance(cluster.strategy)
        changed = sum(
            1
            for address in ADDRESSES
            if cluster.strategy.place(address) != before[address]
        )
        assert changed > 0  # the shrink must actually reshuffle something

    def test_readd_of_same_spec_is_rebuilt(self, cluster):
        stale = warm(cluster.strategy)
        cluster.remove_device("dev-2")
        cluster.add_device(BinSpec("dev-2", 30))
        assert cluster.strategy is not stale
        assert_matches_cold_instance(cluster.strategy)
        assert cluster.strategy.place_many(ADDRESSES).tuples() == (
            stale.place_many(ADDRESSES).tuples()
        )

    def test_sequence_of_swaps_stays_fresh(self, cluster):
        warm(cluster.strategy)
        for step in range(3):
            cluster.add_device(BinSpec(f"extra-{step}", 25 + 5 * step))
            warm(cluster.strategy)
        cluster.remove_device("extra-1")
        assert_matches_cold_instance(cluster.strategy)

    def test_reads_survive_churn(self, cluster):
        payloads = {address: bytes([address % 256]) * 3 for address in range(40)}
        for address, payload in payloads.items():
            cluster.write(address, payload)
        warm(cluster.strategy)
        cluster.add_device(BinSpec("dev-8", 70))
        cluster.remove_device("dev-2")
        warm(cluster.strategy)
        for address, payload in payloads.items():
            assert cluster.read(address) == payload
        cluster.verify()
