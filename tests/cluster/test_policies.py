"""Tests for multi-policy storage over a shared device pool."""

import pytest

from repro.cluster import PolicyStore, StoragePolicy
from repro.core import RedundantShare
from repro.erasure import ReedSolomonCode
from repro.exceptions import ConfigurationError, DeviceNotFoundError
from repro.types import BinSpec, bins_from_capacities


def make_store():
    policies = [
        StoragePolicy(
            "hot-mirror", lambda bins: RedundantShare(bins, copies=3)
        ),
        StoragePolicy(
            "cold-ec",
            lambda bins: RedundantShare(bins, copies=5),
            code=ReedSolomonCode(3, 2),
        ),
    ]
    return PolicyStore(bins_from_capacities([3000] * 6), policies)


def fill(store, blocks=80):
    for address in range(blocks):
        store.write("hot-mirror", address, f"hot-{address}".encode())
        store.write("cold-ec", address, f"cold-{address}".encode() * 3)


class TestConstruction:
    def test_requires_policies(self):
        with pytest.raises(ConfigurationError):
            PolicyStore(bins_from_capacities([5, 5]), [])

    def test_duplicate_names_rejected(self):
        policy = StoragePolicy("p", lambda bins: RedundantShare(bins, copies=2))
        with pytest.raises(ConfigurationError):
            PolicyStore(bins_from_capacities([5, 5]), [policy, policy])

    def test_policy_names(self):
        assert make_store().policy_names() == ["cold-ec", "hot-mirror"]

    def test_unknown_policy_rejected(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.write("warm", 0, b"x")
        with pytest.raises(ConfigurationError):
            store.cluster_for("warm")


class TestDataPath:
    def test_policies_are_independent_namespaces(self):
        store = make_store()
        store.write("hot-mirror", 7, b"hot-payload")
        store.write("cold-ec", 7, b"cold-payload-xyz")
        assert store.read("hot-mirror", 7) == b"hot-payload"
        assert store.read("cold-ec", 7) == b"cold-payload-xyz"
        store.delete("hot-mirror", 7)
        assert store.read("cold-ec", 7) == b"cold-payload-xyz"
        store.verify()

    def test_shared_capacity_accounting(self):
        store = make_store()
        fill(store, 50)
        usage = store.device_usage()
        # 50 * 3 mirror shares + 50 * 5 ec shares across 6 devices.
        assert sum(usage.values()) == 50 * 3 + 50 * 5
        store.verify()

    def test_address_range_validated(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.write("hot-mirror", 1 << 60, b"x")


class TestPoolManagement:
    def test_add_device_rebalances_all_policies(self):
        store = make_store()
        fill(store, 60)
        moved = store.add_device(BinSpec("bin-new", 3000))
        assert moved["hot-mirror"] > 0
        assert moved["cold-ec"] > 0
        store.verify()
        for address in range(60):
            assert store.read("hot-mirror", address) == f"hot-{address}".encode()
            assert store.read("cold-ec", address) == f"cold-{address}".encode() * 3

    def test_duplicate_device_rejected(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.add_device(BinSpec("bin-0", 100))

    def test_fail_and_repair_crosses_policies(self):
        store = make_store()
        fill(store, 60)
        store.fail_device("bin-2")
        # Both policies tolerate the loss (k=3 mirror; RS 3+2).
        for address in range(60):
            assert store.read("hot-mirror", address) == f"hot-{address}".encode()
            assert store.read("cold-ec", address) == f"cold-{address}".encode() * 3
        rebuilt = store.repair_device("bin-2")
        assert sum(rebuilt.values()) > 0
        store.verify()

    def test_each_policy_rebuilds_and_moves_its_own_shares(self):
        store = make_store()
        fill(store, 60)
        clusters = {
            name: store.cluster_for(name) for name in store.policy_names()
        }
        mapped = {
            name: len(cluster.shares_on("bin-2"))
            for name, cluster in clusters.items()
        }
        before = store.device_usage()
        store.fail_device("bin-2")
        # One blank replacement, then every policy rebuilds exactly the
        # shares its own map assigns to the device.
        assert store.repair_device("bin-2") == mapped
        assert store.device_usage() == before

        moved = store.add_device(BinSpec("bin-new", 3000))
        for name, cluster in clusters.items():
            assert "bin-new" in cluster.device_ids()
            assert cluster.device("bin-new") is store.device("bin-new")
            assert 0 < len(cluster.shares_on("bin-new")) <= moved[name]
            assert cluster.out_of_place() == []
        assert store.device("bin-new").used == sum(
            len(cluster.shares_on("bin-new")) for cluster in clusters.values()
        )
        store.verify()

    def test_unknown_device(self):
        with pytest.raises(DeviceNotFoundError):
            make_store().fail_device("ghost")
