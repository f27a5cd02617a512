"""Integration-grade tests for the Cluster (write/read, reconfig, failure)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos import (
    ChaosController,
    ChaosOptions,
    FaultSchedule,
    generate_schedule,
    run_chaos,
)
from repro.cluster import (
    ChecksumIndex,
    Cluster,
    DeviceState,
    FlakyProfile,
    Scrubber,
)
from repro.core import RedundantShare
from repro.erasure import MirrorCode, ReedSolomonCode
from repro.exceptions import (
    BlockNotFoundError,
    CapacityExceededError,
    ConfigurationError,
    DecodingError,
    DeviceNotFoundError,
    DeviceUnavailableError,
)
from repro.placement.registry import create
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
        with obs.capture() as trace:
            cluster.add_device(BinSpec("bin-new", 500))
            cluster.remove_device("bin-new")
        assert len(trace.of_kind("device.added")) == 1
        assert len(trace.of_kind("device.removed")) == 1


def layout(cluster):
    """Everything a refused reconfiguration must leave as it was."""
    return (
        cluster.device_ids(),
        list(cluster.strategy.bins),
        {
            address: cluster.placement_of(address)
            for address in cluster.addresses()
        },
        {
            device_id: sorted(cluster.device(device_id).share_keys())
            for device_id in cluster.device_ids()
        },
    )


class TestRefusedReconfiguration:
    """The new strategy is built before anything changes: a device set the
    factory refuses leaves the cluster exactly as it was."""

    def test_refused_add_changes_nothing(self):
        cluster = Cluster(
            bins_from_capacities([400, 300, 200, 100]),
            lambda bins: create(
                "sequential-checking", bins, copies=2, generations=(2, 2)
            ),
        )
        fill(cluster, 60)
        before = layout(cluster)
        for _ in range(2):  # a retry meets the same refusal, not a ghost
            with pytest.raises(ConfigurationError, match="generations"):
                cluster.add_device(BinSpec("bin-9", 100))
            assert layout(cluster) == before
        cluster.verify()

    def test_refused_remove_changes_nothing(self):
        cluster = make_cluster((300, 200, 100), copies=3)
        fill(cluster, 60)
        before = layout(cluster)
        with pytest.raises(ConfigurationError):
            cluster.remove_device("bin-2")
        assert layout(cluster) == before
        cluster.verify()
        # The device that stayed is still placed on after the next add.
        cluster.add_device(BinSpec("bin-9", 200))
        assert "bin-2" in [spec.bin_id for spec in cluster.strategy.bins]
        assert list(cluster.device("bin-2").share_keys())
        cluster.verify()
        for address in range(60):
            assert cluster.read(address) == f"payload-{address}".encode()


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


class TestWriteIsAllOrNothing:
    """A write that cannot fit raises before anything is dropped or stored."""

    def test_full_target_leaves_no_orphan_share(self):
        cluster = Cluster(
            bins_from_capacities([3, 3, 3]),
            lambda bins: RedundantShare(bins, copies=2),
        )
        written = []
        with pytest.raises(CapacityExceededError, match="not written"):
            for address in range(10):
                cluster.write(address, b"x")
                written.append(address)
        assert written  # some blocks fitted before a device filled up
        assert cluster.addresses() == written
        cluster.verify()

    def test_refused_overwrite_keeps_the_old_block(self):
        tiny = BinSpec("tiny", 1)
        twin = make_cluster((30, 30, 30))
        twin.add_device(tiny, rebalance=False)
        first, second = [
            address
            for address in range(5000)
            if "tiny" in twin.strategy.place(address)
        ][:2]
        cluster = make_cluster((30, 30, 30))
        cluster.write(first, b"first")
        cluster.write(second, b"second")
        cluster.add_device(tiny, rebalance=False)
        cluster.migrate([first])  # fills tiny
        before = cluster.placement_of(second)
        with pytest.raises(CapacityExceededError):
            cluster.write(second, b"new")
        assert cluster.placement_of(second) == before
        assert cluster.read(second) == b"second"
        cluster.verify()
        # The block already on tiny frees its own slot: that rewrite fits.
        cluster.write(first, b"new")
        assert cluster.read(first) == b"new"
        cluster.verify()


STATES = st.sampled_from(list(DeviceState))
CODES = {"mirror": (MirrorCode(3), 3), "rs": (ReedSolomonCode(4, 2), 6)}


class TestAvailabilityModel:
    """One state per device, one walk: every consumer agrees with it."""

    def test_what_an_offline_device_missed_is_reconciled_when_it_is_back(self):
        cluster = make_cluster()
        fill(cluster, 40)
        victim = "bin-1"
        rewritten, deleted = [a for a, _ in cluster.shares_on(victim)[:2]]
        cluster.device(victim).mark_offline()
        with pytest.raises(IOError, match="offline"):
            cluster.device(victim).fetch((rewritten, 0))
        cluster.write(rewritten, b"rewritten")
        cluster.delete(deleted)
        cluster.add_device(BinSpec("bin-new", 1500))  # moves shares off it
        cluster.verify()
        kept = cluster.device(victim).used
        rebuilt = cluster.repair_device(victim)
        assert cluster.device(victim).state is DeviceState.ACTIVE
        assert 0 < rebuilt < kept  # contents kept: only the missed stores
        cluster.verify()
        assert cluster.sync_device(victim) == []
        for other in cluster.device_ids():
            if other != victim:
                cluster.device(other).mark_offline()
        for address, _ in cluster.shares_on(victim):
            expected = (
                b"rewritten"
                if address == rewritten
                else f"payload-{address}".encode()
            )
            assert cluster.read(address) == expected

    def test_windows_on_a_crashed_device_change_nothing(self):
        cluster = make_cluster()
        device = cluster.device("bin-0")
        cluster.fail_device("bin-0")
        for transition in (
            device.mark_offline,
            device.mark_online,
            lambda: device.mark_flaky(FlakyProfile(0.5, 1.0)),
        ):
            transition()
            assert device.state is DeviceState.FAILED
            assert device.profile is None and not device.is_active
        assert cluster.sync_device("bin-0") == []
        device.replace()
        device.mark_flaky(FlakyProfile(0.5, 1.0))
        assert device.is_active and device.profile.latency == 1.0
        device.mark_online()
        assert device.state is DeviceState.ACTIVE and device.profile is None

    @pytest.mark.parametrize("code_name", sorted(CODES))
    @given(states=st.lists(STATES, min_size=8, max_size=8), dropped=st.sets(
        st.integers(min_value=0, max_value=5), max_size=2
    ))
    @settings(max_examples=60, deadline=None)
    def test_read_follows_the_device_states(self, code_name, states, dropped):
        code, copies = CODES[code_name]
        cluster = Cluster(
            bins_from_capacities([900, 800, 700, 600, 500, 400, 300, 200]),
            lambda bins: RedundantShare(bins, copies=copies),
            code=code,
        )
        payload = bytes(range(64))
        cluster.write(11, payload)
        index = ChecksumIndex()
        index.capture(cluster)
        placement = cluster.placement_of(11)
        encoded = code.encode(payload)
        # Shares silently missing on a device that is up: data that is gone.
        for position in dropped:
            if position < copies:
                cluster.device(placement[position]).discard((11, position))
        for device_id, state in zip(cluster.device_ids(), states):
            device = cluster.device(device_id)
            if state is DeviceState.FAILED:
                device.fail()
            elif state is DeviceState.OFFLINE:
                device.mark_offline()
            elif state is DeviceState.FLAKY:
                device.mark_flaky(FlakyProfile(0.5))
            assert device.state is state
            assert device.is_active == (
                state in (DeviceState.ACTIVE, DeviceState.FLAKY)
            )

        devices = [cluster.device(device_id) for device_id in placement]
        held = [
            position
            for position, device in enumerate(devices)
            if device.is_active and position not in dropped
        ]
        down = [p for p, device in enumerate(devices) if not device.is_active]
        shares, skipped = cluster.collect_shares(11)
        assert shares == {position: encoded[position] for position in held}
        assert skipped == down
        for need in (2, code.data_shares):
            some, some_skipped = cluster.collect_shares(11, need=need)
            assert some == {p: encoded[p] for p in held[:need]}
            assert some_skipped == [
                p for p in down if len(held) < need or p < held[need - 1]
            ]

        if len(held) >= code.data_shares:
            assert cluster.read(11) == payload
        elif any(devices[p].state is DeviceState.OFFLINE for p in down):
            with pytest.raises(DeviceUnavailableError):
                cluster.read(11)
        else:
            with pytest.raises(DecodingError):
                cluster.read(11)

        controller = ChaosController(cluster, FaultSchedule([]))
        assert controller._readable_shares(11) == len(held)
        assert controller._blocks_at_risk() == (len(held) < copies)
        scrubber = Scrubber(cluster, index)
        assert scrubber.survivors(11, 0) == {
            position: encoded[position] for position in held if position != 0
        }
