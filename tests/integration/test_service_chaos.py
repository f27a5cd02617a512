"""Chaos-driven end-to-end test: kill a blockstore mid-workload, lose nothing.

The service-tier twin of the ``repro chaos`` CLI gate.  A seeded
:class:`~repro.chaos.FaultSchedule` decides *which* blockstore dies and
*when* (its crash time is mapped proportionally onto the write
workload's index space, so "mid-stream" is deterministic — no wall-clock
races).  The workload writes every block at ``k = 3``; the victim is
killed **with its data wiped** partway through; then every block must
still read back bit-identically through the client's degraded-read
fallback.

Why zero loss is the right assertion: placement puts the ``k`` copies of
a block on *distinct* devices, so one crash can take at most one copy of
any block — recovery's Lemma-2.1-shaped guarantee, exercised here over
real sockets instead of the in-process cluster model.

Everything is a pure function of ``REPRO_CHAOS_SEED`` (default 0): the
schedule, the victim, the kill index, the payloads.  Re-running a failed
seed reproduces the run bit-for-bit.

The zero-loss gate runs on two transports: localhost TCP, where the kill
lands between two writes, and the seeded in-memory network of
``tests/service/memnet.py``, where the crash time maps onto its delivery
clock instead and the kill lands on that tick — mid-write as a rule.
"""

import asyncio
import hashlib
import os

import pytest

from repro.chaos import FaultKind, generate_schedule
from repro.service import ServiceClient, ServiceCluster

from ..service.memnet import MemNet

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CAPACITIES = [500, 400, 300, 300, 200, 100]
COPIES = 3
BLOCKS = 80
SCHEDULE_DURATION = 20.0
TRANSPORTS = ("tcp", "memnet")
#: Deliveries on the in-memory network: the client's ``config`` round
#: trip, then per write one ``where_is`` and ``COPIES`` puts, two each.
CONNECT_TICKS = 2
TICKS_PER_WRITE = 2 * (1 + COPIES)


def payload_for(address: int) -> bytes:
    """Deterministic per-block payload (seed-keyed, content-checkable)."""
    stamp = hashlib.sha256(f"{SEED}:{address}".encode()).digest()
    return f"block-{address}:".encode() + stamp


def chaos_plan(device_ids):
    """Derive (schedule, victim, kill_index) from the seed.

    The crash event's time on the schedule horizon maps proportionally
    to an index in the write workload, clamped to land strictly
    mid-stream (some blocks written before the kill, some after).
    """
    schedule = generate_schedule(
        device_ids,
        seed=SEED,
        duration=SCHEDULE_DURATION,
        crashes=1,
        outages=0,
        flaky=0,
    )
    crash = next(e for e in schedule if e.kind is FaultKind.CRASH)
    fraction = crash.time / SCHEDULE_DURATION
    kill_index = min(max(int(fraction * BLOCKS), 1), BLOCKS - 1)
    return schedule, crash.device_id, kill_index


def run_chaos_workload(seed: int, transport: str, monkeypatch):
    """Run the full kill-mid-workload scenario for one seed.

    Returns ``(lost, stats)`` where ``lost`` lists every unreadable or
    corrupted block (the zero-loss gate asserts it is empty) and
    ``stats`` carries the observability counters.  Invariants that hold
    for *every* seed — distinct devices per block, writes after the
    crash degraded on exactly the victim's copy position — are asserted
    inline here.  ``transport`` is ``"tcp"`` or ``"memnet"``.
    """
    net = MemNet(seed).install(monkeypatch) if transport == "memnet" else None

    def payload(address: int) -> bytes:
        stamp = hashlib.sha256(f"{seed}:{address}".encode()).digest()
        return f"block-{address}:".encode() + stamp

    async def scenario():
        async with ServiceCluster.from_capacities(
            CAPACITIES, copies=COPIES, strategy="redundant-share"
        ) as cluster:
            schedule = generate_schedule(
                cluster.device_ids,
                seed=seed,
                duration=SCHEDULE_DURATION,
                crashes=1,
            )
            crash = next(e for e in schedule if e.kind is FaultKind.CRASH)
            victim = crash.device_id
            fraction = crash.time / SCHEDULE_DURATION
            kill_index = min(max(int(fraction * BLOCKS), 1), BLOCKS - 1)
            host, port = cluster.metastore_address
            client = await ServiceClient.connect(host, port)
            killed_during = []

            async def crash():
                # the crash: socket gone AND data wiped
                killed_during.append(index)  # the write in flight
                await cluster.kill_blockstore(victim, wipe=True)

            if net is not None:
                ticks = int(fraction * BLOCKS * TICKS_PER_WRITE)
                net.at(CONNECT_TICKS + min(
                    max(ticks, TICKS_PER_WRITE), (BLOCKS - 1) * TICKS_PER_WRITE
                ), crash)
            receipts = []
            for index in range(BLOCKS):
                if net is None and index == kill_index:
                    await crash()
                receipts.append(await client.put_block(index, payload(index)))
            (kill_index,) = killed_during

            # -- every block reads back despite the crash ----------------
            lost = []
            degraded_reads = 0
            for index in range(BLOCKS):
                try:
                    result = await client.get_block(index)
                except Exception as error:
                    lost.append((index, repr(error)))
                    continue
                if result.payload != payload(index):
                    lost.append((index, "payload mismatch"))
                if result.degraded:
                    degraded_reads += 1

            # -- write-side degradation accounting -----------------------
            placements = await client.where_are(list(range(BLOCKS)))
            stats = {
                "victim": victim,
                "kill_index": kill_index,
                "degraded_reads": degraded_reads,
                "scheduler_offline": client.scheduler.offline,
                "before_kill_on_victim": 0,
                "after_kill_skipped": 0,
            }
            for index, receipt in enumerate(receipts):
                devices = list(placements[index])
                assert devices == receipt.devices
                assert len(set(devices)) == COPIES  # distinct devices
                if victim in devices:
                    position = devices.index(victim)
                    if index < kill_index:
                        stats["before_kill_on_victim"] += 1
                    elif index > kill_index or net is None:
                        stats["after_kill_skipped"] += 1
                        # writes after the crash must have skipped
                        # exactly the victim's position
                        assert receipt.positions_skipped == [position]
                    else:  # the write the kill landed in, on memnet
                        assert set(receipt.positions_skipped) <= {position}
                elif index >= kill_index:
                    assert receipt.fully_replicated

            await client.close()
            return lost, stats

    return asyncio.run(scenario())


class TestServiceChaos:
    def test_chaos_plan_is_deterministic(self):
        devices = [f"store-{i}" for i in range(len(CAPACITIES))]
        first = chaos_plan(devices)
        second = chaos_plan(devices)
        assert first[0] == second[0]  # FaultSchedule equality
        assert first[1:] == second[1:]
        assert 1 <= first[2] <= BLOCKS - 1

    def test_kill_blockstore_mid_workload_zero_loss(self, monkeypatch):
        self.assert_zero_loss("tcp", monkeypatch)

    def test_kill_blockstore_mid_workload_zero_loss_in_memory(
        self, monkeypatch
    ):
        self.assert_zero_loss("memnet", monkeypatch)

    @staticmethod
    def assert_zero_loss(transport, monkeypatch):
        lost, stats = run_chaos_workload(SEED, transport, monkeypatch)

        # The headline: a mid-workload crash with data wipe loses nothing.
        assert lost == [], (
            f"data loss after killing {stats['victim']!r} at block "
            f"{stats['kill_index']}: {lost}"
        )
        # The crash was observable, not a no-op: blocks written before
        # the kill had copies on the victim, and writes after it skipped
        # its position — which marked the device offline in the client's
        # read scheduler, so every read routed around the corpse instead
        # of probing it (zero degraded reads is the *feature*, not an
        # idle run).  (These hold for the default seed 0 and are
        # deterministic per seed; the strict multi-seed gate asserts
        # only the universal zero-loss invariant.)
        if SEED == 0:
            assert stats["before_kill_on_victim"] > 0
            assert stats["after_kill_skipped"] > 0
            assert stats["scheduler_offline"] == [stats["victim"]]
            assert stats["degraded_reads"] == 0

    def test_recovery_after_replacement_restores_full_redundancy(self):
        """The repair arc: blank replacement arrives, re-put restores k/k."""

        async def scenario():
            async with ServiceCluster.from_capacities(
                CAPACITIES, copies=COPIES
            ) as cluster:
                _, victim, kill_index = chaos_plan(cluster.device_ids)
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)

                for index in range(BLOCKS):
                    if index == kill_index:
                        await cluster.kill_blockstore(victim, wipe=True)
                    await client.put_block(index, payload_for(index))

                # blank replacement arrives on the victim's endpoint
                await cluster.restart_blockstore(victim)
                await client.refresh_config()
                assert cluster.blockstores[victim].share_count() == 0

                # re-replicate: a put re-writes every copy position, so
                # one pass over the blocks restores full redundancy
                for index in range(BLOCKS):
                    receipt = await client.put_block(
                        index, payload_for(index)
                    )
                    assert receipt.fully_replicated

                healthy_reads = 0
                for index in range(BLOCKS):
                    result = await client.get_block(index)
                    assert result.payload == payload_for(index)
                    if not result.degraded:
                        healthy_reads += 1

                rebuilt = cluster.blockstores[victim].share_count()
                await client.close()
                return healthy_reads, rebuilt

        healthy_reads, rebuilt = asyncio.run(scenario())
        assert healthy_reads == BLOCKS  # no degraded reads after repair
        assert rebuilt > 0  # the replacement really holds shares again

    def test_seed_changes_the_plan(self):
        """Different seeds pick different (victim, kill point) plans.

        Guards against the schedule silently ignoring its seed, which
        would turn "deterministic under REPRO_CHAOS_SEED" into "constant".
        """
        devices = [f"store-{i}" for i in range(len(CAPACITIES))]
        plans = set()
        for seed in range(8):
            schedule = generate_schedule(
                devices, seed=seed, duration=SCHEDULE_DURATION, crashes=1
            )
            crash = next(e for e in schedule if e.kind is FaultKind.CRASH)
            plans.add((crash.device_id, round(crash.time, 6)))
        assert len(plans) > 1


@pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS_STRICT", "") != "1",
    reason="strict amplification only runs in the service-smoke CI job",
)
class TestServiceChaosStrict:
    """CI amplification: the zero-loss gate across several seeds."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_zero_loss_across_seeds(self, seed, transport, monkeypatch):
        lost, stats = run_chaos_workload(seed, transport, monkeypatch)
        assert lost == [], (
            f"{transport} seed {seed}: data loss after killing {stats['victim']!r} "
            f"at block {stats['kill_index']}: {lost}"
        )
