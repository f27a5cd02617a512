"""The service on the seeded in-memory network (``memnet.py``).

The same servers, clients and ``ServiceCluster`` as the TCP tests, with
``repro.service.rpc``'s transport pair rebound to a :class:`MemNet`: no
port is opened, one seed replays one delivery order byte for byte, and
a fault lands on the tick or byte it is scheduled for.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceUnavailableError
from repro.service import (
    BlockstoreServer, RpcConnection, ServiceClient, ServiceCluster,
)

from .memnet import MemNet

CAPACITIES = [500, 400, 300, 300, 200, 100]
COPIES = 3


def payload(address: int) -> bytes:
    return b"block-%d:" % address + bytes(range(address % 97))


async def put_all(cluster, blocks, writers=2):
    """``writers`` clients put their slices of ``range(blocks)`` at once;
    returns the receipts in address order."""
    clients = [
        await ServiceClient.connect(*cluster.metastore_address)
        for _ in range(writers)
    ]

    async def write(client, addresses):
        return [await client.put_block(a, payload(a)) for a in addresses]

    slices = await asyncio.gather(*(
        write(client, range(index, blocks, writers))
        for index, client in enumerate(clients)
    ))
    for client in clients:
        await client.close()
    return sorted((r for s in slices for r in s), key=lambda r: r.address)


async def get_all(cluster, blocks):
    client = await ServiceClient.connect(*cluster.metastore_address)
    try:
        return [await client.get_block(a) for a in range(blocks)]
    finally:
        await client.close()


def crash_scenario(seed, monkeypatch):
    """40 blocks put -> kill+wipe one store -> get -> restart it."""
    net = MemNet(seed).install(monkeypatch)

    async def scenario():
        async with ServiceCluster.from_capacities(
            CAPACITIES, copies=COPIES
        ) as cluster:
            await put_all(cluster, 40)
            victim = cluster.blockstores["store-0"]
            endpoint = victim.address
            await cluster.kill_blockstore("store-0")
            results = await get_all(cluster, 40)
            restarted = await cluster.restart_blockstore("store-0")
            assert restarted is victim and restarted.address == endpoint
            return results

    results = asyncio.run(scenario())
    assert [r.payload for r in results] == [payload(a) for a in range(40)]
    return net


class TestNetwork:
    def test_one_seed_replays_its_delivery_log_byte_for_byte(self, monkeypatch):
        logs = [
            json.dumps(crash_scenario(seed, monkeypatch).log).encode()
            for seed in (0, 0, 1)
        ]
        assert logs[0] == logs[1]
        assert logs[0] != logs[2]

    def test_ports_are_allocated_and_unbound_endpoints_refuse(self, monkeypatch):
        net = MemNet().install(monkeypatch)

        async def scenario():
            first = await BlockstoreServer("a").start()
            second = await BlockstoreServer("b").start()
            with pytest.raises(OSError):
                await BlockstoreServer("c", port=first.port).start()
            endpoint = first.address
            await first.stop()
            with pytest.raises(ConnectionRefusedError):
                await net.open_connection(*endpoint)
            with pytest.raises(ServiceUnavailableError):
                await RpcConnection.open(*endpoint)
            await first.start()
            assert first.address == endpoint
            connection = await RpcConnection.open(*first.address)
            pong = await connection.call("ping")
            await connection.close()
            ports = first.port, second.port
            await first.stop()
            await second.stop()
            return ports, pong

        (first, second), pong = asyncio.run(scenario())
        assert first != second and pong["pong"] is True

    def test_byte_order_within_a_direction_is_kept(self, monkeypatch):
        net = MemNet(seed=3).install(monkeypatch)
        sent = [bytes([i]) * (i + 1) for i in range(60)]

        async def scenario():
            async def talk(reader, writer):
                for chunk in sent:
                    writer.write(chunk)
                writer.close()

            await net.start_server(talk, "127.0.0.1", 0)
            readers = [
                (await net.open_connection("127.0.0.1", 50000))[0]
                for _ in range(3)
            ]
            return [await reader.read() for reader in readers]

        assert asyncio.run(scenario()) == [b"".join(sent)] * 3
        # Three connections were in flight at once: the seed interleaved them.
        names = [entry[2] for entry in net.log if entry[1] == "data"]
        assert names != sorted(names, key=lambda name: name[-1])


class TestFaults:
    @staticmethod
    def read_with(monkeypatch, arm):
        """Put block 7, arm a fault on its position-0 store, read it."""
        net = MemNet().install(monkeypatch)

        async def scenario():
            async with ServiceCluster.from_capacities(
                CAPACITIES, copies=COPIES
            ) as cluster:
                client = await ServiceClient.connect(*cluster.metastore_address)
                receipt = await client.put_block(7, payload(7))
                store = cluster.blockstores[receipt.devices[0]]
                start = net.tick
                arm(net, store.port)
                result = await client.get_block(7)
                connection = client._connections[receipt.devices[0]]
                await client.close()
                return result, connection.connected, net.tick - start

        return asyncio.run(scenario())

    def test_reply_reset_mid_frame_falls_back_and_drops_the_connection(
        self, monkeypatch
    ):
        result, connected, _ = self.read_with(
            monkeypatch, lambda net, port: net.reset(port, after_bytes=60)
        )
        assert result.payload == payload(7)
        assert result.positions_skipped == [0] and result.position_used == 1
        assert connected is False

    def test_half_close_falls_back(self, monkeypatch):
        result, _, _ = self.read_with(
            monkeypatch,
            lambda net, port: net.half_close(port, at_tick=net.tick + 1),
        )
        assert result.payload == payload(7)
        assert result.positions_skipped == [0]

    def test_delay_holds_a_reply_for_its_ticks(self, monkeypatch):
        result, _, ticks = self.read_with(
            monkeypatch,
            lambda net, port: net.delay(port, 50, at_tick=net.tick + 1),
        )
        assert result.payload == payload(7) and not result.degraded
        assert ticks > 50


BLOCKS = 12

faults = st.one_of(
    st.tuples(st.just("reset"), st.integers(1, 600)),
    st.tuples(st.just("half_close"), st.integers(1, 170)),
    st.tuples(st.just("kill"), st.integers(1, 170)),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    victim=st.integers(0, len(CAPACITIES) - 1),
    fault=faults,
)
def test_one_faulty_store_loses_nothing(seed, victim, fault):
    """Any one fault on one store at k = 3: every block reads back exactly
    and every write skips at most the victim's copy position."""
    kind, when = fault
    device = f"store-{victim}"

    async def scenario():
        async with ServiceCluster.from_capacities(
            CAPACITIES, copies=COPIES
        ) as cluster:
            port = cluster.blockstores[device].port
            if kind == "reset":
                net.reset(port, after_bytes=when)
            elif kind == "half_close":
                net.half_close(port, at_tick=when)
            else:
                net.at(when, lambda: cluster.kill_blockstore(device))
            receipts = await put_all(cluster, BLOCKS)
            return receipts, await get_all(cluster, BLOCKS)

    with pytest.MonkeyPatch.context() as monkeypatch:
        net = MemNet(seed).install(monkeypatch)
        receipts, results = asyncio.run(scenario())
    assert [r.payload for r in results] == [payload(a) for a in range(BLOCKS)]
    for receipt in receipts:
        victims = {p for p, d in enumerate(receipt.devices) if d == device}
        assert set(receipt.positions_skipped) <= victims
