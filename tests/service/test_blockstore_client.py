"""Blockstore semantics, client degradation, and typed errors on the wire.

Everything here runs a real server on localhost inside ``asyncio.run``:
typed errors must survive the trip through the error envelope (raised
server-side, re-raised client-side as the same class), and the client's
fallback order must mirror ``Cluster.read`` — positions tried in
placement order, unavailable/missing/corrupt copies skipped.
"""

import asyncio
from array import array

import pytest

from repro.exceptions import (
    BadFrameError,
    BlockNotFoundError,
    ChecksumMismatchError,
    OversizedFrameError,
    ServiceUnavailableError,
)
from repro.placement.base import BatchPlacement
from repro.placement.registry import create
from repro.service import (
    BlockstoreServer,
    MetastoreServer,
    RpcConnection,
    ServiceClient,
    ServiceCluster,
    checksum,
    encode_frame,
    encode_payload,
    protocol,
)
from repro.service.metastore import MAX_BATCH_ADDRESSES
from repro.service.protocol import HEADER, read_frame
from repro.types import bins_from_capacities


def run(coro):
    return asyncio.run(coro)


async def _one_blockstore():
    server = BlockstoreServer("dev-0")
    await server.start()
    connection = await RpcConnection.open(server.host, server.port)
    return server, connection


class TestBlockstore:
    def test_put_get_round_trip(self):
        async def scenario():
            server, connection = await _one_blockstore()
            payload = b"the quick brown fox"
            stored = await connection.call(
                "put", address=9, position=1,
                payload=encode_payload(payload),
            )
            fetched = await connection.call("get", address=9, position=1)
            await connection.close()
            await server.stop()
            return payload, stored, fetched

        payload, stored, fetched = run(scenario())
        assert stored == {"stored": True, "checksum": checksum(payload)}
        assert fetched["checksum"] == checksum(payload)

    def test_get_missing_share_is_typed(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                with pytest.raises(BlockNotFoundError):
                    await connection.call("get", address=1, position=0)
            finally:
                await connection.close()
                await server.stop()

        run(scenario())

    def test_put_with_wrong_checksum_rejected(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                with pytest.raises(ChecksumMismatchError):
                    await connection.call(
                        "put", address=1, position=0,
                        payload=encode_payload(b"data"),
                        checksum="0" * 64,
                    )
                assert server.share_count() == 0
            finally:
                await connection.close()
                await server.stop()

        run(scenario())

    def test_silent_corruption_caught_on_read(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                await connection.call(
                    "put", address=3, position=0,
                    payload=encode_payload(b"precious"),
                )
                server.corrupt(3, 0)
                with pytest.raises(ChecksumMismatchError):
                    await connection.call("get", address=3, position=0)
            finally:
                await connection.close()
                await server.stop()

        run(scenario())

    def test_delete_and_stats(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                await connection.call(
                    "put", address=5, position=2,
                    payload=encode_payload(b"x" * 10),
                )
                stats = await connection.call("stats")
                assert stats == {"device": "dev-0", "shares": 1, "bytes": 10}
                deleted = await connection.call("delete", address=5, position=2)
                assert deleted == {"deleted": True}
                again = await connection.call("delete", address=5, position=2)
                assert again == {"deleted": False}
            finally:
                await connection.close()
                await server.stop()

        run(scenario())


class TestWireErrors:
    def test_unknown_op_is_bad_frame(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                with pytest.raises(BadFrameError):
                    await connection.call("frobnicate")
            finally:
                await connection.close()
                await server.stop()

        run(scenario())

    def test_missing_parameter_is_bad_frame(self):
        async def scenario():
            server, connection = await _one_blockstore()
            try:
                with pytest.raises(BadFrameError):
                    await connection.call("get", address=1)  # no position
            finally:
                await connection.close()
                await server.stop()

        run(scenario())

    def test_garbage_bytes_get_error_envelope_then_close(self):
        async def scenario():
            server = BlockstoreServer("dev-0")
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(HEADER.pack(7) + b"garbage")
            await writer.drain()
            response = await read_frame(reader)
            follow_up = await read_frame(reader)  # server hung up
            writer.close()
            await server.stop()
            return response, follow_up

        response, follow_up = run(scenario())
        assert response["ok"] is False
        assert response["error"] == "BadFrameError"
        assert follow_up is None

    def test_non_object_request_is_answered_not_fatal(self):
        async def scenario():
            server = BlockstoreServer("dev-0")
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(encode_frame([1, 2, 3]))
            await writer.drain()
            response = await read_frame(reader)
            writer.close()
            await server.stop()
            return response

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"] == "BadFrameError"

    def test_answer_above_the_ceiling_is_a_typed_error_not_a_hang_up(
        self, monkeypatch
    ):
        # 8 bytes of request per address against 3 of answer, but every
        # answer also carries the rank_ids table: 40 ids of 100 bytes put
        # a 500-address answer over a ceiling its request fits under.
        bins = bins_from_capacities([100] * 40, prefix="d" * 97)
        big = list(range(500))
        request = encode_frame({"op": "where_are", "id": 1, "addresses": big})
        assert len(request) - HEADER.size < 4200
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 5000)

        async def scenario():
            server = MetastoreServer(bins)
            await server.start()
            connection = await RpcConnection.open(server.host, server.port)
            try:
                with pytest.raises(OversizedFrameError):
                    await connection.call("where_are", addresses=big)
                pong = await connection.call("ping")
                small = await connection.call("where_are", addresses=[1, 2])
                counters = server.registry.snapshot()["counters"]
            finally:
                await connection.close()
                await server.stop()
            return pong, small, counters

        pong, small, counters = run(scenario())
        assert pong["pong"] is True
        assert len(small["placements"]) == 2
        assert counters["metastore.connections"] == 1
        assert counters["metastore.errors"] == 1

    def test_batch_above_the_maximum_is_refused_before_any_placement(self):
        # 8 bytes per address: one address too many still fits a default
        # frame, so it is the handler that refuses it, on its length.
        too_many = array("Q", [7]) * (MAX_BATCH_ADDRESSES + 1)

        async def scenario():
            server = await MetastoreServer(
                bins_from_capacities([300, 200, 100])
            ).start()
            connection = await RpcConnection.open(server.host, server.port)
            try:
                with pytest.raises(BadFrameError, match="exceeds"):
                    await connection.call("where_are", addresses=too_many)
                refused = server.registry.snapshot()["counters"]
                pong = await connection.call("ping")
                small = await connection.call("where_are", addresses=[1, 2])
            finally:
                await connection.close()
                await server.stop()
            return refused, pong, small

        refused, pong, small = run(scenario())
        assert "metastore.lookups" not in refused
        assert refused["metastore.errors"] == 1
        assert pong["pong"] is True
        assert len(small["placements"]) == 2

    def test_quarter_million_addresses_fit_the_default_ceiling(self):
        bins = bins_from_capacities([500, 400, 300, 200, 100])
        addresses = list(range(260_000))

        async def scenario():
            server = await MetastoreServer(bins).start()
            connection = await RpcConnection.open(server.host, server.port)
            try:
                return await connection.call("where_are", addresses=addresses)
            finally:
                await connection.close()
                await server.stop()

        placements = run(scenario())["placements"]
        local = create("redundant-share", bins, copies=3)
        assert type(placements) is BatchPlacement
        assert len(placements) == len(addresses)
        for address in (0, 1, 131_072, 259_999):
            assert placements[address] == local.place(address)

    def test_connection_refused_is_service_unavailable(self):
        async def scenario():
            # Bind-then-close gives a port that is guaranteed free.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(ServiceUnavailableError):
                await RpcConnection.open("127.0.0.1", port)

        run(scenario())

    def test_server_death_mid_session_is_service_unavailable(self):
        async def scenario():
            server, connection = await _one_blockstore()
            await connection.call("ping")
            await server.stop()
            with pytest.raises(ServiceUnavailableError):
                await connection.call("ping")
            await connection.close()

        run(scenario())


class TestServiceClient:
    def test_write_read_round_trip_all_positions(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                receipt = await client.put_block(11, b"payload-11")
                result = await client.get_block(11)
                # every acknowledged copy is really on its blockstore
                held = [
                    cluster.blockstores[device].holds(11, position)
                    for position, device in enumerate(receipt.devices)
                ]
                await client.close()
                return receipt, result, held

        receipt, result, held = run(scenario())
        assert receipt.fully_replicated
        assert receipt.positions_written == [0, 1, 2]
        assert result.payload == b"payload-11"
        assert result.position_used == 0
        assert not result.degraded
        assert held == [True, True, True]

    def test_degraded_read_falls_back_in_position_order(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                receipt = await client.put_block(23, b"payload-23")
                await cluster.kill_blockstore(receipt.devices[0])
                result = await client.get_block(23)
                await client.close()
                return result

        result = run(scenario())
        assert result.payload == b"payload-23"
        assert result.position_used == 1
        assert result.positions_skipped == [0]

    def test_corrupt_primary_copy_falls_back(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                receipt = await client.put_block(31, b"payload-31")
                cluster.blockstores[receipt.devices[0]].corrupt(31, 0)
                result = await client.get_block(31)
                await client.close()
                return result

        result = run(scenario())
        assert result.payload == b"payload-31"
        assert result.positions_skipped == [0]

    def test_all_copies_gone_is_service_unavailable(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                await client.put_block(47, b"payload-47")
                for device in list(cluster.blockstores):
                    await cluster.kill_blockstore(device)
                try:
                    with pytest.raises(ServiceUnavailableError):
                        await client.get_block(47)
                finally:
                    await client.close()

        run(scenario())

    def test_degraded_write_skips_dead_store(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                placement = await client.where_is(59)
                await cluster.kill_blockstore(placement[1])
                receipt = await client.put_block(59, b"payload-59")
                result = await client.get_block(59)
                await client.close()
                return receipt, result

        receipt, result = run(scenario())
        assert not receipt.fully_replicated
        assert receipt.positions_skipped == [1]
        assert sorted(receipt.positions_written) == [0, 2]
        assert result.payload == b"payload-59"

    def test_read_of_never_written_block(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200], copies=2
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                try:
                    with pytest.raises(ServiceUnavailableError):
                        await client.get_block(999)
                finally:
                    await client.close()

        run(scenario())

    def test_reply_cut_mid_frame_falls_back_and_drops_the_connection(self):
        # Position 0's endpoint answers half a frame and hangs up: the
        # read falls back to position 1, and the connection that read the
        # half is closed rather than left out of frame alignment.
        async def half_a_frame(reader, writer):
            request = await read_frame(reader)
            frame = encode_frame({"id": request["id"], "ok": True, "result": {
                "payload": encode_payload(b"payload-83"),
                "checksum": checksum(b"payload-83"),
            }})
            writer.write(frame[: len(frame) // 2])
            await writer.drain()
            writer.close()

        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                client = await ServiceClient.connect(*cluster.metastore_address)
                receipt = await client.put_block(83, b"payload-83")
                await client.close()
                store = cluster.blockstores[receipt.devices[0]]
                endpoint = store.address
                await store.stop()
                impostor = await asyncio.start_server(half_a_frame, *endpoint)
                try:
                    connection = await RpcConnection.open(*endpoint)
                    with pytest.raises(ServiceUnavailableError):
                        await connection.call("get", address=83, position=0)
                    connected = connection.connected
                    client = await ServiceClient.connect(
                        *cluster.metastore_address
                    )
                    result = await client.get_block(83)
                    await client.close()
                finally:
                    impostor.close()
                    await impostor.wait_closed()
                return connected, result

        connected, result = run(scenario())
        assert connected is False
        assert result.payload == b"payload-83"
        assert result.positions_skipped == [0] and result.position_used == 1

    def test_restart_after_outage_preserves_shares(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200, 100], copies=3
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                receipt = await client.put_block(71, b"payload-71")
                victim = receipt.devices[0]
                # outage: socket closes but the data survives
                await cluster.kill_blockstore(victim, wipe=False)
                degraded = await client.get_block(71)
                await cluster.restart_blockstore(victim)
                await client.refresh_config()
                healthy = await client.get_block(71)
                await client.close()
                return degraded, healthy

        degraded, healthy = run(scenario())
        assert degraded.position_used == 1
        assert healthy.position_used == 0
        assert healthy.payload == b"payload-71"

    def test_restarted_metastore_with_another_fleet_is_noticed(self):
        async def scenario():
            first = await MetastoreServer(
                bins_from_capacities([400, 300, 200]), copies=3
            ).start()
            port = first.port
            client = await ServiceClient.connect(first.host, port)
            before = (client.epoch, client.copies, await client.where_is(5))
            await first.stop()
            second = await MetastoreServer(
                bins_from_capacities([100, 200, 300, 400]), copies=2, port=port
            ).start()
            try:
                # The old socket died with the old server ...
                with pytest.raises(ServiceUnavailableError):
                    await client.ping()
                # ... and the first reply of the new one is under its epoch.
                devices = await client.where_is(5)
                after = (client.epoch, client.copies, devices)
                counters = second.registry.snapshot()["counters"]
            finally:
                await client.close()
                await second.stop()
            return before, after, first.epoch, second.epoch, counters

        before, after, first_epoch, second_epoch, counters = run(scenario())
        assert first_epoch != second_epoch
        assert before[:2] == (first_epoch, 3) and len(before[2]) == 3
        assert after[:2] == (second_epoch, 2) and len(after[2]) == 2
        assert counters["metastore.requests.config"] == 1

    def test_epoch_rides_every_metastore_envelope_beside_the_result(self):
        bins = bins_from_capacities([400, 300, 200])

        async def scenario():
            server = MetastoreServer(bins, copies=2)
            ok = await server._dispatch({"op": "where_is", "id": 1, "address": 3})
            config = await server._dispatch({"op": "config", "id": 2})
            failed = await server._dispatch({"op": "where_is", "id": 3})
            store = await BlockstoreServer("dev-0")._dispatch({"op": "ping"})
            return server.epoch, ok, config, failed, store

        epoch, ok, config, failed, store = run(scenario())
        assert ok == {
            "id": 1, "epoch": epoch, "ok": True,
            "result": {"devices": list(create("redundant-share", bins, copies=2).place(3))},
        }
        assert config["epoch"] == config["result"]["epoch"] == epoch
        assert failed["ok"] is False and failed["epoch"] == epoch
        assert "epoch" not in store

    def test_epoch_is_a_digest_of_what_decides_a_placement(self):
        def epoch(capacities=(400, 300, 200), **kwargs):
            return MetastoreServer(bins_from_capacities(capacities), **kwargs).epoch

        assert epoch() == epoch(strategy="redundant-share", copies=3)
        assert epoch() == epoch(port=1234, blockstores={"bin-0": ("h", 1)})
        assert len({
            epoch(),
            epoch(copies=2),
            epoch(strategy="crush"),
            epoch(capacities=(400, 300, 201)),
            epoch(capacities=(300, 400, 200)),
            epoch(capacities=(400, 300, 200, 100)),
        }) == 6
        # Canonical name and effective copies: an alias, or a degree the
        # strategy overrides (lin-mirror is k = 2), is the same epoch.
        assert epoch(strategy="striping") == epoch(strategy="weighted-striping")
        assert epoch(strategy="lin-mirror", copies=3) == epoch(
            strategy="lin-mirror", copies=2
        )
        assert epoch(strategy="striping") != epoch(
            strategy="striping", strategy_options={"resolution": 32}
        )

    def test_where_are_takes_any_integer_sequence(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200], copies=2
            ) as cluster:
                client = await ServiceClient.connect(*cluster.metastore_address)
                try:
                    assert await client.where_are(array("Q")) == []
                    return [
                        await client.where_are(addresses)
                        for addresses in (
                            range(50), list(range(50)), tuple(range(50)),
                            array("Q", range(50)),
                        )
                    ]
                finally:
                    await client.close()

        rows = run(scenario())
        local = create(
            "redundant-share",
            bins_from_capacities([400, 300, 200], prefix="store"),
            copies=2,
        )
        expected = [list(row) for row in local.place_many(range(50)).tuples()]
        assert rows == [expected] * 4

    def test_metrics_rpc_exports_service_and_process_views(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200], copies=2
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                await client.put_block(5, b"five")
                await client.where_are([1, 2, 3, 4])
                snapshot = await client.metrics()
                await client.close()
                return snapshot

        snapshot = run(scenario())
        service = snapshot["service"]
        assert service["counters"]["metastore.requests.where_are"] == 1
        assert service["counters"]["metastore.lookups"] >= 5
        latency = service["histograms"]["metastore.request_ms"]
        assert latency["count"] == sum(
            count
            for name, count in service["counters"].items()
            if name.startswith("metastore.requests.")
        )
        assert "counters" in snapshot["process"]

    def test_metastore_validates_addresses(self):
        async def scenario():
            async with ServiceCluster.from_capacities(
                [400, 300, 200], copies=2
            ) as cluster:
                host, port = cluster.metastore_address
                client = await ServiceClient.connect(host, port)
                connection = await RpcConnection.open(host, port)
                try:
                    with pytest.raises(BadFrameError):
                        await client.where_is(-1)
                    with pytest.raises(BadFrameError):
                        await client.where_are(["seven"])
                    # The column's placeholder in a JSON frame names no
                    # column: an object stands where addresses belong.
                    with pytest.raises(BadFrameError, match="must be a list"):
                        await connection.call(
                            "where_are", addresses={"$u64": 3}
                        )
                    return (await client.metrics())["service"]["counters"]
                finally:
                    await connection.close()
                    await client.close()

        counters = run(scenario())
        assert counters["metastore.errors"] == 3
        assert "metastore.lookups" not in counters  # nothing was placed

    def test_cluster_rejects_port_overflow(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceCluster.from_capacities([1, 1, 1], port=65534)
        with pytest.raises(ConfigurationError):
            ServiceCluster.from_capacities([])
