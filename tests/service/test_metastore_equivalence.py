"""Served placement must be bit-identical to local ``place_many``.

The metastore builds its strategy through the same
:func:`repro.placement.registry.create` factory as a local caller, so a
``where_are`` answer that crossed the wire must equal the local batch
placement *exactly* — same devices, same copy order, for every
registered strategy.  Hypothesis drives address batches (including
>2**32 addresses, which exercise JSON's arbitrary-precision integers
against the hash pipeline) through one long-lived server per strategy.
Both directions are columnar frames (u64 addresses out, a rank matrix
back, see :mod:`repro.service.protocol`); their bytes are pinned below
and must be the same with and without NumPy.
"""

import asyncio
import hashlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.exceptions import BadFrameError
from repro.placement.registry import create, registered_strategies
from repro.service import (
    MetastoreServer,
    RpcConnection,
    decode_frame,
    encode_frame,
)
from repro.service.protocol import COLUMNAR, HEADER
from repro.types import bins_from_capacities

from .harness import LoopThread

COPIES = 3
CAPACITIES = [500, 600, 700, 800, 900, 1000, 1100, 1200]
BINS = bins_from_capacities(CAPACITIES, prefix="dev")

#: The answer to the fixed request of
#: ``test_where_are_frame_bytes_are_pinned``: header, then 15 rows of 3
#: one-byte ranks into ``rank_ids`` (redundant-share ranks by capacity).
WHERE_ARE_HEADER = (
    b'{"epoch":"6db7d73fd71a1cdc","id":41,"ok":true,"result":{"placements":'
    b'{"$ranks":{"dtype":"u1","rank_ids":["dev-7","dev-6","dev-5","dev-4",'
    b'"dev-3","dev-2","dev-1","dev-0"],"shape":[15,3]}}}}'
)
WHERE_ARE_RANKS = bytes(
    [0, 1, 6, 0, 1, 5, 0, 1, 4, 2, 3, 4, 2, 3, 5] * 3
)
WHERE_ARE_FRAME_SHA256 = (
    "fb0c98e344e6ac19a678e7275ed169e3a7956cd5a44a2e74d26a9d3351e53eb9"
)

#: The request of that test as the client frames it: header, then 15
#: little-endian 8-byte words.
WHERE_ARE_REQUEST_HEADER = b'{"addresses":{"$u64":15},"id":41,"op":"where_are"}'
WHERE_ARE_REQUEST_WORDS = bytes.fromhex(
    "0000000000000000" "0100000000000000" "0700000000010000"
    "0000000000000040" "15cd5b0700000000"
) * 3

addresses_lists = st.lists(
    st.integers(min_value=0, max_value=2 ** 62), min_size=0, max_size=40
)


class ServedStrategies:
    """One running metastore + client connection per registered strategy."""

    def __init__(self) -> None:
        self.loop = LoopThread()
        self.servers = {}
        self.connections = {}
        self.local = {}
        for entry in registered_strategies():
            server = self.loop.run(self._start(entry.name))
            connection = self.loop.run(
                RpcConnection.open(server.host, server.port)
            )
            self.servers[entry.name] = server
            self.connections[entry.name] = connection
            self.local[entry.name] = create(entry.name, BINS, copies=COPIES)

    @staticmethod
    async def _start(name: str) -> MetastoreServer:
        server = MetastoreServer(BINS, strategy=name, copies=COPIES)
        return await server.start()

    def where_are(self, name: str, addresses):
        connection = self.connections[name]
        result = self.loop.run(
            connection.call("where_are", addresses=list(addresses))
        )
        return [tuple(devices) for devices in result["placements"]]

    def where_is(self, name: str, address: int):
        connection = self.connections[name]
        result = self.loop.run(connection.call("where_is", address=address))
        return tuple(result["devices"])

    def raw_exchange(self, name: str, request) -> bytes:
        """Send one request on a fresh socket; the answer's frame bytes."""
        return self.exchange_with(self.servers[name], request)

    def exchange_with(self, server: MetastoreServer, request) -> bytes:
        async def exchange() -> bytes:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(encode_frame(request))
                header = await reader.readexactly(HEADER.size)
                (length,) = HEADER.unpack(header)
                return header + await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()

        return self.loop.run(exchange())

    def close(self) -> None:
        for connection in self.connections.values():
            self.loop.run(connection.close())
        for server in self.servers.values():
            self.loop.run(server.stop())
        self.loop.stop()


@pytest.fixture(scope="module")
def served():
    harness = ServedStrategies()
    yield harness
    harness.close()


class TestServedEquivalence:
    @given(addresses=addresses_lists)
    @settings(max_examples=20, deadline=None)
    def test_where_are_matches_local_place_many(self, served, addresses):
        for entry in registered_strategies():
            local = served.local[entry.name].place_many(addresses).tuples()
            over_the_wire = served.where_are(entry.name, addresses)
            assert over_the_wire == local, (
                f"{entry.name}: served placement diverged from local "
                f"place_many"
            )

    @given(address=st.integers(min_value=0, max_value=2 ** 62))
    @settings(max_examples=25, deadline=None)
    def test_where_is_matches_local_place(self, served, address):
        for entry in registered_strategies():
            assert served.where_is(entry.name, address) == served.local[
                entry.name
            ].place(address)

    def test_where_is_agrees_with_where_are(self, served):
        addresses = list(range(64))
        for entry in registered_strategies():
            batched = served.where_are(entry.name, addresses)
            singles = [
                served.where_is(entry.name, address) for address in addresses
            ]
            assert batched == singles

    def test_effective_copies_honoured(self, served):
        # lin-mirror is k=2 by definition whatever was requested; the
        # service must report and serve the effective degree.
        for entry in registered_strategies():
            expected = entry.effective_copies(COPIES)
            placements = served.where_are(entry.name, [0, 1, 2])
            assert all(len(devices) == expected for devices in placements)

    def test_where_are_frame_bytes_are_pinned(self, served):
        """The answer is one columnar frame whose bytes do not depend on
        the machine or on NumPy, and which reads as the oracle's rows."""
        addresses = [0, 1, 2**40 + 7, 2**62, 123456789] * 3
        local = served.local["redundant-share"]
        request = {"op": "where_are", "id": 41, "addresses": addresses}
        frame = served.raw_exchange("redundant-share", request)
        self.check_request_bytes(request)
        body = (
            b"\xff"
            + HEADER.pack(len(WHERE_ARE_HEADER))
            + WHERE_ARE_HEADER
            + WHERE_ARE_RANKS
        )
        assert frame == HEADER.pack(len(body)) + body
        assert hashlib.sha256(frame).hexdigest() == WHERE_ARE_FRAME_SHA256
        assert decode_frame(frame) == {
            "epoch": "6db7d73fd71a1cdc",
            "id": 41,
            "ok": True,
            "result": {
                "placements": [list(local.place(a)) for a in addresses]
            },
        }

    @staticmethod
    def check_request_bytes(request):
        body = (
            COLUMNAR
            + HEADER.pack(len(WHERE_ARE_REQUEST_HEADER))
            + WHERE_ARE_REQUEST_HEADER
            + WHERE_ARE_REQUEST_WORDS
        )
        assert encode_frame(request) == HEADER.pack(len(body)) + body

    def test_where_are_request_bytes_do_not_depend_on_numpy(self, monkeypatch):
        addresses = [0, 1, 2**40 + 7, 2**62, 123456789] * 3
        monkeypatch.setattr(compat, "np", None)  # as REPRO_PURE_PYTHON=1 does
        for vector in (addresses, array("Q", addresses)):
            self.check_request_bytes(
                {"op": "where_are", "id": 41, "addresses": vector}
            )

    def test_edges_of_the_u64_column(self, served):
        addresses = [0, 2 ** 63, 2 ** 64 - 1, 5, 2 ** 64 - 1]
        assert encode_frame({"addresses": addresses})[HEADER.size:].startswith(
            COLUMNAR
        )
        for entry in registered_strategies():
            local = served.local[entry.name]
            assert served.where_are(entry.name, addresses) == (
                local.place_many(addresses).tuples()
            ), entry.name
            # One address is a column too, and is what where_is answers.
            for address in addresses[:3]:
                assert served.where_are(entry.name, [address]) == [
                    served.where_is(entry.name, address)
                ] == [local.place(address)], entry.name

    @pytest.mark.parametrize(
        "intruder, message",
        [
            (2 ** 64, None),  # valid, placed mod 2**64 like a local call
            (-1, "addresses must be >= 0, got -1"),
            (True, "addresses must be integers, got bool"),
            (1.0, "addresses must be integers, got float"),
        ],
    )
    def test_batches_no_column_holds_are_answered_as_json_lists(
        self, served, intruder, message
    ):
        # The answers and typed errors of the JSON-request era, unchanged.
        addresses = [0, 2 ** 63, intruder, 2 ** 64 - 1]
        assert not encode_frame({"addresses": addresses})[
            HEADER.size:
        ].startswith(COLUMNAR)
        for entry in registered_strategies():
            if message is None:
                assert served.where_are(entry.name, addresses) == (
                    served.local[entry.name].place_many(addresses).tuples()
                ), entry.name
            else:
                with pytest.raises(BadFrameError, match=message):
                    served.where_are(entry.name, addresses)

    def test_empty_batch(self, served):
        for entry in registered_strategies():
            assert served.loop.run(
                served.connections[entry.name].call("where_are", addresses=[])
            ) == {"placements": []}

    def test_lin_mirror_rows_have_its_two_copies(self, served):
        # k = 2 whatever was requested: the matrix is (n, 2), not (n, 3).
        frame = served.raw_exchange(
            "lin-mirror", {"op": "where_are", "id": 1, "addresses": [5, 6, 7]}
        )
        assert b'"shape":[3,2]' in frame
        rows = decode_frame(frame)["result"]["placements"]
        assert [tuple(row) for row in rows] == [
            served.local["lin-mirror"].place(a) for a in (5, 6, 7)
        ]

    def test_fleet_above_256_devices_uses_two_byte_ranks(self, served):
        bins = bins_from_capacities(
            [1000 + 7 * (i % 13) for i in range(300)], prefix="dev"
        )
        addresses = list(range(0, 4000, 7))
        server = served.loop.run(
            MetastoreServer(bins, strategy="redundant-share", copies=COPIES).start()
        )
        try:
            frame = served.exchange_with(
                server, {"op": "where_are", "id": 1, "addresses": addresses}
            )
        finally:
            served.loop.run(server.stop())
        assert b'"dtype":"u2"' in frame
        rows = decode_frame(frame)["result"]["placements"]
        local = create("redundant-share", bins, copies=COPIES)
        assert [tuple(row) for row in rows] == local.place_many(addresses).tuples()
        # Ranks above 255 are really in play, not just representable.
        assert len({bin_id for row in rows for bin_id in row}) > 256
