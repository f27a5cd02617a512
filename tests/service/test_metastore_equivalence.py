"""Served placement must be bit-identical to local ``place_many``.

The metastore builds its strategy through the same
:func:`repro.placement.registry.create` factory as a local caller, so a
``where_are`` answer that crossed the wire must equal the local batch
placement *exactly* — same devices, same copy order, for every
registered strategy.  Hypothesis drives address batches (including
>2**32 addresses, which exercise JSON's arbitrary-precision integers
against the hash pipeline) through one long-lived server per strategy.
"""

import asyncio
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.registry import create, registered_strategies
from repro.service import MetastoreServer, RpcConnection, encode_frame
from repro.service.protocol import HEADER
from repro.types import bins_from_capacities

from .harness import LoopThread

COPIES = 3
CAPACITIES = [500, 600, 700, 800, 900, 1000, 1100, 1200]
BINS = bins_from_capacities(CAPACITIES, prefix="dev")

#: SHA-256 of the answer to the fixed request of
#: ``test_where_are_frame_bytes_are_pinned``, taken at the parent commit.
WHERE_ARE_FRAME_SHA256 = (
    "7ee9260f5dba6ecd9825c7f5bf8f34e088c6b2c988a8a2a92c6536ba450ea84c"
)

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
        server = self.servers[name]

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
        """The handler hands the codec tuples, not per-row list copies;
        the bytes on the wire are the ones a list-of-lists answer gives
        (and gave before that copy was dropped)."""
        addresses = [0, 1, 2**40 + 7, 2**62, 123456789] * 3
        local = served.local["redundant-share"]
        frame = served.raw_exchange(
            "redundant-share",
            {"op": "where_are", "id": 41, "addresses": addresses},
        )
        assert frame == encode_frame(
            {
                "id": 41,
                "ok": True,
                "result": {
                    "placements": [list(local.place(a)) for a in addresses]
                },
            }
        )
        assert hashlib.sha256(frame).hexdigest() == WHERE_ARE_FRAME_SHA256
