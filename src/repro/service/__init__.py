"""Network service layer: placement and block storage over asyncio TCP.

The wire surface of the library (the ROADMAP's "serve placement over the
wire" item): a **metastore** answering ``where_is``/``where_are`` through
the canonical registry factory and the columnar ``place_many`` engine, N
**blockstore** shards holding checksummed block payloads, and a
**client** that writes ``k`` copies and falls back across copy positions
on read failure — the wire twin of
:meth:`repro.cluster.Cluster.read`.

Everything speaks the length-prefixed protocol in
:mod:`~repro.service.protocol` — JSON frames, and a columnar frame that
carries ``where_are``'s rank matrix raw; malformed frames raise the typed errors
exported from :mod:`repro.exceptions` (:class:`~repro.exceptions.BadFrameError`
and friends).  Each server exports its request counters and latency
histograms — plus the process-wide :mod:`repro.obs` snapshot — through a
``metrics`` RPC, so a running service is observable with the same layer
the rest of the library instruments against.

Quickstart (one process, ephemeral ports)::

    import asyncio
    from repro.service import ServiceCluster, ServiceClient

    async def demo():
        async with ServiceCluster.from_capacities([500, 400, 300, 200]) as svc:
            host, port = svc.metastore_address
            client = await ServiceClient.connect(host, port)
            await client.put_block(42, b"hello")
            print((await client.get_block(42)).payload)
            await client.close()

    asyncio.run(demo())

or from a shell: ``repro serve`` / ``repro client`` (see OPERATIONS.md).
"""

from __future__ import annotations

from .blockstore import BlockstoreServer, checksum, decode_payload, encode_payload
from .client import ServiceClient, ServiceReadResult, WriteReceipt
from .cluster import ServiceCluster
from .metastore import MetastoreServer
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from .rpc import RpcConnection, RpcServer

__all__ = [
    "BlockstoreServer",
    "MAX_FRAME_BYTES",
    "MetastoreServer",
    "RpcConnection",
    "RpcServer",
    "ServiceClient",
    "ServiceCluster",
    "ServiceReadResult",
    "WriteReceipt",
    "checksum",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "read_frame",
    "write_frame",
]
