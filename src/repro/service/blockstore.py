"""Blockstore shard: stores block-copy payloads with checksums.

One :class:`BlockstoreServer` plays the role of one placement device
(one :class:`~repro.types.BinSpec`): it stores the bytes of every
``(address, position)`` share the placement strategy routes to it.
Payloads travel base64-encoded inside the JSON envelope and are stored
with a SHA-256 checksum computed *at write time*; every read re-hashes
the stored bytes against it, so silent corruption surfaces as a typed
:class:`~repro.exceptions.ChecksumMismatchError` the client can treat
like an unavailable copy (fall back to the next position) instead of
returning poisoned data.

Ops::

    put    {address, position, payload}        -> {stored, checksum}
    get    {address, position}                 -> {payload, checksum}
    delete {address, position}                 -> {deleted}
    stats  {}                                  -> {device, shares, bytes}

plus the base ``ping``/``metrics``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
from typing import Any, Dict, Tuple

from ..exceptions import (
    BadFrameError,
    BlockNotFoundError,
    ChecksumMismatchError,
)
from .rpc import RpcServer, require


def checksum(payload: bytes) -> str:
    """The protocol's payload checksum: SHA-256 hex digest."""
    return hashlib.sha256(payload).hexdigest()


def encode_payload(payload: bytes) -> str:
    """Bytes -> base64 text for the JSON envelope."""
    return base64.b64encode(payload).decode("ascii")


def decode_payload(text: str) -> bytes:
    """Base64 text -> bytes.

    Raises:
        BadFrameError: when the text is not valid base64.
    """
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, AttributeError) as error:
        raise BadFrameError(f"payload is not valid base64: {error}") from None


class BlockstoreServer(RpcServer):
    """One storage shard, addressed by the device id it backs."""

    kind = "blockstore"

    def __init__(
        self, device_id: str, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port)
        self.device_id = device_id
        self._shares: Dict[Tuple[int, int], Tuple[bytes, str]] = {}
        self._handlers.update(
            put=self._op_put,
            get=self._op_get,
            delete=self._op_delete,
            stats=self._op_stats,
        )

    # -- test/chaos hooks -------------------------------------------------

    def share_count(self) -> int:
        """Shares currently stored (test/inspection hook)."""
        return len(self._shares)

    def holds(self, address: int, position: int) -> bool:
        """True when the shard stores that copy (test/inspection hook)."""
        return (address, position) in self._shares

    def wipe(self) -> None:
        """Drop every share — the data-loss half of a crash."""
        self._shares.clear()

    def corrupt(self, address: int, position: int) -> None:
        """Flip the stored bytes without updating the checksum.

        A test hook simulating silent (bit-rot) corruption; the next
        ``get`` of the share fails checksum verification.
        """
        payload, digest = self._shares[(address, position)]
        flipped = bytes((payload[0] ^ 0xFF,)) + payload[1:] if payload else b"\xff"
        self._shares[(address, position)] = (flipped, digest)

    # -- ops --------------------------------------------------------------

    async def _op_put(self, request: Dict[str, Any]) -> Dict[str, Any]:
        address = int(require(request, "address"))
        position = int(require(request, "position"))
        payload = decode_payload(require(request, "payload"))
        digest = checksum(payload)
        claimed = request.get("checksum")
        if claimed is not None and claimed != digest:
            raise ChecksumMismatchError(
                f"put ({address}, {position}) on {self.device_id!r}: payload "
                f"hashes to {digest[:12]}… but the request claimed "
                f"{str(claimed)[:12]}…"
            )
        self._shares[(address, position)] = (payload, digest)
        self.registry.counter("blockstore.shares.put").add(1)
        self.registry.counter("blockstore.bytes.put").add(len(payload))
        return {"stored": True, "checksum": digest}

    async def _op_get(self, request: Dict[str, Any]) -> Dict[str, Any]:
        address = int(require(request, "address"))
        position = int(require(request, "position"))
        try:
            payload, digest = self._shares[(address, position)]
        except KeyError:
            raise BlockNotFoundError(
                f"{self.device_id!r} holds no share ({address}, {position})"
            ) from None
        if checksum(payload) != digest:
            self.registry.counter("blockstore.corrupt_reads").add(1)
            raise ChecksumMismatchError(
                f"share ({address}, {position}) on {self.device_id!r} fails "
                f"checksum verification (silent corruption)"
            )
        self.registry.counter("blockstore.shares.got").add(1)
        return {"payload": encode_payload(payload), "checksum": digest}

    async def _op_delete(self, request: Dict[str, Any]) -> Dict[str, Any]:
        address = int(require(request, "address"))
        position = int(require(request, "position"))
        existed = self._shares.pop((address, position), None) is not None
        return {"deleted": existed}

    async def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "device": self.device_id,
            "shares": len(self._shares),
            "bytes": sum(len(payload) for payload, _ in self._shares.values()),
        }
