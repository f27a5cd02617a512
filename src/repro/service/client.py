"""Service client: write ``k`` copies, read with degraded fallback.

:class:`ServiceClient` is the storage-frontend side of the service.  It
bootstraps from the metastore's ``config`` (replication degree plus the
device-id → blockstore-endpoint map), asks ``where_is``/``where_are``
for placements, and moves payloads with the same degradation semantics
as the in-process cluster (:meth:`repro.cluster.Cluster.read` /
:meth:`~repro.cluster.Cluster.write`):

* **Write** — put the payload to all ``k`` copy positions.  Unreachable
  blockstores are *skipped, not fatal*: the write succeeds while at
  least one copy lands, and the receipt reports which positions were
  degraded so callers (and the chaos suite) can count exposure.
* **Read** — ask a pluggable :mod:`repro.scheduling` policy which copy
  position to try first (``read_policy="primary"`` reproduces the plain
  ``0..k-1`` walk; ``"power-of-two"`` or ``"least-loaded"`` spread hot
  blocks over their replicas), falling back across the remaining
  positions when a blockstore is unreachable, the share is missing
  (lost in a crash), or its checksum fails.  Connection-level failures
  mark the device offline in the scheduler so subsequent reads route
  around it; a successful call marks it back online.  Only when every
  position is exhausted does the read raise
  :class:`~repro.exceptions.ServiceUnavailableError`.

Every metastore reply names the placement epoch it was computed under;
when that differs from the epoch of the ``config`` this client holds
(the metastore was restarted with another strategy or fleet), the client
re-fetches ``config`` before handing the reply back.

Checksums are verified end-to-end: the client re-hashes every fetched
payload against the server-reported digest, so a corrupt frame or shard
can never silently satisfy a read.
"""

from __future__ import annotations

import asyncio
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import (
    BlockNotFoundError,
    ChecksumMismatchError,
    ConfigurationError,
    DeviceUnavailableError,
    ServiceError,
    ServiceUnavailableError,
)
from ..scheduling import registry as sched_registry
from .blockstore import checksum, decode_payload, encode_payload
from .rpc import RpcConnection


@dataclass
class WriteReceipt:
    """What one replicated write achieved.

    Attributes:
        address: The block address written.
        devices: The full placement (one device id per copy position).
        positions_written: Copy positions whose blockstore acknowledged.
        positions_skipped: Positions skipped because their blockstore
            was unreachable — the write-side degradation measure.
        checksum: SHA-256 digest of the payload.
    """

    address: int
    devices: List[str]
    positions_written: List[int]
    positions_skipped: List[int]
    checksum: str

    @property
    def fully_replicated(self) -> bool:
        """True when every copy position acknowledged the write."""
        return not self.positions_skipped


@dataclass
class ServiceReadResult:
    """What a (possibly degraded) service read saw.

    The wire twin of :meth:`repro.cluster.Cluster.collect_shares`'s
    answer: ``payload`` plus which copy positions had to be skipped
    before one served.
    """

    payload: bytes
    position_used: int
    positions_skipped: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the primary copy position did not serve the read."""
        return bool(self.positions_skipped)


class ServiceClient:
    """A storage frontend speaking to one metastore and its blockstores."""

    def __init__(
        self, *, read_policy: str = "primary", read_seed: int = 0
    ) -> None:
        entry = sched_registry.lookup(read_policy)
        if not entry.online:
            raise ConfigurationError(
                f"read_policy {entry.name!r} is an offline baseline; the "
                f"client schedules per-request"
            )
        self._metastore: Optional[RpcConnection] = None
        self._blockstores: Dict[str, Tuple[str, int]] = {}
        self._connections: Dict[str, RpcConnection] = {}
        self._scheduler_entry = entry
        self._read_seed = read_seed
        self._scheduler = None
        self.copies = 0
        self.strategy_name = ""
        self.epoch: Optional[str] = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        read_policy: str = "primary",
        read_seed: int = 0,
    ) -> "ServiceClient":
        """Connect to the metastore and bootstrap from its config."""
        client = cls(read_policy=read_policy, read_seed=read_seed)
        client._metastore = await RpcConnection.open(host, port)
        await client.refresh_config()
        return client

    @property
    def read_policy(self) -> str:
        """Canonical name of the copy-selection policy."""
        return self._scheduler_entry.name

    @property
    def scheduler(self):
        """The live read scheduler (built lazily over known devices)."""
        if self._scheduler is None:
            self._scheduler = self._scheduler_entry.build(
                sorted(self._blockstores), seed=self._read_seed
            )
        return self._scheduler

    async def refresh_config(self) -> None:
        """Re-fetch the service topology from the metastore.

        Devices named in the refreshed topology are marked online in the
        read scheduler — the probe-on-failure path re-discovers any that
        are still down.
        """
        if self._metastore is None:
            raise ServiceError("client is not connected; use connect()")
        config = await self._metastore.call("config")
        self.epoch = config.get("epoch")
        self.copies = int(config.get("copies", 0))
        self.strategy_name = str(config.get("strategy", ""))
        endpoints = config.get("blockstores", {})
        self._blockstores = {
            device: (endpoint[0], int(endpoint[1]))
            for device, endpoint in endpoints.items()
        }
        if self._scheduler is not None:
            for device_id in self._blockstores:
                self._scheduler.mark_online(device_id)

    async def _call_metastore(self, op: str, **params):
        """One metastore RPC; a reply computed under another epoch than
        the config this client holds refreshes that config first."""
        if self._metastore is None:
            raise ServiceError("client is not connected; use connect()")
        result = await self._metastore.call(op, **params)
        if self._metastore.epoch != self.epoch:
            await self.refresh_config()
        return result

    async def _blockstore(self, device_id: str) -> RpcConnection:
        """A (cached) connection to the blockstore backing ``device_id``."""
        connection = self._connections.get(device_id)
        if connection is not None and connection.connected:
            return connection
        try:
            host, port = self._blockstores[device_id]
        except KeyError:
            raise ServiceUnavailableError(
                f"no blockstore registered for device {device_id!r}"
            ) from None
        connection = await RpcConnection.open(host, port)
        self._connections[device_id] = connection
        return connection

    # -- placement --------------------------------------------------------

    async def where_is(self, address: int) -> List[str]:
        """The ``k`` device ids holding ``address``, in copy order."""
        result = await self._call_metastore("where_is", address=address)
        return list(result["devices"])

    async def where_are(self, addresses: Sequence[int]) -> List[List[str]]:
        """Batch placement lookup (one ``place_many`` server-side)."""
        if not (isinstance(addresses, (list, array)) and addresses):
            addresses = list(addresses)  # those two the codec takes as given
        result = await self._call_metastore("where_are", addresses=addresses)
        return result["placements"]

    # -- data path ---------------------------------------------------------

    async def put_block(self, address: int, payload: bytes) -> WriteReceipt:
        """Write ``payload`` to every reachable copy position.

        Raises:
            ServiceUnavailableError: when *no* copy position accepted the
                write — nothing was stored.
        """
        devices = await self.where_is(address)
        digest = checksum(payload)
        encoded = encode_payload(payload)
        scheduler = self.scheduler
        written: List[int] = []
        skipped: List[int] = []
        for position, device_id in enumerate(devices):
            try:
                connection = await self._blockstore(device_id)
                await connection.call(
                    "put",
                    address=address,
                    position=position,
                    payload=encoded,
                    checksum=digest,
                )
            except ServiceUnavailableError:
                scheduler.mark_offline(device_id)
                skipped.append(position)
                continue
            scheduler.mark_online(device_id)
            written.append(position)
        if not written:
            raise ServiceUnavailableError(
                f"block {address}: no blockstore reachable for any of the "
                f"{len(devices)} copy positions"
            )
        return WriteReceipt(
            address=address,
            devices=devices,
            positions_written=written,
            positions_skipped=skipped,
            checksum=digest,
        )

    async def get_block(self, address: int) -> ServiceReadResult:
        """Read ``address``, degrading across copy positions on failure.

        Falls back to the next copy position when a blockstore is
        unreachable, no longer holds the share, or serves bytes that fail
        checksum verification — the wire twin of
        :meth:`repro.cluster.Cluster.read`.

        Raises:
            ServiceUnavailableError: every copy position failed.
        """
        devices = await self.where_is(address)
        scheduler = self.scheduler
        try:
            order = scheduler.order(address, devices)
        except DeviceUnavailableError:
            # Every copy's device is marked offline — probe them all
            # anyway (last-resort walk) so a recovered store can serve
            # and be marked back online.
            order = list(range(len(devices)))
        skipped: List[int] = []
        for position in order:
            device_id = devices[position]
            try:
                connection = await self._blockstore(device_id)
                result = await connection.call(
                    "get", address=address, position=position
                )
            except ServiceUnavailableError:
                # Connection-level failure: route future reads around it.
                scheduler.mark_offline(device_id)
                skipped.append(position)
                continue
            except (BlockNotFoundError, ChecksumMismatchError):
                # The store is up but this share is bad — keep the
                # device in the pool.
                skipped.append(position)
                continue
            payload = decode_payload(result["payload"])
            if checksum(payload) != result.get("checksum"):
                skipped.append(position)
                continue
            scheduler.mark_online(device_id)
            return ServiceReadResult(
                payload=payload,
                position_used=position,
                positions_skipped=skipped,
            )
        raise ServiceUnavailableError(
            f"block {address}: all {len(devices)} copy positions "
            f"unavailable (skipped {skipped})"
        )

    async def metrics(self) -> Dict[str, object]:
        """The metastore's metrics snapshot (service + process)."""
        return dict(await self._call_metastore("metrics"))

    async def ping(self) -> bool:
        """Round-trip liveness probe of the metastore."""
        result = await self._call_metastore("ping")
        return bool(result.get("pong"))

    async def close(self) -> None:
        """Close the metastore and every cached blockstore connection."""
        connections = list(self._connections.values())
        self._connections.clear()
        if self._metastore is not None:
            connections.append(self._metastore)
            self._metastore = None
        await asyncio.gather(
            *(connection.close() for connection in connections),
            return_exceptions=True,
        )
