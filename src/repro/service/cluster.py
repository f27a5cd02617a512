"""One-process service topology: a metastore plus its blockstore shards.

:class:`ServiceCluster` wires the pieces together for ``repro serve``,
the integration tests and the end-to-end benchmark: one
:class:`~repro.service.blockstore.BlockstoreServer` per placement device
and one :class:`~repro.service.metastore.MetastoreServer` that knows
every shard's endpoint.  Everything runs on the current event loop —
"distributed" over localhost TCP (or the network the
:mod:`~repro.service.rpc` transport names are bound to): killing a
shard closes its listener, so clients see connection failures.

Chaos hooks mirror the :class:`~repro.chaos.FaultSchedule` taxonomy:

* :meth:`kill_blockstore` — a **crash**: the server stops accepting and
  (by default) its contents are wiped, like a failed disk replaced by a
  blank one.
* :meth:`restart_blockstore` — the device serves again: the same server
  object listens on the same endpoint, so the metastore's endpoint table
  (set once, at :meth:`start`) stays right, and its contents (none after
  a wiping crash) and counters continue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, ServiceError
from ..types import BinSpec, bins_from_capacities
from .blockstore import BlockstoreServer
from .metastore import MetastoreServer


class ServiceCluster:
    """A metastore and one blockstore per device, started together.

    Args:
        bins: The placement devices; one blockstore shard backs each.
        strategy: Registry name (or alias) of the placement strategy.
        copies: Requested replication degree ``k``.
        strategy_options: Per-strategy options validated against the
            registry entry's schema (e.g. RPDP's ``service_rates``).
        host: Bind host for every server.
        port: Metastore port; blockstores take ``port+1 .. port+N``.
            ``0`` (default) gives every server an OS-assigned port —
            what tests and benches want.
    """

    def __init__(
        self,
        bins: Sequence[BinSpec],
        *,
        strategy: str = "redundant-share",
        copies: int = 3,
        strategy_options: Optional[Dict] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not bins:
            raise ConfigurationError("a service cluster needs at least one bin")
        if port < 0 or port > 65535 - len(bins):
            raise ConfigurationError(
                f"port must be in [0, {65535 - len(bins)}] so every "
                f"blockstore fits above it, got {port}"
            )
        self.bins = list(bins)
        self.strategy_name = strategy
        self.strategy_options = dict(strategy_options or {})
        self.copies = copies
        self.host = host
        self._base_port = port
        self.metastore: Optional[MetastoreServer] = None
        self.blockstores: Dict[str, BlockstoreServer] = {}

    @classmethod
    def from_capacities(
        cls,
        capacities: Sequence[int],
        *,
        prefix: str = "store",
        **kwargs,
    ) -> "ServiceCluster":
        """Build from a flat capacity vector (the CLI's input shape)."""
        return cls(bins_from_capacities(capacities, prefix=prefix), **kwargs)

    @property
    def device_ids(self) -> List[str]:
        """Device ids in bin order (one blockstore each)."""
        return [spec.bin_id for spec in self.bins]

    @property
    def metastore_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the running metastore."""
        if self.metastore is None:
            raise ServiceError("service cluster is not running")
        return self.metastore.address

    async def start(self) -> "ServiceCluster":
        """Start every blockstore, then the metastore; returns ``self``.

        The metastore is built *after* the shards so its config already
        maps every device to a live endpoint — a client that connects the
        moment ``start()`` returns sees a complete topology.
        """
        if self.metastore is not None:
            raise ServiceError("service cluster is already running")
        for index, spec in enumerate(self.bins):
            port = 0 if self._base_port == 0 else self._base_port + 1 + index
            server = BlockstoreServer(spec.bin_id, self.host, port)
            self.blockstores[spec.bin_id] = await server.start()
        self.metastore = await MetastoreServer(
            self.bins,
            strategy=self.strategy_name,
            copies=self.copies,
            strategy_options=self.strategy_options,
            blockstores={d: s.address for d, s in self.blockstores.items()},
            host=self.host,
            port=self._base_port,
        ).start()
        return self

    async def stop(self) -> None:
        """Stop the metastore and every running blockstore."""
        if self.metastore is not None:
            await self.metastore.stop()
            self.metastore = None
        for server in self.blockstores.values():
            await server.stop()
        self.blockstores.clear()

    async def kill_blockstore(self, device_id: str, *, wipe: bool = True) -> None:
        """Crash one shard: stop serving and (by default) lose its data.

        ``wipe=False`` models an outage instead — the socket closes but
        the shares survive for a later :meth:`restart_blockstore`.
        """
        server = self._blockstore(device_id)
        await server.stop()
        if wipe:
            server.wipe()

    async def restart_blockstore(self, device_id: str) -> BlockstoreServer:
        """Bring a killed shard back: the same server, listening again on
        its endpoint with whatever shares it still holds."""
        server = self._blockstore(device_id)
        return server if server.running else await server.start()

    def _blockstore(self, device_id: str) -> BlockstoreServer:
        try:
            return self.blockstores[device_id]
        except KeyError:
            raise ServiceError(f"no blockstore for device {device_id!r}") from None

    async def __aenter__(self) -> "ServiceCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()
