"""One-process service topology: a metastore plus its blockstore shards.

:class:`ServiceCluster` wires the pieces together for ``repro serve``,
the integration tests and the end-to-end benchmark: one
:class:`~repro.service.blockstore.BlockstoreServer` per placement device
and one :class:`~repro.service.metastore.MetastoreServer` that knows
every shard's endpoint.  Everything runs on the current event loop —
"distributed" over localhost TCP, which is exactly what the chaos suite
needs: killing a shard closes a real listening socket, so clients see
real connection failures, not mocks.

Chaos hooks mirror the :class:`~repro.chaos.FaultSchedule` taxonomy:

* :meth:`kill_blockstore` — a **crash**: the server stops accepting and
  (by default) its contents are wiped, like a failed disk replaced by a
  blank one.
* :meth:`restart_blockstore` — the replacement arrives: a fresh server
  on the same device id, re-registered with the metastore.
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
        self._ports: Dict[str, int] = {}

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
        endpoints: Dict[str, Tuple[str, int]] = {}
        for index, spec in enumerate(self.bins):
            port = 0 if self._base_port == 0 else self._base_port + 1 + index
            server = BlockstoreServer(spec.bin_id, self.host, port)
            await server.start()
            self.blockstores[spec.bin_id] = server
            self._ports[spec.bin_id] = server.port
            endpoints[spec.bin_id] = (self.host, server.port)
        metastore = MetastoreServer(
            self.bins,
            strategy=self.strategy_name,
            copies=self.copies,
            strategy_options=self.strategy_options,
            blockstores=endpoints,
            host=self.host,
            port=self._base_port,
        )
        await metastore.start()
        self.metastore = metastore
        return self

    async def stop(self) -> None:
        """Stop the metastore and every running blockstore."""
        if self.metastore is not None:
            await self.metastore.stop()
            self.metastore = None
        for server in self.blockstores.values():
            if server.running:
                await server.stop()
        self.blockstores.clear()

    async def kill_blockstore(self, device_id: str, *, wipe: bool = True) -> None:
        """Crash one shard: stop serving and (by default) lose its data.

        ``wipe=False`` models an outage instead — the socket closes but
        the shares survive for a later :meth:`restart_blockstore`.
        """
        try:
            server = self.blockstores[device_id]
        except KeyError:
            raise ServiceError(
                f"no blockstore for device {device_id!r}; "
                f"devices are {self.device_ids}"
            ) from None
        await server.stop()
        if wipe:
            server.wipe()

    async def restart_blockstore(self, device_id: str) -> BlockstoreServer:
        """Bring a killed shard back on its previous port.

        The replacement inherits whatever shares the old server still
        holds (none after a ``wipe=True`` crash) and is re-registered
        with the metastore.
        """
        old = self.blockstores.get(device_id)
        if old is None:
            raise ServiceError(f"no blockstore for device {device_id!r}")
        if old.running:
            return old
        server = BlockstoreServer(device_id, self.host, self._ports[device_id])
        server._shares = old._shares  # surviving shares carry over
        await server.start()
        self.blockstores[device_id] = server
        self._ports[device_id] = server.port
        if self.metastore is not None:
            self.metastore.register_blockstore(
                device_id, self.host, server.port
            )
        return server

    async def __aenter__(self) -> "ServiceCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()
