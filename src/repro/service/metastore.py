"""Metastore: placement answers over the wire.

The metadata half of the service.  It owns one strategy instance built
through the canonical :func:`repro.placement.registry.create` factory —
the same path the CLI and benches use — so a served answer is *the same
computation* as a local one: ``where_is`` is ``strategy.place`` and
``where_are`` is ``strategy.place_many`` (the columnar batch engine),
with results bit-identical to a local call on equal ``(strategy, bins,
copies)``.  The equivalence tests pin exactly that across every
registered strategy.

Ops::

    where_is  {address}    -> {devices: [id, ...]}             # k ids
    where_are {addresses}  -> {placements: BatchPlacement}     # columnar frames
    config    {}           -> {strategy, strategy_options, copies, bins,
                               epoch, blockstores}

plus the base ``ping``/``metrics``.  ``where_are`` is columnar both ways
(see :mod:`~repro.service.protocol`): u64 ``addresses`` arrive as an
``array('Q')`` that ``place_many`` takes as it is, and the codec is
handed the :class:`~repro.placement.base.BatchPlacement` itself, so the
answer crosses the wire as a rank matrix and decodes to that batch.
``config`` is how a client bootstraps: it learns the replication degree
and each device's blockstore endpoint in one round trip.

Every response envelope, errors included, carries ``epoch`` beside
``id``/``ok``: a digest of what decides a placement — canonical strategy
name, its options, the effective copies and the ordered ``(bin_id,
capacity)`` list.  Two metastores answer alike exactly when their epochs
are equal, so a client holding one epoch's ``config`` notices from any
reply that it has gone stale.  It is a fingerprint, not a counter: this
metastore has no op that changes its fleet.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..exceptions import BadFrameError
from ..placement.registry import create, lookup
from ..types import BinSpec
from .protocol import encode_frame
from .rpc import RpcServer, require

#: Ceiling on one ``where_are`` batch; far above any sane request while
#: bounding the work a single frame can demand.
MAX_BATCH_ADDRESSES = 1_000_000


class MetastoreServer(RpcServer):
    """The placement/metadata server."""

    kind = "metastore"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        *,
        strategy: str = "redundant-share",
        copies: int = 3,
        strategy_options: Optional[Mapping[str, Any]] = None,
        blockstores: Optional[Mapping[str, Tuple[str, int]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        # ConfigurationError with accepted names when unknown.
        entry = lookup(strategy)
        self._bins = list(bins)
        self.strategy_name = entry.name
        self.strategy_options = dict(strategy_options or {})
        self.copies = entry.effective_copies(copies)
        self.strategy = create(
            entry.name, self._bins, copies=copies, **self.strategy_options
        )
        self._placement_config = {
            "strategy": self.strategy_name,
            "strategy_options": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in sorted(self.strategy_options.items())
            },
            "copies": self.copies,
            "bins": [[spec.bin_id, spec.capacity] for spec in self._bins],
        }
        # The codec's canonical bytes: equal configs digest alike anywhere.
        self.epoch = hashlib.sha256(
            encode_frame(self._placement_config)
        ).hexdigest()[:16]
        self._blockstores: Dict[str, Tuple[str, int]] = dict(blockstores or {})
        self._handlers.update(
            where_is=self._op_where_is,
            where_are=self._op_where_are,
            config=self._op_config,
        )

    # -- ops --------------------------------------------------------------

    async def _op_where_is(self, request: Dict[str, Any]) -> Dict[str, Any]:
        address = self._parse_address(require(request, "address"))
        placement = self.strategy.place(address)
        self.registry.counter("metastore.lookups").add(1)
        return {"devices": list(placement)}

    async def _op_where_are(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raw = require(request, "addresses")
        if not isinstance(raw, (list, array)):
            raise BadFrameError("'addresses' must be a list of integers")
        if len(raw) > MAX_BATCH_ADDRESSES:
            raise BadFrameError(
                f"where_are batch of {len(raw)} addresses exceeds the "
                f"{MAX_BATCH_ADDRESSES}-address maximum"
            )
        # A u64 column is typed.  A JSON list is outside input: one pass in C
        # settles a well-formed batch; a failing one is walked for its message.
        if not (
            isinstance(raw, array)
            or set(map(type, raw)) <= {int} and min(raw, default=0) >= 0
        ):
            for value in raw:
                self._parse_address(value)
        batch = self.strategy.place_many(raw)
        self.registry.counter("metastore.lookups").add(len(raw))
        self.registry.histogram("metastore.batch_size").observe(len(raw))
        # The batch itself: the frame codec packs its rank matrix.
        return {"placements": batch}

    async def _op_config(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return dict(
            self._placement_config,
            epoch=self.epoch,
            blockstores={
                device: [host, port]
                for device, (host, port) in sorted(self._blockstores.items())
            },
        )

    @staticmethod
    def _parse_address(value: Any) -> int:
        """Validate one wire address (a non-negative JSON integer)."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadFrameError(
                f"addresses must be integers, got {type(value).__name__}"
            )
        if value < 0:
            raise BadFrameError(f"addresses must be >= 0, got {value}")
        return value
