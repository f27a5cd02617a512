"""Shared RPC machinery: the asyncio server base and client connection.

Requests and responses are dict envelopes over the
:mod:`~repro.service.protocol` framing::

    -> {"op": "where_is", "id": 7, "address": 42}
    <- {"ok": true,  "id": 7, "result": {"devices": ["store-2", ...]}}
    <- {"ok": false, "id": 7, "error": "BlockNotFoundError", "message": "..."}

A server whose answers depend on state a client may hold a stale view of
(the metastore's strategy and fleet) adds ``"epoch"``, a fingerprint of
that state, to every response envelope; :attr:`RpcConnection.epoch` is
the latest one seen.

Error envelopes carry the exception's *class name*; the client re-raises
the matching class from :mod:`repro.exceptions` (or a plain
:class:`~repro.exceptions.ServiceError` for names it does not know), so a
typed error raised server-side arrives as the same type client-side.

Every server owns a private :class:`~repro.obs.metrics.MetricsRegistry`
recording per-op request counters and a latency histogram; the built-in
``metrics`` op exports that registry's snapshot *plus* the process-wide
:func:`repro.obs.metrics` snapshot, so one RPC shows both the service
traffic and whatever the placement layer recorded underneath it (batch
sizes, kernel counters).  Trace events go through the
normal :mod:`repro.obs` sink and stay zero-cost while disabled.

Every server listens and every connection dials through two module-level
names, asyncio's ``start_server`` and ``open_connection``: a test that
rebinds both runs the service on another network (``tests/service/
memnet.py``).  A restart is the same server listening on its old port,
its state and counters carrying on.
"""

from __future__ import annotations

import asyncio
import time
from asyncio import open_connection, start_server
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from .. import exceptions as _exceptions
from .. import obs
from ..exceptions import (
    BadFrameError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    TruncatedFrameError,
)
from ..obs.metrics import MetricsRegistry
from .protocol import encode_frame, read_frame, write_frame

Handler = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]

#: Latency buckets in milliseconds — sub-millisecond localhost RPCs up
#: to multi-second stragglers.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


def require(request: Dict[str, Any], key: str) -> Any:
    """Fetch a required request parameter.

    Raises:
        BadFrameError: when the parameter is missing — the caller built a
            structurally invalid request, not a failing operation.
    """
    try:
        return request[key]
    except KeyError:
        raise BadFrameError(
            f"request {request.get('op')!r} is missing required "
            f"parameter {key!r}"
        ) from None


class RpcServer:
    """An asyncio TCP server dispatching envelope requests to handlers.

    Subclasses set :attr:`kind` (the metrics/trace prefix) and register
    coroutine handlers in ``self._handlers``; ``ping`` and ``metrics``
    are provided here so every server is probeable and observable the
    same way.
    """

    kind = "rpc"

    #: Fingerprint of the state this server's answers depend on, sent in
    #: every response envelope; None (no such state) sends nothing.
    epoch: Optional[str] = None

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.StreamWriter]" = set()
        self.registry = MetricsRegistry()
        self._handlers: Dict[str, Handler] = {
            "ping": self._op_ping,
            "metrics": self._op_metrics,
        }

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (the OS-assigned one when constructed with 0),
        kept while stopped: the next :meth:`start` binds it again.

        Raises:
            ServiceError: before the first :meth:`start` on port 0.
        """
        if not self._port:
            raise ServiceError(f"{self.kind} server is not running")
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` of the running server."""
        return (self._host, self.port)

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._server is not None

    async def start(self) -> "RpcServer":
        """Bind and begin accepting connections; returns ``self``."""
        if self._server is not None:
            raise ServiceError(f"{self.kind} server is already running")
        self._server = await start_server(
            self._serve_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if obs.enabled():
            obs.sink().emit(
                f"{self.kind}.started", host=self._host, port=self.port
            )
        return self

    async def stop(self) -> None:
        """Stop accepting connections and close the listening socket.

        In-flight connections are closed too, so their handlers unwind
        before the event loop goes away.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        for writer in list(self._connections):
            writer.close()
        await server.wait_closed()
        # Give handler coroutines one scheduling round to observe EOF.
        await asyncio.sleep(0)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.registry.counter(f"{self.kind}.connections").add(1)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except BadFrameError as error:
                    # The stream is no longer frame-aligned; report the
                    # typed error once and hang up.
                    self.registry.counter(f"{self.kind}.bad_frames").add(1)
                    try:
                        await write_frame(writer, self._failure(None, error))
                    except (ConnectionError, OSError):
                        pass
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                try:
                    frame = encode_frame(response)
                except BadFrameError as error:
                    # The answer does not fit a frame (or is not JSON):
                    # the request fails, the stream stays frame-aligned.
                    self.registry.counter(f"{self.kind}.errors").add(1)
                    frame = encode_frame(
                        self._failure(response.get("id"), error)
                    )
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform
                pass

    def _envelope(self, request_id: Any) -> Dict[str, Any]:
        """The fields every response carries, before ``ok`` is known."""
        envelope: Dict[str, Any] = {"id": request_id}
        if self.epoch is not None:
            envelope["epoch"] = self.epoch
        return envelope

    def _failure(self, request_id: Any, error: Exception) -> Dict[str, Any]:
        """The error envelope naming ``error``'s class."""
        return dict(
            self._envelope(request_id),
            ok=False, error=type(error).__name__, message=str(error),
        )

    async def _dispatch(self, request: Any) -> Dict[str, Any]:
        """Route one request envelope; never raises."""
        request_id = request.get("id") if isinstance(request, dict) else None
        envelope = self._envelope(request_id)
        started = time.perf_counter()
        op = request.get("op") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict) or not isinstance(op, str):
                raise BadFrameError(
                    "request must be an object with a string 'op' field"
                )
            handler = self._handlers.get(op)
            if handler is None:
                raise BadFrameError(
                    f"unknown op {op!r}; this {self.kind} serves "
                    f"{sorted(self._handlers)}"
                )
            result = await handler(request)
            envelope.update(ok=True, result=result)
        except ReproError as error:
            envelope = self._failure(request_id, error)
            self.registry.counter(f"{self.kind}.errors").add(1)
        except Exception as error:  # invariant breakage, not a client fault
            envelope = self._failure(
                request_id,
                ServiceError(f"internal error: {type(error).__name__}: {error}"),
            )
            self.registry.counter(f"{self.kind}.errors").add(1)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        label = op if isinstance(op, str) else "invalid"
        self.registry.counter(f"{self.kind}.requests").add(1)
        self.registry.counter(f"{self.kind}.requests.{label}").add(1)
        self.registry.histogram(
            f"{self.kind}.request_ms", LATENCY_BUCKETS_MS
        ).observe(elapsed_ms)
        if obs.enabled():
            obs.sink().emit(
                f"{self.kind}.request",
                op=label,
                ok=envelope.get("ok", False),
                ms=round(elapsed_ms, 3),
            )
        return envelope

    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "kind": self.kind}

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "service": self.registry.snapshot(),
            "process": obs.metrics().snapshot(),
        }


class RpcConnection:
    """One client connection to an :class:`RpcServer`.

    Serialises calls (one outstanding request per connection — callers
    wanting concurrency open several connections, as the bench does) and
    converts transport failures and error envelopes into typed
    exceptions.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 0
        self._lock = asyncio.Lock()
        #: The ``epoch`` of the latest response envelope (None when the
        #: server sends none): what its answer was computed under.
        self.epoch: Optional[str] = None

    @classmethod
    async def open(cls, host: str, port: int) -> "RpcConnection":
        """Connect and return a ready connection."""
        connection = cls(host, port)
        await connection._connect()
        return connection

    async def _connect(self) -> None:
        try:
            self._reader, self._writer = await open_connection(
                self.host, self.port
            )
        except (ConnectionError, OSError) as error:
            raise ServiceUnavailableError(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from None

    @property
    def connected(self) -> bool:
        """True while the transport is open."""
        return self._writer is not None

    async def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """Invoke ``op`` and return the result dict.

        Raises:
            ServiceUnavailableError: the transport failed (connect,
                send, or receive, mid-frame too) — the server is gone.
            BadFrameError: the reply is no frame (the connection closes).
            ReproError subclasses: whatever typed error the server
                reported, reconstructed by class name.
        """
        async with self._lock:
            if self._writer is None:
                await self._connect()
            self._next_id += 1
            frame = encode_frame(dict(params, op=op, id=self._next_id))
            try:
                self._writer.write(frame)
                await self._writer.drain()
                response = await read_frame(self._reader)
            except (ConnectionError, OSError, TruncatedFrameError) as error:
                await self.close()
                raise ServiceUnavailableError(
                    f"{self.host}:{self.port} failed mid-call "
                    f"({op}): {error}"
                ) from None
            except BadFrameError:
                await self.close()  # the stream is no longer frame-aligned
                raise
            if response is None:
                await self.close()
                raise ServiceUnavailableError(
                    f"{self.host}:{self.port} closed the connection "
                    f"during {op!r}"
                )
        if not isinstance(response, dict):
            raise BadFrameError("response envelope must be an object")
        self.epoch = response.get("epoch")
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        raise self._error_from(response)

    def _error_from(self, response: Dict[str, Any]) -> ReproError:
        """Rebuild the typed exception named in an error envelope."""
        name = response.get("error", "ServiceError")
        message = response.get("message", "unspecified service error")
        error_class = getattr(_exceptions, str(name), None)
        if not (
            isinstance(error_class, type)
            and issubclass(error_class, ReproError)
        ):
            error_class = ServiceError
        try:
            return error_class(message)
        except TypeError:
            # Errors with structured constructors (RepairTimeoutError)
            # degrade to the service base class rather than failing.
            return ServiceError(f"{name}: {message}")

    async def close(self) -> None:
        """Close the transport (idempotent)."""
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform
                pass
