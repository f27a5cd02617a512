"""A seeded in-memory network behind the service's transport pair.

``repro.service.rpc`` reaches the network through two module-level
names, ``start_server`` and ``open_connection``.  :class:`MemNet`
provides both with asyncio's signatures, so after
``MemNet(seed).install(monkeypatch)`` every server, connection,
``ServiceCluster`` and ``ServiceClient`` in the test runs with no port
opened.

* Readers are real :class:`asyncio.StreamReader` s; each connection is
  two one-way pipes whose bytes stay in order.
* ``port=0`` allocates the next free port from 50000; dialling a port
  nothing listens on raises :class:`ConnectionRefusedError`.
* Delivery is a virtual clock: each *tick* hands one queued chunk (or
  end-of-stream) of one pipe to its reader, the pipe drawn from the
  ready ones by the seeded RNG.  Ticks pass only while something is in
  flight.  :attr:`MemNet.log` records every delivery, so one seed
  replays byte for byte.
* Faults name a server port and act on its connections: :meth:`reset`
  at a tick or after the server has sent ``after_bytes`` (mid-frame
  included), :meth:`half_close`, :meth:`delay`; :meth:`at` runs any
  action (a crash, say) at a tick.  Nothing is dropped silently: a
  closed stream reads end-of-stream and a write into one raises.
"""

from __future__ import annotations

import asyncio
import errno
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.service import rpc

EOF = None  # a pipe's end-of-stream marker, queued behind its bytes


class _Pipe:
    """One direction of one connection."""

    def __init__(self, number: int, port: int, downstream: bool) -> None:
        self.number, self.port, self.downstream = number, port, downstream
        self.name = f"{port}>c{number}" if downstream else f"c{number}>{port}"
        self.reader = asyncio.StreamReader()
        self.queue: Deque[Optional[bytes]] = deque()
        self.shut = False  # the writing side may send no more

    def cut(self) -> None:
        """End the stream now, dropping what is still in flight."""
        self.queue.clear()
        self.shut = True
        if not self.reader.at_eof():
            self.reader.feed_eof()


class _Writer:
    """The ``StreamWriter`` face of one end of a connection."""

    def __init__(self, out: _Pipe, into: _Pipe, net: "MemNet") -> None:
        self._out, self._in, self._net = out, into, net

    def write(self, data: bytes) -> None:
        if not self._out.shut:
            self._out.queue.append(bytes(data))
            self._net._wake()

    async def drain(self) -> None:
        if self._out.shut:
            raise ConnectionResetError(f"{self._out.name}: stream closed")
        await asyncio.sleep(0)

    def close(self) -> None:
        """Close this end: the peer reads what was sent, then EOF."""
        if not self._out.shut:
            self._out.queue.append(EOF)
            self._out.shut = True
            self._net._wake()
        self._in.cut()

    def is_closing(self) -> bool:
        return self._out.shut

    async def wait_closed(self) -> None:
        pass


class _Socket:
    def __init__(self, address: Tuple[str, int]) -> None:
        self._address = address

    def getsockname(self) -> Tuple[str, int]:
        return self._address


class _Server:
    """What ``start_server`` returns: enough of ``asyncio.Server``."""

    def __init__(self, net: "MemNet", host: str, port: int) -> None:
        self._net, self._port = net, port
        self.sockets = [_Socket((host, port))]

    def close(self) -> None:
        self._net._listeners.pop(self._port, None)

    async def wait_closed(self) -> None:
        pass


class MemNet:
    """An in-memory network; one seed, one delivery order."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._listeners: Dict[int, Callable] = {}
        self._pipes: List[Tuple[_Pipe, _Pipe]] = []  # (up, down) per connection
        self._next_port = 49999  # the first port=0 bind gets 50000
        self._pump: Optional[asyncio.Task] = None
        self._actions: Dict[int, List[Callable[[], Any]]] = {}
        self._held: Dict[int, int] = {}  # port -> first tick it moves again
        self._budgets: Dict[int, int] = {}  # port -> bytes before a reset
        self._tasks: "set[asyncio.Task]" = set()
        self.tick = 0
        self.log: List[Tuple] = []

    def install(self, monkeypatch) -> "MemNet":
        """Bind the service's transport pair to this network."""
        monkeypatch.setattr(rpc, "start_server", self.start_server)
        monkeypatch.setattr(rpc, "open_connection", self.open_connection)
        return self

    # -- the transport pair ---------------------------------------------

    async def start_server(self, client_connected_cb, host=None, port=None, **_):
        port = port or self._free_port()
        if port in self._listeners:
            raise OSError(errno.EADDRINUSE, f"port {port} is in use")
        self._listeners[port] = client_connected_cb
        return _Server(self, host, port)

    async def open_connection(self, host=None, port=None, **_):
        callback = self._listeners.get(port)
        if callback is None:
            raise ConnectionRefusedError(
                errno.ECONNREFUSED, f"nothing listens on {host}:{port}"
            )
        number = len(self._pipes)
        up, down = _Pipe(number, port, False), _Pipe(number, port, True)
        self._pipes.append((up, down))
        self.log.append((self.tick, "connect", number, port))
        self._spawn(callback(up.reader, _Writer(down, up, self)))
        return down.reader, _Writer(up, down, self)

    # -- faults -----------------------------------------------------------

    def at(self, tick: int, action: Callable[[], Any]) -> None:
        """Run ``action`` when the clock reaches ``tick`` (a coroutine it
        returns runs as a task)."""
        self._actions.setdefault(max(tick, self.tick + 1), []).append(action)

    def reset(
        self, port: int, *, at_tick: Optional[int] = None,
        after_bytes: Optional[int] = None,
    ) -> None:
        """Drop the connections to ``port``: both ends read EOF at once
        and what was in flight is lost.  ``at_tick`` drops every open
        one; ``after_bytes`` drops the one whose reply crosses that many
        bytes sent by the server from now on, after the first part."""
        if after_bytes is not None:
            self._budgets[port] = after_bytes
        else:
            self.at(at_tick, lambda: self._each(port, self._drop))

    def half_close(self, port: int, *, at_tick: int) -> None:
        """The server on ``port`` stops sending on every open connection:
        its clients read what is in flight, then EOF; it still reads."""
        self.at(at_tick, lambda: self._each(port, self._shut_down))

    def delay(self, port: int, ticks: int, *, at_tick: int = 0) -> None:
        """Hold every delivery to and from ``port`` for ``ticks`` ticks."""
        self.at(at_tick, lambda: self._held.update({port: self.tick + ticks}))

    # -- the clock -----------------------------------------------------------

    def _free_port(self) -> int:
        self._next_port += 1
        while self._next_port in self._listeners:
            self._next_port += 1
        return self._next_port

    def _spawn(self, result: Any) -> None:
        if asyncio.iscoroutine(result):
            task = asyncio.get_running_loop().create_task(result)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _each(self, port: int, fault: Callable) -> None:
        for number, (up, down) in enumerate(self._pipes):
            if up.port == port and not (up.shut and down.shut):
                fault(number)

    def _drop(self, number: int) -> None:
        self.log.append((self.tick, "reset", number))
        for pipe in self._pipes[number]:
            pipe.cut()

    def _shut_down(self, number: int) -> None:
        down = self._pipes[number][1]
        if not down.shut:
            self.log.append((self.tick, "half_close", number))
            down.queue.append(EOF)
            down.shut = True

    def _wake(self) -> None:
        if self._pump is None or self._pump.done():
            self._pump = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(0)
            waiting = [p for pair in self._pipes for p in pair if p.queue]
            if not waiting:
                return
            self.tick += 1
            for action in self._actions.pop(self.tick, ()):
                self._spawn(action())
            ready = [
                pipe for pipe in waiting
                if pipe.queue and self._held.get(pipe.port, 0) <= self.tick
            ]
            if ready:
                self._deliver(ready[self._rng.randrange(len(ready))])

    def _deliver(self, pipe: _Pipe) -> None:
        chunk = pipe.queue.popleft()
        if chunk is EOF:
            self.log.append((self.tick, "eof", pipe.name))
            pipe.reader.feed_eof()
            return
        budget = self._budgets.get(pipe.port) if pipe.downstream else None
        if budget is not None and budget < len(chunk):
            del self._budgets[pipe.port]
            if budget:
                self.log.append((self.tick, "data", pipe.name, budget))
                pipe.reader.feed_data(chunk[:budget])
            self._drop(pipe.number)
            return
        if budget is not None:
            self._budgets[pipe.port] = budget - len(chunk)
        self.log.append((self.tick, "data", pipe.name, len(chunk)))
        pipe.reader.feed_data(chunk)
