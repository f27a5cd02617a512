"""``lookup-single``, ``lookup-batch``, ``lookup-bulk``: served placement.

Two closed-loop clients on their own TCP connections ask an in-process
``ServiceCluster`` where addresses live.  The three variants send the same
kind of request at three sizes, which puts the work in three different
layers: per-RPC overhead (1 address), ``place_many``'s fixed per-call cost
(256), row conversion and JSON (16 384).
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, List

from harness import (
    CAPACITIES,
    CLIENTS,
    COPIES,
    REPLAY_STRIDE,
    STRATEGY,
    UNIVERSE,
    NullTracer,
    Round,
    Tracer,
    Workload,
    fairness_ratio,
    median_us,
    percentile,
)
from repro.exceptions import ReproError
from repro.placement.registry import create
from repro.service import (
    MetastoreServer,
    RpcConnection,
    ServiceCluster,
    decode_frame,
    encode_frame,
)
from repro.types import bins_from_capacities
from repro.workloads import uniform_sample

#: name -> (RPCs per client per round, addresses per RPC).  A round takes
#: about a fifth of a second: short against the host's disturbances, so
#: that most rounds of a run escape them.
VARIANTS = {
    "lookup-single": (1000, 1),
    "lookup-batch": (60, 256),
    "lookup-bulk": (4, 16384),
}

#: The budget closes when what no layer explains is at most this share.
BUDGET_TOLERANCE = 0.15

#: Span names of one served lookup, in the order a request crosses them.
ENCODE_REQUEST = "service.protocol.encode_request"
DECODE_REQUEST = "service.protocol.decode_request"
DISPATCH = "service.metastore.dispatch"
ENCODE_RESPONSE = "service.protocol.encode_response"
DECODE_RESPONSE = "service.protocol.decode_response"
BUDGET_LAYERS = (
    ENCODE_REQUEST, DECODE_REQUEST, DISPATCH, ENCODE_RESPONSE, DECODE_RESPONSE
)


class Lookup(Workload):
    """One of the three served-lookup workloads."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.name = name
        rpcs, self.batch = VARIANTS[name]
        self.rpcs = self.scaled(rpcs)
        self.op = "where_is" if self.batch == 1 else "where_are"
        self.bins = bins_from_capacities(CAPACITIES, prefix="store")
        self.loop = asyncio.new_event_loop()
        self.traced_ok = True

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.local = create(STRATEGY, self.bins, copies=COPIES)
        self.params: List[List[Dict]] = []
        self.expected: List[List[Dict]] = []
        counts: Dict[str, int] = {}
        self.bad_rows = 0
        per_client = self.rpcs * self.batch
        for client in range(CLIENTS):
            addresses = [
                int(a)
                for a in uniform_sample(
                    per_client, UNIVERSE, seed=self.seed, start=client * per_client
                )
            ]
            batch = self.local.place_many(addresses)
            rows = [list(row) for row in batch.tuples()]
            self.bad_rows += sum(len(set(row)) != COPIES for row in rows)
            for device, count in batch.counts().items():
                counts[device] = counts.get(device, 0) + count
            if self.batch == 1:
                self.params.append([{"address": a} for a in addresses])
                self.expected.append([{"devices": row} for row in rows])
            else:
                cuts = range(0, per_client, self.batch)
                self.params.append(
                    [{"addresses": addresses[i : i + self.batch]} for i in cuts]
                )
                self.expected.append(
                    [{"placements": rows[i : i + self.batch]} for i in cuts]
                )
        self.fairness = fairness_ratio(counts, self.bins, COPIES)
        self.sent = 0
        self.rounds_run = 0
        self.loop.run_until_complete(self._start())
        self.round(NullTracer())  # warm: connections, caches, code paths

    async def _start(self) -> None:
        self.service = ServiceCluster(self.bins, strategy=STRATEGY, copies=COPIES)
        await self.service.start()
        host, port = self.service.metastore_address
        self.connections = [
            await RpcConnection.open(host, port) for _ in range(CLIENTS)
        ]

    def teardown(self) -> None:
        self.loop.run_until_complete(self._stop())

    async def _stop(self) -> None:
        for connection in self.connections:
            await connection.close()
        await self.service.stop()

    # -- the fixed work -------------------------------------------------------

    def round(self, tracer: Tracer) -> Round:
        return self.loop.run_until_complete(self._round(tracer))

    async def _round(self, tracer: Tracer) -> Round:
        latencies: List[float] = []
        responses: List[List] = [[] for _ in range(CLIENTS)]
        started = time.perf_counter()
        await asyncio.gather(
            *(
                self._client(client, tracer, latencies, responses[client])
                for client in range(CLIENTS)
            )
        )
        elapsed = time.perf_counter() - started
        # Served placements must equal the local oracle's, row for row.
        failed = sum(
            got != want
            for client in range(CLIENTS)
            for got, want in zip(responses[client], self.expected[client])
        )
        self.rounds_run += 1
        return Round(
            work=CLIENTS * self.rpcs * self.batch,
            elapsed=elapsed,
            latencies=latencies,
            attempted=CLIENTS * self.rpcs,
            failed=failed,
        )

    async def _client(self, client, tracer, latencies, responses) -> None:
        call = self.connections[client].call
        for index, params in enumerate(self.params[client]):
            started = time.perf_counter()
            try:
                result = await call(self.op, **params)
            except ReproError:
                responses.append(None)  # failed: no latency figure
                continue
            finally:
                self.sent += 1
            ended = time.perf_counter()
            latencies.append(ended - started)
            responses.append(result)
            if tracer.enabled:
                tracer.record(
                    "service.rpc.call", started, ended,
                    request=client * self.rpcs + index,
                )

    def quality(self) -> float:
        """Fairness of what was served (it equals the oracle's rows)."""
        return self.fairness

    def verify(self):
        """k distinct devices per row; a traced run's counter and budget
        checks."""
        rows = CLIENTS * self.rpcs * self.batch
        return rows + 1, self.bad_rows + (not self.traced_ok)

    # -- traced run: replay sampled requests layer by layer ------------------

    def layers(self, tracer, rounds, seconds):
        return self.loop.run_until_complete(self._layers(tracer, seconds))

    async def _layers(self, tracer: Tracer, seconds: float) -> Dict[str, float]:
        connection = self.connections[0]
        counters = (await connection.call("metrics"))["service"]["counters"]
        self.sent += 1
        # The server's own counts must equal what the harness sent.
        per_round = CLIENTS * self.rpcs
        counted_ok = (
            counters["metastore.requests"] == self.sent - 1
            and counters["metastore.lookups"]
            == self.rounds_run * per_round * self.batch
        )
        twin = MetastoreServer(self.bins, strategy=STRATEGY, copies=COPIES)
        total = CLIENTS * self.rpcs
        stride = max(1, min(REPLAY_STRIDE, total // 8))
        sample = range(0, total, stride)
        sizes: Dict[int, tuple] = {}
        deadline = time.perf_counter() + seconds
        while True:
            for request in sample:
                sizes[request] = await self._replay(tracer, twin, request)
            if time.perf_counter() >= deadline:
                break
        us = {name: median_us(tracer.durations(name)) for name in BUDGET_LAYERS}
        place = median_us(tracer.durations("placement.place"))
        tuples = median_us(tracer.durations("placement.tuples"))
        calls = tracer.durations("service.rpc.call")
        call = median_us(calls)
        solo = median_us(tracer.durations("service.rpc.solo_call"))
        ping = median_us(tracer.durations("service.rpc.ping"))
        transport = ping - median_us(tracer.durations("service.rpc.ping_layers"))
        dispatch = us[DISPATCH]
        handler_self = dispatch - place - tuples
        unattributed = solo - sum(us.values()) - transport
        closes = abs(unattributed) <= BUDGET_TOLERANCE * solo
        # A scaled-down run replays a handful of requests beside another
        # job; its budget is printed, only a full-scale one must close.
        self.traced_ok = counted_ok and (closes or self.scale < 1)
        rows = [
            (ENCODE_REQUEST, us[ENCODE_REQUEST]),
            (DECODE_REQUEST, us[DECODE_REQUEST]),
            ("placement.place", place),
            ("placement.tuples", tuples),
            ("service.metastore.handler_self", handler_self),
            (ENCODE_RESPONSE, us[ENCODE_RESPONSE]),
            (DECODE_RESPONSE, us[DECODE_RESPONSE]),
            ("service.rpc.transport (ping - its layers)", transport),
            ("service.rpc.unattributed", unattributed),
        ]
        print(f"budget of one solo {self.op} RPC on {self.name}: {solo:.1f} us")
        for name, value in rows:
            print(f"  {name:44s} {value:10.1f} us {100 * value / solo:6.1f} %")
        print(
            f"  waiting for the shared event loop with {CLIENTS} clients: "
            f"{call - solo:.1f} us; budget "
            f"{'closes' if closes else 'DOES NOT CLOSE'} "
            f"within {BUDGET_TOLERANCE:.0%}"
        )
        return {
            "placement.place_us": place,
            "placement.tuples_us": tuples,
            "service.metastore.dispatch_us": dispatch,
            "service.metastore.handler_self_us": handler_self,
            "service.metastore.lookups": counters["metastore.lookups"]
            / self.rounds_run,
            "service.metastore.requests": per_round,
            "service.protocol.encode_request_us": us[ENCODE_REQUEST],
            "service.protocol.decode_request_us": us[DECODE_REQUEST],
            "service.protocol.encode_response_us": us[ENCODE_RESPONSE],
            "service.protocol.decode_response_us": us[DECODE_RESPONSE],
            "service.protocol.request_bytes": statistics.fmean(
                size[0] for size in sizes.values()
            ),
            "service.protocol.response_bytes": statistics.fmean(
                size[1] for size in sizes.values()
            ),
            "service.rpc.ping_us": ping,
            "service.rpc.call_us": call,
            "service.rpc.solo_call_us": solo,
            "service.rpc.queue_us": call - solo,
            "service.rpc.unattributed_us": unattributed,
            "service.rpc.p99_ms": percentile(calls, 99.0) * 1e3,
            "service.rpc.rpcs": per_round,
        }

    async def _replay(self, tracer: Tracer, twin, request: int) -> tuple:
        """One solo real call, then the same request through each layer."""
        client, index = divmod(request, self.rpcs)
        params = self.params[client][index]
        connection = self.connections[0]
        with tracer.span("service.rpc.solo_call", request=request) as root:
            await connection.call(self.op, **params)
        self.sent += 1
        with tracer.span("bench.replay", parent=root, request=request) as replay:
            envelope = dict(params, op=self.op, id=request)
            frames = await self._through_layers(tracer, twin, envelope, replay)
            with tracer.span("placement.place", parent=replay, request=request):
                if self.batch == 1:
                    placed = self.local.place(params["address"])
                else:
                    placed = self.local.place_many(params["addresses"])
            with tracer.span("placement.tuples", parent=replay, request=request):
                if self.batch == 1:
                    list(placed)
                else:
                    [list(row) for row in placed.tuples()]
        with tracer.span("service.rpc.ping", request=request) as ping:
            await connection.call("ping")
        self.sent += 1
        with tracer.span("service.rpc.ping_layers", parent=ping, request=request):
            await self._through_layers(
                NullTracer(), twin, {"op": "ping", "id": request}, None
            )
        return frames

    async def _through_layers(self, tracer, twin, envelope, parent) -> tuple:
        """encode -> decode -> dispatch -> encode -> decode, no socket."""
        request = envelope["id"]
        with tracer.span(ENCODE_REQUEST, parent=parent, request=request):
            frame = encode_frame(envelope)
        with tracer.span(DECODE_REQUEST, parent=parent, request=request):
            decoded = decode_frame(frame)
        with tracer.span(DISPATCH, parent=parent, request=request):
            # The one non-public call: there is no public handler entry yet.
            response = await twin._dispatch(decoded)
        with tracer.span(ENCODE_RESPONSE, parent=parent, request=request):
            answer = encode_frame(response)
        with tracer.span(DECODE_RESPONSE, parent=parent, request=request):
            decode_frame(answer)
        return len(frame), len(answer)

