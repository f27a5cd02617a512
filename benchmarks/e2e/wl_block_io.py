"""``block-io``: the data path — replicated writes beside scheduled reads.

Two ``ServiceClient`` s (``read_policy="power-of-two"``) work a fixed set
of pre-written 4 KiB blocks: 75 % ``get_block``, 25 % overwriting
``put_block``, Zipf(1.1) keys.  Each client owns every second key, so the
last acknowledged payload of a key is known without a race and every read
can be checked against it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

from harness import (
    CAPACITIES,
    CLIENTS,
    COPIES,
    REPLAY_STRIDE,
    STRATEGY,
    NullTracer,
    Round,
    Tracer,
    Workload,
    median_us,
)
from repro.exceptions import ReproError
from repro.placement.registry import create
from repro.scheduling import fractional_lower_bound
from repro.scheduling import registry as sched_registry
from repro.service import (
    RpcConnection,
    ServiceClient,
    ServiceCluster,
    checksum,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.types import bins_from_capacities
from repro.workloads import ZipfGenerator, uniform_sample

BLOCKS = 2000
BLOCK_BYTES = 4096
OPS_PER_CLIENT = 1000
PUT_ONE_IN = 4
ZIPF_ALPHA = 1.1
READ_POLICY = "power-of-two"
#: Address of the share the traced run writes straight to one blockstore.
PROBE_ADDRESS = 1 << 50


def payload_of(address: int, version: int) -> bytes:
    """The block content a reader must see after write ``version``."""
    stamp = address.to_bytes(8, "big") + version.to_bytes(8, "big")
    return stamp * (BLOCK_BYTES // len(stamp))


class BlockIO(Workload):
    name = "block-io"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.keys_per_client = self.scaled(BLOCKS // CLIENTS)
        self.ops = self.scaled(OPS_PER_CLIENT)
        self.bins = bins_from_capacities(CAPACITIES, prefix="store")
        self.loop = asyncio.new_event_loop()

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.local = create(STRATEGY, self.bins, copies=COPIES)
        zipf = ZipfGenerator(self.keys_per_client, ZIPF_ALPHA, seed=self.seed)
        self.plan: List[List[tuple]] = []  # per client: (is_put, address)
        for client in range(CLIENTS):
            ranks = zipf.sample(self.ops, start=client * self.ops)
            coins = uniform_sample(
                self.ops, PUT_ONE_IN, seed=self.seed, start=client * self.ops
            )
            self.plan.append(
                [
                    (int(coin) == 0, int(rank) * CLIENTS + client)
                    for rank, coin in zip(ranks, coins)
                ]
            )
        keys = range(CLIENTS * self.keys_per_client)
        self.placed = dict(zip(keys, self.local.place_many(keys).tuples()))
        self.version: Dict[int, int] = {}
        self.served: Dict[str, int] = {}
        self.degraded = 0
        self.first_round_served = None
        self.loop.run_until_complete(self._start())
        self.round(NullTracer())  # warm
        self.first_round_served = None

    async def _start(self) -> None:
        self.service = ServiceCluster(self.bins, strategy=STRATEGY, copies=COPIES)
        await self.service.start()
        host, port = self.service.metastore_address
        self.clients = [
            await ServiceClient.connect(
                host, port, read_policy=READ_POLICY, read_seed=self.seed + client
            )
            for client in range(CLIENTS)
        ]
        await asyncio.gather(*(self._prewrite(c) for c in range(CLIENTS)))

    async def _prewrite(self, client: int) -> None:
        for rank in range(self.keys_per_client):
            address = rank * CLIENTS + client
            await self.clients[client].put_block(address, payload_of(address, 0))
            self.version[address] = 0

    def teardown(self) -> None:
        self.loop.run_until_complete(self._stop())

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.service.stop()

    # -- the fixed work -------------------------------------------------------

    def round(self, tracer: Tracer) -> Round:
        return self.loop.run_until_complete(self._round(tracer))

    async def _round(self, tracer: Tracer) -> Round:
        latencies: List[float] = []
        self.served = {}
        started = time.perf_counter()
        failed = await asyncio.gather(
            *(self._client(client, tracer, latencies) for client in range(CLIENTS))
        )
        elapsed = time.perf_counter() - started
        if self.first_round_served is None:
            self.first_round_served = self.served
        return Round(
            work=CLIENTS * self.ops,
            elapsed=elapsed,
            latencies=latencies,
            attempted=CLIENTS * self.ops,
            failed=sum(failed),
        )

    async def _client(self, index: int, tracer: Tracer, latencies) -> int:
        client = self.clients[index]
        failed = 0
        for step, (is_put, address) in enumerate(self.plan[index]):
            request = index * self.ops + step
            if is_put:
                version = self.version[address] + 1
                payload = payload_of(address, version)
                started = time.perf_counter()
                try:
                    receipt = await client.put_block(address, payload)
                except ReproError:
                    failed += 1
                    continue
                ended = time.perf_counter()
                if not receipt.fully_replicated:
                    failed += 1
                    continue
                self.version[address] = version
                name = "service.client.put_block"
            else:
                started = time.perf_counter()
                try:
                    result = await client.get_block(address)
                except ReproError:
                    failed += 1
                    continue
                ended = time.perf_counter()
                # A read must return the last acknowledged write of its key.
                if result.payload != payload_of(address, self.version[address]):
                    failed += 1
                    continue
                self.degraded += result.degraded
                device = self.placed[address][result.position_used]
                self.served[device] = self.served.get(device, 0) + 1
                name = "service.client.get_block"
            latencies.append(ended - started)
            if tracer.enabled:
                tracer.record(name, started, ended, request=request)
        return failed

    def quality(self) -> float:
        """Busiest device's reads over the fractional optimum (first round)."""
        reads = [
            address
            for plan in self.plan
            for is_put, address in plan
            if not is_put
        ]
        bound = fractional_lower_bound(self.local, reads)
        return max(self.first_round_served.values()) / bound

    # -- traced run ---------------------------------------------------------

    def layers(self, tracer, rounds, seconds):
        return self.loop.run_until_complete(self._layers(tracer, seconds))

    async def _layers(self, tracer: Tracer, seconds: float) -> Dict[str, float]:
        client = self.clients[0]
        device = self.bins[0].bin_id
        store = await RpcConnection.open(*self.service.blockstores[device].address)
        scheduler = sched_registry.create(
            READ_POLICY, [spec.bin_id for spec in self.bins], seed=self.seed
        )
        payload = payload_of(PROBE_ADDRESS, 0)
        put = dict(
            address=PROBE_ADDRESS, position=0,
            payload=encode_payload(payload), checksum=checksum(payload),
        )
        sample = [
            address for _, address in self.plan[0][::REPLAY_STRIDE]
        ]
        deadline = time.perf_counter() + seconds
        while True:
            for request, address in enumerate(sample):
                with tracer.span("service.client.where_is", request=request):
                    devices = await client.where_is(address)
                with tracer.span("scheduling.order", request=request):
                    scheduler.order(address, devices)
                with tracer.span("service.blockstore.checksum", request=request):
                    checksum(payload)
                with tracer.span("service.blockstore.payload_codec", request=request):
                    decode_payload(encode_payload(payload))
                with tracer.span("service.blockstore.put_rpc", request=request):
                    await store.call("put", **put)
                with tracer.span("service.blockstore.get_rpc", request=request):
                    await store.call("get", address=PROBE_ADDRESS, position=0)
            if time.perf_counter() >= deadline:
                break
        await store.call("delete", address=PROBE_ADDRESS, position=0)
        await store.close()
        stored, put_rpcs, get_rpcs = await self._blockstore_totals()
        puts = sum(is_put for plan in self.plan for is_put, _ in plan)
        gets = CLIENTS * self.ops - puts
        return {
            "service.client.get_p50_ms": median_us(
                tracer.durations("service.client.get_block")
            ) / 1e3,
            "service.client.put_p50_ms": median_us(
                tracer.durations("service.client.put_block")
            ) / 1e3,
            "service.client.where_is_us": median_us(
                tracer.durations("service.client.where_is")
            ),
            # One where_is plus the blockstore calls of one round's plan.
            "service.client.rpcs_per_put": 1 + put_rpcs / puts,
            "service.client.rpcs_per_get": 1 + get_rpcs / gets,
            "service.client.degraded_reads": self.degraded,
            "service.blockstore.put_rpc_us": median_us(
                tracer.durations("service.blockstore.put_rpc")
            ),
            "service.blockstore.get_rpc_us": median_us(
                tracer.durations("service.blockstore.get_rpc")
            ),
            "service.blockstore.checksum_us": median_us(
                tracer.durations("service.blockstore.checksum")
            ),
            "service.blockstore.payload_codec_us": median_us(
                tracer.durations("service.blockstore.payload_codec")
            ),
            "service.blockstore.put_frame_bytes": len(
                encode_frame(dict(put, op="put", id=1))
            ),
            "service.blockstore.stored_bytes_per_user_byte": stored
            / (CLIENTS * self.keys_per_client * BLOCK_BYTES),
            "scheduling.order_us": median_us(tracer.durations("scheduling.order")),
        }

    async def _blockstore_totals(self):
        """Stored bytes (``stats``) and put/get RPCs of one more round
        (``metrics``), summed over every blockstore."""
        connections = [
            await RpcConnection.open(*server.address)
            for server in self.service.blockstores.values()
        ]

        async def ask(op):
            return [await connection.call(op) for connection in connections]

        def requests(answers, op):
            return sum(
                answer["service"]["counters"].get(f"blockstore.requests.{op}", 0)
                for answer in answers
            )

        before = await ask("metrics")
        await self._round(NullTracer())
        after = await ask("metrics")
        stored = sum(answer["bytes"] for answer in await ask("stats"))
        for connection in connections:
            await connection.close()
        return (
            stored,
            requests(after, "put") - requests(before, "put"),
            requests(after, "get") - requests(before, "get"),
        )


WORKLOAD = BlockIO
