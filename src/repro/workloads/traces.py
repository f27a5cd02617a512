"""Block-request traces for the cluster simulator.

A trace is a deterministic sequence of :class:`Request` objects (read or
write of one block address).  Mix generators build the standard workload
shapes: write-once-read-many, mixed OLTP-like, scan-heavy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List

from ..hashing.primitives import stable_u64, unit_interval
from . import addresses


class Op(enum.Enum):
    """Request type."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Request:
    """One block operation.

    Attributes:
        op: READ or WRITE.
        address: Virtual block address.
        payload_seed: Seed from which write payloads are derived (writes
            only); keeps traces compact and deterministic.
    """

    op: Op
    address: int
    payload_seed: int = 0

    def payload(self, size: int = 64) -> bytes:
        """Deterministic payload bytes for a write request."""
        chunks = []
        produced = 0
        counter = 0
        while produced < size:
            value = stable_u64("payload", self.payload_seed, self.address, counter)
            chunks.append(value.to_bytes(8, "little"))
            produced += 8
            counter += 1
        return b"".join(chunks)[:size]


def write_population(count: int, start: int = 0) -> Iterator[Request]:
    """Write every address once — how the paper's experiments fill bins."""
    for address in addresses.sequential(count, start):
        yield Request(Op.WRITE, address, payload_seed=1)


def mixed(
    count: int,
    universe: int,
    read_fraction: float = 0.7,
    seed: int = 0,
) -> Iterator[Request]:
    """Random mix of reads and writes over a bounded address space."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    for index in range(count):
        address = stable_u64("mixed-addr", seed, index) % universe
        coin = unit_interval("mixed-op", seed, index)
        if coin < read_fraction:
            yield Request(Op.READ, address)
        else:
            yield Request(Op.WRITE, address, payload_seed=seed)


def zipf_reads(
    count: int, universe: int, alpha: float = 1.1, seed: int = 0
) -> Iterator[Request]:
    """Skewed read trace — exercises per-device load (not just capacity)."""
    generator = addresses.ZipfGenerator(universe, alpha=alpha, seed=seed)
    for address in generator.stream(count):
        yield Request(Op.READ, address)


def materialize(trace: Iterable[Request]) -> List[Request]:
    """Realise a lazy trace (handy for replaying it several times)."""
    return list(trace)
