"""Block-request traces for the cluster simulator.

A trace is a deterministic sequence of :class:`Request` objects (read or
write of one block address).  Mix generators build the standard workload
shapes: write-once-read-many, a uniform read/write mix, Zipf-skewed reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List

from ..hashing.primitives import derive_base, stable_u64, unit_from_base
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
    """Random mix of reads and writes, uniform over ``[0, universe)``."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    targets = addresses.uniform_sample(count, universe, seed=seed)
    op_base = derive_base("mixed-op", seed)
    return (
        Request(Op.READ, int(address))
        if unit_from_base(op_base, index) < read_fraction
        else Request(Op.WRITE, int(address), payload_seed=seed)
        for index, address in enumerate(targets)
    )


def zipf_reads(
    count: int, universe: int, alpha: float = 1.1, seed: int = 0
) -> Iterator[Request]:
    """Skewed read trace — exercises per-device load (not just capacity)."""
    generator = addresses.ZipfGenerator(universe, alpha=alpha, seed=seed)
    return (Request(Op.READ, int(address)) for address in generator.sample(count))


def materialize(trace: Iterable[Request]) -> List[Request]:
    """Realise a lazy trace (handy for replaying it several times)."""
    return list(trace)
