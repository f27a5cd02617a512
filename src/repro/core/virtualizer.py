"""Byte-addressable virtual volume — the user-facing virtualization layer.

The paper's goal is "to organize the storage devices into what appears to
be a single storage device".  :class:`VirtualVolume` is that single device:
a flat byte space carved into fixed-size blocks, each stored redundantly
through a :class:`~repro.cluster.cluster.Cluster` (and therefore through
Redundant Share + an erasure code).  Reads and writes may span block
boundaries; unwritten space reads as zeros (sparse semantics).
"""

from __future__ import annotations

from typing import Optional

from ..cluster.cluster import Cluster
from ..exceptions import BlockNotFoundError


class VirtualVolume:
    """A sparse, redundant, byte-addressable volume."""

    def __init__(self, cluster: Cluster, block_size: int = 4096) -> None:
        """Wrap a cluster as one big virtual device.

        Args:
            cluster: The backing cluster (owns placement and redundancy).
            block_size: Bytes per virtual block; every cluster block this
                volume writes has exactly this payload size.
        """
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self._cluster = cluster
        self._block_size = block_size

    @property
    def block_size(self) -> int:
        """Bytes per block."""
        return self._block_size

    @property
    def cluster(self) -> Cluster:
        """The backing cluster."""
        return self._cluster

    def _read_block(self, block: int) -> bytes:
        try:
            payload = self._cluster.read(block)
        except BlockNotFoundError:
            return bytes(self._block_size)
        if len(payload) < self._block_size:
            payload = payload + bytes(self._block_size - len(payload))
        return payload

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (zeros where unwritten)."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if length == 0:
            return b""
        first = offset // self._block_size
        last = (offset + length - 1) // self._block_size
        chunks = []
        for block in range(first, last + 1):
            chunks.append(self._read_block(block))
        joined = b"".join(chunks)
        start = offset - first * self._block_size
        return joined[start : start + length]

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` (read-modify-write at the edges)."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if not data:
            return
        position = 0
        while position < len(data):
            absolute = offset + position
            block = absolute // self._block_size
            within = absolute % self._block_size
            take = min(self._block_size - within, len(data) - position)
            if within == 0 and take == self._block_size:
                payload = data[position : position + take]
            else:
                current = bytearray(self._read_block(block))
                current[within : within + take] = data[
                    position : position + take
                ]
                payload = bytes(current)
            self._cluster.write(block, payload)
            position += take

    def written_bytes(self) -> int:
        """Bytes held in written blocks (block-granular)."""
        return self._cluster.block_count * self._block_size
