"""Scrubbing: detect and repair silent share corruption.

Real storage systems periodically *scrub*: re-read every share, verify a
checksum, and rebuild anything that rotted.  The simulator supports this
end to end: :class:`ChecksumIndex` remembers the expected digest of every
share at write time, :func:`corrupt_share` flips bytes (for tests and
chaos experiments), and :class:`Scrubber` walks the cluster, reports
mismatches and repairs them from redundancy via the erasure code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..exceptions import DecodingError
from ..hashing.primitives import stable_u64
from .cluster import Cluster

ShareKey = Tuple[int, int]


def share_digest(payload: bytes) -> int:
    """64-bit content digest used by the scrubber."""
    return stable_u64(b"scrub", payload)


class ChecksumIndex:
    """Expected digests of every live share of a cluster.

    Built (or refreshed) from the cluster's current, trusted state; the
    scrubber compares live payloads against it later.
    """

    def __init__(self) -> None:
        self._digests: Dict[ShareKey, int] = {}

    def capture(self, cluster: Cluster) -> int:
        """Record digests for every share currently stored.

        Returns:
            Number of shares captured.
        """
        self._digests.clear()
        count = 0
        for device_id in cluster.device_ids():
            device = cluster.device(device_id)
            if not device.is_active:
                continue
            for key in device.share_keys():
                self._digests[key] = share_digest(device.fetch(key))
                count += 1
        return count

    def expected(self, key: ShareKey) -> int:
        """Expected digest of one share.

        Raises:
            KeyError: if the share was never captured.
        """
        return self._digests[key]

    def update(self, key: ShareKey, payload: bytes) -> None:
        """Refresh one share's digest (after a legitimate rewrite)."""
        self._digests[key] = share_digest(payload)

    def __len__(self) -> int:
        return len(self._digests)


def corrupt_share(cluster: Cluster, device_id: str, key: ShareKey) -> None:
    """Flip bits of one stored share (test/chaos helper).

    Raises:
        DeviceNotFoundError: for unknown devices.
        BlockNotFoundError: if the share is not on that device.
    """
    device = cluster.device(device_id)
    payload = bytearray(device.fetch(key))
    if not payload:
        payload = bytearray(b"\xff")
    else:
        payload[0] ^= 0xFF
    device.store(key, bytes(payload))


@dataclass
class ScrubReport:
    """Outcome of one scrub pass.

    Attributes:
        scanned: Shares whose digests were verified.
        corrupt: Shares whose digest mismatched.
        repaired: Corrupt shares successfully rebuilt from redundancy.
        unrepairable: Corrupt shares that could not be rebuilt.
        corrupt_keys: The (device, share) pairs that mismatched.
    """

    scanned: int = 0
    corrupt: int = 0
    repaired: int = 0
    unrepairable: int = 0
    corrupt_keys: List[Tuple[str, ShareKey]] = field(default_factory=list)


class Scrubber:
    """Verify-and-repair walker over a cluster."""

    def __init__(self, cluster: Cluster, index: ChecksumIndex) -> None:
        self._cluster = cluster
        self._index = index

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Verify every live share against the index; optionally repair.

        Repair re-derives the share from the block's *other* shares: the
        corrupt copy is discarded, the erasure code decodes the block from
        the survivors, and the share is rewritten and re-indexed.
        """
        report = ScrubReport()
        cluster = self._cluster
        for device_id in cluster.device_ids():
            device = cluster.device(device_id)
            if not device.is_active:
                continue
            for key in device.share_keys():
                payload = device.fetch(key)
                try:
                    expected = self._index.expected(key)
                except KeyError:
                    continue  # written after capture; nothing to check
                report.scanned += 1
                if share_digest(payload) == expected:
                    continue
                report.corrupt += 1
                report.corrupt_keys.append((device_id, key))
                if not repair:
                    continue
                address, position = key
                try:
                    rebuilt = cluster.rebuild_share(
                        self.survivors(address, position), position
                    )
                except DecodingError:
                    report.unrepairable += 1
                    continue
                device.store(key, rebuilt)
                self._index.update(key, rebuilt)
                report.repaired += 1
        return report

    def survivors(self, address: int, position: int) -> Dict[int, bytes]:
        """The block's other readable shares that pass their digest.

        Rebuild only from *verified* survivors: a block may have several
        rotten shares, and decoding from an unverified sibling would
        launder the corruption into the repair.
        """
        survivors: Dict[int, bytes] = {}
        shares, _ = self._cluster.collect_shares(address)
        for other, candidate in shares.items():
            if other == position:
                continue
            try:
                trusted = share_digest(candidate) == self._index.expected(
                    (address, other)
                )
            except KeyError:
                trusted = True  # written after capture: no record
            if trusted:
                survivors[other] = candidate
        return survivors
