"""The block map: which devices hold the shares of which block.

Hash-based placement makes this map *recomputable*, but the cluster keeps
an explicit copy for two reasons: it is the ground truth the simulator
verifies strategies against, and it mirrors what a real virtualization
layer caches to avoid recomputing lookups on the data path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..exceptions import BlockNotFoundError
from ..types import Placement

ShareLocation = Tuple[int, int]  # (address, position)


class BlockMap:
    """Bidirectional index between blocks and devices."""

    def __init__(self) -> None:
        self._placements: Dict[int, Placement] = {}
        self._by_device: Dict[str, Set[ShareLocation]] = {}

    def record(self, address: int, placement: Placement) -> None:
        """Insert or replace the placement of a block."""
        if address in self._placements:
            self.forget(address)
        self._placements[address] = tuple(placement)
        for position, device_id in enumerate(placement):
            self._by_device.setdefault(device_id, set()).add(
                (address, position)
            )

    def lookup(self, address: int) -> Placement:
        """Placement of a block.

        Raises:
            BlockNotFoundError: if the block was never written.
        """
        try:
            return self._placements[address]
        except KeyError:
            raise BlockNotFoundError(f"block {address} is not mapped") from None

    def contains(self, address: int) -> bool:
        """True if the block is mapped."""
        return address in self._placements

    def forget(self, address: int) -> None:
        """Remove a block from the map (idempotent)."""
        placement = self._placements.pop(address, None)
        if placement is None:
            return
        for position, device_id in enumerate(placement):
            shares = self._by_device.get(device_id)
            if shares is not None:
                shares.discard((address, position))
                if not shares:
                    del self._by_device[device_id]

    def shares_on(self, device_id: str) -> List[ShareLocation]:
        """All (address, position) shares mapped to a device."""
        return sorted(self._by_device.get(device_id, ()))

    def share_count(self, device_id: str) -> int:
        """Number of shares mapped to a device."""
        return len(self._by_device.get(device_id, ()))

    def addresses(self) -> Iterator[int]:
        """Iterate all mapped block addresses (snapshot)."""
        return iter(list(self._placements))

    def __len__(self) -> int:
        return len(self._placements)
