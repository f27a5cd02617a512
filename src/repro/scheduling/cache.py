"""Per-device LRU cache model for read scheduling.

A real storage device answers a hot block from DRAM long before the
platter or flash channel gets involved, which is exactly why hot-spot
traffic is dangerous: the *first* device to absorb a hot block keeps
absorbing it cheaply, while a scheduler that naively spreads the block
over all ``k`` copies pays the miss cost ``k`` times and trashes every
cache.  :class:`LruCacheModel` makes that trade-off visible to the
load-aware policies: serving a request costs :attr:`hit_cost` when the
address is already resident on the serving device and one load unit
(:attr:`miss_cost`) when it is not (after which it becomes resident,
possibly evicting the least-recently-used block).

The model is deterministic — an ``OrderedDict`` per device, no clocks,
no randomness — so scheduler runs that consult it stay bit-reproducible.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..exceptions import ConfigurationError


class LruCacheModel:
    """Per-device LRU block cache with hit/miss service costs.

    Attributes:
        capacity: Blocks each device can keep resident.
        hit_cost: Load units a cache hit adds to the serving device.
        miss_cost: Load units a miss adds (the device also admits the
            block, evicting its LRU entry when full); the unit of load.
    """

    miss_cost = 1.0

    def __init__(self, capacity: int, *, hit_cost: float = 0.25) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if not 0.0 <= hit_cost <= self.miss_cost:
            raise ConfigurationError(
                f"a cache hit costs between 0 and a miss ({self.miss_cost}),"
                f" got {hit_cost}"
            )
        self.capacity = capacity
        self.hit_cost = hit_cost
        self._resident: Dict[str, "OrderedDict[int, None]"] = {}
        self.hits = 0
        self.misses = 0
        self._device_hits: Dict[str, int] = {}
        self._device_misses: Dict[str, int] = {}

    def cost(self, device_id: str, address: int) -> float:
        """Serve ``address`` from ``device_id``; return the load cost.

        Updates recency on a hit; admits the block (evicting LRU) on a
        miss.
        """
        resident = self._resident.get(device_id)
        if resident is None:
            resident = self._resident[device_id] = OrderedDict()
        if address in resident:
            resident.move_to_end(address)
            self.hits += 1
            self._device_hits[device_id] = (
                self._device_hits.get(device_id, 0) + 1
            )
            return self.hit_cost
        self.misses += 1
        self._device_misses[device_id] = (
            self._device_misses.get(device_id, 0) + 1
        )
        resident[address] = None
        if len(resident) > self.capacity:
            resident.popitem(last=False)
        return self.miss_cost

    def hit_rate(self) -> float:
        """Overall hit fraction (0.0 before any access)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def device_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-device ``{"hits": ..., "misses": ...}`` counters."""
        devices = set(self._device_hits) | set(self._device_misses)
        return {
            device_id: {
                "hits": self._device_hits.get(device_id, 0),
                "misses": self._device_misses.get(device_id, 0),
            }
            for device_id in sorted(devices)
        }

    def reset(self) -> None:
        """Drop all residency and counters."""
        self._resident.clear()
        self._device_hits.clear()
        self._device_misses.clear()
        self.hits = 0
        self.misses = 0
