"""Offline water-filling baseline: the hindsight-optimal schedule.

Every online policy answers "which copy?" with partial information.  The
water-filling baseline answers it with *all* the information: given the
whole request stream up front, it pours each block's demand onto its
least-loaded available copies, highest-demand blocks first, which is the
classic water-filling construction for minimising the peak device load
subject to the placement's copy sets.

Two artefacts come out of a run:

* an actual schedule (so the baseline plugs into the same bench tables
  and invariant suites as the online policies), and
* :attr:`WaterFillingScheduler.last_lower_bound` — the *fractional*
  optimum, computed exactly: for every subset ``S`` of available
  devices, the demand of blocks whose available copies all lie inside
  ``S`` must be served by ``S``, so ``demand(S) / |S|`` lower-bounds the
  peak of any schedule, fractional or not.  The max over subsets is
  tight for the fractional relaxation (max-flow/min-cut on the
  block→device bipartite graph).  The subset enumeration is a
  subset-sum DP over ``2^n`` masks, guarded to pools of at most
  :data:`MAX_EXACT_DEVICES` devices — beyond that the bound is ``None``
  and callers fall back to comparing against the realized schedule.

The statistical suites compare online peaks against the fractional
bound because the inequality ``online peak >= fractional optimum`` is a
theorem, not a tendency — the assertion can never flake.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, DeviceUnavailableError
from .base import ReadScheduler

#: Pool size ceiling for the exact ``2^n`` fractional-bound DP.
MAX_EXACT_DEVICES = 16


def fractional_peak_bound(
    demands: Mapping[int, int],
    copysets: Mapping[int, Sequence[Hashable]],
    live: Sequence[Hashable],
) -> Optional[float]:
    """Exact fractional lower bound on the peak load of any schedule.

    Each live device gets one bit, in any order: the bound does not
    depend on it.

    Args:
        demands: Requests per distinct block.
        copysets: The devices holding each block's copies; only those in
            ``live`` can serve it.
        live: The devices that can serve.

    Returns:
        ``max over sets S of live devices of demand(blocks whose live
        copies all lie in S) / |S|``, or ``None`` when ``live`` has more
        than :data:`MAX_EXACT_DEVICES` devices.

    Raises:
        DeviceUnavailableError: when some block has no live copy.
    """
    bit_of = {device: bit for bit, device in enumerate(live)}
    masks: List[int] = []
    for block in demands:
        mask = 0
        devices = copysets[block]
        for device in devices:
            bit = bit_of.get(device)
            if bit is not None:
                mask |= 1 << bit
        if not mask:
            raise DeviceUnavailableError(
                f"block {block}: all {len(devices)} copy devices are offline"
            )
        masks.append(mask)
    device_count = len(live)
    if device_count > MAX_EXACT_DEVICES:
        return None
    if device_count == 0 or not demands:
        return 0.0
    size = 1 << device_count
    contained = [0] * size
    for demand, mask in zip(demands.values(), masks):
        contained[mask] += demand
    # Subset-sum (SOS) DP: after processing bit b, contained[S] holds the
    # demand of all copysets that are subsets of S w.r.t. bits <= b.
    for bit in range(device_count):
        step = 1 << bit
        for mask in range(size):
            if mask & step:
                contained[mask] += contained[mask ^ step]
    best = 0.0
    for mask in range(1, size):
        total = contained[mask]
        if total:
            bound = total / mask.bit_count()
            if bound > best:
                best = bound
    return best


class WaterFillingScheduler(ReadScheduler):
    """Offline optimum baseline — needs the whole stream, so it only
    implements :meth:`choose_many`; per-request :meth:`choose` refuses.
    """

    name = "water-filling"
    online = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._last_bound: Optional[float] = None

    @property
    def last_lower_bound(self) -> Optional[float]:
        """Fractional optimum of the most recent :meth:`choose_many`
        batch (in isolation — prior load state is not folded in), or
        ``None`` when the pool was too large for the exact DP."""
        return self._last_bound

    def choose(self, address: int, placement: Sequence[str]) -> int:
        raise ConfigurationError(
            "water-filling is an offline baseline: it needs the whole "
            "request stream, use choose_many() (or pick an online policy)"
        )

    def _pick(self, address, ranks, available):  # pragma: no cover
        raise ConfigurationError("water-filling has no per-request pick")

    def _choose_many(self, addresses, placements) -> List[int]:
        rows = self._rows(placements)
        demands: Dict[int, int] = {}
        copy_ranks: Dict[int, Tuple[int, ...]] = {}
        for address, row in zip(addresses, rows):
            block = int(address)
            if block not in demands:
                demands[block] = 0
                copy_ranks[block] = tuple(
                    self.rank_of(device_id) for device_id in row
                )
            demands[block] += 1
        available_positions: Dict[int, List[int]] = {}
        for block, ranks in copy_ranks.items():
            positions = [
                position
                for position, rank in enumerate(ranks)
                if self._available[rank]
            ]
            if not positions:
                raise DeviceUnavailableError(
                    f"block {block}: all {len(ranks)} copy devices are "
                    f"offline"
                )
            available_positions[block] = positions
        live = [rank for rank in range(len(self._ids)) if self._available[rank]]
        # Every block has a live copy (checked above), so above the exact
        # DP's limit the bound is None without building its masks.
        self._last_bound = (
            fractional_peak_bound(demands, copy_ranks, live)
            if len(live) <= MAX_EXACT_DEVICES
            else None
        )
        # Water-filling realization: highest-demand blocks first (ties on
        # the lower address), each request poured onto the least-loaded
        # available copy at that moment.
        working = list(self._loads)
        queues: Dict[int, "deque[int]"] = {}
        for block in sorted(demands, key=lambda b: (-demands[b], b)):
            ranks = copy_ranks[block]
            positions = available_positions[block]
            queue = queues[block] = deque()
            for _ in range(demands[block]):
                best_position = positions[0]
                best_load = working[ranks[best_position]]
                for position in positions[1:]:
                    load = working[ranks[position]]
                    if load < best_load:
                        best_load = load
                        best_position = position
                queue.append(best_position)
                working[ranks[best_position]] += 1.0
        positions_out: List[int] = []
        for address in addresses:
            block = int(address)
            position = queues[block].popleft()
            self._commit(block, copy_ranks[block][position])
            positions_out.append(position)
        return positions_out
