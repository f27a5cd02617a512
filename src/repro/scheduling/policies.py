"""The online read-scheduling policies.

Five policies, in increasing order of load awareness:

* :class:`PrimaryScheduler` — always the first available copy position;
  the ablation baseline that shows what *not* choosing costs.
* :class:`RandomScheduler` — a seeded uniform draw over the available
  copies; stateless per block, the classic "spread it" answer.
* :class:`RoundRobinScheduler` — per-address rotation over the available
  copies; deterministic spreading without load feedback.
* :class:`LeastLoadedScheduler` — the available copy whose device has
  the smallest accumulated load; full feedback, global knowledge.
* :class:`PowerOfTwoScheduler` — two seeded candidate draws, route to
  the less loaded; the classic Azar et al. result that two choices get
  exponentially close to least-loaded at a fraction of the information.

Batch engines: ``random``, ``round-robin`` and ``primary`` choices do
not depend on load feedback, so with NumPy installed (and every copy
device online) they vectorize outright via the
:mod:`repro.placement.kernels` draw/occurrence kernels, with bulk load
accounting.  ``least-loaded`` and ``power-of-two`` are sequential by
nature — each choice changes the loads the next one reads — so their
batch engines precompute the per-request hash draws vectorized and run
a tight scalar feedback loop over rank columns.  Every engine is
bit-for-bit identical to its scalar :meth:`~ReadScheduler.choose` loop;
without NumPy all policies fall back to that loop, mirroring how the
placement strategies treat their pure leg.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..exceptions import DeviceUnavailableError
from ..hashing.primitives import (
    derive_base, int64_column, u64_from_base, u64s_from_base,
)
from ..placement import kernels
from .base import ReadScheduler
from .cache import LruCacheModel

_MASK64 = (1 << 64) - 1


class PrimaryScheduler(ReadScheduler):
    """Always read copy position 0 (first *available* position)."""

    name = "primary"

    def _pick(self, address, ranks, available):
        return available[0]

    def _choose_many_np(self, np, addresses, placements):
        if self._has_offline():
            return self._choose_many(addresses, placements)
        columns, copies = self._rank_columns(np, placements)
        if not copies:
            return []
        positions = np.zeros(len(addresses), dtype=np.int64)
        self._bulk_commit(np, addresses, columns, positions)
        return [0] * len(addresses)


class RandomScheduler(ReadScheduler):
    """Seeded uniform choice over the available copies."""

    name = "random"

    def _pick(self, address, ranks, available):
        draw = u64_from_base(self._draw_base, self._sequence)
        return available[draw % len(available)]

    def _choose_many_np(self, np, addresses, placements):
        count = len(addresses)
        columns, copies = self._rank_columns(np, placements)
        if not copies:
            return []
        draws = kernels.draw_column(self._draw_base, self._sequence, count)
        if not self._has_offline():
            positions = (draws % np.uint64(copies)).astype(np.int64)
            self._bulk_commit(np, addresses, columns, positions)
            return [int(position) for position in positions]
        # Offline devices shrink the candidate set per request; mirror the
        # scalar walk with the draws precomputed.
        cols = [column.tolist() for column in columns]
        draw_list = draws.tolist()
        available_by_rank = self._available
        positions: List[int] = []
        for index in range(count):
            candidates = [
                position
                for position in range(copies)
                if available_by_rank[cols[position][index]]
            ]
            if not candidates:
                raise DeviceUnavailableError(
                    f"block {int(addresses[index])}: all {copies} copy "
                    f"devices are offline"
                )
            position = candidates[draw_list[index] % len(candidates)]
            self._commit(int(addresses[index]), cols[position][index])
            positions.append(position)
        return positions


class RoundRobinScheduler(ReadScheduler):
    """Per-address rotation over the available copies.

    The ``t``-th read of a block goes to available position
    ``(phase(address) + t) mod m``, where ``phase`` is a seeded
    per-address hash draw.  Successive reads of a hot block alternate
    over its copies (the point of rotating), while the *starting* copy
    is decorrelated from position 0 — some placement strategies
    (redundant share among them) bias position 0 toward big devices, and
    a phase-0 rotation would hand every block's odd leftover read to
    them.  All phase arithmetic is 64-bit (wrapping), so the scalar and
    vectorized engines agree exactly.
    """

    name = "round-robin"

    def __init__(
        self,
        device_ids: Sequence[str],
        *,
        seed: int = 0,
        cache: Optional[LruCacheModel] = None,
    ) -> None:
        super().__init__(device_ids, seed=seed, cache=cache)
        self._rotation: Dict[int, int] = {}
        self._phase_base = derive_base("sched", self.name, "phase", seed)

    def _pick(self, address, ranks, available):
        count = self._rotation.get(address, 0)
        self._rotation[address] = count + 1
        phase = u64_from_base(self._phase_base, address)
        return available[((phase + count) & _MASK64) % len(available)]

    def reset(self) -> None:
        super().reset()
        self._rotation.clear()

    def _choose_many_np(self, np, addresses, placements):
        if self._has_offline():
            return self._choose_many(addresses, placements)
        columns, copies = self._rank_columns(np, placements)
        if not copies:
            return []
        arr = np.asarray(int64_column(addresses), dtype=np.int64)
        occurrence = kernels.cumcount(arr)
        unique, inverse, per_unique = np.unique(
            arr, return_inverse=True, return_counts=True
        )
        rotation = self._rotation
        phase_unique = u64s_from_base(self._phase_base, unique)
        prior_unique = np.fromiter(
            (rotation.get(int(address), 0) for address in unique),
            dtype=np.uint64,
            count=len(unique),
        )
        counters = (
            phase_unique[inverse]
            + prior_unique[inverse]
            + occurrence.astype(np.uint64)
        )
        positions = (counters % np.uint64(copies)).astype(np.int64)
        for address, prior, extra in zip(unique, prior_unique, per_unique):
            rotation[int(address)] = int(prior) + int(extra)
        self._bulk_commit(np, addresses, columns, positions)
        return [int(position) for position in positions]


class LeastLoadedScheduler(ReadScheduler):
    """The available copy on the device with the least accumulated load.

    Ties break on the lower copy position, keeping choices a pure
    function of the load state.
    """

    name = "least-loaded"

    def _pick(self, address, ranks, available):
        loads = self._loads
        best_position = available[0]
        best_load = loads[ranks[best_position]]
        for position in available[1:]:
            load = loads[ranks[position]]
            if load < best_load:
                best_load = load
                best_position = position
        return best_position

    def _choose_many_np(self, np, addresses, placements):
        columns, copies = self._rank_columns(np, placements)
        if not copies:
            return []
        # The load feedback loop is inherently sequential; run it over
        # plain int columns (the vector win is the columnar setup plus
        # draw-free choices — no hashing, no tuple building per request).
        cols = [column.tolist() for column in columns]
        loads = self._loads
        available = self._available
        positions: List[int] = []
        for index in range(len(addresses)):
            best_position = -1
            best_rank = -1
            best_load = float("inf")
            for position in range(copies):
                rank = cols[position][index]
                if not available[rank]:
                    continue
                load = loads[rank]
                if load < best_load:
                    best_load = load
                    best_position = position
                    best_rank = rank
            if best_position < 0:
                raise DeviceUnavailableError(
                    f"block {int(addresses[index])}: all {copies} copy "
                    f"devices are offline"
                )
            self._commit(int(addresses[index]), best_rank)
            positions.append(best_position)
        return positions


class PowerOfTwoScheduler(ReadScheduler):
    """Two seeded candidate draws; the less-loaded candidate serves.

    Ties (including both draws landing on the same copy) break on the
    lower copy position.  With one available copy the draw is skipped —
    the choice is forced.
    """

    name = "power-of-two"

    def __init__(
        self,
        device_ids: Sequence[str],
        *,
        seed: int = 0,
        cache: Optional[LruCacheModel] = None,
    ) -> None:
        super().__init__(device_ids, seed=seed, cache=cache)
        self._second_base = derive_base("sched", self.name, "draw2", seed)

    def _pick(self, address, ranks, available):
        size = len(available)
        if size == 1:
            return available[0]
        first_draw = u64_from_base(self._draw_base, self._sequence)
        second_draw = u64_from_base(self._second_base, self._sequence)
        first_index = first_draw % size
        second_index = second_draw % (size - 1)
        if second_index >= first_index:
            second_index += 1
        first = available[first_index]
        second = available[second_index]
        loads = self._loads
        first_load = loads[ranks[first]]
        second_load = loads[ranks[second]]
        if second_load < first_load:
            return second
        if first_load < second_load:
            return first
        return first if first < second else second

    def _choose_many_np(self, np, addresses, placements):
        count = len(addresses)
        columns, copies = self._rank_columns(np, placements)
        if not copies:
            return []
        first_draws = kernels.draw_column(
            self._draw_base, self._sequence, count
        ).tolist()
        second_draws = kernels.draw_column(
            self._second_base, self._sequence, count
        ).tolist()
        cols = [column.tolist() for column in columns]
        loads = self._loads
        available = self._available
        has_offline = self._has_offline()
        positions: List[int] = []
        all_positions = list(range(copies))
        for index in range(count):
            if has_offline:
                candidates = [
                    position
                    for position in all_positions
                    if available[cols[position][index]]
                ]
                if not candidates:
                    raise DeviceUnavailableError(
                        f"block {int(addresses[index])}: all {copies} copy "
                        f"devices are offline"
                    )
            else:
                candidates = all_positions
            size = len(candidates)
            if size == 1:
                position = candidates[0]
            else:
                first_index = first_draws[index] % size
                second_index = second_draws[index] % (size - 1)
                if second_index >= first_index:
                    second_index += 1
                first = candidates[first_index]
                second = candidates[second_index]
                first_load = loads[cols[first][index]]
                second_load = loads[cols[second][index]]
                if second_load < first_load:
                    position = second
                elif first_load < second_load:
                    position = first
                else:
                    position = first if first < second else second
            self._commit(int(addresses[index]), cols[position][index])
            positions.append(position)
        return positions
