"""Interfaces of the read-scheduling layer.

The paper guarantees *storage* fairness — x% of the capacity holds x% of
the data — but says nothing about *access load*: once ``k`` copies of a
block exist, the system gets to choose which copy serves each read, and
that choice decides whether a Zipf hot spot melts one device or spreads
over the replica set (Aktaş & Soljanin, "Controlling Data Access Load in
Distributed Systems").  A :class:`ReadScheduler` is that choice, made
explicit and pluggable:

* it is built over a device pool and keeps *online state* — per-device
  load counters, per-address rotation counters, an availability mask,
  an optional :class:`~repro.scheduling.cache.LruCacheModel`;
* :meth:`choose` maps one ``(address, placement)`` request to the copy
  position that serves it, never selecting a device marked offline;
* :meth:`choose_many` is the columnar batch form used by the
  million-request benches, element-wise identical to calling
  :meth:`choose` in a loop (the property suite pins this bit-for-bit on
  both the NumPy and pure-Python legs).

All randomness is derived, not sampled: policies draw
``u64_from_base(seed_base, sequence_number)`` per request, so a fixed
seed replays a workload bit-identically — the same discipline as the
placement strategies.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from .._compat import get_numpy
from ..exceptions import DeviceUnavailableError
from ..hashing.primitives import derive_base, int64_column
from ..placement.base import BatchPlacement
from .cache import LruCacheModel


def record_schedule_batch(
    sink: "obs.TraceSink", policy: str, batch_size: int
) -> None:
    """Record one ``choose_many`` invocation on an *enabled* sink.

    Called by :meth:`ReadScheduler.choose_many` only, so the
    ``sched.batch`` event schema is the same whichever engine ran (the
    leg-equivalence tests compare traces byte-wise).
    """
    registry = obs.metrics()
    registry.counter("sched.batches").add(1)
    registry.counter("sched.requests").add(batch_size)
    registry.counter(f"sched.policy.{policy}.requests").add(batch_size)
    registry.histogram("sched.batch_size").observe(batch_size)
    sink.emit("sched.batch", policy=policy, requests=batch_size)


class ReadScheduler(abc.ABC):
    """Selects which of the ``k`` placed copies serves each read."""

    #: Short machine-readable policy name (used in namespacing, the
    #: registry, and obs counter names).
    name: str = "scheduler"

    #: False for offline baselines (water-filling) that need the whole
    #: request stream and therefore only implement :meth:`choose_many`.
    online: bool = True

    def __init__(
        self,
        device_ids: Sequence[str],
        *,
        seed: int = 0,
        cache: Optional[LruCacheModel] = None,
    ) -> None:
        self._seed = seed
        self._cache = cache
        self._ids: List[str] = []
        self._rank: Dict[str, int] = {}
        self._loads: List[float] = []
        self._counts: List[int] = []
        self._available: List[bool] = []
        self._offline_count = 0
        self._sequence = 0
        self._draw_base = derive_base("sched", self.name, "draw", seed)
        for device_id in device_ids:
            self.rank_of(device_id)

    # -- device pool -------------------------------------------------------

    @property
    def device_ids(self) -> List[str]:
        """Known devices, in registration order."""
        return list(self._ids)

    @property
    def seed(self) -> int:
        """Determinism seed all hash draws are keyed on."""
        return self._seed

    @property
    def cache(self) -> Optional[LruCacheModel]:
        """The device cache model consulted for service costs, if any."""
        return self._cache

    def rank_of(self, device_id: str) -> int:
        """Dense integer rank of ``device_id``, registering it if new.

        Dynamic registration keeps schedulers usable on growing clusters:
        a placement naming a device the scheduler has never seen simply
        extends the pool (online, zero load).
        """
        rank = self._rank.get(device_id)
        if rank is None:
            rank = len(self._ids)
            self._rank[device_id] = rank
            self._ids.append(device_id)
            self._loads.append(0.0)
            self._counts.append(0)
            self._available.append(True)
        return rank

    # -- availability ------------------------------------------------------

    def mark_offline(self, device_id: str) -> None:
        """Exclude a device from all future choices (until marked online)."""
        rank = self.rank_of(device_id)
        if self._available[rank]:
            self._available[rank] = False
            self._offline_count += 1

    def mark_online(self, device_id: str) -> None:
        """Return a device to the candidate pool."""
        rank = self.rank_of(device_id)
        if not self._available[rank]:
            self._available[rank] = True
            self._offline_count -= 1

    def is_available(self, device_id: str) -> bool:
        """True when the scheduler may route reads to ``device_id``."""
        return self._available[self.rank_of(device_id)]

    @property
    def offline(self) -> List[str]:
        """Sorted ids of devices currently excluded from choices."""
        return sorted(
            device_id
            for device_id, rank in self._rank.items()
            if not self._available[rank]
        )

    # -- load state --------------------------------------------------------

    def count_of(self, device_id: str) -> int:
        """Requests routed to ``device_id``."""
        return self._counts[self.rank_of(device_id)]

    def loads(self) -> Dict[str, float]:
        """Per-device accumulated service cost."""
        return dict(zip(self._ids, self._loads))

    def counts(self) -> Dict[str, int]:
        """Per-device request totals."""
        return dict(zip(self._ids, self._counts))

    @property
    def requests(self) -> int:
        """Requests scheduled so far (the draw sequence number)."""
        return self._sequence

    def reset(self) -> None:
        """Clear loads, counters, rotation state and the cache model.

        Availability marks are kept — they describe the pool, not the
        run.
        """
        self._loads = [0.0] * len(self._ids)
        self._counts = [0] * len(self._ids)
        self._sequence = 0
        if self._cache is not None:
            self._cache.reset()

    # -- the scheduling contract -------------------------------------------

    def choose(self, address: int, placement: Sequence[str]) -> int:
        """Pick the copy position of ``placement`` that serves this read.

        Args:
            address: The block address being read.
            placement: The ordered device ids of the block's ``k`` copies
                (what ``strategy.place(address)`` returned).

        Returns:
            A 0-based position into ``placement`` whose device is
            available.

        Raises:
            DeviceUnavailableError: when every copy's device is offline.
        """
        address = int(address)  # normalize NumPy scalars for dict keys/hashes
        ranks = [self.rank_of(device_id) for device_id in placement]
        available = [
            position
            for position, rank in enumerate(ranks)
            if self._available[rank]
        ]
        if not available:
            raise DeviceUnavailableError(
                f"block {address}: all {len(placement)} copy devices "
                f"are offline ({list(placement)})"
            )
        position = self._pick(address, ranks, available)
        self._commit(address, ranks[position])
        return position

    def order(self, address: int, placement: Sequence[str]) -> List[int]:
        """Copy positions in preferred read order: the scheduled choice
        first, then the remaining positions ascending.

        The degraded-read path walks this order, falling back past the
        preferred copy when its share turns out to be missing.
        """
        chosen = self.choose(address, placement)
        return [chosen] + [
            position
            for position in range(len(placement))
            if position != chosen
        ]

    @abc.abstractmethod
    def _pick(
        self, address: int, ranks: Sequence[int], available: Sequence[int]
    ) -> int:
        """Policy decision: one of ``available`` (positions into
        ``ranks``/the placement).  Load/count/sequence bookkeeping is
        :meth:`_commit`'s job so batch engines can share it; policies may
        only advance their own per-address state here (e.g. the
        round-robin rotation counter)."""

    def _commit(self, address: int, rank: int) -> None:
        """Account one served request against device ``rank``."""
        if self._cache is None:
            self._loads[rank] += 1.0
        else:
            self._loads[rank] += self._cache.cost(self._ids[rank], address)
        self._counts[rank] += 1
        self._sequence += 1

    # -- batch engine ------------------------------------------------------

    def choose_many(
        self,
        addresses: Sequence[int],
        placements,
    ) -> List[int]:
        """Batch form of :meth:`choose`: one position per request.

        ``placements`` is either a sequence of per-request device-id
        tuples or a columnar :class:`~repro.placement.base.BatchPlacement`
        covering the same requests (what the driver builds by expanding
        a unique-address placement batch).  The result — and every load
        counter, rotation counter and cache transition — is bit-for-bit
        identical to calling :meth:`choose` per request in stream order.
        """
        np = get_numpy()
        if np is None:
            positions = self._choose_many(addresses, placements)
        else:
            positions = self._choose_many_np(np, addresses, placements)
        sink = obs.sink()
        if sink.enabled:
            record_schedule_batch(sink, self.name, len(addresses))
        return positions

    def _choose_many(self, addresses, placements) -> List[int]:
        """Batch engine of the no-NumPy leg: the scalar loop (offline
        baselines override it with their whole-stream algorithm)."""
        return [
            self.choose(address, placement)
            for address, placement in zip(addresses, self._rows(placements))
        ]

    def _choose_many_np(self, np, addresses, placements) -> List[int]:
        """Batch engine of the NumPy leg.  Policies with a columnar
        engine override this (not :meth:`choose_many`, which owns the
        leg decision and the obs record)."""
        return self._choose_many(addresses, placements)

    # -- batch helpers shared by the policy engines ------------------------

    @staticmethod
    def _rows(placements):
        """Per-request id-tuples view of either placement input form."""
        if isinstance(placements, BatchPlacement):
            return placements.tuples()
        return placements

    def _rank_columns(self, np, placements) -> Tuple[list, int]:
        """Columnar scheduler-rank view of either placement input form.

        Returns ``(columns, k)`` where ``columns[c][i]`` is the scheduler
        rank of copy ``c``'s device for request ``i``, as ``int64``
        vectors.
        """
        if isinstance(placements, BatchPlacement):
            lookup = int64_column(
                [self.rank_of(device_id) for device_id in placements.rank_ids]
            )
            columns = [
                lookup[np.asarray(column, dtype=np.int64)]
                for column in placements.columns
            ]
            return columns, placements.copies
        rows = list(placements)
        if not rows:
            return [], 0
        copies = len(rows[0])
        columns = [
            int64_column([self.rank_of(row[position]) for row in rows])
            for position in range(copies)
        ]
        return columns, copies

    def _has_offline(self) -> bool:
        """True when any known device is excluded from choices."""
        return self._offline_count > 0

    def _bulk_commit(self, np, addresses, columns, positions) -> None:
        """Account a whole batch of choices.

        With no cache model the per-device totals update via one
        ``bincount`` (float adds of integer totals — identical to the
        per-request loop); with a cache the per-request loop runs because
        each cost depends on residency order.
        """
        chosen = np.stack(columns)[
            positions, np.arange(len(positions), dtype=np.int64)
        ]
        if self._cache is None:
            totals = np.bincount(chosen, minlength=len(self._ids)).tolist()
            for rank, total in enumerate(totals):
                if total:
                    self._loads[rank] += float(total)
                    self._counts[rank] += total
            self._sequence += len(addresses)
            return
        for address, rank in zip(addresses, chosen):
            self._commit(int(address), int(rank))

    def describe(self) -> str:
        """One-line human-readable description."""
        cache = (
            f", cache={self._cache.capacity}" if self._cache is not None else ""
        )
        return f"{self.name}({len(self._ids)} devices, seed={self._seed}{cache})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"
