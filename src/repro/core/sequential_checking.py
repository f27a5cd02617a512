"""Sequential Checking: reallocation-free placement over device epochs.

Ishikawa's Sequential Checking (arXiv 1707.00904; see PAPERS.md) targets
archival systems — tape and optical libraries — where moving data after
a scale-out is prohibitively expensive: the method places data so that
*adding devices moves nothing*.  The key idea is to treat the device
list as an **addition history** and never revisit decisions made when
the fleet was smaller.

This reproduction realises that idea inside the repo's immutable
snapshot model (a strategy is a pure function of its configuration):

* The bin list order is the device-addition order, optionally grouped
  into ``generations`` (devices installed together).
* Each usable prefix of ``p`` devices has a **capacity watermark**
  ``N_p`` — the Lemma 2.2 :func:`~repro.capacity.clipping.max_balls` of
  the first ``p`` devices — and owns the address *epoch*
  ``[N_{p'}, N_p)`` (``p'`` the previous prefix).  An address is placed
  by the first fleet prefix big enough to store it.
* Within its epoch an address draws ``k`` masked weighted-rendezvous
  winners over *only the first p devices*, weighted by each device's
  **residual fair target**: the copies it should hold at watermark
  ``N_p`` minus what earlier epochs already routed to it.  New devices
  therefore absorb new data first, exactly the sequential-checking
  behaviour, while old epochs stay frozen.

Appending devices appends epochs and touches nothing earlier, so for
every address below the old capacity limit the placement is **bit-for-
bit unchanged** — the zero-movement guarantee is exact, not
probabilistic, and is asserted by the trade-off bench's gate.

Addresses at or beyond the capacity limit are either folded back into
the stored address space (``overflow="wrap"``, the default — epoch
selection uses ``address mod N``, hash draws still use the full
address) or rejected (``overflow="error"``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..capacity.clipping import max_balls
from ..exceptions import CapacityExceededError, ConfigurationError
from ..hashing.primitives import derive_base, unit_from_base_open
from ..metrics.stats import fair_copy_shares
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..placement.rendezvous import rendezvous_score
from ..placement.trivial import race_shares
from ..types import Placement

_MASK64 = (1 << 64) - 1

#: Relative floor applied to residual weights so devices whose fair
#: target is already met keep a vanishing (but non-zero, tie-free)
#: chance — zero weights would score every address identically and
#: trip the kernel tie guard on the whole batch.
_RESIDUAL_FLOOR = 1e-9


@dataclass(frozen=True)
class Epoch:
    """One frozen placement era: addresses ``[start, stop)`` over the
    first ``prefix`` devices with residual-target ``weights``."""

    prefix: int
    start: int
    stop: int
    weights: Tuple[float, ...]
    #: Per-draw ``(bin_id, weight, salt_base)`` rows, mirroring the
    #: proven trivial-replication masked-hrw layout.
    draw_entries: Tuple[Tuple[Tuple[str, float, int], ...], ...]


class SequentialChecking(ReplicationStrategy):
    """Zero-reallocation replication over capacity-watermark epochs."""

    name = "sequential-checking"
    kernel = "masked-hrw"
    _has_engine = True

    def __init__(
        self,
        bins,
        copies: int = 2,
        namespace: str = "",
        generations: Optional[Sequence[int]] = None,
        overflow: str = "wrap",
    ):
        """Freeze the epoch table for this addition history.

        Args:
            bins: Devices in **addition order** (not capacity order).
            copies: Replication degree ``k``.
            namespace: Salt prefix (defaults to the strategy name).
            generations: Sizes of device groups added together, in
                order; must sum to ``len(bins)``.  ``None`` treats every
                device as its own generation.
            overflow: ``"wrap"`` folds addresses beyond the capacity
                limit back into the stored space; ``"error"`` raises
                :class:`~repro.exceptions.CapacityExceededError`.
        """
        super().__init__(bins, copies, namespace)
        if overflow not in ("wrap", "error"):
            raise ConfigurationError(
                f"overflow must be 'wrap' or 'error', got {overflow!r}"
            )
        self._overflow = overflow
        self._generation_sizes = self._resolve_generations(generations)
        self._epochs: List[Epoch] = []
        self._build_epochs()
        if not self._epochs:
            raise ConfigurationError(
                "capacities too small to store a single ball at "
                f"k={self._copies}"
            )
        self._boundaries = [epoch.stop for epoch in self._epochs]
        self._capacity_limit = self._boundaries[-1]

    def _resolve_generations(
        self, generations: Optional[Sequence[int]]
    ) -> Tuple[int, ...]:
        count = len(self._bins)
        if generations is None:
            return (1,) * count
        sizes = tuple(int(size) for size in generations)
        if not sizes or any(size < 1 for size in sizes):
            raise ConfigurationError(
                f"generation sizes must be positive, got {sizes}"
            )
        if sum(sizes) != count:
            raise ConfigurationError(
                f"generations {sizes} sum to {sum(sizes)}, "
                f"but there are {count} devices"
            )
        return sizes

    def _build_epochs(self) -> None:
        """Walk the addition history, freezing one epoch per watermark.

        The recursion is what makes scale-out free: each epoch's
        weights depend only on the capacities of its prefix and on the
        expected copies already routed by *earlier* epochs, so appending
        a generation recomputes nothing — it only appends.
        """
        assigned: Dict[str, float] = {}
        previous_balls = 0
        prefix = 0
        for size in self._generation_sizes:
            prefix += size
            if prefix < self._copies:
                continue  # fleet not yet big enough for k distinct copies
            capacities = {
                spec.bin_id: float(spec.capacity)
                for spec in self._bins[:prefix]
            }
            descending = sorted(capacities.values(), reverse=True)
            balls = max_balls(descending, self._copies)
            if balls <= previous_balls:
                continue  # watermark did not rise: empty epoch
            shares = fair_copy_shares(capacities, self._copies)
            target_total = balls * self._copies
            residuals = {
                bin_id: max(
                    0.0,
                    target_total * shares[bin_id] - assigned.get(bin_id, 0.0),
                )
                for bin_id in capacities
            }
            demand = float((balls - previous_balls) * self._copies)
            residual_total = sum(residuals.values())
            if residual_total > 0:
                scale = demand / residual_total
                for bin_id, residual in residuals.items():
                    assigned[bin_id] = (
                        assigned.get(bin_id, 0.0) + residual * scale
                    )
            floor = _RESIDUAL_FLOOR * max(
                max(residuals.values(), default=0.0), 1.0
            )
            weights = tuple(
                max(residuals[spec.bin_id], floor)
                for spec in self._bins[:prefix]
            )
            draw_entries = tuple(
                tuple(
                    (
                        spec.bin_id,
                        weights[rank],
                        derive_base(
                            self._namespace,
                            "epoch",
                            prefix,
                            "draw",
                            draw,
                            spec.bin_id,
                        ),
                    )
                    for rank, spec in enumerate(self._bins[:prefix])
                )
                for draw in range(self._copies)
            )
            self._epochs.append(
                Epoch(prefix, previous_balls, balls, weights, draw_entries)
            )
            previous_balls = balls

    @property
    def capacity_limit(self) -> int:
        """Most balls the fleet can store at ``k`` copies (Lemma 2.2)."""
        return self._capacity_limit

    @property
    def epochs(self) -> List[Epoch]:
        """The frozen epoch table (for introspection and tests)."""
        return list(self._epochs)

    def expected_shares(self) -> Dict[str, float]:
        """Exact shares for addresses uniform on ``[0, capacity_limit)``:
        the epochs' :func:`~repro.placement.trivial.race_shares` (k masked
        draws over the prefix), mixed by the fraction of addresses each
        epoch owns."""
        shares = dict.fromkeys(self._rank_ids, 0.0)
        for epoch in self._epochs:
            owned = (epoch.stop - epoch.start) / self._capacity_limit
            ids, k = self._rank_ids[: epoch.prefix], self._copies
            for bin_id, share in race_shares(ids, epoch.weights, k).items():
                shares[bin_id] += owned * share
        return shares

    def _epoch_for(self, address: int) -> Epoch:
        value = address & _MASK64
        if value >= self._capacity_limit:
            if self._overflow == "error":
                raise CapacityExceededError(
                    f"address {address} beyond capacity limit "
                    f"{self._capacity_limit}"
                )
            value %= self._capacity_limit
        return self._epochs[bisect_right(self._boundaries, value)]

    def place(self, address: int) -> Placement:
        epoch = self._epoch_for(address)
        chosen: List[str] = []
        taken = set()
        for draw in range(self._copies):
            best_id = None
            best_score = -math.inf
            for bin_id, weight, base in epoch.draw_entries[draw]:
                if bin_id in taken:
                    continue
                uniform = unit_from_base_open(base, address)
                score = rendezvous_score(weight, uniform)
                if score > best_score:
                    best_score = score
                    best_id = bin_id
            assert best_id is not None
            chosen.append(best_id)
            taken.add(best_id)
        return tuple(chosen)

    def _fill_ranks(self, np, keys, columns):
        """Vectorized epoch placement: group by epoch, race per group.

        Addresses are bucketed by epoch with one ``searchsorted`` over
        the watermark boundaries; each bucket then runs the masked-hrw
        race of the trivial engine, restricted to the epoch's device
        prefix and residual weights.  Winner ranks within a prefix are
        global ranks (prefixes are list-order), so columns assemble
        directly.  Rows decided within
        :data:`~repro.placement.kernels.TIE_GUARD` are returned for the
        driver to settle through :meth:`place`.
        """
        limit = np.uint64(self._capacity_limit)
        if self._overflow == "error":
            over = keys >= limit
            if over.any():
                index = int(np.flatnonzero(over)[0])
                raise CapacityExceededError(
                    f"address {int(keys[index])} beyond capacity limit "
                    f"{self._capacity_limit}"
                )
            folded = keys
        else:
            folded = keys % limit
        stops = np.asarray(self._boundaries, dtype=np.uint64)
        epoch_of = np.searchsorted(stops, folded, side="right")
        refused: List[int] = []
        work = kernels.Workspace(len(self._bins), keys.shape[0])
        for epoch_index, epoch in enumerate(self._epochs):
            selected = np.flatnonzero(epoch_of == epoch_index)
            if selected.size == 0:
                continue
            draw_bases = [
                np.asarray([base for _, _, base in entries], dtype=np.uint64)
                for entries in epoch.draw_entries
            ]
            sub_keys = keys[selected]
            for start, stop in kernels.blocks(selected.size, epoch.prefix):
                target = selected[start:stop]
                columns[:, target], unsafe = kernels.masked_hrw_race(
                    epoch.weights, draw_bases,
                    kernels.premix(sub_keys[start:stop]), work,
                )
                refused.extend(target[np.flatnonzero(unsafe)])
        return refused
