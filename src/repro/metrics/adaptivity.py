"""Adaptivity metrics — how much data a reconfiguration moves.

The paper's Figure 3/5 experiments measure, for a configuration change
(one bin added or removed), the fields of :class:`MovementReport`:

* ``used_on_affected`` — copies residing on the affected bin (after an
  insertion, in the new configuration; before a removal, in the old one).
  Every one of them must move under *any* strategy and nothing else has
  to, so it is the optimum the competitive ratio divides by;
* ``moved_positional`` — copies whose device changed between the
  configurations;
* ``factor_positional`` — their ratio, the empirical competitive ratio
  the paper bounds by 4 for LinMirror (Lemma 3.2) and ``k²`` in general
  (Lemma 3.5).

Two notions of "changed" are provided: *positional* (copy ``i`` of a ball
sits on a different device — what an erasure-coded system must physically
move, and the paper's accounting) and *set-based* (the device no longer
holds any copy of the ball — the cheapest possible migration for plain
mirroring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .._compat import get_numpy
from ..placement.base import BatchPlacement, ReplicationStrategy


@dataclass(frozen=True)
class MovementReport:
    """Outcome of comparing two configurations over a ball population.

    Attributes:
        balls: Number of balls compared.
        copies: Replication degree.
        moved_positional: Copies whose (position, device) assignment changed.
        moved_set: Copies that changed device ignoring positions (optimal
            relabeling within each ball).
        used_on_affected: Copies on the affected bin (see module docstring).
        affected_bins: The bin ids whose addition/removal was measured.
    """

    balls: int
    copies: int
    moved_positional: int
    moved_set: int
    used_on_affected: int
    affected_bins: Sequence[str]

    @property
    def factor_positional(self) -> float:
        """``replaced / used`` with positional accounting (paper's figure)."""
        if self.used_on_affected == 0:
            return 0.0
        return self.moved_positional / self.used_on_affected

    @property
    def factor_set(self) -> float:
        """``replaced / used`` with set-based accounting."""
        if self.used_on_affected == 0:
            return 0.0
        return self.moved_set / self.used_on_affected


def compare_strategies(
    before: ReplicationStrategy,
    after: ReplicationStrategy,
    addresses: Iterable[int],
    affected_bins: Sequence[str] = (),
) -> MovementReport:
    """Measure movement between two configuration snapshots.

    Args:
        before: Strategy over the old configuration.
        after: Strategy over the new configuration.
        addresses: Ball population to compare (an iterable of addresses).
        affected_bins: Bins that were added (count usage in ``after``) or
            removed (absent from ``after`` — usage counted in ``before``).
    """
    if before.copies != after.copies:
        raise ValueError("strategies must share the replication degree")
    after_ids = {spec.bin_id for spec in after.bins}
    added = [bin_id for bin_id in affected_bins if bin_id in after_ids]
    removed = [bin_id for bin_id in affected_bins if bin_id not in after_ids]

    population = list(addresses)
    old_batch = before.place_many(population)
    new_batch = after.place_many(population)
    np = get_numpy()
    if np is not None and population:
        moved_positional, moved_set = _count_moves_np(
            np, old_batch, new_batch
        )
    else:
        moved_positional = 0
        moved_set = 0
        for old, new in zip(old_batch.tuples(), new_batch.tuples()):
            moved_positional += sum(
                1 for source, target in zip(old, new) if source != target
            )
            moved_set += len(set(old) - set(new))
    old_counts = old_batch.counts()
    new_counts = new_batch.counts()
    used = sum(new_counts.get(bin_id, 0) for bin_id in added)
    used += sum(old_counts.get(bin_id, 0) for bin_id in removed)
    return MovementReport(
        balls=len(population),
        copies=before.copies,
        moved_positional=moved_positional,
        moved_set=moved_set,
        used_on_affected=used,
        affected_bins=tuple(affected_bins),
    )


def _count_moves_np(np, old_batch: BatchPlacement, new_batch: BatchPlacement):
    """Movement counters over two rank-column batches, in array land.

    The columns of the two batches index *different* rank tables, so both
    are first translated into a shared global id space; ``moved_set``
    assumes the redundancy invariant (distinct bins per ball), which every
    :class:`ReplicationStrategy` guarantees.
    """
    union: Dict[str, int] = {}
    for bin_id in old_batch.rank_ids + new_batch.rank_ids:
        if bin_id not in union:
            union[bin_id] = len(union)
    old_table = np.asarray(
        [union[bin_id] for bin_id in old_batch.rank_ids], dtype=np.int64
    )
    new_table = np.asarray(
        [union[bin_id] for bin_id in new_batch.rank_ids], dtype=np.int64
    )
    old_global = [
        old_table[np.asarray(column, dtype=np.int64)]
        for column in old_batch.columns
    ]
    new_global = [
        new_table[np.asarray(column, dtype=np.int64)]
        for column in new_batch.columns
    ]
    moved_positional = sum(
        int((old != new).sum()) for old, new in zip(old_global, new_global)
    )
    moved_set = 0
    for old in old_global:
        absent = np.ones(old.shape[0], dtype=bool)
        for new in new_global:
            absent &= old != new
        moved_set += int(absent.sum())
    return moved_positional, moved_set


def compare_scale_out(
    name: str,
    before_bins: Sequence,
    after_bins: Sequence,
    addresses: Iterable[int],
    *,
    copies: int = 2,
    before_options: Optional[Dict] = None,
    after_options: Optional[Dict] = None,
    **options,
) -> MovementReport:
    """Movement a registered strategy incurs growing one fleet into another.

    Builds the before/after snapshots through the placement registry's
    canonical :func:`~repro.placement.registry.create` — same name, same
    ``copies``, same per-strategy ``options`` on both sides — so option-
    carrying strategies are compared exactly as a deployment would
    reconfigure them.  Options whose value depends on the fleet size
    (positional ``service_rates``, ``generations``) can be overridden
    per side via ``before_options`` / ``after_options``, which are
    merged over ``options``.  The affected bins are inferred as the ids
    present only in ``after_bins``.

    This is the primitive behind the trade-off bench's movement column
    and its zero-movement gate.
    """
    from ..placement.registry import create

    before_ids = {spec.bin_id for spec in before_bins}
    added = [
        spec.bin_id
        for spec in after_bins
        if spec.bin_id not in before_ids
    ]
    before = create(
        name,
        before_bins,
        copies=copies,
        **{**options, **(before_options or {})},
    )
    after = create(
        name,
        after_bins,
        copies=copies,
        **{**options, **(after_options or {})},
    )
    return compare_strategies(before, after, addresses, added)
