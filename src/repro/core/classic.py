"""Literal Algorithm 2 (LinMirror) with an explicit ``placeonecopy``.

:class:`~repro.core.redundant_share.RedundantShare` realises the paper's
strategy through one exact hazard table.  This module keeps the *literal*
formulation of Section 3.1 alongside it, for fidelity and for the b̃
ablation:

* the primary copy is chosen by the while loop over ``č_i = 2 b_i / B_i``;
* the secondary copy is delegated to a fair single-copy strategy
  (``placeonecopy``, :class:`~repro.placement.rendezvous.WeightedRendezvous`)
  over the remaining bins with natural capacity weights;
* at the inhomogeneity boundary — the first bin ``T`` with ``č_T >= 1`` —
  the weight bin ``T`` gets inside the distribution used for primaries on
  bin ``T - 1`` is boosted to ``b̃`` (equations 2–5 of the paper) so that
  bin ``T``'s total inflow meets its fair demand exactly.

Both classes are perfectly fair with identical marginals; they differ in
the joint distribution (which bin pairs co-occur) and in how much data
moves under reconfiguration.

``place_many`` has a batch engine (:meth:`ClassicLinMirror._fill_ranks`,
assembled from :mod:`repro.placement.kernels`);
:meth:`ClassicLinMirror.place` is its oracle and what runs without NumPy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..capacity.clipping import clip_capacities
from ..capacity.weights import (
    first_saturated_index,
    reach_probabilities,
    round_probabilities,
    suffix_sums,
)
from ..exceptions import PlacementError
from ..hashing.primitives import derive_base, unit_from_base
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..placement.rendezvous import WeightedRendezvous
from ..types import BinSpec, Placement, sort_bins_by_capacity


def boundary_boost(capacities: Sequence[float]) -> Optional[float]:
    """Compute the paper's ``b̃`` for a clipped, descending capacity vector.

    Returns the boosted weight for bin ``T`` inside the secondary
    distribution used when the primary lands on bin ``T - 1``, or None when
    no boost is needed (``T == 0``, or the natural weights are already
    exact because ``č`` is exactly 1 at the boundary).

    Raises:
        PlacementError: if the required boost is negative or would need to
            exceed "all secondaries of bin T-1 go to bin T" — both
            impossible for correctly clipped inputs.
    """
    k = 2
    sums = suffix_sums(capacities)
    total = sums[0]
    rounds = round_probabilities(capacities, k)
    saturated = first_saturated_index(rounds)
    if saturated == 0:
        return None
    reach = reach_probabilities(rounds)
    primaries = [
        min(prob, 1.0) * reach[index] for index, prob in enumerate(rounds)
    ]

    target = k * capacities[saturated] / total
    # Natural inflow from primaries strictly before T-1.
    natural_inflow = sum(
        primaries[index] * capacities[saturated] / sums[index + 1]
        for index in range(saturated - 1)
    )
    source = primaries[saturated - 1]
    needed = target - reach[saturated] - natural_inflow
    if needed < -1e-9:
        raise PlacementError("boundary bin is over-supplied; clipping broken")
    if source <= 0.0:
        raise PlacementError("no primary mass at the boundary predecessor")
    share = needed / source
    if share >= 1.0 - 1e-12:
        # All secondaries of T-1 must go to T: signalled by an "infinite"
        # boost; the caller treats it as a deterministic choice.
        return float("inf")
    if share <= 0.0:
        return None
    tail = sums[saturated + 1]
    return share * tail / (1.0 - share)


class ClassicLinMirror(ReplicationStrategy):
    """The verbatim Algorithm 2, rendezvous as ``placeonecopy``."""

    name = "classic-lin-mirror"
    kernel = "scan-hrw"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        namespace: str = "",
        apply_boost: bool = True,
    ) -> None:
        """Build the strategy.

        Args:
            bins: The participating storage devices.
            namespace: Hash salt prefix.
            apply_boost: Apply the ``b̃`` boundary adjustment (default).
                Disabling it reproduces the small unfairness the paper
                describes in Section 3.1 — used by the ablation bench.
        """
        super().__init__(bins, copies=2, namespace=namespace)
        self._ordered = sort_bins_by_capacity(self._bins)
        raw = [float(spec.capacity) for spec in self._ordered]
        self._capacities = clip_capacities(raw, 2)
        self._scan_ids = [spec.bin_id for spec in self._ordered]
        self._rounds = [
            min(1.0, value)
            for value in round_probabilities(self._capacities, 2)
        ]
        self._saturated = first_saturated_index(self._rounds)
        self._boost = boundary_boost(self._capacities) if apply_boost else None
        self._placers: Dict[int, Optional[WeightedRendezvous]] = {}
        # Per primary rank, the secondary race as vectors (batch engine).
        self._race_vectors: Dict[int, tuple] = {}
        self._primary_bases = [
            derive_base(self._namespace, "primary", bin_id)
            for bin_id in self._scan_ids
        ]

    @property
    def boundary_index(self) -> int:
        """Rank ``T`` of the deterministic primary stop."""
        return self._saturated

    @property
    def boost(self) -> Optional[float]:
        """The ``b̃`` weight in effect (None when no boost applies)."""
        return self._boost

    def _secondary_placer(
        self, primary_rank: int
    ) -> Optional[WeightedRendezvous]:
        """placeonecopy instance for primaries at ``primary_rank`` (cached).

        Returns None when the secondary is forced (one remaining bin or an
        infinite boost).
        """
        if primary_rank in self._placers:
            return self._placers[primary_rank]
        ids = self._scan_ids[primary_rank + 1 :]
        weights = list(self._capacities[primary_rank + 1 :])
        boosted = (
            self._boost is not None and primary_rank == self._saturated - 1
        )
        placer: Optional[WeightedRendezvous] = None
        # An infinite boost puts every secondary deterministically at rank T.
        if len(ids) > 1 and not (boosted and self._boost == float("inf")):
            if boosted:
                weights[0] = self._boost  # rank T is first in the tail
            placer = WeightedRendezvous(
                ids, weights, f"{self._namespace}/sec/{primary_rank}"
            )
        self._placers[primary_rank] = placer
        return placer

    def place(self, address: int) -> Placement:
        """Primary via the while loop, secondary via placeonecopy."""
        primary_rank = self._saturated
        for rank in range(self._saturated):
            draw = unit_from_base(self._primary_bases[rank], address)
            if draw < self._rounds[rank]:
                primary_rank = rank
                break
        placer = self._secondary_placer(primary_rank)
        if placer is None:
            secondary = self._scan_ids[primary_rank + 1]
        else:
            secondary = placer.place(address)
        return (self._scan_ids[primary_rank], secondary)

    def _secondary_race(self, np, primary_rank: int) -> tuple:
        """``(ranks, weights, bases)`` vectors of the secondary race for
        primaries at ``primary_rank`` (cached); a single rank and no
        weights when the secondary is forced."""
        race = self._race_vectors.get(primary_rank)
        if race is None:
            placer = self._secondary_placer(primary_rank)
            if placer is None:
                ids = [self._scan_ids[primary_rank + 1]]
                weights = bases = ()
            else:
                ids, weights, bases = placer.race_columns()
            race = self._race_vectors[primary_rank] = (
                np.asarray([self._rank_index[bin_id] for bin_id in ids]),
                np.asarray(weights, dtype=np.float64),
                np.asarray(bases, dtype=np.uint64),
            )
        return race

    def _fill_ranks(self, np, keys, columns):
        """Vectorized Algorithm 2: a rank-major primary scan, then one
        rendezvous race per primary rank.

        The addresses are premixed once.  The while loop of :meth:`place`
        becomes one hash word per rank over the addresses still looking
        for a primary, compared with the word threshold of the rank's
        round probability; those it selects are exactly the group whose
        secondary comes from that rank's ``placeonecopy`` tail, so each
        group is settled by guarded argmaxes, one per cell block, over the
        ``-w / ln(u)`` scores the scalar :class:`WeightedRendezvous`
        compares (a forced secondary is a constant).  Rows decided within
        :data:`~repro.placement.kernels.TIE_GUARD` are returned for the
        driver to settle through :meth:`place`.
        """
        primary_ranks = [self._rank_index[bin_id] for bin_id in self._scan_ids]
        # zip stops at the boundary: ranks past it never draw a primary,
        # and every round before it is in (0, 1).
        thresholds = kernels.word_thresholds(self._rounds[: self._saturated])
        mixed = kernels.premix(keys)
        live = np.arange(keys.shape[0])
        groups = []
        for base, threshold in zip(self._primary_bases, thresholds):
            taken = kernels.words_from_premixed(base, mixed) < threshold
            groups.append((live[taken], mixed[taken]))
            passed = ~taken
            live, mixed = live[passed], mixed[passed]
        groups.append((live, mixed))
        refused: List[int] = []
        work = kernels.Workspace(len(self._scan_ids), keys.shape[0])
        for rank, (rows, group) in enumerate(groups):
            if rows.size == 0:
                continue
            columns[0, rows] = primary_ranks[rank]
            ranks, weights, bases = self._secondary_race(np, rank)
            if ranks.size == 1:
                columns[1, rows] = ranks[0]
                continue
            for start, stop in kernels.blocks(rows.size, ranks.size):
                winners, unsafe = kernels.argmax_with_guard(
                    kernels.hrw_score_matrix(
                        weights,
                        kernels.open_draw_matrix(
                            bases, group[start:stop], work
                        ),
                    ),
                    work,
                )
                columns[1, rows[start:stop]] = ranks[winners]
                refused.extend(rows[start:stop][unsafe])
        return refused

    def expected_shares(self) -> Dict[str, float]:
        """Fair target shares (b̂-proportional), exact."""
        total = sum(self._capacities)
        return {
            bin_id: capacity / total
            for bin_id, capacity in zip(self._scan_ids, self._capacities)
        }
