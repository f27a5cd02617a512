"""Balanced rendezvous replication — the paper's open problem, explored.

The conclusion of the paper asks: *"We also believe that it should be
possible to construct placement strategies that are O(k)-competitive for
arbitrary insertions and removals of storage devices.  Is this true?"*

This module implements the natural candidate.  Taking the top-``k``
rendezvous winners is k-competitive *by construction* for set-movement:
adding a device moves exactly the balls it wins into the top-k (one copy
each), removing one moves exactly its own copies — scores of other devices
never change.  The catch is fairness: with capacity-proportional weights,
top-k inclusion probabilities are **not** capacity-proportional — that is
precisely the paper's Lemma 2.4 (top-k of a fair single-draw scheme is a
*trivial* strategy).  Two measures repair it:

* **Pinning** — bins whose clipped fair demand is ``t_i = 1`` must appear
  in *every* placement (no finite weight achieves that), so they are
  selected unconditionally and only the remaining copies race.
* **Calibration** — the remaining weights are fitted by iterative
  proportional scaling (``w_i <- w_i * (target_i / observed_i)^rate``)
  against Monte-Carlo estimates of the top-k' inclusion probabilities, a
  standard fixed point for inclusion-probability-proportional-to-size
  sampling.

The result is *approximately* fair (the bench measures the residual) and
aggressively adaptive — evidence for the paper's conjecture, with the
fairness/adaptivity tension made explicit.  Position identification is
weaker than Redundant Share's: positions follow the score order, so an
insertion can permute positions even when the copy *set* barely changes
(positional movement is the price; the bench reports both).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .._compat import get_numpy
from ..capacity.clipping import clip_capacities
from ..hashing.primitives import derive_base, unit_from_base_open
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..types import BinSpec, Placement, sort_bins_by_capacity

#: Fair demands within this distance of 1 are treated as saturated.
_PIN_EPS = 1e-9


class BalancedRendezvous(ReplicationStrategy):
    """Top-k rendezvous with pinned saturated bins and calibrated weights."""

    name = "balanced-rendezvous"
    kernel = "hrw-topk"
    _has_engine = True

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
        calibration_samples: int = 20_000,
        calibration_iterations: int = 12,
        calibration_rate: float = 0.8,
    ) -> None:
        """Build and calibrate the strategy.

        Args:
            bins: The participating storage devices.
            copies: Replication degree ``k``.
            namespace: Hash salt prefix.
            calibration_samples: Monte-Carlo sample size per calibration
                iteration (0 disables calibration — raw capacity weights,
                i.e. the paper's trivial strategy, for ablation).
            calibration_iterations: Fixed-point iterations.
            calibration_rate: Step exponent in (0, 1]; smaller is more
                stable, larger converges faster.
        """
        super().__init__(bins, copies, namespace)
        if not 0.0 < calibration_rate <= 1.0:
            raise ValueError("calibration_rate must be in (0, 1]")
        if calibration_samples < 0 or calibration_iterations < 0:
            raise ValueError(
                "calibration_samples and calibration_iterations must be >= 0"
            )
        ordered = sort_bins_by_capacity(self._bins)
        clipped = clip_capacities(
            [float(spec.capacity) for spec in ordered], copies
        )
        total = sum(clipped)
        targets = {
            spec.bin_id: copies * capacity / total
            for spec, capacity in zip(ordered, clipped)
        }
        self._pinned: List[str] = [
            spec.bin_id
            for spec, capacity in zip(ordered, clipped)
            if copies * capacity / total >= 1.0 - _PIN_EPS
        ]
        self._race_targets: Dict[str, float] = {
            bin_id: target
            for bin_id, target in targets.items()
            if bin_id not in self._pinned
        }
        self._race_copies = copies - len(self._pinned)
        self._bases: Dict[str, int] = {
            bin_id: derive_base(self._namespace, "race", bin_id)
            for bin_id in self._race_targets
        }
        self._weights: Dict[str, float] = {
            bin_id: max(target, 1e-12)
            for bin_id, target in self._race_targets.items()
        }
        if self._race_copies > 0 and calibration_samples > 0:
            self._calibrate(
                calibration_samples, calibration_iterations, calibration_rate
            )
        self._vector: Optional[tuple] = None

    @property
    def pinned_bins(self) -> List[str]:
        """Bins included in every placement (saturated fair demand)."""
        return list(self._pinned)

    @property
    def weights(self) -> Dict[str, float]:
        """The calibrated race weights (diagnostic)."""
        return dict(self._weights)

    def _race(self, address: int) -> List[str]:
        """Race-bin ids ordered by descending rendezvous score."""
        scored = []
        for bin_id, weight in self._weights.items():
            uniform = unit_from_base_open(self._bases[bin_id], address)
            scored.append((-weight / math.log(uniform), bin_id))
        scored.sort(reverse=True)
        return [bin_id for _, bin_id in scored]

    def _calibrate(self, samples: int, iterations: int, rate: float) -> None:
        """Iterative proportional fitting of the race weights."""
        np = get_numpy()
        log_draws = None if np is None else self._sample_log_draws(np, samples)
        for _ in range(iterations):
            if log_draws is None:
                counts = self._scalar_win_counts(samples)
            else:
                counts = self._batch_win_counts(np, log_draws)
            drift = 0.0
            for bin_id, target in self._race_targets.items():
                observed = max(counts[bin_id] / samples, 1e-6)
                ratio = target / observed
                drift = max(drift, abs(ratio - 1.0))
                self._weights[bin_id] *= ratio ** rate
            if drift < 0.01:
                break

    def _scalar_win_counts(self, samples: int) -> Dict[str, int]:
        """Top-``race_copies`` inclusion counts over the calibration
        sample under the current weights — the reference
        :meth:`_batch_win_counts` is pinned to."""
        counts = {bin_id: 0 for bin_id in self._weights}
        # Negative keys keep the calibration sample space disjoint from
        # real ball addresses.
        for sample in range(samples):
            for bin_id in self._race(~sample)[: self._race_copies]:
                counts[bin_id] += 1
        return counts

    def _sample_log_draws(self, np, samples: int) -> list:
        """``(start, ln(u))`` per block of the calibration sample: rows
        are the race bins, columns samples ``start, start + 1, ...``.

        The draws do not depend on the weights, so every iteration of
        the fixed point reuses these matrices (~2.5 MB at the default
        20 000 samples over 16 bins).
        """
        bases = np.asarray(list(self._bases.values()), dtype=np.uint64)
        log_draws = []
        for start, stop in kernels.blocks(samples, bases.size):
            draws = kernels.open_draw_matrix(
                bases, kernels.premix(~np.arange(start, stop, dtype=np.uint64))
            )
            log_draws.append((start, np.log(draws, out=draws)))
        return log_draws

    def _batch_win_counts(self, np, log_draws) -> Dict[str, int]:
        """:meth:`_scalar_win_counts` over the shared kernels: one
        division, one guarded top-k and one ``bincount`` per block.

        Samples decided within
        :data:`~repro.placement.kernels.TIE_GUARD` are counted through
        the scalar :meth:`_race`, so the counts — and with them the
        calibrated weights — equal the scalar ones exactly.
        """
        # The scalar expression: unary minus on the weight, one division.
        negated = -np.asarray(list(self._weights.values()), dtype=np.float64)
        column = {bin_id: index for index, bin_id in enumerate(self._weights)}
        totals = np.zeros(len(negated), dtype=np.int64)
        work = kernels.Workspace(len(negated), log_draws[0][1].shape[1])
        for start, logs in log_draws:
            scores = np.divide(
                negated[:, None], logs, out=work.matrix("scores", *logs.shape)
            )
            winners, unsafe = kernels.topk_with_guard(
                scores, self._race_copies, work
            )
            safe = ~unsafe
            for draw_winners in winners:
                totals += np.bincount(
                    draw_winners[safe], minlength=len(negated)
                )
            for sample in (start + np.flatnonzero(unsafe)).tolist():
                for bin_id in self._race(~sample)[: self._race_copies]:
                    totals[column[bin_id]] += 1
        return dict(zip(self._weights, totals.tolist()))

    def place(self, address: int) -> Placement:
        """Pinned bins first (capacity order), then the top race winners."""
        placement = list(self._pinned)
        if self._race_copies > 0:
            placement.extend(self._race(address)[: self._race_copies])
        return tuple(placement)

    # ------------------------------------------------------------------
    # Batch placement
    # ------------------------------------------------------------------

    def _ensure_vector_state(self, np) -> tuple:
        """``(pinned_ranks, bases, weights, race_ranks)`` for the batch
        engine: the pinned rank prefix plus the salt-base / calibrated
        weight / rank vectors it races over.  Built on the first batch
        call and kept on the instance."""
        if self._vector is None:
            race_ids = list(self._weights)
            self._vector = (
                [self._rank_index[bin_id] for bin_id in self._pinned],
                np.asarray(
                    [self._bases[bin_id] for bin_id in race_ids],
                    dtype=np.uint64,
                ),
                np.asarray(
                    [self._weights[bin_id] for bin_id in race_ids],
                    dtype=np.float64,
                ),
                np.asarray(
                    [self._rank_index[bin_id] for bin_id in race_ids],
                    dtype=np.int64,
                ),
            )
        return self._vector

    def _fill_ranks(self, np, keys, columns):
        """Vectorized top-k race: one blocked score matrix per batch.

        The pinned prefix is constant by construction; the remaining
        copies fall out of ``race_copies`` guarded without-replacement
        argmax passes over a single ``-w / ln(u)`` score matrix — exactly
        the expression the scalar :meth:`_race` sorts by.  Rows where any
        draw was decided inside :data:`~repro.placement.kernels.TIE_GUARD`
        (which includes every exact score tie, where the scalar sort
        breaks ties by bin id instead of column order) are returned for
        the driver to settle through :meth:`place`.
        """
        pinned_ranks, bases, weights, race_ranks = self._ensure_vector_state(np)
        for position, rank in enumerate(pinned_ranks):
            columns[position, :] = rank
        offset = len(pinned_ranks)
        refused: List[int] = []
        if self._race_copies > 0:
            work = kernels.Workspace(bases.size, keys.shape[0])
            for start, stop in kernels.blocks(keys.shape[0], bases.size):
                mixed = kernels.premix(keys[start:stop])
                uniforms = kernels.open_draw_matrix(bases, mixed, work)
                scores = kernels.hrw_score_matrix(weights, uniforms)
                winners, unsafe = kernels.topk_with_guard(
                    scores, self._race_copies, work
                )
                for draw, draw_winners in enumerate(winners):
                    columns[offset + draw, start:stop] = race_ranks[draw_winners]
                refused.extend(start + np.flatnonzero(unsafe))
        return refused

    def expected_shares(self) -> Dict[str, float]:
        """Fair targets (the calibration objective; residual error is
        measured empirically by the benches)."""
        total = float(self._copies)
        shares = {bin_id: 1.0 / total for bin_id in self._pinned}
        shares.update(
            {
                bin_id: target / total
                for bin_id, target in self._race_targets.items()
            }
        )
        return shares
