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
  selected unconditionally and only the remaining ``k'`` copies race.
* **Calibration** — a score ``-w_i / ln(u_i)`` is the inverse of an
  exponential clock ``T_i ~ Exp(w_i)``, so the top ``k'`` are the first
  ``k'`` clocks to fire, and bin ``i`` is among them with probability
  ``pi_i = ∫ w_i e^(-w_i t) P(#{j != i : T_j < t} <= k' - 1) dt``.
  :func:`~repro.placement.trivial.race_inclusion` computes it in plain
  floats (the top ``k'`` of the race are Definition 2.3's ``k'``
  successive draws), and :func:`fit_weights` solves ``pi = t`` for the
  weights.

The result is fair to the fit's residual (``expected_shares`` is the
exact ``pi``) and aggressively adaptive — evidence for the conjecture.
Positions follow the score order, so an insertion can permute them even
when the copy *set* barely changes (the bench reports both movements).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..capacity.clipping import clip_capacities
from ..hashing.primitives import derive_base, unit_from_base_open
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..placement.trivial import race_inclusion, race_shares
from ..types import BinSpec, Placement, sort_bins_by_capacity

#: Fair demands within this distance of 1 are treated as saturated.
_PIN_EPS = 1e-9


def fit_weights(targets: Sequence[float], copies: int) -> List[float]:
    """Race weights whose :func:`race_inclusion` is ``targets`` (each
    below 1, summing to ``copies``), started from the targets.

    Each ``ln w_i`` takes its own Newton step ``(t_i - pi_i) / slope_i``,
    mixed with the previous step (one-step Anderson acceleration): two
    near-saturated bins otherwise overshoot each other in turn.  Stops
    once every ``pi_i / t_i`` is within 1e-9 of 1 (3–26 evaluations on
    the test fleets) or after 100 steps.
    """
    logs, previous = [math.log(target) for target in targets], None
    for _ in range(100):
        weights = [math.exp(log) for log in logs]
        inclusion, slopes = race_inclusion(weights, copies)
        residual = max(abs(pi / t - 1.0) for pi, t in zip(inclusion, targets))
        if residual < 1e-9:
            return weights
        steps = [(t - pi) / s for t, pi, s in zip(targets, inclusion, slopes)]
        logs = moved = [log + step for log, step in zip(logs, steps)]
        if previous is not None:
            change = [now - then for now, then in zip(steps, previous[0])]
            mix = math.fsum(s * c for s, c in zip(steps, change)) / (
                math.fsum(c * c for c in change) or 1.0
            )
            logs = [
                now - mix * (now - then)
                for now, then in zip(moved, previous[1])
            ]
        previous = steps, moved
    return [math.exp(log) for log in logs]


class BalancedRendezvous(ReplicationStrategy):
    """Top-k rendezvous with pinned saturated bins and calibrated weights."""

    name = "balanced-rendezvous"
    kernel = "hrw-topk"
    _has_engine = True

    def __init__(
        self, bins: Sequence[BinSpec], copies: int = 2, namespace: str = ""
    ) -> None:
        """Build the strategy and fit its race weights.

        Args:
            bins: The participating storage devices.
            copies: Replication degree ``k``.
            namespace: Hash salt prefix.
        """
        super().__init__(bins, copies, namespace)
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
            bin_id for bin_id, t in targets.items() if t >= 1.0 - _PIN_EPS
        ]
        for bin_id in self._pinned:
            del targets[bin_id]
        self._race_copies = copies - len(self._pinned)
        self._bases: Dict[str, int] = {
            bin_id: derive_base(self._namespace, "race", bin_id)
            for bin_id in targets
        }
        self._weights: Dict[str, float] = {}
        if self._race_copies > 0:
            fitted = fit_weights(list(targets.values()), self._race_copies)
            self._weights = dict(zip(targets, fitted))
        self._vector: Optional[tuple] = None

    @property
    def pinned_bins(self) -> List[str]:
        """Bins included in every placement (saturated fair demand)."""
        return list(self._pinned)

    @property
    def weights(self) -> Dict[str, float]:
        """The fitted race weights (diagnostic)."""
        return dict(self._weights)

    def _race(self, address: int) -> List[str]:
        """Race-bin ids ordered by descending rendezvous score."""
        scored = []
        for bin_id, weight in self._weights.items():
            uniform = unit_from_base_open(self._bases[bin_id], address)
            scored.append((-weight / math.log(uniform), bin_id))
        scored.sort(reverse=True)
        return [bin_id for _, bin_id in scored]

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
        """Each bin's exact share of the copies under the weights in use:
        ``1 / k`` for a pinned bin, ``pi_i / k`` for a racing one."""
        shares = {bin_id: 1.0 / self._copies for bin_id in self._pinned}
        if self._race_copies > 0:
            race, weights = self._race_copies, list(self._weights.values())
            for bin_id, s in race_shares(self._weights, weights, race).items():
                shares[bin_id] = s * race / self._copies
        return shares
