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
  :func:`race_inclusion` computes it in plain floats, and
  :func:`fit_weights` solves ``pi = t`` for the weights.

The result is fair to the fit's residual (``expected_shares`` is the
exact ``pi``) and aggressively adaptive — evidence for the conjecture.
Positions follow the score order, so an insertion can permute them even
when the copy *set* barely changes (the bench reports both movements).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..capacity.clipping import clip_capacities
from ..hashing.primitives import derive_base, unit_from_base_open
from ..placement import kernels
from ..placement.base import ReplicationStrategy
from ..types import BinSpec, Placement, sort_bins_by_capacity

#: Fair demands within this distance of 1 are treated as saturated.
_PIN_EPS = 1e-9
#: The positive half of the 10-point Gauss–Legendre rule on [-1, 1].
_NODES = (
    0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
)
_RULE = (
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
)


def race_inclusion(
    weights: Sequence[float], copies: int
) -> Tuple[List[float], List[float]]:
    """``(pi, d pi / d ln w)``: each bin's probability of finishing among
    the first ``copies`` clocks (``0 < copies < len(weights)``).

    Past ``t0 = 1e-16 ** (1 / (k' + 1)) / sum(w)`` the integral runs in
    ``ln t`` on unit-width panels of the 10-point rule, up to 40 mean
    times of the clocks outside the top ``k'`` weights; before ``t0`` a
    bin wins whenever its clock fires.  At each node bin ``i``'s tail is
    a prefix times a suffix product of the other clocks, truncated to
    degree ``k' - 1``: O(n · k' · nodes).  The tail does not depend on
    ``w_i``, so the slope is the integral with the integrand times
    ``1 - w_i t``.
    """
    total = math.fsum(weights)
    if copies == 1:
        inclusion = [weight / total for weight in weights]
        return inclusion, [pi * (1.0 - pi) for pi in inclusion]
    rest = math.fsum(sorted(weights)[:-copies])
    head = 1e-16 ** (1.0 / (copies + 1)) / total
    start, stop = math.log(head), math.log(40.0 / rest)
    panels = math.ceil(stop - start)
    half = (stop - start) / (2 * panels)
    times, scales = [], []
    for panel in range(panels):
        middle = start + (2 * panel + 1) * half
        for node, rule in zip(_NODES, _RULE):
            for point in (middle - half * node, middle + half * node):
                times.append(math.exp(point))
                scales.append(rule * half * times[-1])
    running = [[math.exp(-w * t) for t in times] for w in weights]
    fired = [[-math.expm1(-w * t) for t in times] for w in weights]
    # suffixes[i][b]: P(at most b of the bins after i fired), per node.
    suffixes = [[[1.0] * len(times)] * copies]
    for q, p in zip(running[:0:-1], fired[:0:-1]):
        suffixes.append(_times_clock(suffixes[-1], q, p))
    suffixes.reverse()
    # prefix[a]: P(exactly a of the bins before i fired), per node.
    prefix = [[1.0] * len(times)] + [[0.0] * len(times)] * (copies - 1)
    inclusion, slopes = [], []
    for weight, q, p, suffix in zip(weights, running, fired, suffixes):
        tail = [0.0] * len(times)
        for low, high in zip(prefix, reversed(suffix)):
            tail = [t + x * y for t, x, y in zip(tail, low, high)]
        density = [s * c * t for s, c, t in zip(scales, q, tail)]
        mass = math.fsum(density)
        moment = math.fsum([d * t for d, t in zip(density, times)])
        inclusion.append(-math.expm1(-weight * head) + weight * mass)
        slopes.append(
            weight * (head * math.exp(-weight * head) + mass - weight * moment)
        )
        prefix = _times_clock(prefix, q, p)
    return inclusion, slopes


def _times_clock(poly, running, fired):
    """``poly · (q + p z)`` truncated to ``poly``'s degree, per node; the
    same step maps coefficients and cumulative coefficients."""
    return [[q * x for q, x in zip(running, poly[0])]] + [
        [q * x + p * y for q, p, x, y in zip(running, fired, upper, lower)]
        for upper, lower in zip(poly[1:], poly)
    ]


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
            inclusion, _ = race_inclusion(
                list(self._weights.values()), self._race_copies
            )
            for bin_id, pi in zip(self._weights, inclusion):
                shares[bin_id] = pi / self._copies
        return shares
