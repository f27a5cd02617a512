"""The *trivial* replication baseline (Definition 2.3 of the paper).

k-fold replication by ``k`` successive fair draws: draw ``i`` selects among
the bins not chosen by draws ``1..i-1`` with probability proportional to
their (constant) relative weights.  This is what one gets by running
consistent hashing / Share / rendezvous ``k`` times and skipping collisions
— the common practice in P2P and DHT systems.

The paper's Lemma 2.4 proves this can **never** be perfectly fair on
heterogeneous bins: a bin that deserves ``k·c_i >= `` a large share is
skipped entirely with probability ``prod (1 - adjusted c_i) > 1 - k·c_i``,
so big bins are systematically under-loaded and capacity is wasted.  On the
paper's Figure 1 example (bins ``[2, 1, 1]``, k = 2) the big bin misses a
ball with probability ``1/2 * 1/3 = 1/6``, wasting 1/12 of the system.

:class:`TrivialReplication` is the executable strategy used as the
baseline in the capacity-efficiency benches.  Its ``k`` draws have the
distribution of the first ``k`` of independent exponential clocks
``T_i ~ Exp(c_i)`` (each draw is the next clock to fire, and the clocks
are memoryless), so one integral, :func:`race_inclusion`, gives each
bin's exact inclusion probability: :func:`race_shares` (every racing
entry's share oracle), :func:`trivial_miss_probability` (the quantity
Figure 1 illustrates) and ``balanced-rendezvous``'s fit all read it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..hashing.primitives import derive_base, unit_from_base_open
from ..types import Placement
from . import kernels
from .base import ReplicationStrategy
from .rendezvous import rendezvous_score

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
    the first ``copies`` clocks (``0 < copies <= len(weights)``; every
    ``pi`` is 1 when ``copies == len(weights)``).

    Past ``t0 = 1e-16 ** (1 / (k' + 1)) / sum(w)`` the integral runs in
    ``ln t`` on unit-width panels of the 10-point rule, up to 40 mean
    times of the clocks outside the top ``k'`` weights; before ``t0`` a
    bin wins whenever its clock fires.  At each node bin ``i``'s tail is
    a prefix times a suffix product of the other clocks, truncated to
    degree ``k' - 1``: O(n · k' · nodes).  The tail does not depend on
    ``w_i``, so the slope is the integral with the integrand times
    ``1 - w_i t``.
    """
    if copies == len(weights):
        return [1.0] * copies, [0.0] * copies
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


def race_shares(
    ids: Sequence[str], weights: Sequence[float], copies: int
) -> Dict[str, float]:
    """Each id's share ``pi_i / copies`` of the copies the first ``copies``
    clocks of a race on ``weights`` place (:func:`race_inclusion`): the
    one oracle of ``trivial``, ``rpdp``, ``crush``, each epoch of
    ``sequential-checking``, the race part of ``balanced-rendezvous`` and
    the rack level of ``ChooseleafCrush``."""
    inclusion, _ = race_inclusion(weights, copies)
    return {bin_id: pi / copies for bin_id, pi in zip(ids, inclusion)}


def _times_clock(poly, running, fired):
    """``poly · (q + p z)`` truncated to ``poly``'s degree, per node; the
    same step maps coefficients and cumulative coefficients."""
    return [[q * x for q, x in zip(running, poly[0])]] + [
        [q * x + p * y for q, p, x, y in zip(running, fired, upper, lower)]
        for upper, lower in zip(poly[1:], poly)
    ]


class TrivialReplication(ReplicationStrategy):
    """k independent weight-proportional draws without replacement.

    Each draw is realised as a weighted rendezvous over the remaining bins
    with a draw-specific salt, which is exactly Definition 2.3: the
    probability a bin wins draw ``i`` is its weight relative to the bins
    still participating, independent of ``k``.
    """

    name = "trivial"
    kernel = "masked-hrw"
    _has_engine = True

    def __init__(self, bins, copies=2, namespace=""):
        """Precompute per-(draw, bin) salt bases on top of the base init."""
        super().__init__(bins, copies, namespace)
        self._draw_entries = [
            [
                (spec.bin_id, float(spec.capacity),
                 derive_base(self._namespace, "draw", draw, spec.bin_id))
                for spec in self._bins
            ]
            for draw in range(self._copies)
        ]

    def place(self, address: int) -> Placement:
        chosen: List[str] = []
        taken = set()
        for draw in range(self._copies):
            best_id = None
            best_score = -math.inf
            for bin_id, weight, base in self._draw_entries[draw]:
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
        """Vectorized Definition 2.3: k masked rendezvous races per block.

        Each draw evaluates every (bin, address) score in one SplitMix64
        pass plus one ``log`` through the shared kernel library; bins
        already holding a copy of an address are masked out before the
        per-address argmax, exactly mirroring the scalar skip.  Rows
        decided within :data:`~repro.placement.kernels.TIE_GUARD` are
        returned for the driver to settle through :meth:`place`.
        """
        weights = [weight for _, weight, _ in self._draw_entries[0]]
        draw_bases = [
            np.asarray([base for _, _, base in entries], dtype=np.uint64)
            for entries in self._draw_entries
        ]
        refused = []
        work = kernels.Workspace(len(weights), keys.shape[0])
        for start, stop in kernels.blocks(keys.shape[0], len(weights)):
            columns[:, start:stop], unsafe = kernels.masked_hrw_race(
                weights, draw_bases, kernels.premix(keys[start:stop]), work
            )
            refused.extend(start + np.flatnonzero(unsafe))
        return refused

    def expected_shares(self) -> Dict[str, float]:
        """The :func:`race_shares` of the draw weights (exact)."""
        ids, weights, _ = zip(*self._draw_entries[0])
        return race_shares(ids, weights, self._copies)


def trivial_miss_probability(
    capacities: Sequence[float], copies: int, bin_index: int = 0
) -> float:
    """P(bin ``bin_index`` receives *no* copy of a ball) under Definition 2.3.

    For the Figure 1 system ``([2, 1, 1], k=2)`` and the big bin this is
    ``1/6`` — the capacity the trivial strategy wastes.

    Raises:
        ValueError: unless ``0 < copies <= len(capacities)`` and
            ``0 <= bin_index < len(capacities)``.
    """
    if not 0 <= bin_index < len(capacities):
        raise ValueError(f"no bin {bin_index} among {len(capacities)} bins")
    return 1.0 - _inclusion(capacities, copies)[bin_index]


def trivial_wasted_fraction(capacities: Sequence[float], copies: int) -> float:
    """Fraction of total system capacity the trivial strategy cannot use.

    A bin that should be hit with probability ``min(1, k·c_i)`` but is hit
    with probability ``pi_i`` wastes the difference; summed over bins and
    normalised by the total, this is the Lemma 2.4 capacity loss.
    """
    total = float(sum(capacities))
    wasted = 0.0
    for capacity, achieved in zip(capacities, _inclusion(capacities, copies)):
        deserved = min(1.0, copies * capacity / total)
        if achieved < deserved:
            wasted += (deserved - achieved) * total / copies
    return wasted / total


def _inclusion(capacities: Sequence[float], copies: int) -> List[float]:
    """Definition 2.3's inclusion probabilities, for the public helpers
    (which, unlike :func:`race_inclusion`, check ``copies``)."""
    if not 0 < copies <= len(capacities):
        raise ValueError("copies must be between 1 and the number of bins")
    return race_inclusion(capacities, copies)[0]
