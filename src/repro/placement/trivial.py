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

:func:`trivial_miss_probability` computes that miss probability exactly
(it is the quantity Figure 1 illustrates), and
:class:`TrivialReplication` is the executable strategy used as the
baseline in the capacity-efficiency benches.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence

from ..hashing.primitives import derive_base, unit_from_base_open
from ..types import BinSpec, Placement
from . import kernels
from .base import ReplicationStrategy
from .rendezvous import rendezvous_score


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
        """Exact per-bin share of all copies under sequential fair draws.

        Computed by summing over all ordered draw sequences — exponential in
        ``k`` per bin subset, so intended for the small ``n`` of the
        analytic benches (Figure 1 scale).  For larger systems measure
        empirically instead.
        """
        if len(self._bins) > 12:
            return None  # type: ignore[return-value]  # see docstring
        weights = {spec.bin_id: float(spec.capacity) for spec in self._bins}
        ids = list(weights)
        inclusion = {bin_id: 0.0 for bin_id in ids}
        for sequence in itertools.permutations(ids, self._copies):
            probability = 1.0
            remaining = sum(weights.values())
            for bin_id in sequence:
                probability *= weights[bin_id] / remaining
                remaining -= weights[bin_id]
            for bin_id in sequence:
                inclusion[bin_id] += probability
        total = sum(inclusion.values())
        return {bin_id: value / total for bin_id, value in inclusion.items()}


def trivial_miss_probability(
    capacities: Sequence[float], copies: int, bin_index: int = 0
) -> float:
    """P(bin ``bin_index`` receives *no* copy of a ball) under Definition 2.3.

    For the Figure 1 system ``([2, 1, 1], k=2)`` and the big bin this is
    ``1/6`` — the capacity the trivial strategy wastes.  Computed exactly by
    summing over all draw sequences that avoid the bin.
    """
    if copies > len(capacities):
        raise ValueError("more copies than bins")
    indices = [i for i in range(len(capacities)) if i != bin_index]
    miss = 0.0
    for sequence in itertools.permutations(indices, copies):
        probability = 1.0
        remaining = float(sum(capacities))
        for index in sequence:
            probability *= capacities[index] / remaining
            remaining -= capacities[index]
        miss += probability
    return miss


def trivial_wasted_fraction(capacities: Sequence[float], copies: int) -> float:
    """Fraction of total system capacity the trivial strategy cannot use.

    A bin that should be hit with probability ``min(1, k·c_i)`` but is hit
    with probability ``1 - miss_i`` wastes the difference; summed over bins
    and normalised by the total, this is the Lemma 2.4 capacity loss.
    """
    total = float(sum(capacities))
    wasted = 0.0
    for index, capacity in enumerate(capacities):
        deserved = min(1.0, copies * capacity / total)
        achieved = 1.0 - trivial_miss_probability(capacities, copies, index)
        if achieved < deserved:
            wasted += (deserved - achieved) * total / copies
    return wasted / total
