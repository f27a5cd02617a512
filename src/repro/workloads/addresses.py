"""Ball-address generators for experiments and benches.

The paper's evaluation places consecutive virtual addresses
(``range(n)``); real systems see skew, so uniform, zipf and flash-crowd
generators are provided for the extended benches.  All generators are
deterministic given their parameters.

Each distribution has one generator, a batch sampler
(``uniform_sample``, ``ZipfGenerator.sample``, ``flash_crowd_sample``):
with NumPy it vectorizes, without it it loops.  The loop is the oracle —
both legs draw through :mod:`repro.hashing.primitives`
(``u64_from_base``/``unit_from_base`` and their array forms) and return
bit-for-bit the same addresses, an ``int64`` array or a list of ints.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence

from .._compat import get_numpy
from ..hashing.primitives import (
    derive_base,
    u64_from_base,
    u64s_from_base,
    unit_from_base,
    units_from_base,
)


def uniform_sample(count: int, universe: int, seed: int = 0, start: int = 0):
    """Draws ``[start, start + count)`` uniform over ``[0, universe)``.

    With repetition: an ``int64`` array with NumPy, a list of ints
    without, bit-identical between the legs.  ``universe`` is at most
    ``2**63``, so every draw fits the ``int64`` column.
    """
    if not 0 < universe <= 1 << 63:
        raise ValueError("universe must be in [1, 2**63]")
    if count < 0:
        raise ValueError("count must be non-negative")
    base = derive_base("uniform-batch", seed)
    np = get_numpy()
    if np is None:
        return [
            u64_from_base(base, index) % universe
            for index in range(start, start + count)
        ]
    draws = u64s_from_base(base, np.arange(start, start + count, dtype=np.uint64))
    return (draws % np.uint64(universe)).astype(np.int64)


class ZipfGenerator:
    """Zipf-distributed addresses over ``[0, universe)``.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1)^alpha``; an inverse-CDF table makes draws O(log U).
    """

    def __init__(self, universe: int, alpha: float = 1.1, seed: int = 0) -> None:
        if universe <= 0:
            raise ValueError("universe must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self._universe = universe
        self._seed = seed
        cumulative: List[float] = []
        total = 0.0
        for rank in range(universe):
            total += 1.0 / math.pow(rank + 1, alpha)
            cumulative.append(total)
        self._cumulative = [value / total for value in cumulative]

    def sample(self, count: int, start: int = 0):
        """Draws for sequence numbers ``[start, start + count)``.

        An ``int64`` array with NumPy, a list of ints without,
        bit-for-bit identical between the legs.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        base = derive_base("zipf-batch", self._seed)
        top = self._universe - 1
        np = get_numpy()
        if np is None:
            cumulative = self._cumulative
            return [
                min(bisect.bisect_right(cumulative, unit_from_base(base, index)), top)
                for index in range(start, start + count)
            ]
        units = units_from_base(
            base, np.arange(start, start + count, dtype=np.uint64)
        )
        cumulative = np.asarray(self._cumulative, dtype=np.float64)
        ranks = np.searchsorted(cumulative, units, side="right")
        return np.minimum(ranks, top).astype(np.int64)


def flash_crowd_sample(
    count: int,
    universe: int,
    *,
    crowd_weight: float = 0.8,
    crowd_size: int = 1,
    window: Sequence[float] = (0.25, 0.75),
    seed: int = 0,
):
    """A flash crowd: mid-stream, most requests slam a few addresses.

    Outside the crowd window the stream is uniform background traffic.
    Inside it (``window`` as fractions of the stream), each request goes
    to one of ``crowd_size`` fixed target addresses with probability
    ``crowd_weight`` — the "everyone loads the same page" scenario that
    stresses copy scheduling far harder than stationary Zipf skew.
    Returns an ``int64`` array (NumPy) or a list of ints (pure leg),
    bit-for-bit identical between the legs.
    """
    if universe <= 0:
        raise ValueError("universe must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= crowd_weight <= 1.0:
        raise ValueError("crowd_weight must be in [0, 1]")
    if crowd_size < 1:
        raise ValueError("crowd_size must be >= 1")
    begin_frac, end_frac = window
    if not 0.0 <= begin_frac <= end_frac <= 1.0:
        raise ValueError("window must satisfy 0 <= begin <= end <= 1")
    target_base = derive_base("flash-target", seed)
    targets = [
        u64_from_base(target_base, slot) % universe for slot in range(crowd_size)
    ]
    begin = int(count * begin_frac)
    end = int(count * end_frac)
    coin_base = derive_base("flash-coin", seed)
    pick_base = derive_base("flash-pick", seed)
    background_base = derive_base("flash-bg", seed)
    np = get_numpy()
    if np is None:
        return [
            targets[u64_from_base(pick_base, index) % crowd_size]
            if begin <= index < end
            and unit_from_base(coin_base, index) < crowd_weight
            else u64_from_base(background_base, index) % universe
            for index in range(count)
        ]
    indices = np.arange(count, dtype=np.uint64)
    coins = units_from_base(coin_base, indices)
    in_window = (indices >= np.uint64(begin)) & (indices < np.uint64(end))
    crowd = in_window & (coins < crowd_weight)
    picks = u64s_from_base(pick_base, indices) % np.uint64(crowd_size)
    background = u64s_from_base(background_base, indices) % np.uint64(universe)
    target_table = np.asarray(targets, dtype=np.int64)
    return np.where(
        crowd, target_table[picks.astype(np.int64)], background.astype(np.int64)
    )
