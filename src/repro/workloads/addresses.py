"""Ball-address generators for experiments and benches.

The paper's evaluation uses synthetic block populations (consecutive
virtual addresses); real systems see skew, so zipf, hotspot and
flash-crowd generators are provided for the extended benches.  All
generators are deterministic given their parameters.

Two API shapes coexist:

* **Streams** (``uniform``, ``ZipfGenerator.draw``/``stream``,
  ``hotspot``, ``flash_crowd``) — scalar iterators, pure Python.
* **Samples** (``uniform_sample``, ``ZipfGenerator.sample``,
  ``flash_crowd_sample``) — whole-batch forms feeding the
  million-request scheduler benches; with NumPy they vectorize, without
  it they loop, and the two legs are bit-for-bit identical (they draw
  through :func:`repro.hashing.primitives.units_from_base`).  The
  sample forms use their own derived draw streams — deterministic under
  the same seed, but not element-wise equal to the scalar streams
  (which predate them and key their hashes differently).
  ``flash_crowd`` and ``flash_crowd_sample`` *do* share draw bases and
  agree element-wise.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, List, Sequence

from .._compat import get_numpy
from ..hashing.primitives import (
    derive_base,
    stable_u64,
    u64_from_base,
    u64s_from_base,
    unit_from_base,
    unit_interval,
    units_from_base,
)


def sequential(count: int, start: int = 0) -> Iterator[int]:
    """Consecutive virtual addresses — the paper's population."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return iter(range(start, start + count))


def uniform(count: int, universe: int, seed: int = 0) -> Iterator[int]:
    """``count`` draws uniform over ``[0, universe)`` (with repetition)."""
    if universe <= 0:
        raise ValueError("universe must be positive")
    for index in range(count):
        yield stable_u64("uniform", seed, index) % universe


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
        self._alpha = alpha
        self._seed = seed
        cumulative: List[float] = []
        total = 0.0
        for rank in range(universe):
            total += 1.0 / math.pow(rank + 1, alpha)
            cumulative.append(total)
        self._cumulative = [value / total for value in cumulative]

    def draw(self, index: int) -> int:
        """The ``index``-th deterministic draw."""
        uniform_draw = unit_interval("zipf", self._seed, index)
        lo, hi = 0, self._universe - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if uniform_draw < self._cumulative[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def stream(self, count: int) -> Iterator[int]:
        """``count`` deterministic draws."""
        return (self.draw(index) for index in range(count))

    def sample(self, count: int, start: int = 0):
        """Batched draws for sequence numbers ``[start, start + count)``.

        The batch engine behind the scheduler benches: an ``int64``
        array with NumPy, a list of ints without, bit-for-bit identical
        between the legs.  Uses its own derived draw stream (seeded on
        the generator's seed), distinct from :meth:`draw`'s.
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


def hotspot(
    count: int,
    universe: int,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.9,
    seed: int = 0,
) -> Iterator[int]:
    """A fraction of the address space receives most of the accesses.

    Args:
        count: Number of addresses to generate.
        universe: Address-space size.
        hot_fraction: Share of the universe that is "hot".
        hot_weight: Probability an access goes to the hot region.
        seed: Determinism seed.
    """
    if not 0.0 < hot_fraction < 1.0:
        raise ValueError("hot_fraction must be in (0, 1)")
    if not 0.0 <= hot_weight <= 1.0:
        raise ValueError("hot_weight must be in [0, 1]")
    hot_size = max(1, int(universe * hot_fraction))
    for index in range(count):
        coin = unit_interval("hotspot-coin", seed, index)
        if coin < hot_weight:
            yield stable_u64("hotspot-hot", seed, index) % hot_size
        else:
            cold = universe - hot_size
            yield hot_size + stable_u64("hotspot-cold", seed, index) % max(1, cold)


def uniform_sample(count: int, universe: int, seed: int = 0, start: int = 0):
    """Batched uniform draws over ``[0, universe)``.

    The batch form of :func:`uniform` (on a distinct derived draw
    stream): ``int64`` array with NumPy, list of ints without,
    bit-identical between the legs.
    """
    if universe <= 0:
        raise ValueError("universe must be positive")
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


def _flash_crowd_params(
    count: int,
    universe: int,
    crowd_weight: float,
    crowd_size: int,
    window: Sequence[float],
    seed: int,
):
    """Validate flash-crowd parameters; derive targets, window and bases."""
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
    bases = (
        derive_base("flash-coin", seed),
        derive_base("flash-pick", seed),
        derive_base("flash-bg", seed),
    )
    return targets, begin, end, bases


def flash_crowd(
    count: int,
    universe: int,
    *,
    crowd_weight: float = 0.8,
    crowd_size: int = 1,
    window: Sequence[float] = (0.25, 0.75),
    seed: int = 0,
) -> Iterator[int]:
    """A flash crowd: mid-stream, most requests slam a few addresses.

    Outside the crowd window the stream is uniform background traffic.
    Inside it (``window`` as fractions of the stream), each request goes
    to one of ``crowd_size`` fixed target addresses with probability
    ``crowd_weight`` — the "everyone loads the same page" scenario that
    stresses copy scheduling far harder than stationary Zipf skew.

    Element-wise identical to :func:`flash_crowd_sample` (they share
    draw bases).
    """
    targets, begin, end, bases = _flash_crowd_params(
        count, universe, crowd_weight, crowd_size, window, seed
    )
    coin_base, pick_base, background_base = bases
    for index in range(count):
        if begin <= index < end and (
            unit_from_base(coin_base, index) < crowd_weight
        ):
            yield targets[u64_from_base(pick_base, index) % crowd_size]
        else:
            yield u64_from_base(background_base, index) % universe


def flash_crowd_sample(
    count: int,
    universe: int,
    *,
    crowd_weight: float = 0.8,
    crowd_size: int = 1,
    window: Sequence[float] = (0.25, 0.75),
    seed: int = 0,
):
    """Batched :func:`flash_crowd`: same parameters, same draw bases,
    element-wise identical addresses — as an ``int64`` array (NumPy) or
    list of ints (pure leg)."""
    targets, begin, end, bases = _flash_crowd_params(
        count, universe, crowd_weight, crowd_size, window, seed
    )
    coin_base, pick_base, background_base = bases
    np = get_numpy()
    if np is None:
        result: List[int] = []
        for index in range(count):
            if begin <= index < end and (
                unit_from_base(coin_base, index) < crowd_weight
            ):
                result.append(targets[u64_from_base(pick_base, index) % crowd_size])
            else:
                result.append(u64_from_base(background_base, index) % universe)
        return result
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
