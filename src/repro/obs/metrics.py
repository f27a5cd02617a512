"""Counters and histograms — the aggregation half of the observability
layer.

Dependency-free and deliberately small: a :class:`Counter` is a named
monotonic total, a :class:`Histogram` buckets observations under fixed
upper bounds (exponential by default, suitable for probe depths, batch
sizes and queue depths alike), and a :class:`MetricsRegistry` owns both by
name so instrumented modules never need to share objects explicitly.

All values are plain Python ints/floats; instrumentation sites convert
NumPy scalars before recording so the pure-Python and vectorized legs
produce identical snapshots (the equivalence tests assert this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds: 1, 2, 4, ... 65536 (plus the
#: implicit overflow bucket).  Wide enough for scan depths, batch sizes
#: and simulator queue depths without configuration.
DEFAULT_BUCKETS: Tuple[int, ...] = tuple(2 ** i for i in range(17))


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """Current total."""
        return self._value

    def add(self, amount: int = 1) -> None:
        """Increase the total.

        Raises:
            ValueError: for negative amounts (counters are monotonic).
        """
        if amount < 0:
            raise ValueError("counters are monotonic; use a gauge instead")
        self._value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self._value}>"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary.

    Bucket ``i`` counts observations ``<= bounds[i]`` (and greater than
    ``bounds[i-1]``); values above the last bound land in the overflow
    bucket.  Cumulative views are derived, not stored.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "_min", "_max")

    def __init__(
        self, name: str, bounds: Optional[Sequence[Number]] = None
    ) -> None:
        self.name = name
        self.bounds: Tuple[Number, ...] = tuple(bounds or DEFAULT_BUCKETS)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: float = 0.0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None

    def observe(self, value: Number, count: int = 1) -> None:
        """Record ``count`` observations of ``value``.

        The bulk form is what batch instrumentation uses — e.g. a scan
        over 100k addresses records one ``observe(depth, n)`` per distinct
        depth instead of 100k calls.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self.bucket_counts[self._bucket_index(value)] += count
        self.count += count
        self.total += value * count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def _bucket_index(self, value: Number) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def minimum(self) -> Optional[Number]:
        """Smallest observation, or None when empty."""
        return self._min

    @property
    def maximum(self) -> Optional[Number]:
        """Largest observation, or None when empty."""
        return self._max

    def quantile(self, q: float) -> Optional[Number]:
        """Approximate ``q``-quantile: the upper bound of the bucket the
        quantile falls in (None when empty; the overflow bucket reports
        the maximum observed value).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            running += bucket
            if running >= target and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self._max
        return self._max

    def snapshot(self) -> Dict[str, object]:
        """Summary dict (what reports and tests compare)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, self.bucket_counts)
                if count
            },
            "overflow": self.bucket_counts[-1],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named counters and histograms with create-on-first-use semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: Optional[Sequence[Number]] = None
    ) -> Histogram:
        """Get (or create) the histogram ``name``.

        ``bounds`` only applies on creation; later callers share the
        existing instance regardless.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def counters(self) -> Dict[str, int]:
        """All counter totals by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Histogram]:
        """All histogram objects by name (live references)."""
        return dict(sorted(self._histograms.items()))

    def filtered(self, prefix: str) -> "MetricsRegistry":
        """A view holding only metrics whose name starts with ``prefix``.

        The view shares the live counter/histogram instances — it is a
        scoped window for rendering, not a copy.  Used to keep reports
        to one subsystem's namespace (accelerator-internal metrics such
        as the placement engines' ``tie_recomputes`` only exist on the
        NumPy leg, so a leg-stable report must exclude them).
        """
        view = MetricsRegistry()
        for name, counter in self._counters.items():
            if name.startswith(prefix):
                view._counters[name] = counter
        for name, histogram in self._histograms.items():
            if name.startswith(prefix):
                view._histograms[name] = histogram
        return view

    def snapshot(self) -> Dict[str, object]:
        """Full registry state as plain data (report/test input)."""
        return {
            "counters": self.counters(),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (used between observed scenarios)."""
        self._counters.clear()
        self._histograms.clear()
