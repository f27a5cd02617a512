"""Observability: counters, histograms and a structured event bus.

The placement/cluster/simulation hot paths are instrumented against this
package.  By default the installed sink is a :class:`~repro.obs.trace.NullSink`
whose ``enabled`` flag is False, so every instrumentation site reduces to
one attribute check (what an *enabled* sink costs is the end-to-end
benchmark's ``obs.enabled_overhead_pct``).  Enabling observability is
one call::

    from repro import obs

    with obs.capture() as trace:          # in-memory, metrics reset
        cluster.add_device(spec)
    print(trace.kinds())                  # {"device.added": 1, ...}
    print(obs.metrics().snapshot())

or, for production-shaped JSONL traces::

    obs.set_sink(obs.JsonlSink("cluster-trace.jsonl"))

The module-level registry aggregates counters and histograms whenever a
sink is enabled; :func:`reset_metrics` clears it between scenarios.  Both
the trace stream and the metrics snapshot are identical between the
vectorized and pure-Python code paths (the equivalence tests assert
byte-equality), so traces can be compared across environments.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import Counter, Histogram, MetricsRegistry
from .trace import (
    JsonlSink,
    MemorySink,
    NullSink,
    TeeSink,
    TraceEvent,
    TraceSink,
    read_jsonl,
)

__all__ = [
    "Counter",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "TeeSink",
    "TraceEvent",
    "TraceSink",
    "capture",
    "enabled",
    "metrics",
    "read_jsonl",
    "reset_metrics",
    "set_sink",
    "sink",
    "use_sink",
]

#: The permanently-disabled default sink (shared instance).
NULL_SINK = NullSink()

_sink: TraceSink = NULL_SINK
_registry = MetricsRegistry()


def sink() -> TraceSink:
    """The currently installed event sink (the null sink by default).

    Hot paths call this once per operation and check ``.enabled`` before
    doing any instrumentation work.
    """
    return _sink


def enabled() -> bool:
    """True when an enabled (non-null) sink is installed."""
    return _sink.enabled


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry.

    Instrumented code only records into it while a sink is enabled, so
    with observability off the registry stays empty.
    """
    return _registry


def set_sink(new_sink: Optional[TraceSink]) -> TraceSink:
    """Install ``new_sink`` (None restores the null sink); returns the
    previously installed sink so callers can restore it."""
    global _sink
    previous = _sink
    _sink = NULL_SINK if new_sink is None else new_sink
    return previous


def reset_metrics() -> None:
    """Clear every counter and histogram in the registry."""
    _registry.reset()


@contextmanager
def use_sink(new_sink: TraceSink) -> Iterator[TraceSink]:
    """Temporarily install a sink, restoring the previous one on exit."""
    previous = set_sink(new_sink)
    try:
        yield new_sink
    finally:
        set_sink(previous)


@contextmanager
def capture(reset: bool = True) -> Iterator[MemorySink]:
    """Capture events in a fresh :class:`MemorySink` for the duration.

    Args:
        reset: Also clear the metrics registry on entry (default), so the
            snapshot afterwards describes exactly the captured scenario.
    """
    if reset:
        reset_metrics()
    memory = MemorySink()
    with use_sink(memory):
        yield memory
