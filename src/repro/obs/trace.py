"""Structured event bus — the tracing half of the observability layer.

A :class:`TraceSink` receives structured events (a kind plus free-form
JSON-compatible fields) from instrumented hot paths.  Three backends:

* :class:`NullSink` — the default; ``enabled`` is False so every
  instrumentation site skips its work entirely (zero overhead when
  observability is off).
* :class:`MemorySink` — appends events to a list; what tests and the
  ``repro stats`` report consume.
* :class:`JsonlSink` — streams one JSON object per event to a file, the
  production-shaped backend for offline analysis.

:class:`TeeSink` fans one event stream out to several sinks (e.g. keep an
in-memory view while also persisting JSONL).

Instrumentation sites always follow the same pattern::

    sink = obs.sink()
    if sink.enabled:
        sink.emit("placement.batch", strategy=..., addresses=...)

so a disabled site costs one attribute read and a branch.  Event fields
must be JSON-serialisable scalars or lists — emitters convert NumPy
scalars with ``int()``/``float()`` so traces are byte-identical between
the vectorized and pure-Python legs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Union


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        sequence: Monotonic per-sink sequence number.
        kind: Dotted event type, e.g. ``"rebalance.step"``.
        fields: JSON-compatible payload describing the event.
    """

    sequence: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form (what the JSONL backend writes)."""
        record: Dict[str, Any] = {"seq": self.sequence, "kind": self.kind}
        record.update(self.fields)
        return record


class TraceSink:
    """Base class of all event-bus backends.

    Subclasses set :attr:`enabled` and implement :meth:`emit`; the base is
    deliberately not abstract so :class:`NullSink` can be the base
    behaviour (accept and drop).
    """

    #: Instrumentation sites check this before doing *any* work.
    enabled: bool = True

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event (dropped by the base/null implementation)."""

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullSink(TraceSink):
    """The disabled sink: instrumentation short-circuits on ``enabled``."""

    enabled = False


class MemorySink(TraceSink):
    """Collects events in memory for tests, reports and interactive use."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    @property
    def events(self) -> List[TraceEvent]:
        """All captured events, in emission order (snapshot copy)."""
        return list(self._events)

    def emit(self, kind: str, **fields: Any) -> None:
        self._events.append(
            TraceEvent(sequence=len(self._events), kind=kind, fields=fields)
        )

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Captured events of one kind, in order."""
        return [event for event in self._events if event.kind == kind]

    def kinds(self) -> Dict[str, int]:
        """Event count per kind (the report's summary table)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop all captured events."""
        self._events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(TraceSink):
    """Streams events as JSON Lines to a path or open text handle."""

    def __init__(self, target: Union[str, "IO[str]"]) -> None:
        """Open the stream.

        Args:
            target: A filesystem path (truncated: the file holds this
                run's events only, numbered from 0) or an already open
                text handle (not closed by :meth:`close`).
        """
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._sequence = 0

    def emit(self, kind: str, **fields: Any) -> None:
        event = TraceEvent(sequence=self._sequence, kind=kind, fields=fields)
        self._sequence += 1
        self._handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class TeeSink(TraceSink):
    """Fans each event out to several sinks (first sink drives nothing
    special — all receive every event)."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        self._sinks = list(sinks)

    def emit(self, kind: str, **fields: Any) -> None:
        for sink in self._sinks:
            sink.emit(kind, **fields)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into dicts (analysis helper)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
