"""Seeded fault schedules: what breaks, when, and how badly.

A chaos run is driven by a :class:`FaultSchedule` — an ordered, validated
list of :class:`FaultEvent` entries.  Schedules are *data*, not code: they
serialise to plain dicts (JSON-friendly, the ``repro chaos --schedule``
file format) and are generated deterministically from a seed, so a failing
run can be re-executed bit-for-bit from its ``(schedule, seed)`` pair
alone.

Fault kinds:

* ``crash`` — permanent failure: the device's contents are lost and a
  blank replacement arrives after the controller's replacement delay;
  every lost share is re-replicated through the priority repair queue.
* ``outage`` — transient unavailability for ``duration`` time units: the
  data survives, but reads and repairs must route around the device until
  it returns.
* ``flaky`` — the device stays up but serves errors: for ``duration``
  time units each repair attempt targeting it fails with probability
  ``error_rate`` and costs ``latency`` extra time units, exercising the
  retry/backoff path.
* ``shrink`` — administrative decommission: the device leaves the
  configuration for good.  The controller checks Lemma 2.1 feasibility
  (``k * b_0 <= B`` on the survivors) *before* rebalancing and raises
  :class:`~repro.exceptions.InfeasibleRedundancyError` when the shrink
  would break the redundancy/fairness contract.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..hashing.primitives import stable_u64, unit_interval_open


def _unit(*key) -> float:
    """Deterministic draw in (0, 1) from a stable hash of ``key``."""
    return unit_interval_open("chaos-schedule", *key)


class FaultKind(enum.Enum):
    """The fault taxonomy the controller knows how to inject."""

    CRASH = "crash"
    OUTAGE = "outage"
    FLAKY = "flaky"
    SHRINK = "shrink"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: Injection time (simulation units, >= 0).
        kind: What happens to the device.
        device_id: The victim.
        duration: How long an ``outage``/``flaky`` window lasts; ignored
            for ``crash``/``shrink``.
        error_rate: ``flaky`` only — probability in [0, 1) that one repair
            attempt against the device fails.
        latency: ``flaky`` only — extra service time per attempt.
    """

    time: float
    kind: FaultKind
    device_id: str
    duration: float = 0.0
    error_rate: float = 0.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.kind in (FaultKind.OUTAGE, FaultKind.FLAKY) and self.duration <= 0:
            raise ConfigurationError(
                f"{self.kind.value} faults need a positive duration"
            )
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1), got {self.error_rate}"
            )
        if self.latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {self.latency}")

    @property
    def end(self) -> float:
        """When the fault's effect window closes."""
        return self.time + self.duration

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (the on-disk schedule entry)."""
        record: Dict[str, object] = {
            "time": self.time,
            "kind": self.kind.value,
            "device": self.device_id,
        }
        if self.duration:
            record["duration"] = self.duration
        if self.error_rate:
            record["error_rate"] = self.error_rate
        if self.latency:
            record["latency"] = self.latency
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultEvent":
        """Parse one schedule entry; raises ConfigurationError when invalid."""
        try:
            kind = FaultKind(record["kind"])
        except (KeyError, ValueError):
            accepted = sorted(k.value for k in FaultKind)
            raise ConfigurationError(
                f"fault kind must be one of {accepted}, got {record.get('kind')!r}"
            ) from None
        try:
            return cls(
                time=float(record["time"]),
                kind=kind,
                device_id=str(record["device"]),
                duration=float(record.get("duration", 0.0)),
                error_rate=float(record.get("error_rate", 0.0)),
                latency=float(record.get("latency", 0.0)),
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"fault entry missing required key {missing}"
            ) from None


class FaultSchedule:
    """An ordered, validated sequence of faults for one chaos run."""

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.device_id, e.kind.value))
        )
        crashed_or_gone = set()
        for event in self._events:
            if event.device_id in crashed_or_gone:
                raise ConfigurationError(
                    f"device {event.device_id!r} receives a fault after its "
                    f"permanent crash/shrink — schedules must not reuse it"
                )
            if event.kind in (FaultKind.CRASH, FaultKind.SHRINK):
                crashed_or_gone.add(event.device_id)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The faults in injection order (stable tie-breaking)."""
        return self._events

    @property
    def duration(self) -> float:
        """Time at which the last fault window has closed."""
        return max((event.end for event in self._events), default=0.0)

    def devices(self) -> List[str]:
        """Sorted ids of every device the schedule touches."""
        return sorted({event.device_id for event in self._events})

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self._events == other.events

    def to_dicts(self) -> List[Dict[str, object]]:
        """The whole schedule as plain dicts (JSON-ready)."""
        return [event.to_dict() for event in self._events]

    def to_json(self) -> str:
        """Serialise to the ``repro chaos --schedule`` file format."""
        return json.dumps({"faults": self.to_dicts()}, indent=2, sort_keys=True)

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, object]]) -> "FaultSchedule":
        """Build from plain dicts, validating every entry."""
        return cls(FaultEvent.from_dict(record) for record in records)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse the ``{"faults": [...]}`` file format."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"schedule is not valid JSON: {error}") from None
        if isinstance(payload, dict):
            records = payload.get("faults")
        else:
            records = payload  # a bare list is accepted too
        if not isinstance(records, list):
            raise ConfigurationError(
                'schedule JSON must be {"faults": [...]} or a bare list'
            )
        return cls.from_dicts(records)


def generate_schedule(
    device_ids: Sequence[str],
    *,
    seed: int = 0,
    duration: float = 30.0,
    crashes: int = 1,
    outages: int = 0,
    flaky: int = 0,
    error_rate: float = 0.3,
    latency: float = 0.25,
) -> FaultSchedule:
    """Derive a fault schedule deterministically from a seed.

    Victims are drawn without replacement (each device receives at most
    one fault), fault times land in ``(0, duration)``; everything is a
    pure function of ``(sorted(device_ids), seed, parameters)``, so equal
    inputs give byte-equal schedules on any machine.  An outage lasts 5
    time units and a flaky window 8; shrinks are never generated (a
    schedule file or a :class:`FaultEvent` names them).

    Raises:
        ConfigurationError: if more faults are requested than devices
            exist, or rates/durations are out of range.
    """
    pool = sorted(device_ids)
    requested = crashes + outages + flaky
    if requested > len(pool):
        raise ConfigurationError(
            f"schedule wants {requested} distinct victims but only "
            f"{len(pool)} devices exist"
        )
    if duration <= 0:
        raise ConfigurationError("schedule duration must be positive")

    events: List[FaultEvent] = []
    kinds: List[Tuple[FaultKind, Dict[str, float]]] = (
        [(FaultKind.CRASH, {})] * crashes
        + [(FaultKind.OUTAGE, {"duration": 5.0})] * outages
        + [
            (
                FaultKind.FLAKY,
                {
                    "duration": 8.0,
                    "error_rate": error_rate,
                    "latency": latency,
                },
            )
        ]
        * flaky
    )
    for index, (kind, extra) in enumerate(kinds):
        pick = stable_u64("chaos-victim", seed, index) % len(pool)
        victim = pool.pop(pick)
        # Fault windows start in the first half so transient effects have
        # room to resolve inside the schedule horizon.
        start_span = duration / 2.0 if extra.get("duration") else duration
        time = _unit(seed, index, "time") * start_span
        events.append(FaultEvent(time=time, kind=kind, device_id=victim, **extra))
    return FaultSchedule(events)
