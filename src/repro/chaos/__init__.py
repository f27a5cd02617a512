"""Fault-injection and recovery: chaos runs against the cluster simulator.

The subsystem splits into four layers (availability itself is the
:class:`~repro.cluster.DeviceState` of each device, not a chaos concept):

* :mod:`repro.chaos.schedule` — seeded, serialisable fault schedules
  (crash / outage / flaky / shrink).
* :mod:`repro.chaos.recovery` — the priority repair queue and the
  retry/backoff policy.
* :mod:`repro.chaos.controller` — the discrete-event controller that ties
  them together and reports blocks-at-risk, losses, repair throughput and
  post-repair fairness drift.
* :mod:`repro.chaos.fleet` — the columnar fleet-scale simulator
  (thousands of devices x millions of blocks over simulated years) with
  mean-field durability validation; cross-checked against the
  event-driven controller for loss accounting.

The ``repro chaos`` CLI subcommand is a thin front-end over
:func:`run_chaos`.
"""

from .controller import (
    ChaosController,
    ChaosOptions,
    ChaosReport,
    LossEvent,
    run_chaos,
)
from .fleet import (
    FleetOptions,
    FleetReport,
    FleetSample,
    FleetSimulator,
    PhasePoint,
    crash_epochs,
    durability_phase_diagram,
    run_fleet,
)
from .recovery import RepairPolicy, RepairQueue, RepairTask
from .schedule import FaultEvent, FaultKind, FaultSchedule, generate_schedule

__all__ = [
    "ChaosController",
    "ChaosOptions",
    "ChaosReport",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "FleetOptions",
    "FleetReport",
    "FleetSample",
    "FleetSimulator",
    "LossEvent",
    "PhasePoint",
    "RepairPolicy",
    "RepairQueue",
    "RepairTask",
    "crash_epochs",
    "durability_phase_diagram",
    "generate_schedule",
    "run_chaos",
    "run_fleet",
]
