"""The chaos controller: drive a cluster through a fault schedule.

:class:`ChaosController` owns a discrete-event :class:`Simulator` and plays
a :class:`FaultSchedule` against a live :class:`Cluster`:

* **crash** — the device fails (contents lost), a blank replacement
  arrives after ``replacement_delay``, and every lost share enters the
  priority :class:`RepairQueue`; blocks whose shares left on any device
  (an offline one keeps its contents) drop below the code's decode
  threshold are recorded as data-loss events.
* **outage / flaky** — the device goes OFFLINE / FLAKY with its contents
  intact; reads and repairs route around (or retry against) it until the
  window closes, and whatever it missed meanwhile is repaired then.
* **shrink** — gated on Lemma 2.1 feasibility (``k * b_0 <= B`` over the
  survivors): an infeasible shrink raises
  :class:`~repro.exceptions.InfeasibleRedundancyError` *before* any data
  moves, unless ``allow_degraded`` accepts the unfair layout.

The repair worker drains the queue at ``policy.rate`` repairs per time
unit, retrying failed attempts with exponential backoff and abandoning
tasks that exhaust ``max_attempts`` or ``timeout`` (recorded as
:class:`~repro.exceptions.RepairTimeoutError`, not raised — chaos runs
must report, not die).  A periodic sampler tracks blocks-at-risk over
time; after convergence the controller scores fairness drift with the
chi-square acceptance test and fits an empirical durability model from
the observed failure/repair rates.

Everything — fault times, victim picks, flaky error draws, queue order —
derives from ``(schedule, seed)`` via stable hashing, so one run is
exactly reproducible: same trace events, same repair order, same final
block map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..analysis.durability import DurabilityModel, mttdl, observed_model
from ..capacity.clipping import is_capacity_efficient
from ..cluster.cluster import Cluster
from ..cluster.device import FlakyProfile
from ..exceptions import (
    ConfigurationError,
    DecodingError,
    DeviceNotFoundError,
    InfeasibleRedundancyError,
    RepairTimeoutError,
)
from ..hashing.primitives import unit_interval_open
from ..metrics.stats import FairnessVerdict, chi_square_fairness, fair_copy_shares
from ..simulation.engine import Simulator
from .recovery import RepairPolicy, RepairQueue, RepairTask
from .schedule import FaultEvent, FaultKind, FaultSchedule


@dataclass(frozen=True)
class ChaosOptions:
    """Tuning for one chaos run.

    Attributes:
        seed: Seeds every derived draw (flaky errors); the schedule brings
            its own times/victims.
        policy: Repair worker knobs (rate, retries, backoff, timeout).
        replacement_delay: Time between a crash and its blank replacement
            coming online.
        sample_interval: Spacing of blocks-at-risk samples.
        allow_degraded: Accept Lemma-2.1-infeasible shrinks instead of
            raising (the layout stays redundant but can no longer be
            capacity-fair).
        alpha: False-positive rate for the post-run fairness test.
    """

    seed: int = 0
    policy: RepairPolicy = field(default_factory=RepairPolicy)
    replacement_delay: float = 1.0
    sample_interval: float = 1.0
    allow_degraded: bool = False
    alpha: float = 0.01

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            # A zero interval would make the sampler reschedule itself at
            # the same instant forever while any fault window is open.
            raise ConfigurationError("sample_interval must be positive")
        if self.replacement_delay < 0:
            raise ConfigurationError("replacement_delay must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class LossEvent:
    """One unrecoverable block.

    Attributes:
        time: When the loss became certain.
        address: The block.
        survivors: Shares still held anywhere (below the decode threshold).
    """

    time: float
    address: int
    survivors: int


@dataclass
class ChaosReport:
    """Everything a chaos run measured.

    Attributes:
        horizon: Final simulation time (faults injected, queue drained).
        faults: Faults injected, by kind name.
        samples: ``(time, blocks_at_risk, queue_depth)`` over the run.
        loss_events: Blocks that became unrecoverable.
        repair_order: ``(address, position)`` in completion order — the
            determinism tests diff this across runs.
        attempts: Repair attempts started.
        retries: Attempts that failed and were rescheduled.
        abandoned: Tasks given up after exhausting retries/timeout.
        completed: Shares successfully re-replicated.
        mean_repair_latency: Mean enqueue-to-completion time (0 if none).
        fairness: Post-convergence chi-square verdict (None if the pool
            got too small to test).
        durability: Model fitted from the observed failure/repair rates
            (None without a permanent failure to fit).
    """

    horizon: float = 0.0
    faults: Dict[str, int] = field(default_factory=dict)
    samples: List[Tuple[float, int, int]] = field(default_factory=list)
    loss_events: List[LossEvent] = field(default_factory=list)
    repair_order: List[Tuple[int, int]] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    abandoned: List[RepairTimeoutError] = field(default_factory=list)
    completed: int = 0
    mean_repair_latency: float = 0.0
    fairness: Optional[FairnessVerdict] = None
    durability: Optional[DurabilityModel] = None

    @property
    def data_loss(self) -> bool:
        """True when any block became unrecoverable."""
        return bool(self.loss_events)

    @property
    def repair_throughput(self) -> float:
        """Completed repairs per time unit over the whole run."""
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def peak_at_risk(self) -> int:
        """Worst blocks-at-risk sample."""
        return max((sample[1] for sample in self.samples), default=0)

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"horizon              {self.horizon:.2f}",
            "faults               "
            + (
                ", ".join(
                    f"{kind}={count}" for kind, count in sorted(self.faults.items())
                )
                or "none"
            ),
            f"blocks lost          {len(self.loss_events)}",
            f"peak blocks at risk  {self.peak_at_risk}",
            f"repairs completed    {self.completed} "
            f"({self.attempts} attempts, {self.retries} retries, "
            f"{len(self.abandoned)} abandoned)",
            f"repair throughput    {self.repair_throughput:.2f}/unit, "
            f"mean latency {self.mean_repair_latency:.2f}",
        ]
        if self.fairness is not None:
            lines.append(f"fairness             {self.fairness.summary()}")
        if self.durability is not None:
            lines.append(
                f"observed durability  MTTF={self.durability.mttf:.1f} "
                f"MTTR={self.durability.mttr:.2f} "
                f"=> MTTDL~{mttdl(self.durability):.0f}"
            )
        return "\n".join(lines)


class ChaosController:
    """Runs one fault schedule to convergence against a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        schedule: FaultSchedule,
        options: Optional[ChaosOptions] = None,
    ) -> None:
        self._cluster = cluster
        self._schedule = schedule
        self._options = options or ChaosOptions()
        self._sim = Simulator()
        self._queue = RepairQueue()
        self._report = ChaosReport()
        self._worker_busy = False
        self._attempt_seq = 0  # global counter feeding the flaky error draws
        self._task_attempts: Dict[Tuple[int, int, str], int] = {}
        self._given_up: Set[Tuple[int, int, str]] = set()  # abandoned keys
        self._lost_blocks: Set[int] = set()
        self._crash_times: Dict[str, float] = {}
        self._crash_pending: Dict[str, Set[Tuple[int, int]]] = {}
        self._repair_durations: List[float] = []
        self._latencies: List[float] = []
        self._initial_devices = len(cluster.device_ids())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> ChaosReport:
        """Play the schedule, drain repairs, score the aftermath.

        Raises:
            InfeasibleRedundancyError: if a shrink would violate Lemma 2.1
                and ``allow_degraded`` is off.
        """
        for event in self._schedule:
            self._sim.schedule_at(
                event.time, lambda event=event: self._inject(event)
            )
        self._sim.schedule(self._options.sample_interval, self._sample)
        self._sim.run()
        self._finish()
        return self._report

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def _inject(self, event: FaultEvent) -> None:
        kind = event.kind.value
        self._report.faults[kind] = self._report.faults.get(kind, 0) + 1
        sink = obs.sink()
        if sink.enabled:
            registry = obs.metrics()
            registry.counter("chaos.faults").add(1)
            registry.counter(f"chaos.{kind}").add(1)
            sink.emit(
                "chaos.fault",
                fault=kind,
                device=event.device_id,
                time=self._sim.now,
            )
        if event.kind is FaultKind.CRASH:
            self._crash(event)
        elif event.kind is FaultKind.OUTAGE:
            self._cluster.device(event.device_id).mark_offline()
            self._sim.schedule(
                event.duration, lambda: self._window_closes(event.device_id)
            )
        elif event.kind is FaultKind.FLAKY:
            self._cluster.device(event.device_id).mark_flaky(
                FlakyProfile(event.error_rate, event.latency)
            )
            self._sim.schedule(
                event.duration, lambda: self._window_closes(event.device_id)
            )
        elif event.kind is FaultKind.SHRINK:
            self._shrink(event.device_id)

    def _window_closes(self, device_id: str) -> None:
        sink = obs.sink()
        if sink.enabled:
            sink.emit(
                "chaos.window_closed", device=device_id, time=self._sim.now
            )
        try:
            self._cluster.device(device_id).mark_online()
            self._device_back(device_id)
        except DeviceNotFoundError:
            pass  # shrunk away while its window was open
        self._kick_worker()  # shares on this device are reachable again

    def _device_back(self, device_id: str) -> Set[Tuple[int, int]]:
        """A device serves again (outage over, or replaced after a crash):
        queue a repair for every mapped share it lacks, and retry the
        abandoned repairs of blocks it holds a survivor of."""
        pending: Set[Tuple[int, int]] = set()
        for address, position in self._cluster.sync_device(device_id):
            if address in self._lost_blocks:
                continue
            self._given_up.discard((address, position, device_id))
            self._push(address, position, device_id)
            pending.add((address, position))
        device = self._cluster.device(device_id)
        for key in sorted(self._given_up):
            address, position, target = key
            placement = self._cluster.placement_of(address)
            if (
                address not in self._lost_blocks
                and device_id in placement
                and device.holds((address, placement.index(device_id)))
                and placement[position] == target
                and not self._cluster.device(target).holds((address, position))
            ):
                self._given_up.discard(key)
                self._task_attempts.pop(key, None)
                self._push(address, position, target)
        return pending

    def _push(self, address: int, position: int, device_id: str) -> None:
        survivors = self._readable_shares(address)
        self._queue.push(
            RepairTask(address, position, device_id, survivors, self._sim.now)
        )

    def _crash(self, event: FaultEvent) -> None:
        device_id = event.device_id
        self._cluster.fail_device(device_id)
        self._crash_times[device_id] = self._sim.now
        # Survey the damage: every share mapped to the device is gone;
        # blocks left with too few shares anywhere (an offline device
        # keeps its own, and repairs wait for it) are lost for good.
        for address, position in self._cluster.shares_on(device_id):
            if address in self._lost_blocks:
                continue
            survivors = self._cluster.held_shares(address)
            if survivors < self._cluster.code.data_shares:
                self._record_loss(address, survivors)
        # The blank replacement arrives later; repairs queue up then
        # (there is nowhere to write the rebuilt shares before that).
        self._sim.schedule(
            self._options.replacement_delay,
            lambda: self._replace(device_id),
        )

    def _replace(self, device_id: str) -> None:
        self._cluster.device(device_id).replace()
        repair_time = self._crash_times.get(device_id)
        pending = self._crash_pending[device_id] = self._device_back(device_id)
        if not pending and repair_time is not None:
            # Empty device: the "repair" is instant.
            self._repair_durations.append(self._sim.now - repair_time)
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("chaos.replacements").add(1)
            sink.emit(
                "chaos.replacement",
                device=device_id,
                queued=len(pending),
                time=self._sim.now,
            )
        self._kick_worker()

    def _shrink(self, device_id: str) -> None:
        copies = self._cluster.code.total_shares
        capacities = sorted(
            (
                capacity
                for other_id, capacity in self._cluster.stats().capacities.items()
                if other_id != device_id
            ),
            reverse=True,
        )
        feasible = (
            len(capacities) >= copies
            and is_capacity_efficient(capacities, copies)
        )
        if not feasible and not self._options.allow_degraded:
            raise InfeasibleRedundancyError(
                f"removing {device_id!r} leaves {len(capacities)} devices "
                f"(largest={capacities[0] if capacities else 0}) which cannot "
                f"hold {copies} fair copies (Lemma 2.1: k*b_0 <= B fails); "
                f"pass allow_degraded to force the shrink"
            )
        self._cluster.remove_device(device_id)

    # ------------------------------------------------------------------
    # Repair worker
    # ------------------------------------------------------------------

    def _kick_worker(self) -> None:
        if not self._worker_busy and self._queue:
            self._worker_busy = True
            self._sim.schedule(self._options.policy.interval, self._work)

    def _work(self) -> None:
        policy = self._options.policy
        if not self._queue:
            self._worker_busy = False
            return
        task = self._queue.pop()
        extra_latency = 0.0
        if self._sim.now - task.enqueued_at > policy.timeout:
            self._abandon(task, self._task_attempts.get(self._key(task), 0))
        else:
            extra_latency = self._attempt(task)
        if self._queue:
            self._sim.schedule(policy.interval + extra_latency, self._work)
        else:
            self._worker_busy = False

    @staticmethod
    def _key(task: RepairTask) -> Tuple[int, int, str]:
        return (task.address, task.position, task.device_id)

    def _attempt(self, task: RepairTask) -> float:
        """Run one repair attempt; returns extra latency it incurred."""
        policy = self._options.policy
        key = self._key(task)
        attempt = self._task_attempts.get(key, 0) + 1
        self._task_attempts[key] = attempt
        self._attempt_seq += 1
        self._report.attempts += 1
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("chaos.repair.attempts").add(1)

        device = self._cluster.device(task.device_id)
        # A repair touches the target *and* the survivor sources; any
        # flaky participant can fail the attempt and adds its latency.
        error_rate, latency = self._flaky_exposure(task)

        if not device.is_active:
            self._retry(task, attempt, reason="target-unavailable")
            return latency
        if error_rate > 0.0 and self._flaky_error(task, error_rate):
            self._retry(task, attempt, reason="flaky-error")
            return latency
        need = self._cluster.code.data_shares
        shares, skipped = self._cluster.collect_shares(task.address, need=need)
        if len(shares) < need and skipped:
            # Survivors sit on devices that cannot serve right now.
            self._retry(task, attempt, reason="survivors-unavailable")
            return latency
        try:
            payload = self._cluster.rebuild_share(shares, task.position)
        except DecodingError:
            self._record_loss(task.address, self._readable_shares(task.address))
            return latency
        device.store((task.address, task.position), payload)
        self._complete(task)
        return latency

    def _flaky_exposure(self, task: RepairTask) -> Tuple[float, float]:
        """Worst flaky error rate / latency among the attempt's devices."""
        involved = {task.device_id, *self._cluster.placement_of(task.address)}
        profiles = [
            profile
            for profile in (self._cluster.device(d).profile for d in involved)
            if profile is not None
        ]
        if not profiles:
            return 0.0, 0.0
        return (
            max(profile.error_rate for profile in profiles),
            max(profile.latency for profile in profiles),
        )

    def _flaky_error(self, task: RepairTask, error_rate: float) -> bool:
        draw = unit_interval_open(
            "chaos-flaky", self._options.seed, task.device_id,
            self._attempt_seq,
        )
        return draw < error_rate

    def _retry(self, task: RepairTask, attempt: int, reason: str) -> None:
        policy = self._options.policy
        if attempt >= policy.max_attempts:
            self._abandon(task, attempt)
            return
        self._report.retries += 1
        if obs.sink().enabled:
            obs.metrics().counter("chaos.repair.retries").add(1)
        delay = policy.backoff(attempt)

        def requeue() -> None:
            self._queue.push(task)
            self._kick_worker()

        self._sim.schedule(delay, requeue)

    def _abandon(self, task: RepairTask, attempts: int) -> None:
        error = RepairTimeoutError(
            task.device_id, task.address, task.position, attempts
        )
        self._report.abandoned.append(error)
        self._given_up.add(self._key(task))
        self._crash_pending.get(task.device_id, set()).discard(
            (task.address, task.position)
        )
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("chaos.repair.timeouts").add(1)
            sink.emit(
                "chaos.repair_timeout",
                device=task.device_id,
                address=task.address,
                position=task.position,
                attempts=attempts,
            )

    def _complete(self, task: RepairTask) -> None:
        latency = self._sim.now - task.enqueued_at
        self._latencies.append(latency)
        self._report.completed += 1
        self._report.repair_order.append((task.address, task.position))
        self._task_attempts.pop(self._key(task), None)
        pending = self._crash_pending.get(task.device_id)
        if pending is not None:
            pending.discard((task.address, task.position))
            if not pending:
                crash_time = self._crash_times.get(task.device_id)
                if crash_time is not None:
                    self._repair_durations.append(self._sim.now - crash_time)
        sink = obs.sink()
        if sink.enabled:
            registry = obs.metrics()
            registry.counter("chaos.repair.completed").add(1)
            registry.histogram("chaos.repair.latency").observe(latency)
            sink.emit(
                "chaos.repair",
                device=task.device_id,
                address=task.address,
                position=task.position,
                latency=latency,
            )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _readable_shares(self, address: int) -> int:
        """Shares of a block that are on serving, holding devices."""
        return len(self._cluster.collect_shares(address)[0])

    def _blocks_at_risk(self) -> int:
        """Blocks currently missing at least one readable share."""
        copies = self._cluster.code.total_shares
        return sum(
            1
            for address in self._cluster.addresses()
            if self._readable_shares(address) < copies
        )

    def _record_loss(self, address: int, survivors: int) -> None:
        if address in self._lost_blocks:
            return
        self._lost_blocks.add(address)
        event = LossEvent(
            time=self._sim.now, address=address, survivors=survivors
        )
        self._report.loss_events.append(event)
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().counter("chaos.blocks_lost").add(1)
            sink.emit(
                "chaos.loss",
                address=address,
                survivors=survivors,
                time=self._sim.now,
            )

    def _record_sample(self) -> None:
        """Take one blocks-at-risk sample and mirror it to the sink.

        Used by the periodic sampler *and* by :meth:`_finish` — a run
        shorter than ``sample_interval`` still produces a final
        ``chaos.sample`` trace event instead of being invisible in
        ``--jsonl`` output.
        """
        at_risk = self._blocks_at_risk()
        depth = len(self._queue)
        self._report.samples.append((self._sim.now, at_risk, depth))
        sink = obs.sink()
        if sink.enabled:
            obs.metrics().histogram("chaos.blocks_at_risk").observe(at_risk)
            sink.emit(
                "chaos.sample",
                time=self._sim.now,
                at_risk=at_risk,
                queue_depth=depth,
            )

    def _sample(self) -> None:
        self._record_sample()
        # Keep sampling while anything can still change: a fault to
        # inject, a window to close, a replacement, a retry or a repair
        # step is still on the clock.  Otherwise let the run drain.
        if self._sim.pending:
            self._sim.schedule(self._options.sample_interval, self._sample)

    def _finish(self) -> None:
        self._report.horizon = max(self._sim.now, self._schedule.duration)
        self._record_sample()
        if self._latencies:
            self._report.mean_repair_latency = sum(self._latencies) / len(
                self._latencies
            )
        self._report.fairness = self._fairness_verdict()
        durations = self._repair_durations or [0.0]  # no repair: no fit
        self._report.durability = observed_model(
            devices=self._initial_devices,
            tolerance=self._cluster.code.tolerance,
            failures=self._report.faults.get(FaultKind.CRASH.value, 0),
            horizon=self._report.horizon,
            mean_repair_time=sum(durations) / len(durations),
        )
        sink = obs.sink()
        if sink.enabled:
            sink.emit(
                "chaos.finished",
                horizon=self._report.horizon,
                completed=self._report.completed,
                lost=len(self._report.loss_events),
            )

    def _fairness_verdict(self) -> Optional[FairnessVerdict]:
        stats = self._cluster.stats()
        active = {
            device_id: used
            for device_id, used in stats.devices.items()
            if self._cluster.device(device_id).is_active
        }
        if len(active) < 2 or sum(active.values()) == 0:
            return None
        capacities = {
            device_id: float(stats.capacities[device_id])
            for device_id in active
        }
        expected = fair_copy_shares(
            capacities, self._cluster.code.total_shares
        )
        return chi_square_fairness(active, expected, alpha=self._options.alpha)


def run_chaos(
    cluster: Cluster,
    schedule: FaultSchedule,
    options: Optional[ChaosOptions] = None,
) -> ChaosReport:
    """Convenience wrapper: build a controller and run it once."""
    return ChaosController(cluster, schedule, options).run()
