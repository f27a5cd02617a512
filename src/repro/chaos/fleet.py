"""Columnar fleet-scale chaos: vectorized failure/repair simulation.

:class:`ChaosController` replays faults one discrete event at a time
against a live :class:`~repro.cluster.cluster.Cluster` — perfect for
validating the repair machinery on tens of devices, hopeless for a
thousand devices times a million blocks over a decade.  This module is
the columnar counterpart: block state lives in arrays (device assignment
columns from :meth:`place_many`, per-block share counts, per-share alive
masks) and time is counted in *epochs* (``1 / epochs_per_year`` years
each).  The loss rule is the controller's, read from the same
:class:`~repro.erasure.base.ErasureCode`: a block of ``k = total_shares``
is lost below ``m = data_shares`` (1 for mirroring).  Per epoch:

1. **Failure draw.**  Every device fails independently with probability
   ``p = 1 - exp(-failure_rate * dt)``, drawn on the SplitMix64 pipeline
   a chunk of epochs per :func:`~repro.placement.kernels.bernoulli_indices`
   call, so the failed-device set is a pure function of ``(seed, epoch)``
   and bit-identical between the NumPy leg and the pure-Python leg
   (``REPRO_PURE_PYTHON=1``).  A failed device loses all its shares and
   is immediately replaced by a blank device in the same slot (the
   placement map never changes — repairs rebuild onto the replacement,
   exactly the controller's crash/replace semantics with a sub-epoch
   replacement delay).  A block below ``m`` shares is lost for good (never
   repaired; samples count it in class 0).
2. **Priority repair sweep.**  The *damaged index* holds the blocks of
   classes ``m .. k-1``, in address order; an epoch's kills are merged
   into it once.  A budget of ``repair_rate`` share rebuilds
   per epoch (fractional budgets carry over) goes to the index's first
   blocks in ``(copies, address)`` order — one stable sort by copy count
   — mirroring the event-driven :class:`~repro.chaos.recovery.RepairQueue`
   priority ``(survivors, address, position)``.  A taken block gets its
   first dead share back, so it rises one class per epoch at most, which
   is also what the mean-field recursion models.

:meth:`FleetSimulator.run` does not visit every epoch.  It steps from
event to event — failure epochs, sample epochs, the last epoch and the
end of each *repair run* — and one sweep covers a whole run.  After the
kills and the merge at epoch ``e``, let ``s`` be the size of the lowest
copy class in the damaged index.  The run is the longest stretch of
epochs from ``e`` that ends before the next failure epoch, no later than
the next sample epoch, and whose cumulative budget is at most ``s`` (or
epoch ``e`` alone when its own budget exceeds ``s``; any stretch when the
index is empty).  The budget carry is still walked epoch by epoch, and
the sweep stamps each repaired block with the epoch whose budget paid
for it.  This is exact: every block the run takes is in the lowest
class, taken in address order; no block is taken twice; and no kill
falls inside the run — so one sweep per epoch would take the same
blocks at the same epochs.

The observed copy-count distribution is validated two ways: the
steady-state histogram (time-average over the second half of the run)
is fitted against the mean-field prediction of
:mod:`repro.analysis.mean_field` (Sun et al., PAPERS.md) by
total-variation distance, and the observed failure/repair rates feed
:func:`repro.analysis.durability.observed_model` for an empirical MTTDL
— the same fit the event-driven controller reports.

Cross-checks against the controller use :func:`crash_epochs` to map a
:class:`~repro.chaos.schedule.FaultSchedule` onto scheduled crash
epochs (one controller time unit == one epoch); with the same bins,
strategy and code both engines must then agree exactly on which blocks
were lost (`benchmarks/bench_table_fleet_durability.py` and the
``fleet-smoke`` CI job gate on zero divergence).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from .._compat import get_numpy
from ..analysis.durability import DurabilityModel, mttdl, observed_model
from ..analysis.mean_field import mean_field_distribution, total_variation
from ..erasure import ErasureCode, MirrorCode
from ..exceptions import ConfigurationError
from ..hashing.primitives import derive_base, derive_bases
from ..placement.kernels import bernoulli_indices, class_histogram
from ..placement.registry import create
from ..types import BinSpec, bins_from_capacities
from .schedule import FaultKind, FaultSchedule

__all__ = [
    "FleetOptions",
    "FleetReport",
    "FleetSample",
    "FleetSimulator",
    "PhasePoint",
    "crash_epochs",
    "durability_phase_diagram",
    "run_fleet",
]

#: Failure draws per :func:`bernoulli_indices` call (epochs x devices).
_DRAWS_PER_CHUNK = 1 << 14


@dataclass(frozen=True)
class FleetOptions:
    """Tuning for one fleet run.

    Attributes:
        devices: Fleet size (uniform capacity, named ``dev-{i}``).
        blocks: Block population; every block starts at full redundancy.
        copies: Shares per block ``k`` (the code's ``total_shares``).
        years: Simulated horizon (ignored when ``epochs`` is set).
        epochs_per_year: Epoch resolution; ``dt = 1 / epochs_per_year``.
        epochs: Explicit epoch count override (exact horizons for
            cross-checks against the event-driven controller).
        failure_rate: Device failures per device-year (so the per-epoch
            failure probability is ``1 - exp(-failure_rate * dt)``).
        repair_rate: Fleet-wide share rebuilds per epoch.
        seed: Seeds the per-epoch failure draws.
        strategy: Registry name used for the initial ``place_many``.
        strategy_options: Per-strategy options validated against the
            registry entry's schema (e.g. striping's ``resolution``).
        device_capacity: Uniform per-device capacity handed to the
            strategy (relative units; only ratios matter).
        sample_every: Epochs between samples (0 = auto, ~120 samples).
        record_repairs: Keep the full ``(epoch, block)`` repair order in
            the report (tests only — it can be millions of entries).
    """

    devices: int = 1000
    blocks: int = 1_000_000
    copies: int = 3
    years: float = 10.0
    epochs_per_year: int = 365
    epochs: Optional[int] = None
    failure_rate: float = 0.08
    repair_rate: float = 5000.0
    seed: int = 0
    strategy: str = "striping"
    strategy_options: Mapping[str, object] = field(default_factory=dict)
    device_capacity: int = 100
    sample_every: int = 0
    record_repairs: bool = False

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigurationError("devices must be >= 1")
        if self.blocks < 1:
            raise ConfigurationError("blocks must be >= 1")
        if not 1 <= self.copies <= self.devices:
            raise ConfigurationError("copies must be in [1, devices]")
        if self.epochs_per_year < 1:
            raise ConfigurationError("epochs_per_year must be >= 1")
        if self.epochs is None and self.years <= 0:
            raise ConfigurationError("years must be positive")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.failure_rate < 0:
            raise ConfigurationError("failure_rate must be >= 0")
        if self.repair_rate < 0:
            raise ConfigurationError("repair_rate must be >= 0")
        if self.device_capacity < 1:
            raise ConfigurationError("device_capacity must be >= 1")
        if self.sample_every < 0:
            raise ConfigurationError("sample_every must be >= 0")

    @property
    def dt(self) -> float:
        """Epoch length in years."""
        return 1.0 / self.epochs_per_year

    @property
    def total_epochs(self) -> int:
        """Number of epochs the run simulates (>= 1)."""
        if self.epochs is not None:
            return self.epochs
        return max(1, round(self.years * self.epochs_per_year))

    @property
    def horizon_years(self) -> float:
        """Simulated horizon in years (exactly ``total_epochs * dt``)."""
        return self.total_epochs * self.dt

    @property
    def failure_probability(self) -> float:
        """Per-device failure probability in one epoch."""
        return -math.expm1(-self.failure_rate * self.dt)

    @property
    def resolved_sample_every(self) -> int:
        """Sampling cadence in epochs (auto: ~120 samples per run)."""
        if self.sample_every > 0:
            return self.sample_every
        return max(1, self.total_epochs // 120)


@dataclass(frozen=True)
class FleetSample:
    """One point of the copy-count timeline.

    Attributes:
        epoch: Epoch index (1-based; epoch 0 is the initial state).
        year: ``epoch * dt``.
        damaged: Blocks currently below full redundancy but not lost.
        lost: Cumulative blocks lost (below ``m`` shares; never repaired).
        distribution: Share-count distribution ``x_0 .. x_k`` (fractions;
            every lost block counts in class 0).
    """

    epoch: int
    year: float
    damaged: int
    lost: int
    distribution: Tuple[float, ...]


@dataclass
class FleetReport:
    """Everything a fleet run measured.

    Attributes:
        devices/blocks/copies/epochs/dt/strategy/seed: Echo of the run
            configuration (``dt`` in years per epoch).
        device_failures: Device-failure events drawn (with replacement —
            a device slot can fail repeatedly).
        repairs_completed: Shares rebuilt by the priority sweep.
        mean_repair_epochs: Mean share down-time in epochs (same-epoch
            rebuilds count as half an epoch, so the mean is positive
            whenever any repair happened).
        lost_addresses: Blocks that fell below ``m`` shares, in loss
            order.
        samples: Copy-count timeline (always includes the final epoch).
        final_distribution: Copy-count distribution at the last epoch.
        steady_state: Time-averaged distribution over the second half of
            the samples — the histogram validated against theory.
        mean_field: Mean-field prediction averaged over the same sample
            epochs (see :mod:`repro.analysis.mean_field`).
        counts: Final per-block share counts (leg-native column: int16
            array on the NumPy leg, list on the pure leg; a lost block
            keeps the shares it still has).
        repair_order: ``(epoch, block)`` completion order when
            ``record_repairs`` was set.
        durability: Empirical MTTDL model fitted from the observed
            failure/repair rates (None without failures or repairs).
    """

    devices: int = 0
    blocks: int = 0
    copies: int = 0
    epochs: int = 0
    dt: float = 0.0
    strategy: str = ""
    seed: int = 0
    device_failures: int = 0
    repairs_completed: int = 0
    mean_repair_epochs: float = 0.0
    lost_addresses: List[int] = field(default_factory=list)
    samples: List[FleetSample] = field(default_factory=list)
    final_distribution: Tuple[float, ...] = ()
    steady_state: Tuple[float, ...] = ()
    mean_field: Tuple[float, ...] = ()
    counts: object = None
    repair_order: List[Tuple[int, int]] = field(default_factory=list)
    durability: Optional[DurabilityModel] = None

    @property
    def lost_blocks(self) -> int:
        """Blocks lost over the run."""
        return len(self.lost_addresses)

    @property
    def data_loss(self) -> bool:
        """True when any block became unrecoverable."""
        return bool(self.lost_addresses)

    @property
    def horizon_years(self) -> float:
        """Simulated horizon in years."""
        return self.epochs * self.dt

    @property
    def repair_throughput(self) -> float:
        """Completed share rebuilds per epoch over the whole run."""
        if self.epochs <= 0:
            return 0.0
        return self.repairs_completed / self.epochs

    @property
    def mean_field_deviation(self) -> float:
        """Total-variation distance between steady state and prediction."""
        if not self.steady_state or not self.mean_field:
            return 0.0
        return total_variation(self.steady_state, self.mean_field)

    def counts_list(self) -> List[int]:
        """Final copy counts as a plain list (leg-comparison helper)."""
        if self.counts is None:
            return []
        return [int(count) for count in self.counts]

    def summary(self) -> str:
        """Multi-line human-readable digest."""

        def _dist(distribution: Tuple[float, ...]) -> str:
            return " ".join(f"{value:.4f}" for value in distribution)

        lines = [
            f"fleet                {self.devices} devices x "
            f"{self.blocks} blocks x k={self.copies} ({self.strategy})",
            f"horizon              {self.horizon_years:.2f} years "
            f"({self.epochs} epochs, seed={self.seed})",
            f"device failures      {self.device_failures}",
            f"repairs completed    {self.repairs_completed} "
            f"(mean down-time {self.mean_repair_epochs:.2f} epochs, "
            f"{self.repair_throughput:.1f}/epoch)",
            f"blocks lost          {self.lost_blocks}",
            f"steady-state dist    {_dist(self.steady_state)}",
            f"mean-field dist      {_dist(self.mean_field)}",
            f"mean-field fit       TV={self.mean_field_deviation:.4f}",
        ]
        if self.durability is not None:
            lines.append(
                f"observed durability  MTTF={self.durability.mttf:.1f}y "
                f"MTTR={self.durability.mttr * 365:.2f}d "
                f"=> MTTDL~{mttdl(self.durability):.0f}y"
            )
        return "\n".join(lines)


class FleetSimulator:
    """Runs one columnar failure/repair campaign to its horizon."""

    def __init__(
        self,
        options: Optional[FleetOptions] = None,
        bins: Optional[Sequence[BinSpec]] = None,
        strategy=None,
        code: Optional[ErasureCode] = None,
    ) -> None:
        self._options = options or FleetOptions()
        self._code = code or MirrorCode(self._options.copies)
        if self._code.total_shares != self._options.copies:
            raise ConfigurationError(
                f"code produces {self._code.total_shares} shares but the "
                f"fleet places {self._options.copies} copies"
            )
        if bins is None:
            bins = bins_from_capacities(
                [self._options.device_capacity] * self._options.devices,
                prefix="dev",
            )
        if len(bins) != self._options.devices:
            raise ConfigurationError(
                f"bins ({len(bins)}) must match devices "
                f"({self._options.devices})"
            )
        self._bins = list(bins)
        self._strategy = strategy or create(
            self._options.strategy,
            self._bins,
            copies=self._options.copies,
            **dict(self._options.strategy_options),
        )

    @property
    def options(self) -> FleetOptions:
        """The run configuration."""
        return self._options

    @property
    def device_ids(self) -> List[str]:
        """Device ids in the order :meth:`run` numbers devices — the
        strategy's rank order, which differs from the bin list for
        capacity-ordered strategies.  Pass this to :func:`crash_epochs`."""
        return self._strategy.rank_ids

    def run(
        self, crash_schedule: Optional[Mapping[int, Sequence[int]]] = None
    ) -> FleetReport:
        """Simulate the full horizon and report.

        Args:
            crash_schedule: Optional ``{epoch: [device_index, ...]}``
                mapping of *scheduled* crashes.  When given, the random
                per-epoch failure draws are disabled — used by the
                zero-divergence cross-checks against the event-driven
                controller (see :func:`crash_epochs`).
        """
        opts = self._options
        np = get_numpy()
        blocks = opts.blocks
        devices = opts.devices
        copies, need = self._code.total_shares, self._code.data_shares
        epochs = opts.total_epochs
        p_fail = opts.failure_probability

        columns = self._strategy.place_many(range(blocks)).columns

        # --- columnar state -------------------------------------------
        if np is not None:
            alive = np.ones((copies, blocks), dtype=bool)
            counts = np.full(blocks, copies, dtype=np.int16)
            dead_since = np.zeros((copies, blocks), dtype=np.int64)
            # Inverted CSR index: which (slot, block) shares live on each
            # device.  Assignment is static (replacements take the failed
            # device's slot), so this is built once for the whole run.
            # A stable sort has one result; on 16-bit keys it is a radix sort.
            keys = np.uint16 if devices <= 1 << 16 else np.int64
            device_concat = np.concatenate(
                [np.asarray(column, dtype=keys) for column in columns]
            )
            order = np.argsort(device_concat, kind="stable")
            holds_slot, holds_block = np.divmod(order, blocks)
            pointers = np.searchsorted(
                device_concat[order], np.arange(devices + 1)
            )

            damaged = np.zeros(0, dtype=np.int64)

            def kill_device(device: int, epoch: int):
                low, high = pointers[device], pointers[device + 1]
                slots, hit = holds_slot[low:high], holds_block[low:high]
                live = alive[slots, hit]
                slots, hit = slots[live], hit[live]
                alive[slots, hit] = False
                dead_since[slots, hit] = epoch
                counts[hit] -= 1
                left = counts[hit]
                return hit[left == copies - 1], hit[left == need - 1].tolist()

            def admit(damaged, fresh, pruned: bool):
                # A block is fresh only on its k -> k-1 kill, so it is
                # never already in the index.
                damaged = np.sort(np.concatenate([damaged, *fresh]))
                return damaged[counts[damaged] >= need] if pruned else damaged

            def sweep(damaged, budget: int, run):
                level = counts[damaged]
                order = np.argsort(level, kind="stable")[:budget]
                taken = damaged[order]
                slots = alive[:, taken].argmin(0)  # first dead share
                if alive[slots, taken].any():
                    raise AssertionError("repair target has no dead share")
                alive[slots, taken] = True
                level[order] += 1
                counts[taken] = level[order]
                # Each block is stamped with the epoch its budget came from.
                when = run[0][0] if len(run) == 1 else np.repeat(*zip(*run))
                waits = when - dead_since[slots, taken]
                return damaged[level < copies], taken, waits.tolist()

        else:
            alive = [[True] * blocks for _ in range(copies)]
            counts = [copies] * blocks
            dead_since = [[0] * blocks for _ in range(copies)]
            holds: Dict[int, List[Tuple[int, int]]] = {}
            for slot, column in enumerate(columns):
                for block, device in enumerate(column):
                    holds.setdefault(int(device), []).append((slot, block))
            damaged = []

            def kill_device(device: int, epoch: int):
                fresh, gone = [], []
                for slot, block in holds.get(device, ()):
                    if alive[slot][block]:
                        alive[slot][block] = False
                        dead_since[slot][block] = epoch
                        counts[block] -= 1
                        if counts[block] == copies - 1:
                            fresh.append(block)
                        if counts[block] == need - 1:
                            gone.append(block)
                return fresh, gone

            def admit(damaged, fresh, pruned: bool):
                damaged = sorted(damaged + [b for part in fresh for b in part])
                return [b for b in damaged if not pruned or counts[b] >= need]

            def sweep(damaged, budget: int, run):
                taken = sorted(damaged, key=counts.__getitem__)[:budget]
                waits = []
                for block, epoch in zip(taken, _paid_epochs(run)):
                    dead = [s for s in range(copies) if not alive[s][block]]
                    if not dead:
                        raise AssertionError("repair target has no dead share")
                    alive[dead[0]][block] = True
                    counts[block] += 1
                    waits.append(epoch - dead_since[dead[0]][block])
                return [b for b in damaged if counts[b] < copies], taken, waits

        lost: List[int] = []
        device_failures = 0
        repairs = 0
        repair_wait_epochs = 0  # whole epochs a rebuilt share was down
        same_epoch_repairs = 0  # rebuilt in the epoch it died
        budget_carry = 0.0
        repair_order = [] if opts.record_repairs else None
        sample_every = opts.resolved_sample_every
        samples: List[FleetSample] = []
        sink = obs.sink()

        def damaged_classes() -> List[int]:
            # Blocks of the damaged index per copy count 0 .. k.
            levels = counts[damaged] if np else [counts[b] for b in damaged]
            return class_histogram(levels, copies + 1)

        def record_sample(epoch: int) -> None:
            # Classes m .. k-1 are the damaged index, class 0 the lost.
            damaged_total = len(damaged)
            class_counts = damaged_classes()
            class_counts[0] = len(lost)
            class_counts[copies] = blocks - len(lost) - damaged_total
            distribution = tuple(count / blocks for count in class_counts)
            samples.append(
                FleetSample(
                    epoch=epoch,
                    year=epoch * opts.dt,
                    damaged=damaged_total,
                    lost=len(lost),
                    distribution=distribution,
                )
            )
            if sink.enabled:
                obs.metrics().histogram("chaos.fleet.damaged").observe(
                    damaged_total
                )
                sink.emit(
                    "chaos.fleet.sample",
                    epoch=epoch,
                    damaged=damaged_total,
                    lost=len(lost),
                    distribution=list(distribution),
                )

        if crash_schedule is not None:
            failures = (
                (int(epoch), sorted(int(d) for d in crash_schedule[epoch]))
                for epoch in sorted(crash_schedule)
                if epoch in range(1, epochs + 1) and len(crash_schedule[epoch])
            )
        elif p_fail > 0.0:
            failures = _failure_draws(opts)
        else:
            failures = iter(())
        upcoming = next(failures, None)
        sweeps = 0

        epoch = 1
        while epoch <= epochs:
            # --- failures ---------------------------------------------
            if upcoming is not None and upcoming[0] == epoch:
                fresh = []
                lost_before = len(lost)
                for device in upcoming[1]:
                    device = int(device)
                    if not 0 <= device < devices:
                        raise ConfigurationError(
                            f"scheduled crash device {device} out of range"
                        )
                    device_failures += 1
                    newly_damaged, gone = kill_device(device, epoch)
                    fresh.append(newly_damaged)
                    lost.extend(gone)
                damaged = admit(damaged, fresh, len(lost) > lost_before)
                upcoming = next(failures, None)

            # --- one repair run, epochs first .. last ----------------
            # It ends by the next sample epoch, before the next failure,
            # and while its budget fits in the lowest class (``room``).
            stop = min(
                epochs,
                -(-epoch // sample_every) * sample_every,
                upcoming[0] - 1 if upcoming is not None else epochs,
            )
            room = next(filter(None, damaged_classes()), math.inf)
            first, total, run = epoch, 0, []
            while epoch <= stop:
                carry = budget_carry + opts.repair_rate
                budget = int(carry)
                if total + budget > room and epoch > first:
                    break
                budget_carry = carry - budget
                if budget:
                    run.append((epoch, budget))
                    total += budget
                epoch += 1
            last = epoch - 1
            if total and len(damaged):
                damaged, taken, waits = sweep(damaged, total, run)
                sweeps += 1
                repairs += len(waits)
                repair_wait_epochs += sum(waits)
                same_epoch_repairs += waits.count(0)
                if repair_order is not None:
                    repair_order.extend(
                        zip(_paid_epochs(run), map(int, taken))
                    )

            # --- sampling ---------------------------------------------
            if last % sample_every == 0 or last == epochs:
                record_sample(last)

        # --- aftermath ------------------------------------------------
        steady_window = [
            sample for sample in samples if sample.epoch > epochs // 2
        ] or samples[-1:]
        steady_state = tuple(
            sum(sample.distribution[klass] for sample in steady_window)
            / len(steady_window)
            for klass in range(copies + 1)
        )
        prediction = tuple(
            mean_field_distribution(
                copies=copies,
                failure_probability=p_fail,
                repair_fraction=opts.repair_rate / blocks,
                sample_epochs=[sample.epoch for sample in steady_window],
                data_shares=need,
            )
        )
        if repairs:
            mean_repair_epochs = (
                repair_wait_epochs + 0.5 * same_epoch_repairs
            ) / repairs
        else:
            mean_repair_epochs = 0.0

        durability = observed_model(
            devices=devices,
            tolerance=self._code.tolerance,
            failures=device_failures,
            horizon=opts.horizon_years,
            mean_repair_time=mean_repair_epochs * opts.dt,
        )

        report = FleetReport(
            devices=devices,
            blocks=blocks,
            copies=copies,
            epochs=epochs,
            dt=opts.dt,
            strategy=opts.strategy,
            seed=opts.seed,
            device_failures=device_failures,
            repairs_completed=repairs,
            mean_repair_epochs=mean_repair_epochs,
            lost_addresses=lost,
            samples=samples,
            final_distribution=samples[-1].distribution,
            steady_state=steady_state,
            mean_field=prediction,
            counts=counts,
            repair_order=repair_order or [],
            durability=durability,
        )
        if sink.enabled:
            registry = obs.metrics()
            registry.counter("chaos.fleet.epochs").add(epochs)
            registry.counter("chaos.fleet.sweeps").add(sweeps)
            registry.counter("chaos.fleet.device_failures").add(
                device_failures
            )
            registry.counter("chaos.fleet.repairs").add(repairs)
            registry.counter("chaos.fleet.blocks_lost").add(len(lost))
            registry.histogram("chaos.fleet.mean_repair_epochs").observe(
                mean_repair_epochs
            )
            sink.emit(
                "chaos.fleet.finished",
                epochs=epochs,
                device_failures=device_failures,
                repairs=repairs,
                lost=len(lost),
                tv_distance=report.mean_field_deviation,
            )
        return report


def _paid_epochs(run: Sequence[Tuple[int, int]]) -> Iterator[int]:
    """The epoch of each share rebuild a repair run's ``(epoch, budget)``
    pairs pay for, in order."""
    return itertools.chain.from_iterable(
        itertools.repeat(epoch, budget) for epoch, budget in run
    )


def _failure_draws(opts: FleetOptions) -> Iterator:
    """``(epoch, failed device indices)`` for each epoch of ``1 ..
    total_epochs`` that draws a failure, in epoch order, drawn a chunk of
    epochs per :func:`bernoulli_indices` call."""
    prefix = ("chaos-fleet-fail", opts.seed)
    chunk = max(1, _DRAWS_PER_CHUNK // opts.devices)
    for start in range(1, opts.total_epochs + 1, chunk):
        epochs = range(start, min(start + chunk, opts.total_epochs + 1))
        bases = derive_bases(epochs, *prefix) if get_numpy() else [
            derive_base(*prefix, epoch) for epoch in epochs
        ]
        hits = bernoulli_indices(bases, opts.devices, opts.failure_probability)
        yield from ((start + row, failed) for row, failed in hits.items())


def run_fleet(
    options: Optional[FleetOptions] = None,
    crash_schedule: Optional[Mapping[int, Sequence[int]]] = None,
) -> FleetReport:
    """Convenience wrapper: build a simulator and run it once."""
    return FleetSimulator(options).run(crash_schedule)


def crash_epochs(
    schedule: FaultSchedule, device_ids: Sequence[str]
) -> Dict[int, List[int]]:
    """Map a :class:`FaultSchedule` onto fleet crash epochs.

    ``device_ids`` must be the simulator's own numbering,
    :attr:`FleetSimulator.device_ids`.  One controller time unit
    corresponds to one fleet epoch; crash times are rounded to the
    nearest epoch (minimum 1).  Only pure-crash schedules can be
    cross-checked — the fleet engine has no notion of outage/flaky
    windows or shrinks.

    Raises:
        ConfigurationError: on non-crash events or unknown device ids.
    """
    index = {device_id: i for i, device_id in enumerate(device_ids)}
    mapping: Dict[int, List[int]] = {}
    for event in schedule:
        if event.kind is not FaultKind.CRASH:
            raise ConfigurationError(
                "fleet cross-checks support crash-only schedules "
                f"(got {event.kind.value!r} at t={event.time:g})"
            )
        if event.device_id not in index:
            raise ConfigurationError(
                f"schedule names unknown device {event.device_id!r}"
            )
        epoch = max(1, int(round(event.time)))
        mapping.setdefault(epoch, []).append(index[event.device_id])
    for devices in mapping.values():
        devices.sort()
    return mapping


@dataclass(frozen=True)
class PhasePoint:
    """One durability-vs-repair-rate measurement.

    Attributes:
        repair_rate: Share rebuilds per epoch for this run.
        lost_fraction: Fraction of the block population lost.
        mean_copies: Expected copy count under the steady state.
        steady_state: Steady-state copy-count distribution.
        mean_field_deviation: TV distance to the mean-field prediction.
    """

    repair_rate: float
    lost_fraction: float
    mean_copies: float
    steady_state: Tuple[float, ...]
    mean_field_deviation: float


def durability_phase_diagram(
    options: FleetOptions, repair_rates: Sequence[float]
) -> List[PhasePoint]:
    """Sweep ``repair_rate`` and record where durability collapses.

    Below the critical repair rate the fleet cannot keep up with the
    failure flux: steady-state mass drains from class ``k`` to below ``m``
    shares, where a block is lost, and the lost fraction takes off.  Above
    it, the distribution concentrates at full redundancy.  Every point is
    a :class:`FleetSimulator` on ``options``, so the loss rule is the
    simulator's own default code.  The sweep reuses the same seed per
    point, so two rates differ only in repair capacity, and builds the
    strategy once for all of them.
    """
    strategy = FleetSimulator(options)._strategy
    points = []
    for rate in repair_rates:
        report = FleetSimulator(
            dataclasses.replace(options, repair_rate=float(rate)),
            strategy=strategy,
        ).run()
        mean_copies = sum(
            klass * fraction
            for klass, fraction in enumerate(report.steady_state)
        )
        points.append(
            PhasePoint(
                repair_rate=float(rate),
                lost_fraction=report.lost_blocks / options.blocks,
                mean_copies=mean_copies,
                steady_state=report.steady_state,
                mean_field_deviation=report.mean_field_deviation,
            )
        )
    return points
