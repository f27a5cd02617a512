"""Tests for the columnar fleet simulator.

The load-bearing guarantee is leg equivalence: the NumPy leg and the
pure-Python leg (``repro._compat.np`` monkeypatched to None) must produce
bit-identical copy-count columns, loss lists and samples for any
configuration.  Six fixed reports are pinned by digest on both legs, so
the two cannot drift together.  Both legs step from event to event; a
per-epoch reference on plain lists (:func:`reference_fingerprint`) is the
oracle for that, repair order included; both properties draw the
erasure code, whose ``data_shares`` decide a loss.  On top of that we pin
determinism, the zero-divergence cross-check against the event-driven
controller (mirroring, RS and RDP), the mean-field fit and the repair
priority order.
"""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.analysis import mean_field_distribution, total_variation
from repro.chaos import (
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FleetOptions,
    FleetSimulator,
    RepairPolicy,
    crash_epochs,
    durability_phase_diagram,
    run_chaos,
    run_fleet,
)
from repro.chaos import fleet
from repro.cluster import Cluster
from repro.erasure import MirrorCode, ReedSolomonCode, RowDiagonalParityCode
from repro import obs
from repro.exceptions import ConfigurationError
from repro.hashing.primitives import derive_base
from repro.placement.kernels import bernoulli_indices
from repro.placement.registry import create
from repro.types import bins_from_capacities


#: Codes the properties draw: mirroring at k = 1 .. 4, and codes whose
#: m runs from 2 up to k (RS(2+0) loses a block on any kill).
CODES = [MirrorCode(k) for k in range(1, 5)] + [
    ReedSolomonCode(2, 0),
    ReedSolomonCode(2, 1),
    ReedSolomonCode(3, 1),
    ReedSolomonCode(4, 2),
    RowDiagonalParityCode(5),
]


def small_options(**overrides):
    defaults = dict(
        devices=8,
        blocks=64,
        copies=2,
        epochs=12,
        failure_rate=4.0,
        epochs_per_year=12,
        repair_rate=6.0,
        seed=3,
        device_capacity=32,
    )
    defaults.update(overrides)
    return FleetOptions(**defaults)


def report_fingerprint(report):
    """Everything that must match between the two legs, as plain data."""
    return (
        [int(count) for count in report.counts],
        list(report.lost_addresses),
        [
            (s.epoch, s.year, s.damaged, s.lost, s.distribution)
            for s in report.samples
        ],
        report.device_failures,
        report.repairs_completed,
        report.mean_repair_epochs,
        report.final_distribution,
        report.steady_state,
        report.mean_field,
        list(report.repair_order),
    )


def run_pure(options, crash_schedule=None, code=None):
    saved = compat.np
    compat.np = None
    try:
        return FleetSimulator(options, code=code).run(crash_schedule)
    finally:
        compat.np = saved


def run_leg(leg, options, crash_schedule=None, code=None):
    if leg == "pure":
        return run_pure(options, crash_schedule, code)
    if compat.np is None:
        pytest.skip("NumPy unavailable")
    return FleetSimulator(options, code=code).run(crash_schedule)


def reference_fingerprint(options, crash_schedule=None, data_shares=1):
    """:func:`report_fingerprint` of a run, computed one epoch at a time on
    plain lists: each epoch kills its failed devices in device order (a
    block is lost when it falls below ``data_shares``), then repairs the
    first ``budget`` damaged blocks in ``(copies, address)`` order (a
    stable sort by copy count of the address-ordered index, here rebuilt
    by a scan of all counts where the engine merges), each regaining its
    first dead share."""
    blocks, copies, need = options.blocks, options.copies, data_shares
    strategy = create(
        options.strategy,
        bins_from_capacities(
            [options.device_capacity] * options.devices, prefix="dev"
        ),
        copies=copies,
        **dict(options.strategy_options),
    )
    holds = [[] for _ in range(options.devices)]
    for slot, column in enumerate(strategy.place_many(range(blocks)).columns):
        for block, device in enumerate(column):
            holds[int(device)].append((slot, block))
    alive = [[True] * copies for _ in range(blocks)]
    dead_since = [[0] * copies for _ in range(blocks)]
    counts = [copies] * blocks
    lost, samples, order = [], [], []
    failures = waited = same_epoch = 0
    carry = 0.0
    epochs = options.total_epochs
    for epoch in range(1, epochs + 1):
        if crash_schedule is not None:
            failed = sorted(crash_schedule.get(epoch, ()))
        else:
            base = derive_base("chaos-fleet-fail", options.seed, epoch)
            failed = bernoulli_indices(
                [base], options.devices, options.failure_probability
            ).get(0, [])
        for device in failed:
            failures += 1
            for slot, block in holds[int(device)]:
                if alive[block][slot]:
                    alive[block][slot] = False
                    dead_since[block][slot] = epoch
                    counts[block] -= 1
                    if counts[block] == need - 1:
                        lost.append(block)
        damaged = [b for b in range(blocks) if need <= counts[b] < copies]
        carry += options.repair_rate
        budget = int(carry)
        carry -= budget
        for block in sorted(damaged, key=counts.__getitem__)[:budget]:
            slot = alive[block].index(False)
            alive[block][slot] = True
            counts[block] += 1
            waited += epoch - dead_since[block][slot]
            same_epoch += dead_since[block][slot] == epoch
            order.append((epoch, block))
        if epoch % options.resolved_sample_every == 0 or epoch == epochs:
            # Every lost block counts in class 0.
            classes = [len(lost)] + [0] * (need - 1) + [
                counts.count(c) for c in range(need, copies + 1)
            ]
            samples.append((
                epoch,
                epoch * options.dt,
                sum(need <= count < copies for count in counts),
                len(lost),
                tuple(count / blocks for count in classes),
            ))
    window = [s for s in samples if s[0] > epochs // 2] or samples[-1:]
    steady = tuple(
        sum(s[4][c] for s in window) / len(window) for c in range(copies + 1)
    )
    mean_field = tuple(
        mean_field_distribution(
            copies=copies,
            failure_probability=options.failure_probability,
            repair_fraction=options.repair_rate / blocks,
            sample_epochs=[s[0] for s in window],
            data_shares=need,
        )
    )
    repairs = len(order)
    return (
        counts,
        lost,
        samples,
        failures,
        repairs,
        (waited + 0.5 * same_epoch) / repairs if repairs else 0.0,
        samples[-1][4],
        steady,
        mean_field,
        order if options.record_repairs else [],
    )


def sweeps_of(leg, options, crash_schedule=None):
    """Report and ``chaos.fleet.sweeps`` counter of one traced run."""
    obs.reset_metrics()
    try:
        with obs.use_sink(obs.MemorySink()):
            report = run_leg(leg, options, crash_schedule)
        counters = obs.metrics().snapshot()["counters"]
        return report, counters["chaos.fleet.sweeps"]
    finally:
        obs.reset_metrics()


def report_digest(report):
    return hashlib.sha256(repr(report_fingerprint(report)).encode()).hexdigest()


#: Six fixed runs and the sha256 of their :func:`report_fingerprint`,
#: recorded from the engine's earlier per-class-set repair queue.  Leg
#: equivalence cannot see both legs drift together; these can.
PINNED_REPORTS = {
    # All k devices of block 7 crash in one epoch: damage, loss and the
    # prune of the damaged index happen together.
    "whole-placement-crash": (
        dict(devices=8, blocks=64, copies=3, epochs=10, failure_rate=0.0,
             repair_rate=5.0, seed=0, strategy="striping",
             device_capacity=32),
        "3c8da09722429edd75b33f3970419eec04023703bbdc04fd947e361fde925d8e",
    ),
    "one-copy": (
        dict(devices=6, blocks=80, copies=1, epochs=20, failure_rate=0.6,
             repair_rate=5.0, seed=11, strategy="redundant-share",
             device_capacity=40),
        "cbab1f1286e032b94d669492dc80ce6fda1ebff1cd037978fee98c77a52343b1",
    ),
    # Up to 200 damaged blocks against a budget of 2 per epoch.
    "four-copies-tight-budget": (
        dict(devices=10, blocks=200, copies=4, epochs=30, failure_rate=0.5,
             repair_rate=2.0, seed=5, strategy="striping",
             device_capacity=100),
        "0e19b6bb86940caaaa020e6db9d7d6f330eec16c92ba4e7bc87af8f4e15b89ef",
    ),
    "fractional-budget": (
        dict(devices=8, blocks=100, copies=2, epochs=40, failure_rate=0.4,
             repair_rate=0.3, seed=7, strategy="redundant-share",
             device_capacity=40),
        "dc3675164647834ccd52642f7b18436ee0023b3ada93fec284488d9c7b62aa51",
    ),
    "no-repair": (
        dict(devices=8, blocks=100, copies=3, epochs=25, failure_rate=0.4,
             repair_rate=0.0, seed=2, strategy="striping",
             device_capacity=50),
        "a2935c024e6dcdc0cbe1472205a39fc21d68ed1dd5f9c999f7fd216c3bf87314",
    ),
    "large-budget": (
        dict(devices=12, blocks=300, copies=3, epochs=36, failure_rate=2.0,
             repair_rate=1e4, seed=9, strategy="redundant-share",
             device_capacity=80),
        "e079c8dc3ddf627909935c498dfd168a69a1e9524f469fb0b2631f675c3d6552",
    ),
}


@pytest.mark.parametrize("leg", ["numpy", "pure"])
@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_is_pinned(name, leg):
    config, digest = PINNED_REPORTS[name]
    options = FleetOptions(epochs_per_year=12, record_repairs=True, **config)
    crashes = None
    if name == "whole-placement-crash":
        simulator = FleetSimulator(options)
        victim = create(
            "striping",
            bins_from_capacities([32] * 8, prefix="dev"),
            copies=3,
        ).place(7)
        devices = sorted(simulator.device_ids.index(d) for d in victim)
        crashes = {2: devices, 5: [0]}
    assert report_digest(run_leg(leg, options, crashes)) == digest


class TestLegEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        devices=st.integers(min_value=3, max_value=12),
        blocks=st.integers(min_value=1, max_value=400),
        code=st.sampled_from(CODES),
        epochs=st.integers(min_value=1, max_value=15),
        failure_rate=st.floats(min_value=0.0, max_value=8.0),
        repair_rate=st.floats(min_value=0.0, max_value=20.0),
        strategy=st.sampled_from(["striping", "redundant-share"]),
        crash_schedule=st.none()
        | st.dictionaries(
            st.integers(min_value=1, max_value=15),
            st.lists(st.integers(min_value=0, max_value=11), min_size=1,
                     max_size=4),
            max_size=4,
        ),
    )
    def test_numpy_and_pure_legs_are_bit_identical(
        self, seed, devices, blocks, code, epochs, failure_rate,
        repair_rate, strategy, crash_schedule,
    ):
        if compat.np is None:
            pytest.skip("NumPy unavailable; nothing to compare against")
        devices = max(devices, code.total_shares)
        if crash_schedule is not None:
            crash_schedule = {
                epoch: [device % devices for device in crashed]
                for epoch, crashed in crash_schedule.items()
            }
        options = FleetOptions(
            devices=devices,
            blocks=blocks,
            copies=code.total_shares,
            epochs=epochs,
            epochs_per_year=12,
            failure_rate=failure_rate,
            repair_rate=repair_rate,
            seed=seed,
            strategy=strategy,
            device_capacity=64,
            record_repairs=True,
        )
        numpy_report = FleetSimulator(options, code=code).run(crash_schedule)
        pure_report = run_pure(options, crash_schedule, code)
        assert report_fingerprint(numpy_report) == report_fingerprint(
            pure_report
        )

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    def test_failure_draws_do_not_depend_on_the_chunking(
        self, leg, monkeypatch
    ):
        # 8 devices: chunks of 1, 2 and 3 epochs cut a 12-epoch horizon
        # at every boundary the default chunk never reaches.
        options = small_options(record_repairs=True)
        reference = report_fingerprint(run_leg(leg, options))
        for draws in (8, 16, 24):
            monkeypatch.setattr(fleet, "_DRAWS_PER_CHUNK", draws)
            assert report_fingerprint(run_leg(leg, options)) == reference

    def test_legs_match_under_scheduled_crashes(self):
        if compat.np is None:
            pytest.skip("NumPy unavailable; nothing to compare against")
        options = small_options(failure_rate=0.0, record_repairs=True)
        crashes = {2: [0, 1], 7: [4]}
        numpy_report = FleetSimulator(options).run(crashes)
        pure_report = run_pure(options, crashes)
        assert report_fingerprint(numpy_report) == report_fingerprint(
            pure_report
        )
        assert numpy_report.device_failures == 3


class TestPerEpochReference:
    """The event loop against :func:`reference_fingerprint`."""

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        devices=st.integers(min_value=3, max_value=12),
        blocks=st.integers(min_value=1, max_value=300),
        code=st.sampled_from(CODES),
        epochs=st.integers(min_value=1, max_value=40),
        failure_rate=st.floats(min_value=0.0, max_value=8.0),
        repair_rate=st.sampled_from([0.0, 0.3, 2.5, 1e4])
        | st.floats(min_value=0.0, max_value=12.0),
        sample_every=st.integers(min_value=0, max_value=7),
        strategy=st.sampled_from(["striping", "redundant-share"]),
        crash_schedule=st.none()
        | st.dictionaries(
            st.integers(min_value=0, max_value=45),
            st.lists(st.integers(min_value=0, max_value=11), max_size=4),
            max_size=6,
        ),
    )
    def test_event_loop_equals_per_epoch_reference(
        self, leg, seed, devices, blocks, code, epochs, failure_rate,
        repair_rate, sample_every, strategy, crash_schedule,
    ):
        # Scheduled crashes repeat devices and fall outside the horizon.
        devices = max(devices, code.total_shares)
        if crash_schedule is not None:
            crash_schedule = {
                epoch: [device % devices for device in crashed]
                for epoch, crashed in crash_schedule.items()
            }
        options = FleetOptions(
            devices=devices,
            blocks=blocks,
            copies=code.total_shares,
            epochs=epochs,
            epochs_per_year=12,
            failure_rate=failure_rate,
            repair_rate=repair_rate,
            seed=seed,
            strategy=strategy,
            device_capacity=64,
            sample_every=sample_every,
            record_repairs=True,
        )
        report = run_leg(leg, options, crash_schedule, code)
        assert report_fingerprint(report) == reference_fingerprint(
            options, crash_schedule, code.data_shares
        )

    @staticmethod
    def one_crash(devices=8, blocks=240, copies=2, **overrides):
        """Options with failures off, and the shares dev-0 holds."""
        options = small_options(
            devices=devices, blocks=blocks, copies=copies, failure_rate=0.0,
            record_repairs=True, **overrides,
        )
        simulator = FleetSimulator(options)
        victim = simulator.device_ids.index("dev-0")
        columns = create(
            "striping",
            bins_from_capacities([options.device_capacity] * devices,
                                 prefix="dev"),
            copies=copies,
        ).place_many(range(blocks)).columns
        held = sum(list(column).count(victim) for column in columns)
        return options, victim, held

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    def test_run_ends_when_the_next_budget_does_not_fit(self, leg):
        options, victim, held = self.one_crash(epochs=20, sample_every=20)
        rate = (held - 1) // 2  # two epochs fit, a third does not
        options = dataclasses.replace(options, repair_rate=float(rate))
        report, sweeps = sweeps_of(leg, options, {1: [victim]})
        assert report_fingerprint(report) == reference_fingerprint(
            options, {1: [victim]}
        )
        assert [epoch for epoch, _ in report.repair_order] == (
            [1] * rate + [2] * rate + [3] * (held - 2 * rate)
        )
        assert sweeps == 2

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    def test_run_ends_at_a_sample_epoch(self, leg):
        options, victim, held = self.one_crash(repair_rate=1.0)
        options = dataclasses.replace(
            options, epochs=2 * held, sample_every=2 * held
        )
        _, sweeps = sweeps_of(leg, options, {1: [victim]})
        assert sweeps == 1
        options = dataclasses.replace(options, sample_every=3)
        report, sweeps = sweeps_of(leg, options, {1: [victim]})
        assert report_fingerprint(report) == reference_fingerprint(
            options, {1: [victim]}
        )
        assert sweeps == math.ceil(held / 3)

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    def test_run_ends_before_a_failure_epoch(self, leg):
        options, victim, held = self.one_crash(
            copies=3, epochs=6, repair_rate=1.0, sample_every=6
        )
        assert held > options.total_epochs
        _, sweeps = sweeps_of(leg, options, {1: [victim]})
        assert sweeps == 1
        crashes = {1: [victim], 6: [(victim + 1) % options.devices]}
        report, sweeps = sweeps_of(leg, options, crashes)
        assert report_fingerprint(report) == reference_fingerprint(
            options, crashes
        )
        assert sweeps == 2


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        options = small_options(record_repairs=True)
        first = run_fleet(options)
        second = run_fleet(options)
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_seed_changes_failure_draws(self):
        base = small_options()
        reseeded = dataclasses.replace(base, seed=base.seed + 1)
        assert report_fingerprint(run_fleet(base)) != report_fingerprint(
            run_fleet(reseeded)
        )


class TestControllerCrossCheck:
    @pytest.mark.parametrize(
        "code",
        [MirrorCode(2), ReedSolomonCode(4, 2), RowDiagonalParityCode(5)],
        ids=["mirror", "rs", "rdp"],
    )
    def test_zero_divergence_on_shared_schedule(self, code):
        # Same bins, strategy, code and crash times: the fleet engine and
        # the event-driven controller must agree exactly on which blocks
        # were lost, how many devices failed and the tolerance of their
        # MTTDL fits.  The victim's first tolerance + 1 devices crash
        # together, which loses it under any code.
        devices, blocks, copies = 8, 120, code.total_shares
        bins = bins_from_capacities([blocks * copies // 4] * devices,
                                    prefix="dev")
        device_ids = [spec.bin_id for spec in bins]
        strategy = create("striping", bins, copies=copies)
        victim = 17
        placement = strategy.place(victim)
        single = next(d for d in device_ids if d not in placement)
        schedule = FaultSchedule(
            [
                FaultEvent(2.0, FaultKind.CRASH, device)
                for device in placement[: code.tolerance + 1]
            ]
            + [FaultEvent(10.0, FaultKind.CRASH, single)]
        )

        cluster = Cluster(
            bins, lambda b: create("striping", b, copies=copies), code=code
        )
        for address in range(blocks):
            cluster.write(address, b"x")
        controller = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                seed=0,
                policy=RepairPolicy(rate=float(blocks), timeout=1000.0),
                replacement_delay=1.0,
            ),
        )

        simulator = FleetSimulator(
            small_options(
                devices=devices,
                blocks=blocks,
                copies=copies,
                epochs=16,
                failure_rate=0.0,
                repair_rate=float(blocks),
            ),
            bins=bins,
            code=code,
        )
        fleet = simulator.run(crash_epochs(schedule, simulator.device_ids))

        assert {loss.address for loss in controller.loss_events} == set(
            fleet.lost_addresses
        )
        assert victim in set(fleet.lost_addresses)
        assert controller.faults.get("crash", 0) == fleet.device_failures
        assert controller.durability.tolerance == code.tolerance
        assert fleet.durability.tolerance == code.tolerance

    def test_code_must_match_copies(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator(small_options(copies=2), code=ReedSolomonCode(4, 2))
        with pytest.raises(ConfigurationError):
            FleetSimulator(small_options(copies=3), code=MirrorCode(2))

    def test_scheduled_crash_hits_the_named_device(self):
        # Twelve equal devices: a capacity-ordered strategy ranks dev-10
        # before dev-2, so numbering devices by the bin list would crash
        # the wrong one.  With one copy per block and no repair, crashing
        # dev-2 must lose exactly the blocks placed on dev-2.
        blocks = 300
        bins = bins_from_capacities([40] * 12, prefix="dev")
        strategy = create("redundant-share", bins, copies=1)
        simulator = FleetSimulator(
            small_options(
                devices=12,
                blocks=blocks,
                copies=1,
                epochs=3,
                failure_rate=0.0,
                repair_rate=0.0,
                strategy="redundant-share",
            ),
            bins=bins,
        )
        assert simulator.device_ids == strategy.rank_ids
        assert simulator.device_ids != [spec.bin_id for spec in bins]
        schedule = FaultSchedule([FaultEvent(1.0, FaultKind.CRASH, "dev-2")])
        report = simulator.run(crash_epochs(schedule, simulator.device_ids))
        on_dev_2 = [a for a in range(blocks) if strategy.place(a) == ("dev-2",)]
        assert on_dev_2
        assert sorted(report.lost_addresses) == on_dev_2

    def test_crash_epochs_rejects_non_crash_kinds(self):
        schedule = FaultSchedule(
            [FaultEvent(1.0, FaultKind.OUTAGE, "dev-0", duration=2.0)]
        )
        with pytest.raises(ConfigurationError):
            crash_epochs(schedule, ["dev-0", "dev-1"])

    def test_crash_epochs_rejects_unknown_devices(self):
        schedule = FaultSchedule([FaultEvent(1.0, FaultKind.CRASH, "ghost")])
        with pytest.raises(ConfigurationError):
            crash_epochs(schedule, ["dev-0", "dev-1"])

    def test_crash_epochs_rounds_time_to_epoch(self):
        schedule = FaultSchedule(
            [
                FaultEvent(0.2, FaultKind.CRASH, "dev-0"),
                FaultEvent(3.6, FaultKind.CRASH, "dev-1"),
            ]
        )
        assert crash_epochs(schedule, ["dev-0", "dev-1"]) == {1: [0], 4: [1]}


class TestMeanField:
    def test_no_failures_keeps_full_redundancy(self):
        report = run_fleet(small_options(failure_rate=0.0))
        assert report.final_distribution[-1] == pytest.approx(1.0)
        assert report.mean_field[-1] == pytest.approx(1.0)
        assert report.mean_field_deviation == pytest.approx(0.0)
        assert not report.data_loss

    def test_steady_state_tracks_mean_field_at_scale(self):
        # Block coupling decays as 1/devices, so a moderately sized fleet
        # already sits close to the ODE prediction.
        report = run_fleet(
            FleetOptions(
                devices=200,
                blocks=4000,
                copies=3,
                epochs=120,
                epochs_per_year=12,
                failure_rate=1.2,
                repair_rate=60.0,
                seed=1,
                device_capacity=80,
            )
        )
        assert report.mean_field_deviation < 0.08

    def test_distributions_sum_to_one(self):
        report = run_fleet(small_options())
        for sample in report.samples:
            assert sum(sample.distribution) == pytest.approx(1.0)
        assert sum(report.steady_state) == pytest.approx(1.0)
        assert sum(report.mean_field) == pytest.approx(1.0)


class TestRepairPriority:
    def test_lowest_redundancy_repaired_first(self):
        # Crash two of a victim's devices and one other device in the
        # same epoch: blocks left with fewer survivors must be rebuilt
        # before healthier ones within every epoch.
        options = small_options(
            devices=6,
            blocks=48,
            copies=3,
            epochs=10,
            failure_rate=0.0,
            repair_rate=4.0,
            record_repairs=True,
        )
        simulator = FleetSimulator(options)
        strategy = create(
            "striping",
            bins_from_capacities([32] * 6, prefix="dev"),
            copies=3,
        )
        placement = strategy.place(0)
        crashed = sorted(
            int(device.split("-")[1]) for device in list(placement)[:2]
        )
        extra = next(i for i in range(6) if i not in crashed)
        report = simulator.run({1: sorted(crashed + [extra])})
        assert report.repair_order, "scenario repaired nothing"
        by_epoch = {}
        for epoch, block in report.repair_order:
            by_epoch.setdefault(epoch, []).append(block)
        single_survivor = {
            block
            for block in range(options.blocks)
            if len(
                set(strategy.place(block))
                & {f"dev-{d}" for d in crashed + [extra]}
            )
            >= 2
        }
        first_epoch = min(by_epoch)
        repaired_first = by_epoch[first_epoch][: len(single_survivor)]
        assert single_survivor, "crash pattern produced no critical blocks"
        assert set(repaired_first) <= single_survivor | set(
            by_epoch[first_epoch]
        )
        # The stronger property: no healthier block is rebuilt before any
        # critical block within the first sweep.
        critical_positions = [
            i
            for i, block in enumerate(by_epoch[first_epoch])
            if block in single_survivor
        ]
        if critical_positions:
            boundary = max(critical_positions)
            healthier_before = [
                block
                for block in by_epoch[first_epoch][:boundary]
                if block not in single_survivor
            ]
            assert healthier_before == []

    def test_repair_rate_zero_never_repairs(self):
        report = run_fleet(small_options(repair_rate=0.0))
        assert report.repairs_completed == 0

    def test_fractional_budget_accumulates(self):
        # rate=0.5 over 12 epochs must fund ~6 repairs if damage exists.
        report = run_fleet(
            small_options(failure_rate=6.0, repair_rate=0.5, epochs=12)
        )
        assert 0 < report.repairs_completed <= 6


class TestReportShape:
    def test_final_epoch_is_always_sampled(self):
        report = run_fleet(small_options(sample_every=100, epochs=7))
        assert report.samples[-1].epoch == 7

    def test_counts_match_final_distribution(self):
        report = run_fleet(small_options())
        counts = [int(count) for count in report.counts]
        histogram = [0] * (report.copies + 1)
        for count in counts:
            histogram[count] += 1
        observed = tuple(value / len(counts) for value in histogram)
        assert observed == pytest.approx(report.final_distribution)

    def test_summary_mentions_mean_field_fit(self):
        report = run_fleet(small_options())
        assert "mean-field fit" in report.summary()
        assert "TV=" in report.summary()

    def test_durability_fit_requires_failures_and_repairs(self):
        calm = run_fleet(small_options(failure_rate=0.0))
        assert calm.durability is None
        stormy = run_fleet(small_options(failure_rate=6.0, repair_rate=50.0))
        if stormy.device_failures and stormy.repairs_completed:
            assert stormy.durability is not None
            assert stormy.durability.mttf > 0


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"devices": 0},
            {"blocks": 0},
            {"copies": 0},
            {"copies": 9, "devices": 8},
            {"epochs_per_year": 0},
            {"epochs": 0},
            {"failure_rate": -1.0},
            {"repair_rate": -1.0},
            {"device_capacity": 0},
            {"sample_every": -1},
        ],
    )
    def test_rejects_bad_options(self, overrides):
        with pytest.raises(ConfigurationError):
            small_options(**overrides)

    def test_rejects_non_positive_years(self):
        with pytest.raises(ConfigurationError):
            FleetOptions(devices=4, blocks=8, copies=2, years=0.0)

    def test_bins_must_match_devices(self):
        bins = bins_from_capacities([10] * 3, prefix="dev")
        with pytest.raises(ConfigurationError):
            FleetSimulator(small_options(devices=8), bins=bins)

    def test_scheduled_crash_out_of_range(self):
        simulator = FleetSimulator(small_options(devices=4))
        with pytest.raises(ConfigurationError):
            simulator.run({1: [4]})


class TestPhaseDiagram:
    def test_loss_fraction_decreases_with_repair_rate(self):
        options = small_options(
            devices=16,
            blocks=200,
            copies=2,
            epochs=40,
            failure_rate=5.0,
            device_capacity=40,
        )
        points = durability_phase_diagram(options, [0.0, 2.0, 40.0])
        assert [point.repair_rate for point in points] == [0.0, 2.0, 40.0]
        assert points[0].lost_fraction >= points[-1].lost_fraction
        assert points[-1].mean_copies >= points[0].mean_copies
        for point in points:
            assert 0.0 <= point.lost_fraction <= 1.0
            assert len(point.steady_state) == options.copies + 1

    def test_phase_points_reuse_options(self, monkeypatch):
        # One strategy build serves every rate, and each point is what a
        # fresh run at that rate reports.
        options = small_options(failure_rate=5.0, epochs=20)
        rates = [0.0, 0.5, options.repair_rate, 40.0]
        builds = []
        real_create = fleet.create

        def counting_create(*args, **kwargs):
            builds.append(args)
            return real_create(*args, **kwargs)

        monkeypatch.setattr(fleet, "create", counting_create)
        points = durability_phase_diagram(options, rates)
        assert len(builds) == 1
        monkeypatch.undo()
        for point, rate in zip(points, rates):
            report = run_fleet(dataclasses.replace(options, repair_rate=rate))
            assert point.lost_fraction == report.lost_blocks / options.blocks
            assert point.steady_state == report.steady_state
            assert point.mean_field_deviation == report.mean_field_deviation


class TestObservability:
    def test_fleet_metrics_and_events_emitted(self):
        from repro import obs

        obs.reset_metrics()
        sink = obs.MemorySink()
        with obs.use_sink(sink):
            run_fleet(small_options(failure_rate=6.0))
        names = {event.kind for event in sink.events}
        assert "chaos.fleet.finished" in names
        assert "chaos.fleet.sample" in names
        counters = obs.metrics().snapshot()["counters"]
        assert counters.get("chaos.fleet.epochs") == 12
        assert "chaos.fleet.device_failures" in counters
        assert "chaos.fleet.sweeps" in counters
        obs.reset_metrics()

    @pytest.mark.parametrize("leg", ["numpy", "pure"])
    def test_calm_run_is_one_sweep(self, leg):
        # One crash, then 10 000 quiet epochs: a fractional budget repairs
        # the damage over ~200 epochs in one run, and the empty index
        # carries the loop to the end.
        options = small_options(
            devices=8, blocks=400, copies=2, epochs=10_000, failure_rate=0.0,
            repair_rate=0.5, sample_every=10_000,
        )
        report, sweeps = sweeps_of(leg, options, {1: [0]})
        assert report.repairs_completed == 400 * 2 // 8  # dev-0's shares
        assert report.final_distribution[-1] == 1.0
        assert sweeps == 1


class TestTotalVariation:
    def test_identical_distributions(self):
        assert total_variation((0.5, 0.5), (0.5, 0.5)) == 0.0

    def test_disjoint_distributions(self):
        assert total_variation((1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            total_variation((1.0,), (0.5, 0.5))
