"""Durability value of the redundancy property (extension table).

The paper motivates replication by data loss on device failure; this bench
quantifies it: MTTDL (mean time to data loss) for the redundancy schemes
the library implements, from the exact Markov model, cross-checked by a
Gaussian elimination of the same chain over the rationals.  Units: days,
with MTTF = 1000 days and MTTR = 1 day per device.
"""

from fractions import Fraction

import pytest

from _tables import emit
from repro.analysis import DurabilityModel, mttdl
from repro.chaos import (
    ChaosOptions,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FleetOptions,
    FleetSimulator,
    RepairPolicy,
    crash_epochs,
    run_chaos,
)
from repro.cluster import Cluster
from repro.hashing.primitives import stable_u64
from repro.placement.registry import create
from repro.types import bins_from_capacities

MTTF = 1000.0
MTTR = 1.0

SCHEMES = {
    "no redundancy (k=1)": DurabilityModel(1, 0, MTTF, MTTR),
    "mirror k=2": DurabilityModel(2, 1, MTTF, MTTR),
    "mirror k=3": DurabilityModel(3, 2, MTTF, MTTR),
    "single parity (4+1)": DurabilityModel(5, 1, MTTF, MTTR),
    "RS / EVENODD / RDP (4+2)": DurabilityModel(6, 2, MTTF, MTTR),
}


def run_table():
    return {name: mttdl(model) for name, model in SCHEMES.items()}


def test_durability_table(benchmark):
    values = benchmark.pedantic(run_table, rounds=1, iterations=1)
    emit(
        f"MTTDL per redundancy group (MTTF={MTTF:.0f}d, MTTR={MTTR:.0f}d)",
        ["scheme", "MTTDL (days)", "MTTDL (years)"],
        [
            (name, f"{days:,.0f}", f"{days / 365.25:,.1f}")
            for name, days in values.items()
        ],
    )
    benchmark.extra_info.update(
        {name: round(days, 1) for name, days in values.items()}
    )

    # Qualitative shape: each added failure tolerance buys orders of
    # magnitude; parity codes sit between the mirrors of equal tolerance
    # (more devices => more exposure).
    assert values["no redundancy (k=1)"] == pytest.approx(MTTF)
    assert values["mirror k=2"] > 100 * values["no redundancy (k=1)"]
    assert values["mirror k=3"] > 100 * values["mirror k=2"]
    assert (
        values["mirror k=2"]
        > values["single parity (4+1)"]
        > values["no redundancy (k=1)"]
    )
    assert values["mirror k=3"] > values["RS / EVENODD / RDP (4+2)"]
    assert values["RS / EVENODD / RDP (4+2)"] > values["mirror k=2"]


def rational_mttdl(model):
    """Expected absorption time from state 0 by Gaussian elimination of
    ``(f_i + r_i) E_i - f_i E_(i+1) - r_i E_(i-1) = 1`` in exact
    fractions (``f_i = (n - i) λ``, ``r_i = i μ``, ``E_(t+1) = 0``)."""
    size = model.tolerance + 1
    lam, mu = 1 / Fraction(model.mttf), 1 / Fraction(model.mttr)
    rows = []
    for i in range(size):
        fail, repair = (model.devices - i) * lam, i * mu
        row = [Fraction(0)] * size + [Fraction(1)]
        row[i] = fail + repair
        if i + 1 < size:
            row[i + 1] = -fail
        if i > 0:
            row[i - 1] = -repair
        rows.append(row)
    for pivot, top in enumerate(rows):
        for row in rows[pivot + 1:]:
            factor = row[pivot] / top[pivot]
            row[:] = [x - factor * y for x, y in zip(row, top)]
    solution = [Fraction(0)] * size
    for i in reversed(range(size)):
        known = sum(x * y for x, y in zip(rows[i][i + 1:size], solution[i + 1:]))
        solution[i] = (rows[i][-1] - known) / rows[i][i]
    return solution[0]


def test_exact_solve_validates_model(benchmark):
    def experiment():
        return {
            name: (mttdl(model), rational_mttdl(model))
            for name, model in SCHEMES.items()
        }

    values = benchmark.pedantic(experiment, rounds=1, iterations=1)
    errors = {
        name: abs(Fraction(computed) / exact - 1)
        for name, (computed, exact) in values.items()
    }
    emit(
        f"Markov model vs exact rational solve (MTTF={MTTF:.0f}d, "
        f"MTTR={MTTR:.0f}d)",
        ["scheme", "MTTDL (days)", "exact (rational)", "relative error"],
        [
            (name, f"{computed:,.1f}", f"{float(exact):,.1f}",
             f"{float(errors[name]):.1e}")
            for name, (computed, exact) in values.items()
        ],
    )
    benchmark.extra_info.update(
        {f"{name} error": float(error) for name, error in errors.items()}
    )
    for name, error in errors.items():
        assert error <= 1e-13, (name, float(error))


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_fleet_matches_event_controller_losses(benchmark, seed):
    """Zero-divergence cross-check: fleet vs event-driven controller.

    Both engines replay the same seeded crash-only :class:`FaultSchedule`
    (a simultaneous pair picked as the placement of a seeded victim
    block, plus a later single crash) on the same bins and strategy; the
    sets of lost blocks must be identical.  Any divergence means one
    engine's loss accounting is wrong — fail loudly with both sets.
    """
    devices, blocks, copies = 10, 500, 2
    bins = bins_from_capacities([blocks // 2] * devices, prefix="dev")
    device_ids = [spec.bin_id for spec in bins]
    strategy = create("striping", bins, copies=copies)
    victim = stable_u64("durability-cross-check", seed) % blocks
    pair = strategy.place(victim)
    survivors = [device for device in device_ids if device not in pair]
    single = survivors[stable_u64("durability-single", seed) % len(survivors)]
    schedule = FaultSchedule(
        [FaultEvent(2.0, FaultKind.CRASH, device) for device in pair]
        + [FaultEvent(10.0, FaultKind.CRASH, single)]
    )

    def experiment():
        cluster = Cluster(
            bins, lambda b: create("striping", b, copies=copies)
        )
        for address in range(blocks):
            cluster.write(address, b"x" * 8)
        controller = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                seed=seed,
                policy=RepairPolicy(rate=float(blocks), timeout=1000.0),
                replacement_delay=1.0,
            ),
        )
        simulator = FleetSimulator(
            FleetOptions(
                devices=devices,
                blocks=blocks,
                copies=copies,
                epochs=16,
                failure_rate=0.0,
                repair_rate=float(blocks),
                seed=seed,
                strategy="striping",
            ),
            bins=bins,
        )
        fleet = simulator.run(crash_epochs(schedule, simulator.device_ids))
        return controller, fleet

    controller, fleet = benchmark.pedantic(experiment, rounds=1, iterations=1)
    controller_losses = {loss.address for loss in controller.loss_events}
    fleet_losses = set(fleet.lost_addresses)
    assert victim in controller_losses, (
        "cross-check scenario degenerate: the victim block survived the "
        "simultaneous pair crash"
    )
    if controller_losses != fleet_losses:
        pytest.fail(
            "LOSS DIVERGENCE between the event-driven controller and the "
            f"fleet engine (seed={seed}):\n"
            f"  controller lost {sorted(controller_losses)}\n"
            f"  fleet lost      {sorted(fleet_losses)}\n"
            f"  only controller {sorted(controller_losses - fleet_losses)}\n"
            f"  only fleet      {sorted(fleet_losses - controller_losses)}"
        )
    assert controller.faults.get("crash", 0) == fleet.device_failures
