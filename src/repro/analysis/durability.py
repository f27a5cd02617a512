"""Durability modelling: what the redundancy property is worth in years.

The paper motivates replication with "if a storage device fails, all of the
blocks stored in it cannot be recovered any more".  This module quantifies
the benefit with the standard Markov-chain MTTDL (mean time to data loss)
model and lets the discrete-event engine cross-check the closed forms by
simulation.

Model (classic, per redundancy group): devices fail independently at rate
``λ = 1/MTTF``; a failed device rebuilds at rate ``μ = 1/MTTR``; data is
lost when more than ``tolerance`` devices of one group are down at once.
For ``μ >> λ`` (always true in practice) the chain gives

    MTTDL(mirror, k=2)    ≈ μ / (2 λ²)
    MTTDL(code n, t)      ≈ μ^t / (binom(n, t+1) (t+1)! λ^{t+1} / n ... )

implemented exactly below as the expected absorption time of the
birth-death chain, not just the asymptotic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..hashing.primitives import unit_interval_open
from ..simulation.engine import Simulator


@dataclass(frozen=True)
class DurabilityModel:
    """A redundancy-group durability model.

    Attributes:
        devices: Devices in one redundancy group (``n``: k for mirroring,
            data+parity for an erasure code).
        tolerance: Simultaneous failures survived (``k - 1`` resp. parity
            count).
        mttf: Mean time to failure of one device (any consistent unit).
        mttr: Mean time to repair one device (same unit).
    """

    devices: int
    tolerance: int
    mttf: float
    mttr: float

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if not 0 <= self.tolerance < self.devices:
            raise ValueError("tolerance must be in [0, devices)")
        if self.mttf <= 0 or self.mttr <= 0:
            raise ValueError("mttf and mttr must be positive")

    @property
    def failure_rate(self) -> float:
        """Per-device failure rate λ."""
        return 1.0 / self.mttf

    @property
    def repair_rate(self) -> float:
        """Per-device repair rate μ."""
        return 1.0 / self.mttr


def mttdl(model: DurabilityModel) -> float:
    """Exact MTTDL of the birth-death failure chain.

    States 0..t track the number of failed devices; state t+1 (loss) is
    absorbing.  From state i: failure rate ``(n - i) λ``, repair rate
    ``i μ`` (parallel repairs).  The expected absorption time from state 0
    solves a linear system with a standard forward recurrence.
    """
    n = model.devices
    t = model.tolerance
    lam = model.failure_rate
    mu = model.repair_rate

    # E_i = expected time to absorption from state i, for i = 0..t.
    # E_i = 1/(f_i + r_i) + (f_i * E_{i+1} + r_i * E_{i-1})/(f_i + r_i)
    # with E_{t+1} = 0 and r_0 = 0.  Solve by expressing
    # E_i = a_i + b_i * E_{i+1} via forward elimination.
    a = [0.0] * (t + 1)
    b = [0.0] * (t + 1)
    for i in range(t + 1):
        fail = (n - i) * lam
        repair = i * mu
        total = fail + repair
        if i == 0:
            a[0] = 1.0 / total
            b[0] = fail / total
            continue
        # E_i = 1/total + (fail/total) E_{i+1} + (repair/total) E_{i-1}
        #     = 1/total + (fail/total) E_{i+1}
        #       + (repair/total)(a_{i-1} + b_{i-1} E_i)
        denominator = 1.0 - (repair / total) * b[i - 1]
        a[i] = (1.0 / total + (repair / total) * a[i - 1]) / denominator
        b[i] = (fail / total) / denominator
    # Back-substitute from E_{t+1} = 0.
    expected = 0.0
    for i in range(t, -1, -1):
        expected = a[i] + b[i] * expected
    return expected


def mttdl_mirror(copies: int, mttf: float, mttr: float) -> float:
    """MTTDL of plain k-fold mirroring."""
    return mttdl(DurabilityModel(copies, copies - 1, mttf, mttr))


def observed_model(
    devices: int,
    tolerance: int,
    failures: int,
    horizon: float,
    mean_repair_time: float,
) -> DurabilityModel:
    """Fit a :class:`DurabilityModel` to what a chaos run actually saw.

    Args:
        devices: Devices in the pool during the run.
        tolerance: Simultaneous failures survived (``k - 1`` for mirroring,
            the code's parity count otherwise).
        failures: Permanent device failures observed.
        horizon: Wall-clock length of the observation window (simulation
            time units).
        mean_repair_time: Average time from failure to the last share of
            the device being re-replicated.

    Returns:
        A model whose MTTF is the per-device empirical estimate
        ``devices * horizon / failures`` and whose MTTR is the observed
        mean repair time — feed it to :func:`mttdl` for the durability the
        observed failure/repair rates imply.

    Raises:
        ValueError: with no failures, a non-positive horizon, or a
            non-positive repair time (nothing to fit).
    """
    if failures < 1:
        raise ValueError("need at least one observed failure to fit MTTF")
    if horizon <= 0:
        raise ValueError("observation horizon must be positive")
    if mean_repair_time <= 0:
        raise ValueError("mean repair time must be positive")
    return DurabilityModel(
        devices=devices,
        tolerance=tolerance,
        mttf=devices * horizon / failures,
        mttr=mean_repair_time,
    )


def annual_loss_probability(model: DurabilityModel, year: float = 1.0) -> float:
    """P(data loss within one year), treating loss as ~exponential."""
    return 1.0 - math.exp(-year / mttdl(model))


def simulate_mttdl(
    model: DurabilityModel, runs: int = 200, seed: int = 0
) -> float:
    """Monte-Carlo MTTDL via the discrete-event engine.

    Each run plays exponential failure/repair races on one redundancy
    group until more than ``tolerance`` devices are down, and returns the
    mean loss time.  Used by tests to validate :func:`mttdl` end to end
    (engine + model), not as a substitute for it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    total_time = 0.0
    for run in range(runs):
        total_time += _single_run(model, seed, run)
    return total_time / runs


def _exponential(rate: float, *key) -> float:
    uniform = unit_interval_open("durability", *key)
    return -math.log(uniform) / rate


def _single_run(model: DurabilityModel, seed: int, run: int) -> float:
    simulator = Simulator()
    failed: List[bool] = [False] * model.devices
    state = {"down": 0, "lost_at": None, "draw": 0}

    def draw(rate: float) -> float:
        state["draw"] += 1
        return _exponential(rate, seed, run, state["draw"])

    def schedule_failure(device: int) -> None:
        simulator.schedule(draw(model.failure_rate), lambda: fail(device))

    def schedule_repair(device: int) -> None:
        simulator.schedule(draw(model.repair_rate), lambda: repair(device))

    def fail(device: int) -> None:
        if state["lost_at"] is not None or failed[device]:
            return
        failed[device] = True
        state["down"] += 1
        if state["down"] > model.tolerance:
            state["lost_at"] = simulator.now
            return
        schedule_repair(device)

    def repair(device: int) -> None:
        if state["lost_at"] is not None or not failed[device]:
            return
        failed[device] = False
        state["down"] -= 1
        schedule_failure(device)

    # Seed all first failures in one bulk heapify (same draw order, same
    # tie-breaking counters as per-device schedule calls).
    simulator.schedule_many(
        (draw(model.failure_rate), lambda device=device: fail(device))
        for device in range(model.devices)
    )
    while state["lost_at"] is None:
        if not simulator.step():  # pragma: no cover - chain always absorbs
            raise AssertionError("simulation ran out of events")
    return state["lost_at"]
