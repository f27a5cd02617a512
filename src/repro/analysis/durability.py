"""Durability modelling: what the redundancy property is worth in years.

The paper motivates replication with "if a storage device fails, all of the
blocks stored in it cannot be recovered any more".  This module quantifies
the benefit with the standard Markov-chain MTTDL (mean time to data loss)
model.

Model (classic, per redundancy group): devices fail independently at rate
``λ = 1/MTTF``; a failed device rebuilds at rate ``μ = 1/MTTR``; data is
lost when more than ``tolerance`` devices of one group are down at once.
For ``μ >> λ`` (always true in practice) the chain gives
``MTTDL(mirror, k=2) ≈ μ / (2 λ²)``; :func:`mttdl` computes the exact
expected absorption time of the birth-death chain, not just the
asymptotic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    ``i μ`` (parallel repairs).  With ``E_i`` the expected absorption
    time from state i, the differences ``D_i = E_i - E_(i+1)`` satisfy
    ``(n - i) λ D_i = 1 + i μ D_(i-1)``, so ``D_0 = 1 / (n λ)`` and
    ``MTTDL = E_0 = D_0 + ... + D_t``.  Every term is positive, so
    nothing cancels at any MTTF/MTTR ratio.
    """
    n, lam, mu = model.devices, model.failure_rate, model.repair_rate
    step = expected = 0.0
    for i in range(model.tolerance + 1):
        step = (1.0 + i * mu * step) / ((n - i) * lam)
        expected += step
    return expected


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
