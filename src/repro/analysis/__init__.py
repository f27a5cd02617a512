"""Analytical models: durability (MTTDL) and mean-field replication."""

from .durability import (
    DurabilityModel,
    annual_loss_probability,
    mttdl,
    mttdl_mirror,
    observed_model,
    simulate_mttdl,
)
from .mean_field import (
    mean_field_distribution,
    mean_field_step,
    total_variation,
)

__all__ = [
    "DurabilityModel",
    "annual_loss_probability",
    "mean_field_distribution",
    "mean_field_step",
    "mttdl",
    "mttdl_mirror",
    "observed_model",
    "simulate_mttdl",
]
