"""Analytical models: durability (MTTDL) and mean-field replication."""

from .durability import (
    DurabilityModel,
    annual_loss_probability,
    mttdl,
    observed_model,
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
    "observed_model",
]
