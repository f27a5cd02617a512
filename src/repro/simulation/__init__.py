"""Scenario builders, experiment runners and the event engine."""

from .engine import Simulator
from .runner import FairnessResult, run_adaptivity, run_fairness
from .scenarios import (
    AddRemoveCase,
    GrowthStep,
    add_remove_cases,
    capacity_change_cases,
    heterogeneous_bins,
    homogeneous_bins,
    paper_growth_steps,
    scaling_cases,
)

__all__ = [
    "AddRemoveCase",
    "FairnessResult",
    "GrowthStep",
    "Simulator",
    "add_remove_cases",
    "capacity_change_cases",
    "heterogeneous_bins",
    "homogeneous_bins",
    "paper_growth_steps",
    "run_adaptivity",
    "run_fairness",
    "scaling_cases",
]
