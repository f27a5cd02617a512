"""Workload generators: one batch sampler per address distribution."""

from .addresses import ZipfGenerator, flash_crowd_sample, uniform_sample

__all__ = [
    "ZipfGenerator",
    "flash_crowd_sample",
    "uniform_sample",
]
