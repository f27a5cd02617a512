"""Workload generators: address populations, request traces, persistence."""

from .addresses import ZipfGenerator, flash_crowd_sample, sequential, uniform_sample
from .persistence import dump_trace, load_trace
from .traces import Op, Request, materialize, mixed, write_population, zipf_reads

__all__ = [
    "Op",
    "Request",
    "ZipfGenerator",
    "dump_trace",
    "flash_crowd_sample",
    "load_trace",
    "materialize",
    "mixed",
    "sequential",
    "uniform_sample",
    "write_population",
    "zipf_reads",
]
