"""Shared helpers for the benchmark harness: table formatting, the
exact distance from fair and the Figure 5 scaling sweep.

``emit`` is a thin wrapper over :mod:`repro.reporting` so benches and the
library render identically.  Every bench prints the rows/series of the
paper artifact it reproduces (run ``pytest benchmarks/ --benchmark-only
-s`` to see them) and records the headline numbers in
``benchmark.extra_info`` so they land in the pytest-benchmark JSON as
well.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

from repro.core.balanced_rendezvous import fit_weights
from repro.metrics import fair_copy_shares, max_share_deviation
from repro.placement.crush import CrushStrategy
from repro.reporting import render_table
from repro.simulation import run_adaptivity, scaling_cases
from repro.types import BinSpec


def emit(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a table (visible with ``pytest -s`` and in failure output)."""
    print(render_table(title, header, rows))


def fair_shares(bins: Sequence[BinSpec], copies: int) -> dict:
    """The Lemma 2.2 fair share of all copies for each of ``bins``."""
    return fair_copy_shares(
        {spec.bin_id: float(spec.capacity) for spec in bins}, copies
    )


def fair_distance(strategy, bins: Sequence[BinSpec]) -> float:
    """Largest gap between ``strategy``'s exact copy shares and the fair
    shares of ``bins`` at the degree it places: computed, no ball placed.

    ``bins`` are the devices' real capacities, which a strategy built on
    fitted weights (:func:`fitted_crush`) does not carry itself."""
    return max_share_deviation(
        strategy.expected_shares(), fair_shares(bins, strategy.copies)
    )


def fitted_crush(bins: Sequence[BinSpec], copies: int) -> CrushStrategy:
    """CRUSH on a fitted weight-set: each device's straw2 weight solves
    the race's top-``copies`` inclusion for ``copies`` times its fair
    share, so the race that misses fair on raw capacities (Lemma 2.4)
    meets it.  A bench-only row, not a registry entry; every device's
    weight is refitted when the fleet changes."""
    fair = fair_shares(bins, copies)
    weights = fit_weights([copies * fair[spec.bin_id] for spec in bins], copies)
    return CrushStrategy(
        [BinSpec(spec.bin_id, weight) for spec, weight in zip(bins, weights)],
        copies=copies,
    )


def scaling_factors(
    sizes: Sequence[int],
    factory: Callable[[Sequence[BinSpec]], object],
    balls: int,
) -> Dict[int, Dict[str, float]]:
    """``factor_positional`` of adding one bin as the ``"biggest"`` or the
    ``"smallest"`` to ``n`` homogeneous bins of 5 000, for each ``n`` in
    ``sizes``, over the balls ``range(balls)`` (Figure 5 and Section
    3.1's sweep)."""
    reports = run_adaptivity(scaling_cases(sizes, capacity=5_000), factory, balls)
    table: Dict[int, Dict[str, float]] = {}
    for label, report in reports.items():
        size, _, kind = label.split()  # e.g. "n=16 add biggest"
        table.setdefault(int(size[2:]), {})[kind] = report.factor_positional
    return table
