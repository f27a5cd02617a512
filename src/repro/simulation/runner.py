"""Experiment runners: evaluate strategies over scenarios.

These are strategy-level (no payload movement) versions of the cluster
operations — they place a synthetic ball population under each
configuration and measure fairness / movement, which is how the paper's
own simulation environment works and what the benches call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..capacity.clipping import clip_capacities
from ..metrics.adaptivity import MovementReport, compare_strategies
from ..metrics.fairness import fill_percentages
from ..placement.base import ReplicationStrategy
from ..types import BinSpec, sort_bins_by_capacity
from .scenarios import AddRemoveCase, GrowthStep

StrategyFactory = Callable[[Sequence[BinSpec]], ReplicationStrategy]


@dataclass(frozen=True)
class FairnessResult:
    """Fairness measurement for one configuration.

    Attributes:
        label: Scenario step label.
        fills: Percent-of-capacity used per bin (Figure 2/4 series).
        copies_per_bin: Raw copy counts.
    """

    label: str
    fills: Dict[str, float]
    copies_per_bin: Dict[str, int]

    @property
    def spread(self) -> float:
        """Max minus min fill percent — 0 is perfectly fair."""
        return max(self.fills.values()) - min(self.fills.values())


def run_fairness(
    steps: Sequence[GrowthStep],
    factory: StrategyFactory,
    balls: int,
) -> List[FairnessResult]:
    """Place ``balls`` balls under each step and report fill percentages.

    Fill is judged against each bin's *usable* capacity: the Lemma 2.2
    clipped capacity at the strategy's degree, which is the raw capacity
    wherever Lemma 2.1 holds.

    Args:
        steps: Configurations to evaluate (e.g. ``paper_growth_steps()``).
        factory: Strategy builder.
        balls: Ball population size (the same addresses for every step).
    """
    results: List[FairnessResult] = []
    for step in steps:
        strategy = factory(list(step.bins))
        counts = strategy.place_many(range(balls)).counts()
        ordered = sort_bins_by_capacity(step.bins)
        clipped = clip_capacities(
            [float(spec.capacity) for spec in ordered], strategy.copies
        )
        capacities = {
            spec.bin_id: capacity for spec, capacity in zip(ordered, clipped)
        }
        results.append(
            FairnessResult(
                label=step.label,
                fills=fill_percentages(counts, capacities),
                copies_per_bin=counts,
            )
        )
    return results


def run_adaptivity(
    cases: Sequence[AddRemoveCase],
    factory: StrategyFactory,
    balls: int,
) -> Dict[str, MovementReport]:
    """Movement of the balls ``range(balls)`` for each add/remove case,
    keyed by the case's label (in the order of ``cases``)."""
    return {
        case.label: compare_strategies(
            factory(list(case.before)),
            factory(list(case.after)),
            range(balls),
            [case.affected],
        )
        for case in cases
    }
