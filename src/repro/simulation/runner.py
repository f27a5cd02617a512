"""Experiment runners: evaluate strategies over scenarios.

These are strategy-level (no payload movement) versions of the cluster
operations — they place a synthetic ball population under each
configuration and measure fairness / movement, which is how the paper's
own simulation environment works and what the benches call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..metrics.adaptivity import MovementReport, compare_strategies
from ..metrics.fairness import count_copies, fill_percentages
from ..placement.base import ReplicationStrategy
from ..types import BinSpec
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

    Args:
        steps: Configurations to evaluate (e.g. ``paper_growth_steps()``).
        factory: Strategy builder.
        balls: Ball population size (the same addresses for every step).
    """
    results: List[FairnessResult] = []
    addresses = range(balls)
    for step in steps:
        strategy = factory(list(step.bins))
        # One vectorized batch per configuration (count_copies consumes the
        # rank columns directly); strategies without a batch engine fall
        # back to the scalar loop inside place_many.
        counts = count_copies(strategy.place_many(addresses))
        capacities = {spec.bin_id: float(spec.capacity) for spec in step.bins}
        # Fairness is judged against *usable* (clipped) capacity where the
        # strategy exposes it; raw capacity otherwise.
        effective = getattr(strategy, "effective_capacities", None)
        if callable(effective):
            capacities = effective()
        fills = fill_percentages(counts, capacities)
        results.append(
            FairnessResult(label=step.label, fills=fills, copies_per_bin=counts)
        )
    return results


@dataclass(frozen=True)
class AdaptivityResult:
    """Movement measurement for one add/remove case.

    Attributes:
        label: Case label (e.g. ``"het. add big"``).
        report: The underlying movement numbers.
    """

    label: str
    report: MovementReport

    @property
    def used(self) -> int:
        """Copies on the affected bin."""
        return self.report.used_on_affected

    @property
    def replaced(self) -> int:
        """Copies that changed device."""
        return self.report.moved_positional

    @property
    def factor(self) -> float:
        """``replaced / used`` — the Figure 3/5 competitive factor."""
        return self.report.factor_positional


def run_adaptivity(
    cases: Sequence[AddRemoveCase],
    factory: StrategyFactory,
    balls: int,
) -> List[AdaptivityResult]:
    """Measure movement for each add/remove case."""
    results: List[AdaptivityResult] = []
    addresses = list(range(balls))
    for case in cases:
        before = factory(list(case.before))
        after = factory(list(case.after))
        report = compare_strategies(before, after, addresses, [case.affected])
        results.append(AdaptivityResult(label=case.label, report=report))
    return results
