"""The conclusion's open problem, measured.

"We also believe that it should be possible to construct placement
strategies that are O(k)-competitive for arbitrary insertions and removals
of storage devices.  Is this true and is this the best bound one can
achieve?"

This bench pits :class:`repro.core.BalancedRendezvous` (top-k rendezvous
with pinned saturated bins and weights fitted to the race's exact
inclusion probabilities) and CRUSH on a fitted weight-set
(:func:`_tables.fitted_crush`) against Redundant Share on the
heterogeneous pool, measuring the distance from fair (computed from
``expected_shares()``, no ball placed) and *set-based* movement (copies
that must physically move under optimal position relabeling) for a
device insertion and a removal.  Expected shape: all three are fair to
rounding or to the 1e-9 fit; the two fitted races move close to the
optimum (factor ~1) at the cost of positional churn — evidence that the
conjectured bound is achievable when positions may be relabeled, while
Redundant Share keeps stable positions.
"""

from _tables import emit, fair_distance, fitted_crush
from repro.core import BalancedRendezvous, RedundantShare
from repro.metrics import compare_strategies
from repro.types import BinSpec, bins_from_capacities

CAPACITIES = [800, 700, 600, 500, 400, 300]
COPIES = 2


def evaluate(factory):
    bins = bins_from_capacities(CAPACITIES)
    strategy = factory(bins)
    deviation = fair_distance(strategy, bins)

    grown = factory(bins + [BinSpec("bin-new", 600)])
    add = compare_strategies(strategy, grown, range(5000), ["bin-new"])
    shrunk = factory(bins[:-1])
    remove = compare_strategies(strategy, shrunk, range(5000), ["bin-5"])

    def set_factor(report):
        return report.moved_set / max(1, report.used_on_affected)

    def pos_factor(report):
        return report.moved_positional / max(1, report.used_on_affected)

    return (
        deviation,
        set_factor(add),
        set_factor(remove),
        pos_factor(add),
    )


def run_comparison():
    return {
        "redundant-share": evaluate(
            lambda bins: RedundantShare(bins, copies=COPIES)
        ),
        "balanced-rendezvous": evaluate(
            lambda bins: BalancedRendezvous(bins, copies=COPIES)
        ),
        "crush, fitted weight-set": evaluate(
            lambda bins: fitted_crush(bins, COPIES)
        ),
    }


def test_future_work_open_problem(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit(
        "Open problem (conclusion): set-movement competitiveness "
        "(optimum = 1.0) vs distance from fair",
        [
            "strategy",
            "distance from fair",
            "add: set x-opt",
            "remove: set x-opt",
            "add: positional x-opt",
        ],
        [
            (
                name,
                f"{deviation:.1e}",
                f"{add_set:.2f}",
                f"{rem_set:.2f}",
                f"{add_pos:.2f}",
            )
            for name, (deviation, add_set, rem_set, add_pos) in results.items()
        ],
    )
    for name, values in results.items():
        benchmark.extra_info[name] = [float(f"{v:.4g}") for v in values]

    rs = results["redundant-share"]
    br = results["balanced-rendezvous"]
    # Fair, computed: Redundant Share to rounding, the fitted races to
    # their 1e-9 fit.
    assert rs[0] <= 1e-15
    assert br[0] <= 1e-9
    assert results["crush, fitted weight-set"][0] <= 1e-9
    # Balanced rendezvous: much lower set movement.
    assert br[1] < rs[1]  # insertion set-movement beats Redundant Share
    assert br[1] < 1.7  # ... and approaches the optimum of 1.0
    assert br[2] < 2.2
