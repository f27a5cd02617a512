"""The b̃ boundary boost ablation called out in DESIGN.md.

Equations 2-5 of the paper boost bin ``T``'s weight inside the secondary
distribution of primaries on bin ``T - 1``.  Enabled vs disabled on a
vector with a strong inhomogeneity: disabling it must starve the boundary
bin, which is the unfairness the paper's Section 3.1 fixes.
"""

import pytest

from _tables import emit
from repro.core import ClassicLinMirror
from repro.types import bins_from_capacities

BALLS = 25_000


def run_boost_ablation():
    capacities = [10, 10, 1]
    bins = bins_from_capacities(capacities)
    boosted = ClassicLinMirror(bins, apply_boost=True)
    plain = ClassicLinMirror(bins, apply_boost=False)
    target = boosted.expected_shares()["bin-1"]

    def share_of(strategy):
        hits = 0
        for address in range(BALLS):
            hits += sum(1 for b in strategy.place(address) if b == "bin-1")
        return hits / (2 * BALLS)

    return target, share_of(boosted), share_of(plain)


def test_boundary_boost_ablation(benchmark):
    target, with_boost, without = benchmark.pedantic(
        run_boost_ablation, rounds=1, iterations=1
    )
    emit(
        "b-tilde boundary adjustment ablation on [10, 10, 1], k=2 "
        "(share of the boundary bin)",
        ["variant", "boundary-bin share"],
        [
            ("fair target", f"{target:.4f}"),
            ("with boost (paper)", f"{with_boost:.4f}"),
            ("without boost", f"{without:.4f}"),
        ],
    )
    benchmark.extra_info.update(
        {"target": target, "with": with_boost, "without": without}
    )
    assert with_boost == pytest.approx(target, abs=0.01)
    assert without < target - 0.01  # the starvation the paper describes
