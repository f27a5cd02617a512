"""Figure 5 — adaptivity of k-replication (k = 4) vs number of bins.

Paper setup: homogeneous systems of 4..60 bins; add one bin either as the
biggest or as the smallest; measure replaced blocks / blocks on the new
bin.

Paper result: "For adding bins at the beginning of the list, we get nearly
a constant factor.  For adding it as smallest bin ... the more disks are
inside the environment, the worse the competitiveness becomes", while
Lemma 3.5's k² = 16 bound is never approached ("the graph lets us assume
that there is a much lower bound").
"""

import pytest

from _tables import emit, scaling_factors
from repro._compat import HAVE_NUMPY
from repro.core import RedundantShare

BALLS = 4_000
COPIES = 4
SIZES = (4, 8, 16, 24, 36, 48, 60)


def run_figure5():
    return scaling_factors(
        SIZES, lambda bins: RedundantShare(bins, copies=COPIES), BALLS
    )


def test_fig5_adaptivity_scaling_k4(benchmark):
    table = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    # Movement comparison runs over batch placements; record the engine.
    benchmark.extra_info["batch_backend"] = "numpy" if HAVE_NUMPY else "python"

    emit(
        "Figure 5: replaced/used factor, k=4, homogeneous bins "
        "(paper: biggest ~ constant, smallest grows; bound k^2 = 16)",
        ["bins", "add as biggest", "add as smallest"],
        [
            (n, f"{table[n]['biggest']:.2f}", f"{table[n]['smallest']:.2f}")
            for n in sorted(table)
        ],
    )
    for n in sorted(table):
        benchmark.extra_info[f"n={n}"] = {
            kind: round(value, 3) for kind, value in table[n].items()
        }

    biggest = [table[n]["biggest"] for n in sorted(table)]
    smallest = [table[n]["smallest"] for n in sorted(table)]

    # Biggest stays nearly constant: bounded range over the whole sweep.
    assert max(biggest) - min(biggest) < 1.2, biggest
    # Smallest grows with n and exceeds biggest at scale.
    assert smallest[-1] > smallest[0], smallest
    for n in sorted(table)[2:]:
        assert table[n]["smallest"] > table[n]["biggest"]
    # Far below the k^2 = 16 worst case (the paper's "much lower bound").
    assert max(smallest) < 10.0
    assert max(biggest) < 5.0
