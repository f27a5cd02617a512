"""Section 3.1 in-text competitiveness constants for LinMirror.

Paper claim: "we added a bin to 4 up to 60 bins and measured the factor of
replaced blocks divided by the blocks used on the newest disk ... we get
nearly constant competitive ratios of about 1.5 for adding the biggest
disk and 2.5 for adding the smallest disk."

This bench runs exactly that sweep at k = 2 and asserts both near-constancy
and the approximate levels.
"""

import statistics

import pytest

from _tables import emit, scaling_factors
from repro.core import LinMirror

BALLS = 5_000
SIZES = (4, 8, 16, 28, 40, 60)


def run_sweep():
    return scaling_factors(SIZES, LinMirror, BALLS)


def test_linmirror_competitive_constants(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    emit(
        "LinMirror competitive ratios vs n (paper: ~1.5 biggest, ~2.5 "
        "smallest, both ~constant)",
        ["bins", "add as biggest", "add as smallest"],
        [
            (n, f"{table[n]['biggest']:.2f}", f"{table[n]['smallest']:.2f}")
            for n in sorted(table)
        ],
    )

    biggest = [table[n]["biggest"] for n in sorted(table)]
    smallest = [table[n]["smallest"] for n in sorted(table)]
    mean_big = statistics.mean(biggest)
    benchmark.extra_info["mean_biggest"] = round(mean_big, 3)
    benchmark.extra_info["smallest_series"] = [round(v, 3) for v in smallest]

    # Paper level ~1.5 for the biggest case, nearly constant over the sweep.
    assert mean_big == pytest.approx(1.5, abs=0.45), biggest
    assert max(biggest) - min(biggest) < 0.5, biggest
    # Paper level ~2.5 for the smallest case at the paper's own scale
    # (n ~ 8-16 disks, the Figure 3 setting) ...
    paper_scale = [table[n]["smallest"] for n in sorted(table) if 8 <= n <= 16]
    assert statistics.mean(paper_scale) == pytest.approx(2.5, abs=0.6)
    # ... while over the wide sweep it keeps growing, past Lemma 3.2's
    # bound of 4 beyond n = 60 (5.12 at n = 200 on 200 000 addresses) —
    # see EXPERIMENTS.md TAB-COMP.  The sweep stops at n = 60.
    assert all(b >= a - 0.25 for a, b in zip(smallest, smallest[1:]))
    assert max(smallest) < 4.3
    # Ordering: the big end is always cheaper.
    assert all(
        table[n]["biggest"] < table[n]["smallest"] for n in sorted(table)
    )
