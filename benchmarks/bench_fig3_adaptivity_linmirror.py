"""Figure 3 — adaptivity of LinMirror (k = 2).

Paper setup: eight tests — {heterogeneous, homogeneous} x {add, remove} x
{biggest, smallest} — measuring the blocks placed on the affected bin
("used") and the blocks replaced across the whole system ("replaced").

Paper result: "For changing the biggest bin we replaced about 1.5 times of
the blocks affected by the disk, while changing the smallest bin gives us a
factor of about 2.5" — and Lemma 3.2 bounds the factor by 4.
"""

import pytest

from _tables import emit
from repro._compat import HAVE_NUMPY
from repro.core import LinMirror
from repro.simulation import add_remove_cases, run_adaptivity

BALLS = 12_000
DISKS = 8
BASE = 5_000
STEP = 1_000


def run_figure3():
    cases = add_remove_cases(count=DISKS, base=BASE, step=STEP)
    return run_adaptivity(cases, LinMirror, balls=BALLS)


def test_fig3_adaptivity_linmirror(benchmark):
    results = benchmark.pedantic(run_figure3, rounds=1, iterations=1)
    # Movement comparison runs over batch placements; record the engine.
    benchmark.extra_info["batch_backend"] = "numpy" if HAVE_NUMPY else "python"

    emit(
        "Figure 3: adaptivity of LinMirror (k=2); paper: ~1.5 big / ~2.5 "
        "small, bound 4",
        ["case", "used", "replaced", "factor"],
        [
            (label, r.used_on_affected, r.moved_positional,
             f"{r.factor_positional:.2f}")
            for label, r in results.items()
        ],
    )
    factor = {
        label: report.factor_positional for label, report in results.items()
    }
    benchmark.extra_info.update(
        {label: round(value, 3) for label, value in factor.items()}
    )

    for flavor in ("het", "hom"):
        for change in ("add", "rem."):
            big = factor[f"{flavor}. {change} big"]
            small = factor[f"{flavor}. {change} small"]
            # Paper shape: changing at the big end is markedly cheaper.
            assert big < small, f"{flavor} {change}: big {big} !< small {small}"
            assert 1.0 <= big < 2.1, f"{flavor} {change} big factor {big}"
            assert 1.6 <= small < 3.6, f"{flavor} {change} small factor {small}"
    # Lemma 3.2: 4-competitive in expectation.
    for label, value in factor.items():
        assert value < 4.5, f"{label}: {value}"
