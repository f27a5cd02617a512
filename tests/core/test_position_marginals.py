"""Per-position marginals of the hazard scan, against the hazard table.

``HazardTable.copy_distribution(c)`` is the exact probability that copy
``c`` lands on each rank.  Fairness tests pool all copies, so they cannot
see two positions trading mass; a G-test per copy position can.  The
addresses are a fixed seeded sample, so each verdict is deterministic.
NumPy leg only: without NumPy ``place_many`` is the scalar loop, which
the leg-equivalence tests already pin to this engine.
"""

import random

import pytest

from repro._compat import HAVE_NUMPY
from repro.core import LinMirror, RedundantShare
from repro.types import bins_from_capacities

from ..oracles import g_test_p_value

BENCH_FLEET = list(range(500, 2001, 100))  # benchmarks/e2e: 16 devices
WIDE_FLEET = [1000 + index % 7 for index in range(200)]
#: Clipped at every k from 1 to 4: the largest bins exceed a 1/k share.
CLIPPED_FLEET = [5000, 900, 300, 40, 30, 20, 10, 5]
ADDRESSES = 20_000
#: Per-position significance level; 36 positions are tested in all.
ALPHA = 1e-4

CASES = {
    f"rs-{name}-k{copies}": (RedundantShare, capacities, {"copies": copies})
    for name, capacities in (
        ("bench", BENCH_FLEET), ("wide", WIDE_FLEET), ("clipped", CLIPPED_FLEET)
    )
    for copies in (1, 2, 3, 4)
}
CASES.update(
    {
        f"lm-{name}": (LinMirror, capacities, {})
        for name, capacities in (
            ("bench", BENCH_FLEET),
            ("wide", WIDE_FLEET),
            ("clipped", CLIPPED_FLEET),
        )
    }
)


@pytest.mark.skipif(not HAVE_NUMPY, reason="checks the NumPy engine")
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_position_follows_its_marginal(case):
    cls, capacities, keywords = CASES[case]
    strategy = cls(bins_from_capacities(capacities), **keywords)
    rng = random.Random(27)
    batch = strategy.place_many(
        [rng.randrange(2**64) for _ in range(ADDRESSES)]
    )
    ranks = len(strategy.rank_ids)
    for position, column in enumerate(batch.columns):
        counts = [0] * ranks
        for rank in column.tolist():
            counts[rank] += 1
        p_value = g_test_p_value(
            counts, strategy.table.copy_distribution(position + 1)
        )
        assert p_value > ALPHA, f"copy {position}: p = {p_value:.2e}"
