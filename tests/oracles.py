"""Exact oracles the placement tests share: a G-test against known cell
probabilities, and the enumerated inclusion probabilities of a race."""

import itertools
import math

from repro.metrics.stats import chi_square_sf


def g_test_p_value(counts, probabilities):
    """p-value of the G-test of ``counts`` against ``probabilities``.

    A cell the probabilities give no mass must receive no count at all,
    so a forced outcome (one cell with mass) passes only exactly."""
    total = sum(counts)
    statistic, cells = 0.0, 0
    for observed, probability in zip(counts, probabilities):
        expected = total * probability
        if expected <= 0.0:
            assert observed == 0
            continue
        cells += 1
        if observed:
            statistic += 2.0 * observed * math.log(observed / expected)
    return chi_square_sf(statistic, cells - 1) if cells > 1 else 1.0


def reference_inclusion(weights, copies):
    """Top-``copies`` inclusion probabilities by enumerating every ordered
    top-``copies`` prefix: the clocks fire in the order ``o`` with
    probability ``prod_j w[o_j] / (W - w[o_1] - ... - w[o_(j-1)])``, each
    denominator summed afresh so no subtraction cancels.  O(n^copies); no
    integral, no fit."""
    inclusion = [0.0] * len(weights)
    for order in itertools.permutations(range(len(weights)), copies):
        probability = 1.0
        for step, bin_ in enumerate(order):
            left = math.fsum(
                weight for j, weight in enumerate(weights)
                if j not in order[:step]
            )
            probability *= weights[bin_] / left
        for bin_ in order:
            inclusion[bin_] += probability
    return inclusion


def assert_close(actual, expected, rel):
    for got, want in zip(actual, expected):
        assert abs(got / want - 1.0) <= rel, (got, want)
