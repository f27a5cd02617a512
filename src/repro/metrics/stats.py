"""Statistical acceptance tests for the paper's fairness claims.

The fairness lemmas (2.4, 3.1–3.5) are statements about *distributions*:
Redundant Share stores a ``b̂_i / B̂`` share of all copies on bin ``i`` in
expectation, while the trivial strategy provably cannot (Lemma 2.4 — on
``[2, 1, 1]`` with ``k = 2`` the big bin is missed with probability 1/6).
This module turns those claims into reusable, quantitative acceptance
checks with a controlled false-positive rate instead of loose tolerances:

* :func:`chi_square_fairness` — Pearson chi-square of observed copy
  counts against expected shares, accepted iff the statistic is below the
  ``1 - alpha`` chi-square quantile.
* :func:`max_deviation_fairness` — per-bin share deviation against a
  Bonferroni-corrected normal bound (the "fairness within x%" view, with
  x derived from the sample size rather than hand-picked).

Everything is dependency-free: the chi-square survival function is the
regularized upper incomplete gamma (series + continued fraction), its
quantile is found by bisection, and the normal quantile uses Acklam's
rational approximation.  Results are deterministic given the sampled
counts — pair with :func:`sample_copy_counts` for seeded populations.

A statistical caveat, by design: copy counts of a k-replication strategy
are *not* a multinomial sample (the k copies of one ball anti-correlate
across bins because they must land on distinct bins).  That correlation
only *reduces* variance relative to the multinomial model, so both tests
are conservative — a fair strategy is accepted at least ``1 - alpha`` of
the time, and the Lemma 2.4 effect (a constant-share deficit) still
rejects overwhelmingly at any reasonable sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from ..capacity.clipping import clipped_shares
from ..hashing.primitives import stable_u64
from .fairness import chi_square_statistic

__all__ = [
    "FairnessVerdict",
    "chi_square_fairness",
    "chi_square_quantile",
    "chi_square_sf",
    "fair_copy_shares",
    "max_deviation_fairness",
    "normal_quantile",
    "normal_sf",
    "sample_copy_counts",
]


# ----------------------------------------------------------------------
# Special functions (dependency-free)
# ----------------------------------------------------------------------

_MAX_ITERATIONS = 500
_EPSILON = 3.0e-14


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denominator = a
    for _ in range(_MAX_ITERATIONS):
        denominator += 1.0
        term *= x / denominator
        total += term
        if abs(term) < abs(total) * _EPSILON:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_fraction(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction
    (x >= a + 1), Lentz's algorithm."""
    tiny = 1.0e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), valid for a > 0, x >= 0."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_fraction(a, x)


def chi_square_sf(statistic: float, df: int) -> float:
    """Chi-square survival function P(X > statistic) for ``df`` degrees of
    freedom — the p-value of a Pearson test."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if statistic < 0:
        return 1.0
    if math.isinf(statistic):
        return 0.0
    return _regularized_gamma_q(df / 2.0, statistic / 2.0)


def chi_square_quantile(df: int, alpha: float) -> float:
    """The critical value ``x`` with ``P(X > x) = alpha`` (upper quantile).

    Found by bisection on the survival function; accurate to ~1e-10,
    which is far below any acceptance-test sensitivity.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    low, high = 0.0, max(4.0 * df, 16.0)
    while chi_square_sf(high, df) > alpha:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if chi_square_sf(mid, df) > alpha:
            low = mid
        else:
            high = mid
        if high - low < 1e-10 * max(1.0, high):
            break
    return 0.5 * (low + high)


def normal_sf(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF), Acklam's approximation
    refined by one Halley step — ~1e-15 relative error."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    # Acklam's rational approximation coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley refinement against the exact CDF.
    error = (1.0 - normal_sf(x)) - p
    u = error * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ----------------------------------------------------------------------
# Acceptance verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of one statistical fairness acceptance test.

    Attributes:
        test: ``"chi-square"`` or ``"max-deviation"``.
        statistic: The computed test statistic.
        threshold: Acceptance threshold the statistic is compared to.
        p_value: Probability of a statistic at least this extreme under
            the fair hypothesis (approximate for max-deviation).
        alpha: Configured false-positive rate.
        df: Degrees of freedom (chi-square) or number of compared bins.
        accepted: True iff the sample is consistent with fairness.
        detail: Per-bin diagnostics (free-form, for reports).
    """

    test: str
    statistic: float
    threshold: float
    p_value: float
    alpha: float
    df: int
    accepted: bool
    detail: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "ACCEPT" if self.accepted else "REJECT"
        return (
            f"{self.test}: {verdict} (statistic={self.statistic:.3f}, "
            f"threshold={self.threshold:.3f}, p={self.p_value:.4g}, "
            f"alpha={self.alpha:g})"
        )


def chi_square_fairness(
    copy_counts: Mapping[str, int],
    expected_shares: Mapping[str, float],
    alpha: float = 0.01,
) -> FairnessVerdict:
    """Pearson chi-square acceptance of observed counts vs expected shares.

    Accepts iff the statistic is below the ``1 - alpha`` quantile of the
    chi-square distribution with ``m - 1`` degrees of freedom, ``m`` the
    number of bins with positive expected share.  See the module caveat:
    replication correlation makes this conservative.

    Raises:
        ValueError: if no copies were counted, alpha is out of range, or
            fewer than two bins carry positive expected share.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    positive = {k: v for k, v in expected_shares.items() if v > 0.0}
    if len(positive) < 2:
        raise ValueError("need at least two bins with positive share")
    statistic = chi_square_statistic(copy_counts, expected_shares)
    df = len(positive) - 1
    threshold = chi_square_quantile(df, alpha)
    p_value = chi_square_sf(statistic, df)
    return FairnessVerdict(
        test="chi-square",
        statistic=statistic,
        threshold=threshold,
        p_value=p_value,
        alpha=alpha,
        df=df,
        accepted=statistic <= threshold,
    )


def max_deviation_fairness(
    copy_counts: Mapping[str, int],
    expected_shares: Mapping[str, float],
    alpha: float = 0.01,
) -> FairnessVerdict:
    """Largest standardized per-bin share deviation vs a Bonferroni bound.

    Each bin's observed share is compared to its expected share in units
    of the binomial standard error ``sqrt(p (1 - p) / N)``; the sample is
    accepted iff every bin stays below the two-sided normal quantile at
    ``alpha / m`` (Bonferroni over ``m`` bins).  Complements the
    chi-square: it names the *worst* bin and the deviation magnitude —
    the paper's "fairness within x%" phrasing with x implied by ``N``.

    Bins with expected share 0 or 1 have no sampling variance; any
    deviation there rejects outright.

    Raises:
        ValueError: if no copies were counted or alpha is out of range.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    total = sum(copy_counts.values())
    if total <= 0:
        raise ValueError("no copies counted")
    bins = [k for k, v in expected_shares.items() if v > 0.0]
    m = max(len(bins), 1)
    threshold = normal_quantile(1.0 - alpha / (2.0 * m))
    worst = 0.0
    worst_bin = ""
    detail: Dict[str, float] = {}
    degenerate_violation = False
    for bin_id, share in expected_shares.items():
        observed = copy_counts.get(bin_id, 0) / total
        deviation = observed - share
        if share <= 0.0 or share >= 1.0:
            if abs(deviation) > 0.0:
                degenerate_violation = True
                detail[bin_id] = math.inf
            continue
        sigma = math.sqrt(share * (1.0 - share) / total)
        standardized = abs(deviation) / sigma
        detail[bin_id] = standardized
        if standardized > worst:
            worst = standardized
            worst_bin = bin_id
    if degenerate_violation:
        worst = math.inf
    p_value = min(1.0, 2.0 * m * normal_sf(worst)) if math.isfinite(worst) else 0.0
    verdict_detail = dict(detail)
    if worst_bin:
        verdict_detail["__worst__"] = worst
    return FairnessVerdict(
        test="max-deviation",
        statistic=worst,
        threshold=threshold,
        p_value=p_value,
        alpha=alpha,
        df=m,
        accepted=worst <= threshold,
        detail=verdict_detail,
    )


# ----------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------


def fair_copy_shares(
    capacities: Mapping[str, float], copies: int
) -> Dict[str, float]:
    """The *fair* share of all copies each bin deserves: its Lemma 2.2
    clipped capacity over the clipped total.

    This is the null hypothesis both acceptance tests compare against; it
    equals ``RedundantShare.expected_shares()`` for the same bins, and is
    what the trivial strategy provably misses on heterogeneous vectors
    (Lemma 2.4).
    """
    # Descending capacity, ties by id (sort_bins_by_capacity's order).
    ordered = sorted(capacities.items(), key=lambda item: (-item[1], item[0]))
    shares = clipped_shares([value for _, value in ordered], copies)
    return {bin_id: share for (bin_id, _), share in zip(ordered, shares)}


def sample_copy_counts(
    strategy, balls: int, seed: int = 0
) -> Dict[str, int]:
    """Place a seeded, deterministic ball population and count copies.

    Address windows for different seeds are disjoint with overwhelming
    probability (a SplitMix64-derived 62-bit window start), so hypothesis
    and CI runs can vary ``seed`` without resampling the same balls.
    Uses the strategy's batch engine; identical results with or without
    NumPy.
    """
    if balls < 1:
        raise ValueError("need at least one ball")
    start = stable_u64("stats-sample", seed) >> 2
    addresses = range(start, start + balls)
    return strategy.place_many(addresses).counts()
