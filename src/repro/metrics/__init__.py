"""Metrics: fairness (Figures 2/4), adaptivity (Figures 3/5), redundancy."""

from .adaptivity import (
    MovementReport,
    compare_scale_out,
    compare_strategies,
)
from .fairness import (
    chi_square_statistic,
    count_violations,
    fill_percentages,
    max_share_deviation,
)
from .stats import (
    FairnessVerdict,
    chi_square_fairness,
    chi_square_quantile,
    chi_square_sf,
    fair_copy_shares,
    max_deviation_fairness,
    normal_quantile,
    normal_sf,
    sample_copy_counts,
)

__all__ = [
    "FairnessVerdict",
    "MovementReport",
    "chi_square_fairness",
    "chi_square_quantile",
    "chi_square_sf",
    "chi_square_statistic",
    "compare_scale_out",
    "compare_strategies",
    "count_violations",
    "fair_copy_shares",
    "fill_percentages",
    "max_deviation_fairness",
    "max_share_deviation",
    "normal_quantile",
    "normal_sf",
    "sample_copy_counts",
]
