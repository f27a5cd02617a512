"""The statistical machinery: special functions and acceptance verdicts."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.stats import (
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


class TestSpecialFunctions:
    def test_chi_square_quantiles_match_tables(self):
        # Standard textbook critical values.
        assert chi_square_quantile(1, 0.05) == pytest.approx(3.8415, abs=1e-3)
        assert chi_square_quantile(2, 0.01) == pytest.approx(9.2103, abs=1e-3)
        assert chi_square_quantile(5, 0.05) == pytest.approx(11.0705, abs=1e-3)
        assert chi_square_quantile(10, 0.001) == pytest.approx(29.588, abs=1e-2)

    def test_sf_is_inverse_of_quantile(self):
        for df in (1, 3, 7):
            for alpha in (0.2, 0.05, 0.01):
                x = chi_square_quantile(df, alpha)
                assert chi_square_sf(x, df) == pytest.approx(alpha, rel=1e-6)

    def test_sf_edge_cases(self):
        assert chi_square_sf(0.0, 3) == 1.0
        assert chi_square_sf(-1.0, 3) == 1.0
        assert chi_square_sf(math.inf, 3) == 0.0
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_quantile_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            chi_square_quantile(2, 0.0)
        with pytest.raises(ValueError):
            chi_square_quantile(2, 1.0)

    def test_normal_quantile_matches_tables(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-5)

    def test_normal_quantile_inverts_sf(self):
        for p in (0.01, 0.3, 0.77, 0.9995):
            z = normal_quantile(p)
            assert 1.0 - normal_sf(z) == pytest.approx(p, rel=1e-9)
        with pytest.raises(ValueError):
            normal_quantile(0.0)


class TestChiSquareFairness:
    def test_accepts_exact_proportions(self):
        counts = {"a": 500, "b": 300, "c": 200}
        shares = {"a": 0.5, "b": 0.3, "c": 0.2}
        verdict = chi_square_fairness(counts, shares, alpha=0.01)
        assert verdict.accepted
        assert verdict.statistic == pytest.approx(0.0)
        assert verdict.df == 2
        assert verdict.p_value == pytest.approx(1.0)

    def test_rejects_gross_imbalance(self):
        counts = {"a": 900, "b": 50, "c": 50}
        shares = {"a": 0.5, "b": 0.25, "c": 0.25}
        verdict = chi_square_fairness(counts, shares, alpha=0.01)
        assert not verdict.accepted
        assert verdict.p_value < 1e-10

    def test_requires_two_positive_bins_and_valid_alpha(self):
        with pytest.raises(ValueError):
            chi_square_fairness({"a": 1}, {"a": 1.0}, alpha=0.01)
        with pytest.raises(ValueError):
            chi_square_fairness(
                {"a": 1, "b": 1}, {"a": 0.5, "b": 0.5}, alpha=0.0
            )

    def test_summary_mentions_verdict(self):
        verdict = chi_square_fairness(
            {"a": 10, "b": 10}, {"a": 0.5, "b": 0.5}
        )
        assert "chi-square: ACCEPT" in verdict.summary()


class TestMaxDeviationFairness:
    def test_accepts_small_noise(self):
        counts = {"a": 5030, "b": 4970}
        shares = {"a": 0.5, "b": 0.5}
        verdict = max_deviation_fairness(counts, shares, alpha=0.01)
        assert verdict.accepted
        assert verdict.statistic == pytest.approx(0.6, abs=0.01)

    def test_rejects_systematic_deficit(self):
        counts = {"a": 4200, "b": 2900, "c": 2900}
        shares = {"a": 0.5, "b": 0.25, "c": 0.25}
        verdict = max_deviation_fairness(counts, shares, alpha=0.01)
        assert not verdict.accepted
        assert verdict.detail["__worst__"] == verdict.statistic

    def test_degenerate_share_requires_exact_match(self):
        accepted = max_deviation_fairness(
            {"a": 100, "b": 0}, {"a": 1.0, "b": 0.0}
        )
        assert accepted.accepted
        rejected = max_deviation_fairness(
            {"a": 99, "b": 1}, {"a": 1.0, "b": 0.0}
        )
        assert not rejected.accepted
        assert rejected.p_value == 0.0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            max_deviation_fairness({}, {"a": 0.5, "b": 0.5})


@st.composite
def fair_share_fleets(draw):
    """A degree ``k`` in 1..4 and a capacity vector for it.  For ``k >= 2``
    up to ``k - 1`` giant bins may join, each bigger than all the others
    together, so that ``k * b_0 > B`` and Lemma 2.2 clips them."""
    copies = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(
        st.lists(
            st.integers(min_value=1, max_value=1_000),
            min_size=copies,
            max_size=10,
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=copies - 1))):
        capacities.append(sum(capacities) + draw(st.integers(1, 10_000)))
    return capacities, copies


class TestFairShares:
    @given(fleet=fair_share_fleets())
    @example(fleet=([100, 6, 1, 1], 2))  # the big bin is clipped
    @settings(max_examples=150, deadline=None)
    def test_matches_redundant_share_expected_shares(self, fleet):
        from repro.core import RedundantShare
        from repro.types import bins_from_capacities

        capacities, copies = fleet
        bins = bins_from_capacities(capacities, prefix="bin")
        strategy = RedundantShare(bins, copies=copies)
        fair = fair_copy_shares(
            {spec.bin_id: float(spec.capacity) for spec in bins}, copies
        )
        expected = strategy.expected_shares()
        assert fair.keys() == expected.keys()
        for bin_id, share in expected.items():
            assert fair[bin_id] == pytest.approx(share, rel=1e-12, abs=1e-15)

    def test_figure1_example(self):
        fair = fair_copy_shares({"big": 2.0, "s1": 1.0, "s2": 1.0}, 2)
        assert fair == {"big": 0.5, "s1": 0.25, "s2": 0.25}


class TestSampling:
    def test_deterministic_and_seed_sensitive(self):
        from repro.core import RedundantShare
        from repro.types import bins_from_capacities

        strategy = RedundantShare(bins_from_capacities([4, 3, 2]), copies=2)
        first = sample_copy_counts(strategy, 500, seed=1)
        again = sample_copy_counts(strategy, 500, seed=1)
        other = sample_copy_counts(strategy, 500, seed=2)
        assert first == again
        assert first != other
        assert sum(first.values()) == 1000  # balls * copies
        with pytest.raises(ValueError):
            sample_copy_counts(strategy, 0)


class TestVerdictDataclass:
    def test_frozen(self):
        verdict = FairnessVerdict(
            test="chi-square", statistic=1.0, threshold=2.0, p_value=0.5,
            alpha=0.01, df=1, accepted=True,
        )
        with pytest.raises(AttributeError):
            verdict.accepted = False
