"""RPDP: rate resolution, analytic load flattening, batch equivalence.

The strategy is the trivial masked-rendezvous engine with the weight
vector swapped for service-rate shares, so most of the engine contract
is inherited; what this file pins is the part that is new — how rates
are resolved and validated, that the analytic utilisation really is
flatter than a capacity-only placement on a skewed-rate fleet (the
bench gate's substance), and that the salts differ from the parent so
the two strategies do not shadow each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro._compat import HAVE_NUMPY
from repro.exceptions import ConfigurationError
from repro.placement import (
    ResidualPerformancePlacement,
    TrivialReplication,
    utilization,
)
from repro.types import bins_from_capacities

BINS = bins_from_capacities([400, 300, 200, 100])
#: Inverse of the capacities: the biggest device is the slowest.
SKEWED = (1.0, 2.0, 4.0, 8.0)

address_lists = st.lists(
    st.integers(min_value=0, max_value=2**70), min_size=1, max_size=48
)


class TestRateResolution:
    def test_defaults_to_capacities(self):
        strategy = ResidualPerformancePlacement(BINS, copies=2)
        assert strategy.service_rates == {
            "bin-0": 400.0, "bin-1": 300.0, "bin-2": 200.0, "bin-3": 100.0,
        }

    def test_positional_rates_align_with_bins(self):
        strategy = ResidualPerformancePlacement(
            BINS, copies=2, service_rates=SKEWED
        )
        assert strategy.service_rates["bin-3"] == 8.0

    def test_mapping_rates_must_cover_exactly(self):
        with pytest.raises(ConfigurationError, match="missing \\['bin-3'\\]"):
            ResidualPerformancePlacement(
                BINS, copies=2,
                service_rates={"bin-0": 1, "bin-1": 1, "bin-2": 1},
            )
        with pytest.raises(ConfigurationError, match="unknown \\['dX'\\]"):
            ResidualPerformancePlacement(
                BINS, copies=2,
                service_rates={"bin-0": 1, "bin-1": 1, "bin-2": 1, "bin-3": 1, "dX": 1},
            )

    def test_positional_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="3 service rates"):
            ResidualPerformancePlacement(
                BINS, copies=2, service_rates=(1, 2, 3)
            )

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            ResidualPerformancePlacement(
                BINS, copies=2, service_rates=(1, 2, 3, 0)
            )


class TestLoadFlattening:
    def test_expected_shares_track_rates_not_capacities(self):
        strategy = ResidualPerformancePlacement(
            BINS, copies=2, service_rates=SKEWED
        )
        shares = strategy.expected_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-12
        # d3 is the fastest device despite the smallest capacity.
        assert shares["bin-3"] == max(shares.values())
        assert shares["bin-0"] == min(shares.values())

    def test_peak_load_beats_capacity_only_placement(self):
        rates = dict(zip(("bin-0", "bin-1", "bin-2", "bin-3"), SKEWED))
        rpdp = ResidualPerformancePlacement(
            BINS, copies=3, service_rates=SKEWED
        )
        trivial = TrivialReplication(BINS, copies=3)
        rpdp_peak = max(rpdp.expected_load().values())
        trivial_peak = max(
            utilization(trivial.expected_shares(), rates).values()
        )
        assert rpdp_peak < trivial_peak

    def test_homogeneous_rates_degenerate_to_trivial_weights(self):
        flat = ResidualPerformancePlacement(
            BINS, copies=2, service_rates=(5, 5, 5, 5)
        )
        load = flat.expected_load()
        spread = max(load.values()) - min(load.values())
        assert spread < 1e-9

    def test_large_fleet_has_a_closed_form(self):
        wide = ResidualPerformancePlacement(
            bins_from_capacities([10] * 13), copies=2
        )
        assert wide.expected_shares() == pytest.approx(
            {f"bin-{i}": 1 / 13 for i in range(13)}, rel=1e-12
        )
        assert wide.expected_load() == pytest.approx(
            {f"bin-{i}": 1.0 for i in range(13)}, rel=1e-12
        )


class TestUtilizationMetric:
    def test_accepts_counts_and_shares_alike(self):
        rates = {"a": 2.0, "b": 2.0}
        from_counts = utilization({"a": 30, "b": 10}, rates)
        from_shares = utilization({"a": 0.75, "b": 0.25}, rates)
        assert from_counts == pytest.approx(from_shares)
        assert from_counts["a"] == pytest.approx(1.5)

    def test_rejects_non_positive_totals(self):
        with pytest.raises(ValueError, match="positive totals"):
            utilization({"a": 0.0}, {"a": 1.0})
        with pytest.raises(ValueError, match="positive totals"):
            utilization({"a": 1.0}, {"a": 0.0})


class TestEngineContract:
    def test_draws_differ_from_the_trivial_baseline(self):
        # Distinct namespace → distinct salts, even with equal weights.
        rpdp = ResidualPerformancePlacement(BINS, copies=2)
        trivial = TrivialReplication(BINS, copies=2)
        rows_rpdp = rpdp.place_many(range(256)).tuples()
        rows_trivial = trivial.place_many(range(256)).tuples()
        assert rows_rpdp != rows_trivial

    @given(addresses=address_lists)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(self, addresses):
        strategy = ResidualPerformancePlacement(
            BINS, copies=3, service_rates=SKEWED
        )
        batch = strategy.place_many(addresses)
        assert batch.tuples() == [strategy.place(a) for a in addresses]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both legs")
    def test_pure_python_leg_is_bit_identical(self, monkeypatch):
        strategy = ResidualPerformancePlacement(
            BINS, copies=3, service_rates=SKEWED
        )
        addresses = list(range(0, 4096, 17))
        vectorized = strategy.place_many(addresses).tuples()
        monkeypatch.setattr(compat, "np", None)
        fallback = strategy.place_many(addresses).tuples()
        assert fallback == vectorized

    def test_placements_are_k_distinct_devices(self):
        strategy = ResidualPerformancePlacement(
            BINS, copies=3, service_rates=SKEWED
        )
        for address in range(64):
            placement = strategy.place(address)
            assert len(placement) == 3
            assert len(set(placement)) == 3
