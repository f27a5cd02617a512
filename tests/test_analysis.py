"""Tests for the durability models (MTTDL closed forms + simulation)."""

import pytest

from repro.analysis import (
    DurabilityModel,
    annual_loss_probability,
    mttdl,
    mttdl_mirror,
    simulate_mttdl,
)


class TestModelValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DurabilityModel(0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DurabilityModel(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            DurabilityModel(3, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            DurabilityModel(3, 1, 1.0, -1.0)


class TestClosedForms:
    def test_mirror_k2_matches_textbook(self):
        # Classic result: MTTDL = (3λ + μ) / (2 λ²).
        mttf, mttr = 1000.0, 10.0
        lam, mu = 1 / mttf, 1 / mttr
        expected = (3 * lam + mu) / (2 * lam * lam)
        assert mttdl_mirror(2, mttf, mttr) == pytest.approx(expected)

    def test_no_redundancy_is_mttf(self):
        model = DurabilityModel(1, 0, 500.0, 5.0)
        assert mttdl(model) == pytest.approx(500.0)

    def test_more_copies_help_enormously(self):
        two = mttdl_mirror(2, 1000.0, 1.0)
        three = mttdl_mirror(3, 1000.0, 1.0)
        assert three > 100 * two

    def test_faster_repair_helps(self):
        slow = mttdl_mirror(2, 1000.0, 100.0)
        fast = mttdl_mirror(2, 1000.0, 1.0)
        assert fast > 10 * slow

    def test_rs_code_tolerance(self):
        # RS(4+2) on 6 devices tolerates 2 losses; beats mirroring k=2 on
        # the same per-device parameters despite more devices.
        rs = mttdl(DurabilityModel(6, 2, 1000.0, 1.0))
        mirror = mttdl_mirror(2, 1000.0, 1.0)
        assert rs > mirror

    def test_annual_loss_probability_small_and_monotone(self):
        good = DurabilityModel(3, 2, 10_000.0, 1.0)
        bad = DurabilityModel(2, 1, 1_000.0, 100.0)
        assert annual_loss_probability(good) < annual_loss_probability(bad)
        assert 0.0 < annual_loss_probability(bad) < 1.0


class TestSimulationCrossCheck:
    def test_simulated_matches_analytic_mirror(self):
        # Moderate ratio so runs are fast yet the estimate concentrates.
        model = DurabilityModel(2, 1, 100.0, 10.0)
        analytic = mttdl(model)
        simulated = simulate_mttdl(model, runs=300, seed=1)
        assert simulated == pytest.approx(analytic, rel=0.25)

    def test_simulated_matches_analytic_three_way(self):
        model = DurabilityModel(3, 2, 50.0, 10.0)
        analytic = mttdl(model)
        simulated = simulate_mttdl(model, runs=300, seed=2)
        assert simulated == pytest.approx(analytic, rel=0.3)

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            simulate_mttdl(DurabilityModel(2, 1, 10.0, 1.0), runs=0)

    def test_deterministic_given_seed(self):
        model = DurabilityModel(2, 1, 100.0, 10.0)
        first = simulate_mttdl(model, runs=50, seed=3)
        second = simulate_mttdl(model, runs=50, seed=3)
        assert first == second


class TestObservedModel:
    """Edge cases for fitting a durability model to a chaos run."""

    def test_rejects_zero_failures(self):
        from repro.analysis import observed_model

        with pytest.raises(ValueError):
            observed_model(10, 1, 0, 5.0, 0.5)

    def test_rejects_non_positive_horizon(self):
        from repro.analysis import observed_model

        with pytest.raises(ValueError):
            observed_model(10, 1, 3, 0.0, 0.5)

    def test_rejects_non_positive_repair_time(self):
        from repro.analysis import observed_model

        with pytest.raises(ValueError):
            observed_model(10, 1, 3, 5.0, 0.0)
        with pytest.raises(ValueError):
            observed_model(10, 1, 3, 5.0, -1.0)

    def test_single_failure_fit(self):
        # One failure over the horizon: the per-device MTTF estimate is
        # the full pooled observation time.
        from repro.analysis import mttdl, observed_model

        model = observed_model(10, 1, 1, 5.0, 0.5)
        assert model.mttf == pytest.approx(50.0)
        assert model.mttr == pytest.approx(0.5)
        assert mttdl(model) > model.mttf

    def test_fit_scales_with_failures(self):
        from repro.analysis import observed_model

        few = observed_model(10, 1, 2, 5.0, 0.5)
        many = observed_model(10, 1, 20, 5.0, 0.5)
        assert few.mttf == pytest.approx(10 * many.mttf)


class TestMeanField:
    """Mean-field replication ODE: conservation, fixed points, repair."""

    def test_step_conserves_mass(self):
        from repro.analysis import mean_field_step

        dist = (0.0, 0.1, 0.3, 0.6)
        for repair in (0.0, 0.05, 1.0):
            stepped = mean_field_step(dist, 0.01, repair)
            assert sum(stepped) == pytest.approx(1.0)
            assert all(x >= 0 for x in stepped)

    def test_no_failure_no_repair_is_fixed_point(self):
        from repro.analysis import mean_field_step

        dist = (0.2, 0.3, 0.5)
        assert mean_field_step(dist, 0.0, 0.0) == pytest.approx(dist)

    def test_class_zero_is_absorbing(self):
        from repro.analysis import mean_field_distribution

        final = mean_field_distribution(2, 0.05, 0.0, [400])
        assert final[0] > 0.9  # no repair: everything dies eventually

    def test_repair_moves_mass_up(self):
        from repro.analysis import mean_field_step

        dist = (0.0, 0.5, 0.5)
        repaired = mean_field_step(dist, 0.0, 0.3)
        assert repaired[2] > dist[2]
        assert repaired[1] < dist[1]

    def test_priority_repairs_lowest_class_first(self):
        # Budget smaller than class-1 mass: class 2 gets nothing.
        from repro.analysis import mean_field_step

        dist = (0.0, 0.4, 0.4, 0.2)
        repaired = mean_field_step(dist, 0.0, 0.25)
        assert repaired[2] == pytest.approx(0.4 + 0.25)
        assert repaired[1] == pytest.approx(0.4 - 0.25)

    def test_distribution_averages_marks(self):
        from repro.analysis import mean_field_distribution, mean_field_step

        marks = [5, 10]
        averaged = mean_field_distribution(
            3, 0.02, 0.5, sample_epochs=marks
        )
        state, per_mark = [0.0, 0.0, 0.0, 1.0], []
        for epoch in range(1, max(marks) + 1):
            state = mean_field_step(state, 0.02, 0.5)
            if epoch in marks:
                per_mark.append(state)
        for cls in range(4):
            expected = sum(traj[cls] for traj in per_mark) / len(per_mark)
            assert averaged[cls] == pytest.approx(expected)

    def test_validation_rejects_bad_inputs(self):
        from repro.analysis import mean_field_step

        with pytest.raises(ValueError):
            mean_field_step((1.0,), 1.5, 0.0)
        with pytest.raises(ValueError):
            mean_field_step((1.0,), -0.1, 0.0)
        with pytest.raises(ValueError):
            mean_field_step((1.0,), 0.1, -0.5)

    def test_total_variation_bounds(self):
        from repro.analysis import total_variation

        assert total_variation((0.25, 0.75), (0.75, 0.25)) == pytest.approx(
            0.5
        )
