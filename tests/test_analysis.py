"""Tests for the durability models (MTTDL against an exact rational solve)."""

from fractions import Fraction

import pytest

from repro.analysis import (
    DurabilityModel,
    annual_loss_probability,
    mttdl,
)


def mttdl_mirror(copies, mttf, mttr):
    return mttdl(DurabilityModel(copies, copies - 1, mttf, mttr))


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


def rational_mttdl(model):
    """Expected absorption time from state 0 by Gaussian elimination of
    ``(f_i + r_i) E_i - f_i E_(i+1) - r_i E_(i-1) = 1`` in exact
    fractions (``f_i = (n - i) λ``, ``r_i = i μ``, ``E_(t+1) = 0``)."""
    size = model.tolerance + 1
    lam, mu = 1 / Fraction(model.mttf), 1 / Fraction(model.mttr)
    rows = []
    for i in range(size):
        fail, repair = (model.devices - i) * lam, i * mu
        row = [Fraction(0)] * size + [Fraction(1)]
        row[i] = fail + repair
        if i + 1 < size:
            row[i + 1] = -fail
        if i > 0:
            row[i - 1] = -repair
        rows.append(row)
    for pivot, top in enumerate(rows):
        for row in rows[pivot + 1:]:
            factor = row[pivot] / top[pivot]
            row[:] = [x - factor * y for x, y in zip(row, top)]
    solution = [Fraction(0)] * size
    for i in reversed(range(size)):
        known = sum(x * y for x, y in zip(rows[i][i + 1:size], solution[i + 1:]))
        solution[i] = (rows[i][-1] - known) / rows[i][i]
    return solution[0]


def relative_error(model):
    return abs(Fraction(mttdl(model)) / rational_mttdl(model) - 1)


class TestExactSolve:
    """:func:`mttdl` against the chain solved exactly: every group of up
    to eight devices, every tolerance, MTTF/MTTR from 10 to 10⁶ (MTTR of
    24 time units, so neither rate is a power of two)."""

    def test_mttdl_matches_the_rational_solve(self):
        for devices in range(1, 9):
            for tolerance in range(devices):
                for exponent in range(1, 7):
                    model = DurabilityModel(
                        devices, tolerance, 24.0 * 10**exponent, 24.0
                    )
                    assert relative_error(model) <= 1e-13, model

    def test_eight_way_mirror_at_1000_to_1(self):
        # A forward elimination with back-substitution returned -8.77e17
        # here: its terms cancel at high MTTF/MTTR ratios.
        model = DurabilityModel(8, 7, 1000.0, 1.0)
        assert float(rational_mttdl(model)) == pytest.approx(1.2602e23, rel=1e-4)
        assert relative_error(model) <= 1e-13


class TestSimulationCrossCheck:
    """The two models once checked against a Monte-Carlo estimate, now
    held to the exact chain solve."""

    def test_simulated_matches_analytic_mirror(self):
        model = DurabilityModel(2, 1, 100.0, 10.0)
        # (3λ + μ) / 2λ² with λ = 1/100, μ = 1/10.
        assert rational_mttdl(model) == Fraction(650)
        assert relative_error(model) <= 1e-13

    def test_simulated_matches_analytic_three_way(self):
        model = DurabilityModel(3, 2, 50.0, 10.0)
        assert relative_error(model) <= 1e-13


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
