"""Tests for scenarios, runners and the event engine."""

import pytest

from repro.core import RedundantShare
from repro.simulation import (
    Simulator,
    add_remove_cases,
    heterogeneous_bins,
    homogeneous_bins,
    paper_growth_steps,
    run_adaptivity,
    run_fairness,
    scaling_cases,
)


class TestScenarios:
    def test_paper_heterogeneous_capacities(self):
        bins = heterogeneous_bins(8)
        assert bins[0].capacity == 500_000
        assert bins[-1].capacity == 1_200_000
        assert len({spec.bin_id for spec in bins}) == 8

    def test_growth_steps_structure(self):
        steps = paper_growth_steps()
        assert [len(step.bins) for step in steps] == [8, 10, 12, 10, 8]
        # Growth extends the same disks (names preserved).
        first_ids = {spec.bin_id for spec in steps[0].bins}
        second_ids = {spec.bin_id for spec in steps[1].bins}
        assert first_ids < second_ids
        # Shrink removes the smallest disks.
        final_ids = {spec.bin_id for spec in steps[-1].bins}
        assert "disk-00" not in final_ids
        assert "disk-11" in final_ids

    def test_add_remove_cases_cover_grid(self):
        cases = add_remove_cases()
        labels = {case.label for case in cases}
        assert len(cases) == 8
        assert "het. add big" in labels
        assert "hom. rem. small" in labels
        for case in cases:
            delta = abs(len(case.before) - len(case.after))
            assert delta == 1

    def test_added_big_bin_sorts_first(self):
        cases = {case.label: case for case in add_remove_cases()}
        case = cases["hom. add big"]
        strategy = RedundantShare(list(case.after), copies=2)
        assert strategy.ordered_bins[0].bin_id == case.affected

    def test_added_small_bin_sorts_last(self):
        cases = {case.label: case for case in add_remove_cases()}
        case = cases["hom. add small"]
        strategy = RedundantShare(list(case.after), copies=2)
        assert strategy.ordered_bins[-1].bin_id == case.affected

    def test_scaling_cases(self):
        cases = scaling_cases([4, 8])
        assert len(cases) == 4
        assert cases[0].label == "n=4 add biggest"


class TestRunners:
    def test_fairness_runner_is_flat_for_redundant_share(self):
        steps = paper_growth_steps(base=500, step=100)
        results = run_fairness(
            steps,
            lambda bins: RedundantShare(bins, copies=2),
            balls=2000,
        )
        assert len(results) == len(steps)
        for result in results:
            # Perfect fairness => every bin is filled to the same percent;
            # allow Monte-Carlo noise.
            mean = sum(result.fills.values()) / len(result.fills)
            assert result.spread < 0.35 * mean

    def test_adaptivity_runner_reports_factors(self):
        cases = add_remove_cases(count=6, base=500, step=100)
        results = run_adaptivity(
            cases, lambda bins: RedundantShare(bins, copies=2), balls=2000
        )
        assert len(results) == 8
        for result in results.values():
            assert result.used_on_affected > 0
            # must at least fill the new bin
            assert result.factor_positional >= 0.9
            assert result.factor_positional < 6.0  # Lemma 3.2 ballpark


class TestSimulator:
    def test_runs_in_time_order(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(5.0, lambda: seen.append("b"))
        simulator.schedule(1.0, lambda: seen.append("a"))
        simulator.run()
        assert seen == ["a", "b"]
        assert simulator.now == 5.0

    def test_ties_fifo(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append(1))
        simulator.schedule(1.0, lambda: seen.append(2))
        simulator.run()
        assert seen == [1, 2]

    def test_step_runs_the_earliest_event(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(10.0, lambda: seen.append("late"))
        simulator.schedule(1.0, lambda: seen.append("early"))
        assert simulator.pending == 2
        assert simulator.step() is True
        assert seen == ["early"]
        assert simulator.now == 1.0
        assert simulator.pending == 1

    def test_cascading_events(self):
        simulator = Simulator()
        seen = []

        def first():
            seen.append("first")
            simulator.schedule(2.0, lambda: seen.append("second"))

        simulator.schedule(1.0, first)
        simulator.run()
        assert seen == ["first", "second"]
        assert simulator.now == 3.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(4.0, lambda: seen.append("x"))
        with pytest.raises(ValueError):
            simulator.schedule_at(-1.0, lambda: None)
        simulator.run()
        assert seen == ["x"]

    def test_step_on_empty(self):
        assert Simulator().step() is False
