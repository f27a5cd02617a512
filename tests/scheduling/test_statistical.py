"""Statistical acceptance tests for the scheduling policies.

Everything here is deterministic (fixed seeds, derived randomness), so
these are acceptance *pins*, not flake-prone samples:

* under uniform traffic on a mirrored pool, homogeneous or not,
  per-device request shares pass the chi-square fairness test against
  the strategy's expected shares — the paper's fairness definition
  extended from data to requests;
* under Zipf ``alpha = 1.1``, the load-feedback policies (least-loaded,
  power-of-two) never lose to blind random on peak device load, and no
  online policy beats the water-filling fractional optimum (a theorem,
  so the gate cannot flake);
* a flash crowd — the worst case for copy scheduling — is flattened by
  two choices to a fraction of the primary-copy peak.
"""

import pytest

from repro.core import RedundantShare
from repro.metrics import chi_square_fairness
from repro.scheduling import create, fractional_lower_bound, run_reads
from repro.types import bins_from_capacities
from repro.workloads import ZipfGenerator, flash_crowd_sample, uniform_sample

MIRROR_CAPACITIES = [1000] * 8
HETERO_CAPACITIES = [4000, 3000, 2000, 1000]
SKEW_CAPACITIES = [1500, 1500, 1000, 1000, 800, 800]
REQUESTS = 20_000
UNIVERSE = 2_000


def make_pool(capacities, copies):
    bins = bins_from_capacities(capacities, prefix="disk")
    strategy = RedundantShare(bins, copies=copies)
    return strategy, [spec.bin_id for spec in bins]


def peak_load(strategy, device_ids, policy, addresses, seed=7):
    scheduler = create(policy, device_ids, seed=seed)
    return run_reads(strategy, scheduler, addresses).peak_load()


class TestUniformFairness:
    """Chi-square: request shares track capacity shares (Section 1)."""

    @pytest.mark.parametrize(
        "capacities, policy",
        [
            pytest.param(MIRROR_CAPACITIES, policy, id=policy)
            for policy in ("random", "round-robin", "least-loaded", "power-of-two")
        ]
        + [
            pytest.param(HETERO_CAPACITIES, policy, id=f"heterogeneous-{policy}")
            for policy in ("random", "round-robin")
        ],
    )
    def test_request_shares_accepted_on_mirrored_pool(self, capacities, policy):
        """Each device serves its ``expected_shares()`` share of the reads.

        On the heterogeneous pool only the load-blind policies run: they
        spread each block's reads over its copies, so a device's request
        share follows its share of the copies.  ``least-loaded`` and
        ``power-of-two`` equalise request counts instead (26.9 / 26.9 /
        26.9 / 19.2 % on this pool), which is their purpose, so they are
        checked on the homogeneous pool, where equal counts are fair.
        """
        strategy, device_ids = make_pool(capacities, copies=2)
        addresses = uniform_sample(6_000, 3_000, seed=11)
        scheduler = create(policy, device_ids, seed=5)
        outcome = run_reads(strategy, scheduler, addresses)
        verdict = chi_square_fairness(
            outcome.device_counts, strategy.expected_shares()
        )
        assert verdict.accepted, verdict.summary()

    def test_chi_square_has_power_to_reject_hotspots(self):
        """The same test rejects primary-copy scheduling under Zipf —
        the acceptance above is not vacuous."""
        strategy, device_ids = make_pool(SKEW_CAPACITIES, copies=3)
        addresses = ZipfGenerator(UNIVERSE, alpha=1.1, seed=13).sample(REQUESTS)
        outcome = run_reads(strategy, create("primary", device_ids, seed=7), addresses)
        total = sum(SKEW_CAPACITIES)
        expected = {
            spec.bin_id: spec.capacity / total for spec in strategy.bins
        }
        verdict = chi_square_fairness(outcome.device_counts, expected)
        assert not verdict.accepted, verdict.summary()


class TestZipfPeakOrdering:
    """Peak-load ordering under Zipf(1.1): feedback <= blind <= primary,
    and everything >= the offline fractional optimum."""

    @pytest.fixture(scope="class")
    def peaks(self):
        strategy, device_ids = make_pool(SKEW_CAPACITIES, copies=3)
        addresses = ZipfGenerator(UNIVERSE, alpha=1.1, seed=13).sample(REQUESTS)
        loads = {
            policy: peak_load(strategy, device_ids, policy, addresses)
            for policy in (
                "primary",
                "random",
                "round-robin",
                "least-loaded",
                "power-of-two",
                "water-filling",
            )
        }
        bound = fractional_lower_bound(strategy, addresses)
        return loads, bound

    def test_feedback_policies_beat_random(self, peaks):
        loads, _ = peaks
        assert loads["least-loaded"] <= loads["random"]
        assert loads["power-of-two"] <= loads["random"]

    def test_every_spreading_policy_beats_primary(self, peaks):
        loads, _ = peaks
        for policy in ("random", "round-robin", "least-loaded", "power-of-two"):
            assert loads[policy] < loads["primary"], policy

    def test_no_schedule_beats_the_fractional_optimum(self, peaks):
        loads, bound = peaks
        assert bound is not None and bound > 0
        for policy, load in loads.items():
            assert load >= bound - 1e-6, policy

    def test_water_filling_is_the_best_realized_schedule(self, peaks):
        loads, bound = peaks
        best_online = min(
            load for policy, load in loads.items() if policy != "water-filling"
        )
        assert loads["water-filling"] <= best_online
        # and the hindsight schedule sits within one request of the
        # fractional optimum on this stream
        assert loads["water-filling"] <= bound + 1.0


class TestFlashCrowd:
    def test_two_choices_flatten_the_crowd(self):
        strategy, device_ids = make_pool(SKEW_CAPACITIES, copies=3)
        addresses = flash_crowd_sample(
            REQUESTS, UNIVERSE, crowd_weight=0.7, crowd_size=2, seed=21
        )
        primary = peak_load(strategy, device_ids, "primary", addresses)
        po2 = peak_load(strategy, device_ids, "power-of-two", addresses)
        # The crowd window melts the primary copy; two choices spread it
        # over the replica sets (under a third of the primary peak).
        assert po2 < primary / 3
        assert po2 < 0.25 * REQUESTS
