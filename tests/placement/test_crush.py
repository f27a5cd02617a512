"""Tests for the CRUSH baseline (the straw2 bucket + firstn selection)."""

import collections
import hashlib

import pytest

import repro._compat as compat
from repro.exceptions import ConfigurationError
from repro.placement import ChooseleafCrush, CrushStrategy, Straw2Bucket
from repro.types import bins_from_capacities

straw2 = pytest.mark.parametrize(
    "bucket_cls", [pytest.param(Straw2Bucket, id="straw2")]
)


class TestBucketValidation:
    def test_empty_bucket_rejected(self):
        with pytest.raises(ConfigurationError):
            Straw2Bucket("b", [], [])

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            Straw2Bucket("b", ["a"], [1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Straw2Bucket("b", ["a", "b"], [1.0, 0.0])


@straw2
class TestBucketSelection:
    def test_deterministic(self, bucket_cls):
        bucket = bucket_cls("b", ["x", "y", "z"], [3.0, 2.0, 1.0])
        assert bucket.choose(5, 0, 0) == bucket.choose(5, 0, 0)

    def test_attempts_decorrelate(self, bucket_cls):
        bucket = bucket_cls("b", ["a", "b", "c", "d"], [1.0] * 4)
        outcomes = {bucket.choose(5, 0, attempt) for attempt in range(32)}
        assert len(outcomes) > 1


class TestWeightedBucketsAreFair:
    BALLS = 30_000

    @straw2
    def test_shares_track_weights(self, bucket_cls):
        bucket = bucket_cls("b", ["x", "y", "z"], [1.0, 3.0, 6.0])
        counts = collections.Counter(
            bucket.choose(address, 0, 0) for address in range(self.BALLS)
        )
        assert counts["z"] / self.BALLS == pytest.approx(0.6, abs=0.012)
        assert counts["y"] / self.BALLS == pytest.approx(0.3, abs=0.012)
        assert counts["x"] / self.BALLS == pytest.approx(0.1, abs=0.012)


class TestCrushStrategy:
    def test_redundancy(self):
        strategy = CrushStrategy(bins_from_capacities([5, 4, 3, 2]), copies=3)
        for address in range(2000):
            placement = strategy.place(address)
            assert len(set(placement)) == 3

    def test_deterministic(self):
        strategy = CrushStrategy(bins_from_capacities([5, 4, 3]), copies=2)
        assert strategy.place(9) == strategy.place(9)

    def test_straw2_adaptivity(self):
        """Adding a device only pulls data onto it (straw property)."""
        before = CrushStrategy(bins_from_capacities([10, 10, 10]), copies=1)
        after = CrushStrategy(bins_from_capacities([10, 10, 10, 10]), copies=1)
        for address in range(3000):
            old = before.place(address)[0]
            new = after.place(address)[0]
            if old != new:
                assert new == "bin-3"

    def test_collision_retry_fairness_cost(self):
        """On a tiny skewed pool CRUSH's retry loop distorts shares —
        the gap to Redundant Share the baseline bench reports."""
        capacities = [4, 1, 1]
        strategy = CrushStrategy(bins_from_capacities(capacities), copies=2)
        counts = collections.Counter()
        balls = 20_000
        for address in range(balls):
            for device in strategy.place(address):
                counts[device] += 1
        big_share = counts["bin-0"] / (2 * balls)
        # Fair would be min(1, k*c_0)/k = 0.5; retries push it below.
        assert big_share < 0.5


# The failure-domain bench's fleet (benchmarks/bench_table_failure_domains.py).
RACKS = {
    "rack-a": bins_from_capacities([900, 700], prefix="a"),
    "rack-b": bins_from_capacities([800, 800], prefix="b"),
    "rack-c": bins_from_capacities([600, 500, 500], prefix="c"),
}


@pytest.mark.parametrize("leg", ["numpy", "pure-python"])
@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(
            lambda: CrushStrategy(
                bins_from_capacities([90, 70, 50, 30, 20]), copies=3
            ),
            "3e64072ed3a0a5dae1ab9834684fe8ff"
            "9ef285d4380796683bbc8ea424c6d0f4",
            id="crush",
        ),
        pytest.param(
            lambda: ChooseleafCrush(RACKS, copies=2),
            "002a0778c43a156c6d1c02a553b13f99"
            "d6e8dd0c9fac7afda1f3cd021425f77c",
            id="crush-chooseleaf",
        ),
    ],
)
def test_placements_are_pinned(monkeypatch, leg, build, expected):
    """Bucket names and salts decide every draw: the digests were computed
    at the commit that still had the bucket catalogue, so a moved salt —
    on either leg — fails here."""
    if leg == "pure-python":
        monkeypatch.setattr(compat, "np", None)
    rows = build().place_many(range(20_000)).tuples()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected
