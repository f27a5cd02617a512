"""Unit tests for the hash ring."""

import pytest

from repro.hashing import HashRing
from repro.hashing.primitives import unit_interval


def build_ring(owners, points=32):
    ring = HashRing("test")
    for owner in owners:
        ring.add_owner(owner, points)
    return ring


class TestRingConstruction:
    def test_len_counts_points(self):
        ring = build_ring(["a", "b"], points=8)
        assert len(ring) == 16

    def test_duplicate_owner_rejected(self):
        ring = build_ring(["a"])
        with pytest.raises(ValueError):
            ring.add_owner("a", 4)

    def test_zero_points_rejected(self):
        ring = HashRing()
        with pytest.raises(ValueError):
            ring.add_owner("a", 0)

    def test_contains(self):
        ring = build_ring(["a"])
        assert "a" in ring
        assert "b" not in ring


class TestSuccessor:
    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().successor(0.5)

    def test_successor_is_deterministic(self):
        ring = build_ring(["a", "b", "c"])
        assert ring.successor(0.123) == ring.successor(0.123)

    def test_wraps_around(self):
        ring = build_ring(["a", "b"])
        # A position beyond every point must wrap to the first point's owner.
        assert ring.successor(0.999999999) in ("a", "b")

    def test_successors_distinct_owners(self):
        ring = build_ring(["a", "b", "c", "d"])
        owners = ring.successors(0.42, 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_successors_too_many_raises(self):
        ring = build_ring(["a", "b"])
        with pytest.raises(ValueError):
            ring.successors(0.1, 3)


class TestRemoval:
    def test_removal_is_stable_for_survivors(self):
        # Consistent hashing's key property: a ring built without an owner
        # differs only at positions that mapped to it.
        ring = build_ring(["a", "b", "c"], points=64)
        without = build_ring(["a", "c"], points=64)
        for position in (pos / 1000 for pos in range(1000)):
            owner = ring.successor(position)
            if owner != "b":
                assert without.successor(position) == owner


class TestArcLength:
    def test_arcs_sum_to_one(self):
        ring = build_ring(["a", "b", "c"], points=32)
        arcs = ring.arc_length()
        assert abs(sum(arcs.values()) - 1.0) < 1e-12

    def test_arc_matches_sampled_share(self):
        ring = build_ring(["a", "b"], points=128)
        arcs = ring.arc_length()
        n = 5000
        hits = sum(
            1 for i in range(n) if ring.successor(unit_interval("s", i)) == "a"
        )
        assert abs(hits / n - arcs["a"]) < 0.03

    def test_single_owner_arc_accessor(self):
        ring = build_ring(["a", "b"], points=32)
        assert 0.0 < ring.arc_length("a") < 1.0

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().arc_length()
