"""Tests for checksum scrubbing (silent-corruption detection/repair)."""

import pytest

from repro.cluster import (
    ChecksumIndex,
    Cluster,
    Scrubber,
    corrupt_share,
)
from repro.core import RedundantShare
from repro.erasure import ReedSolomonCode
from repro.types import bins_from_capacities


def make_cluster(copies=2, code=None, capacities=(2000, 1600, 1200, 800)):
    return Cluster(
        bins_from_capacities(list(capacities)),
        lambda bins: RedundantShare(bins, copies=copies),
        code=code,
    )


def fill(cluster, blocks=100):
    for address in range(blocks):
        cluster.write(address, f"data-{address}".encode() * 2)


class TestChecksumIndex:
    def test_capture_counts_all_shares(self):
        cluster = make_cluster()
        fill(cluster, 50)
        index = ChecksumIndex()
        assert index.capture(cluster) == 100  # 50 blocks * 2 copies
        assert len(index) == 100

    def test_expected_raises_for_unknown(self):
        with pytest.raises(KeyError):
            ChecksumIndex().expected((1, 0))


class TestScrubber:
    def test_clean_cluster_scrubs_clean(self):
        cluster = make_cluster()
        fill(cluster)
        index = ChecksumIndex()
        index.capture(cluster)
        report = Scrubber(cluster, index).scrub()
        assert report.scanned == 200
        assert report.corrupt == 0
        assert report.repaired == 0

    def test_detects_and_repairs_mirror_corruption(self):
        cluster = make_cluster()
        fill(cluster)
        index = ChecksumIndex()
        index.capture(cluster)

        victim_address = 7
        placement = cluster.placement_of(victim_address)
        corrupt_share(cluster, placement[0], (victim_address, 0))

        report = Scrubber(cluster, index).scrub()
        assert report.corrupt == 1
        assert report.repaired == 1
        assert report.unrepairable == 0
        assert report.corrupt_keys == [(placement[0], (victim_address, 0))]
        # The block now reads back clean from either copy.
        assert cluster.read(victim_address) == b"data-7" * 2
        # A second scrub is clean.
        assert Scrubber(cluster, index).scrub().corrupt == 0

    def test_detect_only_mode(self):
        cluster = make_cluster()
        fill(cluster)
        index = ChecksumIndex()
        index.capture(cluster)
        placement = cluster.placement_of(3)
        corrupt_share(cluster, placement[1], (3, 1))
        report = Scrubber(cluster, index).scrub(repair=False)
        assert report.corrupt == 1
        assert report.repaired == 0
        # Still corrupt afterwards.
        assert Scrubber(cluster, index).scrub(repair=False).corrupt == 1

    def test_detect_only_reports_every_corrupt_unrepaired_share(self):
        cluster = make_cluster()
        fill(cluster)
        index = ChecksumIndex()
        index.capture(cluster)
        victims = []
        for address in (2, 9, 17):
            placement = cluster.placement_of(address)
            corrupt_share(cluster, placement[0], (address, 0))
            victims.append((placement[0], (address, 0)))
        report = Scrubber(cluster, index).scrub(repair=False)
        # Every corruption is named, none is touched, none is written off
        # as unrepairable — detect-only defers the decision to the caller.
        assert report.corrupt == 3
        assert report.repaired == 0
        assert report.unrepairable == 0
        assert sorted(report.corrupt_keys) == sorted(victims)
        # A repairing scrub afterwards heals exactly those shares.
        healing = Scrubber(cluster, index).scrub()
        assert healing.corrupt == 3
        assert healing.repaired == 3
        for address in (2, 9, 17):
            assert cluster.read(address) == f"data-{address}".encode() * 2

    def test_repairs_rs_shares_from_parity(self):
        code = ReedSolomonCode(3, 2)
        cluster = Cluster(
            bins_from_capacities([1500] * 6),
            lambda bins: RedundantShare(bins, copies=5),
            code=code,
        )
        fill(cluster, 60)
        index = ChecksumIndex()
        index.capture(cluster)
        placement = cluster.placement_of(11)
        corrupt_share(cluster, placement[4], (11, 4))  # a parity share
        corrupt_share(cluster, placement[0], (11, 0))  # a data share
        report = Scrubber(cluster, index).scrub()
        assert report.corrupt == 2
        assert report.repaired == 2
        assert cluster.read(11) == b"data-11" * 2

    def test_only_undecodable_blocks_count_as_unrepairable(self, monkeypatch):
        cluster = make_cluster()
        fill(cluster, 20)
        index = ChecksumIndex()
        index.capture(cluster)
        placement = cluster.placement_of(4)
        for position, device_id in enumerate(placement):
            corrupt_share(cluster, device_id, (4, position))
        # No verified survivor: the one legitimate "unrepairable".
        report = Scrubber(cluster, index).scrub()
        assert (report.corrupt, report.unrepairable) == (2, 2)
        # Any other failure of the rebuild is a bug and must surface.
        corrupt_share(cluster, cluster.placement_of(5)[0], (5, 0))

        def broken_encode(block):
            raise RuntimeError("encoder bug")

        monkeypatch.setattr(cluster.code, "encode", broken_encode)
        with pytest.raises(RuntimeError, match="encoder bug"):
            Scrubber(cluster, index).scrub()

    def test_writes_after_capture_are_ignored(self):
        cluster = make_cluster()
        fill(cluster, 10)
        index = ChecksumIndex()
        index.capture(cluster)
        cluster.write(99, b"late block")
        report = Scrubber(cluster, index).scrub()
        assert report.scanned == 20  # only captured shares are verified
        assert report.corrupt == 0
