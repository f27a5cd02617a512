"""Tests for the byte-addressable VirtualVolume."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import RedundantShare, VirtualVolume
from repro.types import bins_from_capacities


def make_volume(block_size=64):
    cluster = Cluster(
        bins_from_capacities([4000, 3000, 2000, 1000]),
        lambda bins: RedundantShare(bins, copies=2),
    )
    return VirtualVolume(cluster, block_size=block_size)


class TestBasics:
    def test_block_size_validated(self):
        cluster = make_volume().cluster
        with pytest.raises(ValueError):
            VirtualVolume(cluster, block_size=0)

    def test_unwritten_reads_zero(self):
        volume = make_volume()
        assert volume.read(0, 16) == bytes(16)
        assert volume.read(1000, 3) == bytes(3)

    def test_empty_ops(self):
        volume = make_volume()
        assert volume.read(0, 0) == b""
        volume.write(0, b"")  # no-op

    def test_negative_rejected(self):
        volume = make_volume()
        with pytest.raises(ValueError):
            volume.read(-1, 1)
        with pytest.raises(ValueError):
            volume.read(0, -1)
        with pytest.raises(ValueError):
            volume.write(-1, b"x")


class TestReadWrite:
    def test_aligned_round_trip(self):
        volume = make_volume(block_size=32)
        payload = bytes(range(64))
        volume.write(0, payload)
        assert volume.read(0, 64) == payload

    def test_unaligned_write_spanning_blocks(self):
        volume = make_volume(block_size=16)
        volume.write(10, b"A" * 20)  # spans blocks 0, 1
        assert volume.read(10, 20) == b"A" * 20
        assert volume.read(0, 10) == bytes(10)  # untouched prefix
        assert volume.read(30, 4) == bytes(4)  # untouched suffix

    def test_overwrite_middle(self):
        volume = make_volume(block_size=16)
        volume.write(0, b"x" * 48)
        volume.write(20, b"YY")
        data = volume.read(0, 48)
        assert data[:20] == b"x" * 20
        assert data[20:22] == b"YY"
        assert data[22:] == b"x" * 26

    def test_written_bytes(self):
        volume = make_volume(block_size=8)
        volume.write(0, b"abc")
        assert volume.written_bytes() == 8

    def test_survives_device_failure(self):
        volume = make_volume(block_size=32)
        volume.write(5, b"critical-data" * 3)
        volume.cluster.fail_device("bin-0")
        assert volume.read(5, 39) == b"critical-data" * 3

    @given(
        st.integers(min_value=0, max_value=300),
        st.binary(min_size=1, max_size=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(self, offset, data):
        volume = make_volume(block_size=32)
        volume.write(offset, data)
        assert volume.read(offset, len(data)) == data
