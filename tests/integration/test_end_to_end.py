"""End-to-end lifecycle tests across all subsystems.

These exercise the realistic stories the library exists for: a cluster
that fills, grows, shrinks, fails, rebuilds — with mirroring and with
erasure coding — while every invariant (durability, fairness, redundancy,
map consistency) holds throughout.
"""

from statistics import mean, pvariance

import pytest

from repro.chaos import ChaosOptions, RepairPolicy, generate_schedule, run_chaos
from repro.cluster import Cluster
from repro.core import FastRedundantShare, RedundantShare, VirtualVolume
from repro.erasure import ReedSolomonCode, RowDiagonalParityCode
from repro.types import BinSpec, bins_from_capacities


def payload_for(address: int) -> bytes:
    return f"block-{address}-".encode() * 4


class TestMirroredLifecycle:
    def test_full_story(self):
        cluster = Cluster(
            bins_from_capacities([3000, 2500, 2000, 1500], prefix="gen0"),
            lambda bins: RedundantShare(bins, copies=2),
        )
        blocks = 600
        for address in range(blocks):
            cluster.write(address, payload_for(address))

        # Grow by a new hardware generation.
        cluster.add_device(BinSpec("gen1-0", 4000))
        cluster.add_device(BinSpec("gen1-1", 4000))
        cluster.verify()

        # Fairness after growth: fill fractions are even across devices.
        fills = [
            cluster.device(device_id).used / cluster.device(device_id).capacity
            for device_id in cluster.device_ids()
        ]
        # Jain's index above 0.99, exactly.
        assert pvariance(fills) < mean(fills) ** 2 / 99

        # Retire the smallest original disk.
        cluster.remove_device("gen0-3")
        cluster.verify()

        # Crash-and-rebuild two devices, one after the other: the repair
        # worker is fast enough to finish the first rebuild before the
        # second crash (k=2 tolerates one concurrent failure).
        schedule = generate_schedule(cluster.device_ids(), seed=5, crashes=2)
        report = run_chaos(
            cluster,
            schedule,
            ChaosOptions(
                replacement_delay=0.0, policy=RepairPolicy(rate=1000.0)
            ),
        )
        assert not report.loss_events
        assert report.completed > 0
        cluster.verify()

        # All data still intact, byte for byte.
        for address in range(blocks):
            assert cluster.read(address) == payload_for(address)

    def test_fast_variant_backed_cluster(self):
        cluster = Cluster(
            bins_from_capacities([2000, 1500, 1000]),
            lambda bins: FastRedundantShare(bins, copies=2),
        )
        for address in range(200):
            cluster.write(address, payload_for(address))
        cluster.add_device(BinSpec("bin-new", 1800))
        cluster.verify()
        for address in range(200):
            assert cluster.read(address) == payload_for(address)


@pytest.mark.parametrize(
    "code",
    [ReedSolomonCode(3, 2), RowDiagonalParityCode(5)],
    ids=lambda code: code.describe(),
)
class TestErasureCodedLifecycle:
    def test_grow_fail_rebuild(self, code):
        devices = bins_from_capacities([2000] * (code.total_shares + 2))
        cluster = Cluster(
            devices,
            lambda bins: RedundantShare(bins, copies=code.total_shares),
            code=code,
        )
        blocks = 120
        for address in range(blocks):
            cluster.write(address, payload_for(address))

        cluster.add_device(BinSpec("bin-extra", 2000))
        cluster.verify()

        victims = ["bin-0", "bin-1"][: code.tolerance]
        for victim in victims:
            cluster.fail_device(victim)
        for address in range(blocks):
            assert cluster.read(address) == payload_for(address)
        for victim in victims:
            assert cluster.repair_device(victim) > 0
        cluster.verify()


class TestVolumeOverGrowingCluster:
    def test_filesystem_like_usage(self):
        cluster = Cluster(
            bins_from_capacities([4000, 3000, 2000]),
            lambda bins: RedundantShare(bins, copies=2),
        )
        volume = VirtualVolume(cluster, block_size=128)

        # Write a "file" spanning many blocks at an unaligned offset.
        content = bytes(range(256)) * 20
        volume.write(300, content)
        assert volume.read(300, len(content)) == content

        # Grow the pool mid-life; the volume is oblivious.
        cluster.add_device(BinSpec("bin-new", 5000))
        assert volume.read(300, len(content)) == content

        # Overwrite a hole-punched region.
        volume.write(100, b"#" * 50)
        assert volume.read(100, 50) == b"#" * 50
        assert volume.read(150, 10) == bytes(10)

        # Survive a failure transparently.
        cluster.fail_device("bin-0")
        assert volume.read(300, len(content)) == content
