#!/usr/bin/env python3
"""A virtual volume that expands online, without downtime.

The paper's "single storage device" over a growing pool:

    VirtualVolume  ->  Cluster  ->  RedundantShare (k=2)

We write a few hundred byte ranges (unaligned, so most straddle block
boundaries), add a new storage node *lazily* (the cluster commits the new
strategy but no data moves yet), keep serving reads and writes, trickle the
migration in small steps with the Rebalancer (each step is one
``Cluster.migrate`` call, the mover an eager add drains through) — and
check every range's SHA-256 at every stage.

Run:  python examples/volume_scale_out.py
"""

import hashlib

from repro.cluster import Cluster, Rebalancer
from repro.core import RedundantShare, VirtualVolume
from repro.types import BinSpec, bins_from_capacities


def digest(data):
    return hashlib.sha256(data).hexdigest()


def verify_all(volume, ranges):
    for offset, (length, expected) in ranges.items():
        assert digest(volume.read(offset, length)) == expected, (
            f"range at {offset} corrupted!"
        )


def write_range(volume, ranges, offset, data):
    volume.write(offset, data)
    ranges[offset] = (len(data), digest(data))


def main() -> None:
    cluster = Cluster(
        bins_from_capacities([6000, 5000, 4000, 3000], prefix="node"),
        lambda bins: RedundantShare(bins, copies=2),
    )
    volume = VirtualVolume(cluster, block_size=256)

    ranges = {}
    offset = 0
    for index in range(240):
        data = (b"range-%03d:" % index) * (20 + index % 80)
        write_range(volume, ranges, offset, data)
        offset += len(data) + 37  # unaligned gaps between ranges
    print(f"wrote {len(ranges)} byte ranges "
          f"({volume.written_bytes()} bytes in {cluster.block_count} blocks) "
          f"on {len(cluster.device_ids())} nodes")

    fills = cluster.stats().fill_percentages
    print("fill levels:", {k: f"{v:.1f}%" for k, v in sorted(fills.items())})

    print("\nadding node-4 lazily (no data moves yet) ...")
    cluster.add_device(BinSpec("node-4", 6000), rebalance=False)
    backlog = cluster.out_of_place()
    print(f"migration backlog: {len(backlog)} blocks")
    verify_all(volume, ranges)  # everything still readable

    rebalancer = Rebalancer(cluster)
    step = 0
    while not rebalancer.progress.done:
        rebalancer.step(max_blocks=100)
        step += 1
        # Clients keep working mid-migration, past the end of the volume.
        write_range(volume, ranges, offset, f"written-during-step-{step}".encode())
        offset += 300
        verify_all(volume, ranges)
        print(
            f"  step {step}: {rebalancer.progress.migrated_blocks}/"
            f"{rebalancer.progress.total_blocks} blocks migrated "
            f"({rebalancer.progress.fraction:.0%})"
        )

    cluster.verify()
    fills = cluster.stats().fill_percentages
    print("\nfill levels after scale-out:",
          {k: f"{v:.1f}%" for k, v in sorted(fills.items())})
    print(f"moved {rebalancer.progress.moved_shares} shares total; "
          "every byte range verified at every step")


if __name__ == "__main__":
    main()
