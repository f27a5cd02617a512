#!/usr/bin/env python3
"""An S3-style object store that expands online, without downtime.

The full stack in one story:

    ObjectStore  ->  VirtualVolume  ->  Cluster  ->  RedundantShare (k=2)

We store a few hundred named objects, add a new storage node *lazily* (the
cluster commits the new strategy but no data moves yet), keep serving reads
and writes, trickle the migration in small steps with the Rebalancer (each
step is one ``Cluster.migrate`` call, the mover an eager add drains through)
— and verify every object byte-for-byte at every stage.

Run:  python examples/object_store_scale_out.py
"""

from repro.cluster import Cluster, Rebalancer
from repro.core import ObjectStore, RedundantShare, VirtualVolume
from repro.types import BinSpec, bins_from_capacities


def checksum_all(store, blobs):
    for name, payload in blobs.items():
        assert store.get(name) == payload, f"object {name} corrupted!"


def main() -> None:
    cluster = Cluster(
        bins_from_capacities([6000, 5000, 4000, 3000], prefix="node"),
        lambda bins: RedundantShare(bins, copies=2),
    )
    store = ObjectStore(VirtualVolume(cluster, block_size=256))

    blobs = {
        f"bucket/{kind}/{index:03d}": (kind.encode() + bytes([index])) * (20 + index)
        for kind in ("logs", "images", "models")
        for index in range(80)
    }
    for name, payload in blobs.items():
        store.put(name, payload)
    print(f"stored {len(blobs)} objects "
          f"({sum(len(b) for b in blobs.values())} bytes) "
          f"on {len(cluster.device_ids())} nodes")

    fills = cluster.stats().fill_percentages
    print("fill levels:", {k: f"{v:.1f}%" for k, v in sorted(fills.items())})

    print("\nadding node-4 lazily (no data moves yet) ...")
    cluster.add_device(BinSpec("node-4", 6000), rebalance=False)
    backlog = cluster.out_of_place()
    print(f"migration backlog: {len(backlog)} blocks")
    checksum_all(store, blobs)  # everything still readable

    rebalancer = Rebalancer(cluster)
    step = 0
    while not rebalancer.progress.done:
        rebalancer.step(max_blocks=100)
        step += 1
        # Clients keep working mid-migration.
        store.put(f"bucket/live/{step}", f"written-during-step-{step}".encode())
        blobs[f"bucket/live/{step}"] = f"written-during-step-{step}".encode()
        checksum_all(store, blobs)
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
          "all objects verified at every step")


if __name__ == "__main__":
    main()
