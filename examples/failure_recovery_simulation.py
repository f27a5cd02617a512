#!/usr/bin/env python3
"""Timeline simulation: disks fail and rebuild while the system serves reads.

Plays a seeded fault schedule — several permanent crashes spread over the
horizon — against a mirrored (k=2) Redundant Share cluster through the
chaos controller: each victim's blank replacement arrives after a
finite rebuild delay and its shares are re-replicated by the rate-limited
repair worker.  With mean-time-to-repair much smaller than
mean-time-to-failure, no data is ever lost — the point of pairing a fair
placement with redundancy.

Run:  python examples/failure_recovery_simulation.py
"""

from repro.chaos import ChaosOptions, RepairPolicy, generate_schedule, run_chaos
from repro.cluster import Cluster
from repro.core import RedundantShare
from repro.types import bins_from_capacities

CRASHES = 4
REBUILD_TIME = 10.0  # crash -> blank replacement online
HORIZON = 1000.0
SEED = 6  # crashes land >= 78 time units apart: every rebuild finishes first


def main() -> None:
    cluster = Cluster(
        bins_from_capacities([4000, 3500, 3000, 2500, 2000, 2000], prefix="disk"),
        lambda bins: RedundantShare(bins, copies=2),
    )
    blocks = 3000
    for address in range(blocks):
        cluster.write(address, f"block-{address}".encode())

    schedule = generate_schedule(
        cluster.device_ids(), seed=SEED, duration=HORIZON, crashes=CRASHES
    )
    report = run_chaos(
        cluster,
        schedule,
        ChaosOptions(
            replacement_delay=REBUILD_TIME,
            sample_interval=10.0,
            # 100 shares per time unit: a ~1000-share disk is back to
            # full redundancy long before the next crash.
            policy=RepairPolicy(rate=100.0, timeout=HORIZON),
        ),
    )

    print(f"simulated {report.horizon:.0f} time units\n")
    for event in schedule:
        print(f"  t={event.time:7.1f}  FAIL    {event.device_id}")
        print(f"  t={event.time + REBUILD_TIME:7.1f}  REPLACE {event.device_id}")
    print()
    print(report.summary())

    readable = sum(
        cluster.read(address) == f"block-{address}".encode()
        for address in range(blocks)
    )
    print(f"\nreadable blocks at end: {readable}/{blocks}")
    assert readable == blocks and not report.data_loss, "data was lost!"
    print("no data lost: every failure was covered by the surviving mirror")


if __name__ == "__main__":
    main()
