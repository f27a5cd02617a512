"""Behaviour digest of the cluster's share-moving and repair paths.

Run once per checkout and diff the outputs to show a refactor of
``repro.cluster`` / ``repro.chaos.controller`` kept behaviour:

    PYTHONPATH=<checkout>/src python benchmarks/digest_cluster_behaviour.py

Every registry strategy x (eager add / lazy add + drain / remove, also of
a failed device / fail + repair) plus two seeded ``run_chaos`` campaigns
(crash + outage + flaky at k=3; two crashes with data loss at k=2).  One
sha256 per scenario over the report fields, the final block map, every
device's share keys and payloads, and the ``cluster.`` / ``device.`` /
``chaos.`` / ``rebalance.`` events the scenario emitted on the ``obs``
bus (captured per scenario — the bus is the only journal); the last line
digests all of them.  Not a pytest file and not timed.
"""

import hashlib
import sys

from repro import obs
from repro.chaos import ChaosOptions, RepairPolicy, generate_schedule, run_chaos
from repro.cluster import Cluster, Rebalancer
from repro.placement.registry import create, registered_strategies
from repro.types import BinSpec, bins_from_capacities

CAPS = [9000, 7000, 6000, 5000, 4000]
BLOCKS = 300
JOURNAL = ("cluster.", "device.", "chaos.", "rebalance.")


def payload(address):
    return (b"blk%05d" % address) * 3


def state(cluster, trace):
    out = []
    for address in sorted(cluster.addresses()):
        out.append((address, cluster.placement_of(address)))
    for device_id in cluster.device_ids():
        device = cluster.device(device_id)
        keys = sorted(device.share_keys()) if device.is_active else None
        out.append(
            (device_id, device.is_active, keys and [(k, device.fetch(k)) for k in keys])
        )
    out.append(
        [
            (event.kind, sorted(event.fields.items()))
            for event in trace.events
            if event.kind.startswith(JOURNAL)
        ]
    )
    return out


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def build(name):
    cluster = Cluster(
        bins_from_capacities(CAPS), lambda bins: create(name, bins, copies=2)
    )
    for address in range(BLOCKS):
        cluster.write(address, payload(address))
    return cluster


def report_fields(report):
    return (
        report.trigger, report.device_id, report.moved_shares,
        report.rebuilt_shares, report.total_shares, report.used_on_affected,
    )


def main():
    lines = []
    new = BinSpec("bin-new", 8000)
    for name in sorted(e.name for e in registered_strategies()):
        with obs.capture() as eager_trace:
            eager = build(name)
            r1 = report_fields(eager.add_device(new))
        with obs.capture() as lazy_trace:
            lazy = build(name)
            r2 = report_fields(lazy.add_device(new, rebalance=False))
            progress = Rebalancer(lazy).run_to_completion(step_size=17)
        r2 += (progress.total_blocks, progress.migrated_blocks, progress.moved_shares)
        with obs.capture() as removed_trace:
            removed = build(name)
            r3 = report_fields(removed.remove_device("bin-2"))
            # remove a *failed* device: the rebuilt branch of the mover
            removed.fail_device("bin-0")
            r3 += report_fields(removed.remove_device("bin-0"))
        with obs.capture() as repaired_trace:
            repaired = build(name)
            repaired.fail_device("bin-1")
            r4 = repaired.repair_device("bin-1")
        for label, cluster, trace, extra in (
            ("eager-add", eager, eager_trace, r1),
            ("lazy-add", lazy, lazy_trace, r2),
            ("remove", removed, removed_trace, r3),
            ("fail-repair", repaired, repaired_trace, r4),
        ):
            cluster.verify()
            lines.append(
                f"{name:24s} {label:12s} {digest((extra, state(cluster, trace)))} {extra}"
            )
    with obs.capture() as trace:
        cluster = Cluster(
            bins_from_capacities([900] * 8),
            lambda bins: create("redundant-share", bins, copies=3),
        )
        for address in range(200):
            cluster.write(address, payload(address))
        schedule = generate_schedule(
            cluster.device_ids(), seed=11, duration=20.0, crashes=2, outages=1, flaky=2,
            error_rate=0.6,
        )
        report = run_chaos(
            cluster, schedule, ChaosOptions(seed=11, policy=RepairPolicy(rate=40.0))
        )
    extra = (
        report.repair_order, report.loss_events, report.completed,
        report.attempts, report.retries, len(report.abandoned), report.samples,
        report.horizon,
    )
    lines.append(
        f"{'run_chaos k=3':24s} {'crash+out+fl':12s} {digest((extra, state(cluster, trace)))} "
        f"completed={report.completed} retries={report.retries} lost={len(report.loss_events)}"
    )
    # k=2, two crashes: loss path
    with obs.capture() as trace:
        cluster = Cluster(
            bins_from_capacities([900] * 6),
            lambda bins: create("redundant-share", bins, copies=2),
        )
        for address in range(200):
            cluster.write(address, payload(address))
        schedule = generate_schedule(
            cluster.device_ids(), seed=3, duration=10.0, crashes=2, outages=1, flaky=1,
        )
        report = run_chaos(
            cluster, schedule,
            ChaosOptions(seed=3, replacement_delay=6.0, policy=RepairPolicy(rate=40.0)),
        )
    extra = (
        report.repair_order, report.loss_events, report.completed,
        report.attempts, report.retries, len(report.abandoned), report.samples,
    )
    lines.append(
        f"{'run_chaos k=2 loss':24s} {'2 crashes':12s} {digest((extra, state(cluster, trace)))} "
        f"completed={report.completed} retries={report.retries} lost={len(report.loss_events)}"
    )
    print("\n".join(lines))
    print("TOTAL", digest(lines))


if __name__ == "__main__":
    sys.exit(main())
