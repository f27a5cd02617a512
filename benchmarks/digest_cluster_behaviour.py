"""Behaviour digest of the cluster's share-moving and repair paths.

Run once per checkout and diff the outputs to show a refactor of
``repro.cluster`` / ``repro.chaos.controller`` kept behaviour:

    PYTHONPATH=<checkout>/src python benchmarks/digest_cluster_behaviour.py

Every registry strategy x (eager add / lazy add + drain / remove, also of
a failed device / fail + repair) mirrored at k=2, the same four scenarios
under RDP(5) and RS(4+2) at k=6 for every entry that takes k, and four
seeded ``run_chaos`` campaigns (crash + outage + flaky at k=3 and under
each code at k=6; two crashes with data loss at k=2).  Every block must
read back its payload after each scenario, so a share stored at the
wrong position fails the run.  After each campaign every reported loss
must fail to decode and every other block must read back.  One sha256
per scenario over the report fields, the final block map, every device's
share keys and payloads, and the ``cluster.`` / ``device.`` / ``chaos.``
/ ``rebalance.`` events the scenario emitted on the ``obs`` bus
(captured per scenario — the bus is the only journal); the last line
digests all of them.  Not a pytest file and not timed.
"""

import hashlib
import sys

from repro import obs
from repro.chaos import (
    ChaosOptions, FaultKind, RepairPolicy, generate_schedule, run_chaos,
)
from repro.cluster import Cluster, Rebalancer
from repro.erasure import ReedSolomonCode, RowDiagonalParityCode
from repro.exceptions import DecodingError
from repro.placement.registry import create, registered_strategies
from repro.types import BinSpec, bins_from_capacities

CAPS = [9000, 7000, 6000, 5000, 4000]
CODED_CAPS = [9000, 7000, 6000, 5000, 4000, 4000, 3000, 3000]
CODES = (RowDiagonalParityCode(5), ReedSolomonCode(4, 2))
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


def build(name, caps, code):
    copies = code.total_shares if code else 2
    cluster = Cluster(
        bins_from_capacities(caps),
        lambda bins: create(name, bins, copies=copies),
        code=code,
    )
    for address in range(BLOCKS):
        cluster.write(address, payload(address))
    return cluster


def reads_back(cluster, addresses):
    for address in addresses:
        assert cluster.read(address) == payload(address), address


def report_fields(report):
    return (
        report.trigger, report.device_id, report.moved_shares,
        report.rebuilt_shares, report.total_shares, report.used_on_affected,
    )


def scenario_lines(name, caps=CAPS, code=None):
    """The four reconfiguration scenarios of one entry, one line each."""
    prefix = f"{code.describe():18s} " if code else ""
    lines = []
    new = BinSpec("bin-new", 8000)
    with obs.capture() as eager_trace:
        eager = build(name, caps, code)
        r1 = report_fields(eager.add_device(new))
    with obs.capture() as lazy_trace:
        lazy = build(name, caps, code)
        r2 = report_fields(lazy.add_device(new, rebalance=False))
        progress = Rebalancer(lazy).run_to_completion(step_size=17)
    r2 += (progress.total_blocks, progress.migrated_blocks, progress.moved_shares)
    with obs.capture() as removed_trace:
        removed = build(name, caps, code)
        r3 = report_fields(removed.remove_device("bin-2"))
        # remove a *failed* device: the rebuilt branch of the mover
        removed.fail_device("bin-0")
        r3 += report_fields(removed.remove_device("bin-0"))
    with obs.capture() as repaired_trace:
        repaired = build(name, caps, code)
        repaired.fail_device("bin-1")
        r4 = repaired.repair_device("bin-1")
    for label, cluster, trace, extra in (
        ("eager-add", eager, eager_trace, r1),
        ("lazy-add", lazy, lazy_trace, r2),
        ("remove", removed, removed_trace, r3),
        ("fail-repair", repaired, repaired_trace, r4),
    ):
        cluster.verify()
        reads_back(cluster, range(BLOCKS))
        lines.append(
            f"{prefix}{name:24s} {label:12s} "
            f"{digest((extra, state(cluster, trace)))} {extra}"
        )
    return lines


def chaos_line(title, label, caps, copies, code, schedule_args, options, horizon=True):
    """One seeded campaign on 200 blocks, after checking its loss oracle:
    every reported loss fails to decode, every other block reads back."""
    with obs.capture() as trace:
        cluster = Cluster(
            bins_from_capacities(caps),
            lambda bins: create("redundant-share", bins, copies=copies),
            code=code,
        )
        for address in range(200):
            cluster.write(address, payload(address))
        schedule = generate_schedule(cluster.device_ids(), **schedule_args)
        report = run_chaos(cluster, schedule, options)
    lost = {event.address for event in report.loss_events}
    # Crashes within the code's tolerance leave every block decodable.
    crashes = sum(event.kind is FaultKind.CRASH for event in schedule)
    assert crashes > cluster.code.tolerance or not lost, lost
    for address in lost:
        try:
            cluster.read(address)
        except DecodingError:
            continue
        raise AssertionError(f"block {address} reported lost reads back")
    reads_back(cluster, set(cluster.addresses()) - lost)
    extra = (
        report.repair_order, report.loss_events, report.completed,
        report.attempts, report.retries, len(report.abandoned), report.samples,
    ) + ((report.horizon,) if horizon else ())
    return (
        f"{title:24s} {label:12s} {digest((extra, state(cluster, trace)))} "
        f"completed={report.completed} retries={report.retries} "
        f"lost={len(report.loss_events)}"
    )


def main():
    lines = []
    for name in sorted(e.name for e in registered_strategies()):
        lines += scenario_lines(name)
    for code in CODES:
        for entry in sorted(registered_strategies(), key=lambda e: e.name):
            if entry.fixed_copies is None:
                lines += scenario_lines(entry.name, CODED_CAPS, code)
    crash_outage_flaky = dict(
        seed=11, duration=20.0, crashes=2, outages=1, flaky=2, error_rate=0.6
    )
    options = ChaosOptions(seed=11, policy=RepairPolicy(rate=40.0))
    lines.append(chaos_line(
        "run_chaos k=3", "crash+out+fl", [900] * 8, 3, None,
        crash_outage_flaky, options,
    ))
    # k=2, two crashes: loss path
    lines.append(chaos_line(
        "run_chaos k=2 loss", "2 crashes", [900] * 6, 2, None,
        dict(seed=3, duration=10.0, crashes=2, outages=1, flaky=1),
        ChaosOptions(seed=3, replacement_delay=6.0, policy=RepairPolicy(rate=40.0)),
        horizon=False,
    ))
    for code in CODES:
        lines.append(chaos_line(
            f"run_chaos {code.describe()}", "crash+out+fl", [900] * 9,
            code.total_shares, code, crash_outage_flaky, options,
        ))
    print("\n".join(lines))
    print("TOTAL", digest(lines))


if __name__ == "__main__":
    sys.exit(main())
