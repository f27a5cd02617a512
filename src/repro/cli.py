"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro capacity --capacities 100,6,1 --copies 2
    repro fairness --capacities 500,600,700,800 --copies 2 --balls 50000
    repro compare  --capacities 1000,400,300,200,100 --copies 3
    repro adaptivity --copies 2 --balls 20000
    repro place --capacities 1200,800,500 --copies 2 --address 42
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import List, Sequence

from . import chaos, obs, scheduling
from .analysis import DurabilityModel, annual_loss_probability, mttdl
from .capacity import clip_capacities, is_capacity_efficient, max_balls
from .cluster import Cluster, Rebalancer
from .core import RedundantShare
from .exceptions import (
    ConfigurationError,
    InfeasibleRedundancyError,
    ReproError,
)
from .metrics import (
    chi_square_fairness,
    fair_copy_shares,
    max_deviation_fairness,
    max_share_deviation,
    sample_copy_counts,
)
from .obs.report import render_report
from .options import parse_option_text
from .placement import (
    create,
    lookup,
    strategy_names,
    trivial_wasted_fraction,
)
from .simulation import (
    add_remove_cases,
    paper_growth_steps,
    run_adaptivity,
    run_fairness,
)
from .types import BinSpec, bins_from_capacities
from .workloads import ZipfGenerator, flash_crowd_sample, uniform_sample


def _numbers(raw: str, kind, complaint: str) -> list:
    """A comma-separated list of ``kind`` numbers, with a CLI-grade error."""
    try:
        return [kind(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"{complaint}: {raw!r}")


def _parse_capacities(raw: str) -> List[int]:
    capacities = _numbers(raw, int, "invalid capacity list")
    if not capacities:
        raise SystemExit("at least one capacity is required")
    if min(capacities) < 1:
        raise SystemExit(f"capacities must be positive, got {raw!r}")
    return capacities


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise SystemExit(f"{flag} must be >= 1, got {value}")


def _strategy_options(name: str, option_pairs: Sequence[str]):
    """Resolve ``--strategy-opt key=value`` pairs to typed options.

    Returns ``(canonical_name, options_dict)``; unknown strategies,
    unknown option keys and malformed values raise the registry's
    ``ConfigurationError`` (a one-line exit in :func:`main`).
    """
    entry = lookup(name)
    options = parse_option_text(
        entry.options, option_pairs or (), f"strategy {entry.name!r}"
    )
    return entry.name, options


def _strategy_for(name: str, bins, copies: int, option_pairs=()):
    """Resolve a strategy name through the canonical registry factory."""
    canonical, options = _strategy_options(name, option_pairs)
    return create(canonical, bins, copies=copies, **options)


def _configuration(args: argparse.Namespace):
    """``(capacities, bins, strategy)`` as the common flags describe them."""
    capacities = _parse_capacities(args.capacities)
    bins = bins_from_capacities(capacities, prefix=args.prefix)
    strategy = _strategy_for(
        args.strategy, bins, args.copies, args.strategy_opt
    )
    return capacities, bins, strategy


@contextlib.contextmanager
def _capture(jsonl: str):
    """:func:`repro.obs.capture` with a tee: metrics reset, trace events
    into the yielded ``MemorySink`` and, when ``jsonl`` names a file,
    streamed there as well."""
    obs.reset_metrics()
    memory = obs.MemorySink()
    sink = obs.TeeSink([memory, obs.JsonlSink(jsonl)]) if jsonl else memory
    with obs.use_sink(sink):
        try:
            yield memory
        finally:
            sink.close()


def _written_cluster(args: argparse.Namespace, capacities):
    """A cluster holding ``--blocks`` written blocks, as ``(cluster, scale)``.

    The capacity vector is scaled so the devices hold the blocks with
    headroom for a post-failure rebuild; the relative proportions (what
    placement cares about) are kept.
    """
    scale = max(1, -(-4 * args.blocks * args.copies // sum(capacities)))
    cluster = Cluster(
        bins_from_capacities(
            [capacity * scale for capacity in capacities], prefix=args.prefix
        ),
        lambda b: _strategy_for(args.strategy, b, args.copies, args.strategy_opt),
    )
    for address in range(args.blocks):
        cluster.write(address, b"x" * 16)
    return cluster, scale


def cmd_capacity(args: argparse.Namespace) -> int:
    """Lemma 2.1/2.2 report for a capacity vector."""
    capacities = sorted(_parse_capacities(args.capacities), reverse=True)
    k = args.copies
    efficient = is_capacity_efficient(capacities, k)
    balls = max_balls(capacities, k)
    clipped = clip_capacities(capacities, k)
    waste = trivial_wasted_fraction(capacities, k)
    print(f"capacities (sorted): {capacities}")
    print(f"replication degree : k = {k}")
    print(f"capacity efficient : {efficient} (Lemma 2.1: k*b_0 <= B)")
    print(f"max storable balls : {balls} (Lemma 2.2)")
    print(f"clipped capacities : {[round(value, 2) for value in clipped]}")
    print(f"trivial-strategy waste: {waste:.2%} of raw capacity (Lemma 2.4)")
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    """Show the placement of one or more addresses."""
    _, _, strategy = _configuration(args)
    for address in range(args.address, args.address + args.count):
        print(f"{address}: {' '.join(strategy.place(address))}")
    return 0


def cmd_fairness(args: argparse.Namespace) -> int:
    """Empirical shares vs fair targets for one configuration."""
    _at_least_one("--balls", args.balls)
    _, bins, strategy = _configuration(args)
    counts = strategy.place_many(range(args.balls)).counts()
    total = sum(counts.values())
    expected = strategy.expected_shares()
    print(f"{'bin':<10}{'copies':>10}{'observed':>12}{'expected':>12}")
    for spec in bins:
        observed = counts.get(spec.bin_id, 0) / total
        print(
            f"{spec.bin_id:<10}{counts.get(spec.bin_id, 0):>10}"
            f"{observed:>11.2%} {expected[spec.bin_id]:>11.2%}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Exact distance from the fair shares of all strategies on one
    configuration."""
    capacities = _parse_capacities(args.capacities)
    bins = bins_from_capacities(capacities, prefix=args.prefix)
    fair_capacities = {spec.bin_id: float(spec.capacity) for spec in bins}
    print(f"{'strategy':<22}{'max deviation from fair share':>32}")
    # Canonical names only: an aliased entry must not be swept twice.
    for name in strategy_names():
        strategy = create(name, bins, copies=args.copies)
        # Lemma 2.2 clipped shares at the degree this strategy places
        # (the mirror-only entries ignore --copies).
        fair = fair_copy_shares(fair_capacities, strategy.copies)
        deviation = max_share_deviation(strategy.expected_shares(), fair)
        print(f"{name:<22}{deviation:>31.3%}")
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    """The Figure 2/4 growth experiment (fill %% per disk per step)."""
    _at_least_one("--balls", args.balls)
    steps = paper_growth_steps(base=args.base, step=args.step)
    results = run_fairness(
        steps,
        lambda bins: RedundantShare(bins, copies=args.copies),
        balls=args.balls,
    )
    disks = sorted({disk for result in results for disk in result.fills})
    header = "disk        " + "".join(f"{step.label:>20}" for step in steps)
    print(header)
    for disk in disks:
        row = f"{disk:<12}"
        for result in results:
            if disk in result.fills:
                row += f"{result.fills[disk]:>19.2f}%"
            else:
                row += f"{'-':>20}"
        print(row)
    print("spread      " + "".join(f"{r.spread:>19.2f}%" for r in results))
    return 0


def cmd_durability(args: argparse.Namespace) -> int:
    """MTTDL table for the supported redundancy schemes."""
    schemes = {
        "single copy": DurabilityModel(1, 0, args.mttf, args.mttr),
        "mirror k=2": DurabilityModel(2, 1, args.mttf, args.mttr),
        "mirror k=3": DurabilityModel(3, 2, args.mttf, args.mttr),
        "parity 4+1": DurabilityModel(5, 1, args.mttf, args.mttr),
        "RS 4+2": DurabilityModel(6, 2, args.mttf, args.mttr),
    }
    print(f"MTTF={args.mttf:.0f} MTTR={args.mttr:.0f} (same time unit)")
    print(f"{'scheme':<14}{'MTTDL':>18}{'P(loss per 365 units)':>24}")
    for name, model in schemes.items():
        print(
            f"{name:<14}{mttdl(model):>18,.0f}"
            f"{annual_loss_probability(model, year=365.0):>24.3e}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Observability snapshot + statistical fairness acceptance report.

    Runs a seeded placement sample through the chi-square and
    max-deviation acceptance tests (the Lemma 2.4 machinery), exercises a
    small cluster through an add-device rebalance and a one-crash chaos run
    with the event bus enabled, and renders the captured counters,
    histograms and trace-event summary.
    """
    _at_least_one("--balls", args.balls)
    capacities, bins, strategy = _configuration(args)

    with _capture(args.jsonl) as memory:
        counts = sample_copy_counts(strategy, args.balls, seed=args.seed)
        # Always test against the *fair* (clipped capacity-proportional)
        # shares — a strategy's own expected_shares() describes what it
        # achieves, and e.g. the trivial strategy would trivially accept
        # its own Lemma 2.4 waste.
        expected = fair_copy_shares(
            {spec.bin_id: float(spec.capacity) for spec in bins},
            strategy.copies,
        )
        verdicts = [
            chi_square_fairness(counts, expected, alpha=args.alpha),
            max_deviation_fairness(counts, expected, alpha=args.alpha),
        ]
        if args.exercise:
            cluster, scale = _written_cluster(args, capacities)
            spec = BinSpec(f"{args.prefix}-new", max(capacities) * scale)
            cluster.add_device(spec, rebalance=False)
            Rebalancer(cluster).run_to_completion(step_size=64)
            chaos.run_chaos(
                cluster,
                chaos.generate_schedule(cluster.device_ids(), seed=args.seed),
                chaos.ChaosOptions(replacement_delay=0.0),
            )
    print(render_report(obs.metrics(), memory, verdicts))
    if args.strict and not all(verdict.accepted for verdict in verdicts):
        return 1
    return 0


def _add_flags(container, **flags) -> None:
    """Declare ``dest=(default, help)`` flags on a parser or group.

    A flag's type is its default's; a ``False`` default makes a switch.
    """
    for dest, (default, text) in flags.items():
        kind = (
            {"action": "store_true"}
            if default is False
            else {"type": type(default)}
        )
        container.add_argument(
            "--" + dest.replace("_", "-"), default=default, help=text, **kind
        )


def _field_flags(cls, **helps):
    """``{cls: flags}`` with the named fields of a dataclass as
    ``dest=(default, help)`` flags: name, type and default are the field's
    own, the help is the CLI's."""
    defaults = {field.name: field.default for field in dataclasses.fields(cls)}
    return {cls: {dest: (defaults[dest], text) for dest, text in helps.items()}}


#: The ``repro chaos`` / ``repro fleet`` flags generated from dataclass
#: fields; :func:`_from_flags` builds the instance back from the parsed
#: values.
_FIELD_FLAGS = {
    **_field_flags(
        chaos.RepairPolicy,
        rate="repairs per time unit",
        max_attempts=None,
        timeout="per-task repair budget before giving up",
        backoff_base=None,
        backoff_factor=None,
        backoff_max=None,
    ),
    **_field_flags(
        chaos.ChaosOptions,
        seed="chaos seed (fault schedule and flaky-error draws)",
        replacement_delay="time until a crashed device's blank replacement "
        "arrives",
        allow_degraded="accept Lemma-2.1-infeasible shrinks instead of "
        "aborting",
        alpha="false-positive rate of the post-repair fairness test",
    ),
    **_field_flags(
        chaos.FleetOptions,
        devices="fleet size (uniform)",
        blocks="block population",
        copies="replication k",
        years="simulated horizon",
        epochs_per_year="epoch resolution (dt = 1/epochs-per-year years)",
        failure_rate="device failures per device-year",
        repair_rate="fleet-wide share rebuilds per epoch",
        seed=None,
        device_capacity="uniform per-device capacity (relative units)",
        sample_every="epochs between samples (0 = auto, ~120 samples)",
    ),
}


def _from_flags(cls, args: argparse.Namespace, **rest):
    """Build ``cls`` from its generated flags; ``rest`` are the fields the
    caller resolves itself."""
    given = {dest: getattr(args, dest) for dest in _FIELD_FLAGS[cls]}
    return cls(**given, **rest)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault schedule against a cluster and report recovery.

    Builds a cluster (capacities scaled so the written blocks fit with
    rebuild headroom, like ``repro stats``), generates or loads a fault
    schedule, plays it through the :class:`~repro.chaos.ChaosController`,
    and prints blocks-at-risk over time, data-loss events, repair
    throughput and the post-repair fairness verdict.
    """
    cluster, _ = _written_cluster(args, _parse_capacities(args.capacities))

    if args.schedule:
        try:
            with open(args.schedule, "r", encoding="utf-8") as handle:
                schedule = chaos.FaultSchedule.from_json(handle.read())
        except (OSError, ConfigurationError) as error:
            raise SystemExit(f"cannot load schedule {args.schedule!r}: {error}")
    else:
        schedule = chaos.generate_schedule(
            cluster.device_ids(),
            seed=args.seed,
            duration=args.duration,
            crashes=args.crashes,
            outages=args.outages,
            flaky=args.flaky,
            error_rate=args.error_rate,
            latency=args.latency,
        )

    options = _from_flags(
        chaos.ChaosOptions, args, policy=_from_flags(chaos.RepairPolicy, args)
    )

    with _capture(args.jsonl) as memory:
        try:
            report = chaos.run_chaos(cluster, schedule, options)
        except InfeasibleRedundancyError as error:
            print(f"chaos run aborted: {error}")
            return 1

    print(f"schedule ({len(schedule)} faults, seed={args.seed}):")
    for event in schedule:
        extras = ""
        if event.duration:
            extras += f" duration={event.duration:g}"
        if event.error_rate:
            extras += f" error_rate={event.error_rate:g}"
        print(
            f"  t={event.time:<8.2f}{event.kind.value:<8}"
            f"{event.device_id}{extras}"
        )
    print()
    print(report.summary())
    print()
    print("blocks at risk over time:")
    for time, at_risk, depth in report.samples:
        print(f"  t={time:<8.2f}at_risk={at_risk:<6}queue={depth}")
    if report.loss_events:
        print("\ndata-loss events:")
        for loss in report.loss_events:
            print(
                f"  t={loss.time:.2f} block {loss.address} "
                f"({loss.survivors} survivors)"
            )
    print()
    print(render_report(obs.metrics(), memory, [report.fairness] if report.fairness else []))
    if args.strict and (
        report.data_loss
        or (report.fairness is not None and not report.fairness.accepted)
    ):
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Columnar fleet-scale durability campaign against the mean-field model.

    Simulates ``--devices`` x ``--blocks`` over ``--years`` in fixed
    epochs, prints the copy-count timeline, the steady-state histogram
    against the mean-field prediction, the fitted MTTDL, and (with
    ``--phase``) a durability-vs-repair-rate phase diagram.
    """
    fleet_strategy, strategy_options = _strategy_options(
        args.strategy, args.strategy_opt
    )
    options = _from_flags(
        chaos.FleetOptions,
        args,
        strategy=fleet_strategy,
        strategy_options=strategy_options,
    )
    simulator = chaos.FleetSimulator(options)

    with _capture(args.jsonl) as memory:
        report = simulator.run()
        phase_points = []
        if args.phase:
            phase_points = chaos.durability_phase_diagram(
                options, _numbers(args.phase, float, "bad --phase rates")
            )

    print(report.summary())
    print()
    print("copy-count timeline (damaged / lost):")
    shown = report.samples
    if len(shown) > 12:
        step = (len(shown) - 1) / 11
        shown = [shown[round(index * step)] for index in range(12)]
    for sample in shown:
        print(
            f"  y={sample.year:<8.2f}damaged={sample.damaged:<8}"
            f"lost={sample.lost}"
        )
    if phase_points:
        print()
        print("durability vs repair rate:")
        print("  rate/epoch  lost_frac  mean_copies  TV(mean-field)")
        for point in phase_points:
            print(
                f"  {point.repair_rate:<11.6g}"
                f"{point.lost_fraction:<11.6f}"
                f"{point.mean_copies:<13.4f}"
                f"{point.mean_field_deviation:.4f}"
            )
    print()
    # Scope the report to the fleet's namespace: placement-kernel
    # metrics (``tie_recomputes`` etc.) exist only on the NumPy leg, and
    # CLI output must stay byte-identical across legs.
    fleet_trace = obs.MemorySink()
    for event in memory.events:
        if event.kind.startswith("chaos.fleet."):
            fleet_trace.emit(event.kind, **event.fields)
    print(render_report(obs.metrics().filtered("chaos.fleet."), fleet_trace, []))
    if args.strict and (
        report.data_loss or report.mean_field_deviation > args.tv_tolerance
    ):
        return 1
    return 0


def cmd_sched(args: argparse.Namespace) -> int:
    """Read-scheduler ablation: peak device load under skewed traffic.

    Places a synthetic address population with the chosen strategy,
    replays a skewed read stream (zipf / uniform / flash-crowd) through
    each requested scheduling policy, and prints the per-policy peak
    device share alongside the water-filling fractional optimum — the
    load-balance twin of ``repro fairness``.
    """
    _, bins, strategy = _configuration(args)
    _at_least_one("--requests", args.requests)
    if args.workload == "zipf":
        addresses = ZipfGenerator(
            args.universe, alpha=args.alpha, seed=args.seed
        ).sample(args.requests)
    elif args.workload == "uniform":
        addresses = uniform_sample(args.requests, args.universe, seed=args.seed)
    else:
        addresses = flash_crowd_sample(
            args.requests, args.universe, seed=args.seed
        )
    if args.policy == "all":
        policies = list(scheduling.scheduler_names())
    else:
        policies = [name for name in args.policy.split(",") if name]
    for name in policies:
        scheduling.lookup(name)  # an unknown name fails before any output
    device_ids = [spec.bin_id for spec in bins]
    print(
        f"workload={args.workload} requests={args.requests} "
        f"universe={args.universe} alpha={args.alpha} "
        f"strategy={args.strategy} k={args.copies}"
        + (f" cache={args.cache}" if args.cache else "")
    )
    print(
        f"{'policy':<16}{'peak reqs':>12}{'peak share':>12}"
        f"{'peak load':>12}{'cache hit%':>12}"
    )
    for name in policies:
        cache = (
            scheduling.LruCacheModel(args.cache, hit_cost=args.hit_cost)
            if args.cache
            else None
        )
        scheduler = scheduling.create(
            name, device_ids, seed=args.seed, cache=cache
        )
        outcome = scheduling.run_reads(strategy, scheduler, addresses)
        hit_text = (
            f"{cache.hit_rate():>11.1%}" if cache is not None else f"{'-':>12}"
        )
        print(
            f"{scheduler.name:<16}{outcome.peak_count():>12}"
            f"{outcome.peak_share():>11.2%} {outcome.peak_load():>11.1f}"
            f"{hit_text}"
        )
    bound = scheduling.fractional_lower_bound(strategy, addresses)
    if bound is not None:
        total = len(addresses)
        print(
            f"{'(optimum)':<16}{bound:>12.1f}{bound / total:>11.2%}"
            f" {'':>11}{'':>12}  # fractional water-filling bound"
        )
    return 0


def _parse_endpoint(raw: str) -> tuple:
    """Split a ``host:port`` endpoint, with CLI-grade errors."""
    host, _, port_text = raw.rpartition(":")
    if not host or not port_text:
        raise SystemExit(f"endpoint must be host:port, got {raw!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"invalid port in endpoint {raw!r}")
    if not 0 < port <= 65535:
        raise SystemExit(f"port must be in [1, 65535], got {port}")
    return host, port


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve placement + block storage: metastore plus N blockstores.

    One process, one event loop: a blockstore shard per configured
    device and a metastore answering ``where_is``/``where_are`` through
    the registry factory.  Runs until interrupted (Ctrl-C).
    """
    import asyncio
    import signal

    from .service import ServiceCluster

    capacities = _parse_capacities(args.capacities)
    _at_least_one("--copies", args.copies)
    if args.port < 0 or args.port > 65535 - len(capacities):
        raise SystemExit(
            f"--port must leave room for {len(capacities)} blockstores "
            f"above it, got {args.port}"
        )
    bins = bins_from_capacities(capacities, prefix=args.prefix)
    # Build the strategy eagerly so bad names, bad options and infeasible
    # (bins, copies) combinations fail with a CLI error instead of a
    # half-started service.
    strategy_name, strategy_options = _strategy_options(
        args.strategy, args.strategy_opt
    )
    try:
        create(strategy_name, bins, copies=args.copies, **strategy_options)
    except ConfigurationError as error:
        raise SystemExit(f"cannot serve this configuration: {error}")

    async def _serve() -> int:
        cluster = ServiceCluster(
            bins,
            strategy=strategy_name,
            copies=args.copies,
            strategy_options=strategy_options,
            host=args.host,
            port=args.port,
        )
        try:
            await cluster.start()
        except OSError as error:
            raise SystemExit(
                f"cannot bind {args.host}:{args.port}: {error}"
            )
        host, port = cluster.metastore_address
        print(f"metastore    {host}:{port}  "
              f"(strategy={cluster.metastore.strategy_name}, "
              f"k={cluster.metastore.copies})")
        for device_id, server in cluster.blockstores.items():
            print(f"blockstore   {server.host}:{server.port}  {device_id}")
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host}:{port}\n")
        print("serving; Ctrl-C to stop", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:  # pragma: no cover - platform specific
                continue
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        try:
            if args.jsonl:
                with obs.use_sink(obs.JsonlSink(args.jsonl)):
                    await stop.wait()
            else:
                await stop.wait()
        finally:
            await cluster.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("stopped")
        return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running service: ping/where/put/get/metrics."""
    import asyncio
    import json as _json

    from .service import ServiceClient

    host, port = _parse_endpoint(args.connect)
    needs_address = args.action in ("where", "put", "get")
    if needs_address and args.address is None:
        raise SystemExit(f"client {args.action} requires --address")
    if args.action == "put" and args.payload is None:
        raise SystemExit("client put requires --payload")

    async def _run() -> int:
        client = await ServiceClient.connect(
            host, port, read_policy=args.read_policy, read_seed=args.read_seed
        )
        try:
            if args.action == "ping":
                await client.ping()
                print(f"pong from {host}:{port} "
                      f"(strategy={client.strategy_name}, k={client.copies})")
            elif args.action == "where":
                devices = await client.where_is(args.address)
                print(" ".join(devices))
            elif args.action == "put":
                receipt = await client.put_block(
                    args.address, args.payload.encode("utf-8")
                )
                print(
                    f"stored {args.address} on "
                    f"{len(receipt.positions_written)}/{len(receipt.devices)}"
                    f" copies ({' '.join(receipt.devices)}) "
                    f"checksum={receipt.checksum[:12]}"
                )
                if receipt.positions_skipped:
                    print(
                        f"degraded write: positions "
                        f"{receipt.positions_skipped} unreachable"
                    )
            elif args.action == "get":
                result = await client.get_block(args.address)
                print(result.payload.decode("utf-8", errors="backslashreplace"))
                if result.degraded:
                    print(
                        f"degraded read: fell back to position "
                        f"{result.position_used} "
                        f"(skipped {result.positions_skipped})"
                    )
            else:  # metrics
                print(_json.dumps(await client.metrics(), indent=2,
                                  sort_keys=True))
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(_run())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def cmd_adaptivity(args: argparse.Namespace) -> int:
    """The Figure 3 add/remove experiment."""
    _at_least_one("--balls", args.balls)
    _at_least_one("--disks", args.disks)
    reports = run_adaptivity(
        add_remove_cases(count=args.disks, base=args.base, step=args.step),
        lambda bins: RedundantShare(bins, copies=args.copies),
        balls=args.balls,
    )
    print(f"{'case':<16}{'used':>10}{'replaced':>10}{'factor':>9}")
    for label, report in reports.items():
        print(
            f"{label:<16}{report.used_on_affected:>10}"
            f"{report.moved_positional:>10}{report.factor_positional:>9.2f}"
        )
    print(f"\npaper bound for k={args.copies}: {args.copies ** 2}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dynamic and Redundant Data Placement (ICDCS 2007) — "
            "Redundant Share experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func):
        p = sub.add_parser(name, help=(func.__doc__ or name).splitlines()[0])
        p.set_defaults(func=func)
        return p

    def common(
        p,
        capacities="500,600,700,800,900,1000,1100,1200",
        prefix="bin",
        copies=2,
        help="comma-separated bin capacities",
    ):
        if capacities:
            _add_flags(
                p,
                capacities=(capacities, help),
                prefix=(prefix, "name prefix of the bins (devices)"),
            )
        _add_flags(p, copies=(copies, "replication k"))

    def strategy(p, default="redundant-share", help=None):
        p.add_argument("--strategy", default=default, help=help)
        p.add_argument(
            "--strategy-opt",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="per-strategy option from the registry schema "
            "(repeatable), e.g. --strategy-opt service_rates=4,2,1 or "
            "--strategy-opt resolution=128",
        )

    common(command("capacity", cmd_capacity))

    p_place = command("place", cmd_place)
    common(p_place)
    strategy(p_place)
    _add_flags(p_place, address=(0, None), count=(10, None))

    p_fair = command("fairness", cmd_fairness)
    common(p_fair)
    strategy(p_fair)
    _add_flags(p_fair, balls=(50_000, None))

    common(command("compare", cmd_compare))

    p_growth = command("growth", cmd_growth)
    _add_flags(
        p_growth,
        copies=(2, None),
        base=(5000, None),
        step=(1000, None),
        balls=(20_000, None),
    )

    p_dur = command("durability", cmd_durability)
    _add_flags(p_dur, mttf=(1000.0, None), mttr=(1.0, None))

    p_stats = command("stats", cmd_stats)
    common(p_stats)
    strategy(p_stats)
    _add_flags(
        p_stats,
        balls=(20_000, None),
        alpha=(0.01, "false-positive rate of the acceptance tests"),
        seed=(0, None),
        jsonl=("", "also stream trace events to this file"),
        blocks=(200, "blocks written in the instrumented cluster exercise"),
        strict=(False, "exit non-zero when a fairness test rejects"),
    )
    p_stats.add_argument(
        "--no-exercise", dest="exercise", action="store_false",
        help="skip the cluster/rebalance/failure exercise",
    )

    p_chaos = command("chaos", cmd_chaos)
    common(
        p_chaos,
        capacities="500,600,700,800,900,1000",
        prefix="dev",
        copies=3,
        help="comma-separated device capacities (relative; auto-scaled)",
    )
    strategy(p_chaos)
    _add_flags(
        p_chaos,
        blocks=(120, "block population"),
        jsonl=("", "also stream trace events to this file"),
        strict=(False, "exit non-zero on data loss or fairness rejection"),
        schedule=(
            "",
            'JSON fault-schedule file ({"faults": [...]}); overrides the '
            "generated schedule",
        ),
        duration=(20.0, None),
        crashes=(1, None),
        outages=(1, None),
        flaky=(1, None),
        error_rate=(0.3, "per-attempt failure probability of flaky devices"),
        latency=(0.25, "extra time units per attempt touching a flaky device"),
        **_FIELD_FLAGS[chaos.RepairPolicy],
        **_FIELD_FLAGS[chaos.ChaosOptions],
    )

    p_fleet = command("fleet", cmd_fleet)
    strategy(p_fleet, default=chaos.FleetOptions.strategy)
    _add_flags(
        p_fleet,
        jsonl=("", "also stream trace events to this file"),
        strict=(
            False,
            "exit non-zero on data loss or a mean-field fit beyond "
            "--tv-tolerance",
        ),
        phase=(
            "",
            "comma-separated repair rates for a durability-vs-repair phase "
            "diagram",
        ),
        tv_tolerance=(
            0.05,
            "--strict gate on the steady-state vs mean-field total-variation "
            "distance",
        ),
        **_FIELD_FLAGS[chaos.FleetOptions],
    )

    p_serve = command("serve", cmd_serve)
    common(
        p_serve,
        capacities="500,600,700,800",
        prefix="store",
        copies=3,
        help="comma-separated device capacities (one blockstore each)",
    )
    strategy(p_serve)
    _add_flags(
        p_serve,
        host=("127.0.0.1", None),
        port=(
            0,
            "metastore port; blockstores bind port+1..port+N (0 = "
            "OS-assigned everywhere)",
        ),
        ready_file=(
            "",
            "write the metastore host:port here once listening (lets "
            "scripts wait for readiness)",
        ),
        jsonl=("", "stream trace events to this file"),
    )

    p_client = command("client", cmd_client)
    p_client.add_argument(
        "action", choices=("ping", "where", "put", "get", "metrics"),
        help="what to do",
    )
    p_client.add_argument(
        "--connect", required=True, help="metastore endpoint, host:port"
    )
    p_client.add_argument("--address", type=int, default=None)
    p_client.add_argument(
        "--payload", default=None, help="UTF-8 payload for put"
    )
    _add_flags(
        p_client,
        read_policy=(
            "primary", "copy-selection policy for get (see 'repro sched')"
        ),
        read_seed=(0, None),
    )

    p_sched = command("sched", cmd_sched)
    common(p_sched)
    strategy(p_sched)
    p_sched.add_argument(
        "--workload", choices=("zipf", "uniform", "flash-crowd"),
        default="zipf",
    )
    _add_flags(
        p_sched,
        policy=("all", "comma-separated scheduler names (aliases ok), or 'all'"),
        alpha=(1.1, "zipf skew exponent"),
        requests=(100_000, None),
        universe=(2000, "distinct block addresses in the workload"),
        seed=(0, None),
        cache=(
            0, "per-device LRU cache capacity in blocks (0 = no cache model)"
        ),
        hit_cost=(0.25, "load units a cache hit costs (misses cost 1.0)"),
    )

    p_adapt = command("adaptivity", cmd_adaptivity)
    common(p_adapt, capacities=None)
    _add_flags(
        p_adapt,
        disks=(8, None),
        base=(5000, None),
        step=(1000, None),
        balls=(20_000, None),
    )

    return parser


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as error:
        # One line on stderr, status 1: bad configurations, placements a
        # strategy cannot complete and argument values a library validator
        # refuses are user errors, not tracebacks.
        raise SystemExit(str(error))


if __name__ == "__main__":
    sys.exit(main())
