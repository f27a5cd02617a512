"""Smoke tests for the command-line interface."""

import re
import subprocess
import sys

import pytest

from repro.cli import main


def compare_rows(capsys):
    """``repro compare`` output as ``{strategy: distance text}``."""
    lines = capsys.readouterr().out.splitlines()[1:]
    return dict(line.split() for line in lines)


class TestCli:
    def test_capacity(self, capsys):
        assert main(["capacity", "--capacities", "100,6,1", "--copies", "2"]) == 0
        out = capsys.readouterr().out
        assert "max storable balls : 7" in out
        assert "False" in out

    def test_place(self, capsys):
        assert main(
            ["place", "--capacities", "5,4,3", "--count", "2", "--copies", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2

    def test_fairness(self, capsys):
        assert main(
            ["fairness", "--capacities", "5,4,3", "--balls", "2000"]
        ) == 0
        assert "observed" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["crush", "sequential-checking"])
    def test_fairness_prints_every_expected_share(self, capsys, strategy):
        assert main(
            ["fairness", "--capacities", "800,700,600,500,400,300",
             "--copies", "2", "--strategy", strategy, "--balls", "2000"]
        ) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            assert re.fullmatch(r"\d+\.\d\d%", row.split()[-1]), row

    def test_compare(self, capsys):
        # 4 of 8 at k=2 clips nothing, and crush, trivial and rpdp all race
        # the capacities: the same exact Lemma 2.4 shortfall, to the digit.
        assert main(["compare", "--capacities", "4,2,1,1"]) == 0
        rows = compare_rows(capsys)
        assert rows["redundant-share"] == "0.000%"
        assert rows["crush"] == rows["trivial"] == rows["rpdp"] != "0.000%"

    def test_compare_measures_against_clipped_fair_shares(self, capsys):
        # 1000 of 1300 at k=2 violates Lemma 2.1: the fair target is the
        # clipped 50 %, not min(1, k*c/B)/k.
        assert main(
            ["compare", "--capacities", "1000,100,100,100", "--copies", "2"]
        ) == 0
        rows = compare_rows(capsys)
        assert rows["redundant-share"] == "0.000%"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["fairness", "--capacities", "100,6,1", "--copies", "2",
                 "--strategy", "crush", "--balls", "2000"],
                "crush could not find a distinct device",
            ),
            (
                ["capacity", "--capacities", "5,4", "--copies", "0"],
                "replication degree must be >= 1",
            ),
            (
                ["fairness", "--capacities", "5,4", "--balls", "0"],
                "--balls must be >= 1",
            ),
            # Values a library validator refuses (ValueError, not ReproError).
            (["durability", "--mttf", "0"], "mttf and mttr must be positive"),
            (["sched", "--universe", "0"], "universe must be positive"),
            (
                ["stats", "--alpha", "2", "--no-exercise"],
                "alpha must be in (0, 1)",
            ),
            # Non-positive capacities: one rule, in _parse_capacities.
            (["fairness", "--capacities", "0"], "capacities must be positive"),
            (["place", "--capacities", "5,-1"], "capacities must be positive"),
            (["serve", "--capacities", "0,5"], "capacities must be positive"),
            (["chaos", "--capacities", "0,0,0"], "capacities must be positive"),
            (["sched", "--policy", "nope"], "unknown scheduling policy 'nope'"),
            (["growth", "--balls", "0"], "--balls must be >= 1, got 0"),
            (["adaptivity", "--balls", "0"], "--balls must be >= 1, got 0"),
            (["growth", "--balls", "-3"], "--balls must be >= 1, got -3"),
            (
                ["adaptivity", "--disks", "0", "--balls", "100"],
                "--disks must be >= 1, got 0",
            ),
        ],
        ids=[
            "crush-cannot-place", "copies-zero", "balls-zero", "mttf-zero",
            "universe-zero", "alpha-two", "capacity-zero",
            "capacity-negative", "serve-capacity-zero", "chaos-all-zero",
            "unknown-policy", "growth-balls-zero", "adaptivity-balls-zero",
            "growth-balls-negative", "adaptivity-disks-zero",
        ],
    )
    def test_user_errors_exit_one_with_one_line(self, argv, message):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert message in result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        # Nothing half-printed: an unknown policy used to leave half a
        # table on stdout before the error.
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--capacities", "1,2,3"],
            ["fleet", "--prefix", "x"],
            ["chaos", "--devices", "5"],
            ["chaos", "--phase", "1"],
            ["chaos", "--fleet"],
        ],
        ids=[
            "fleet-capacities", "fleet-prefix", "chaos-devices",
            "chaos-phase", "chaos-fleet",
        ],
    )
    def test_flags_of_the_other_engine_are_usage_errors(self, argv, capsys):
        # Each failure engine declares only the flags it reads, so a flag
        # of the other one is refused instead of silently ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_adaptivity(self, capsys):
        assert main(
            ["adaptivity", "--balls", "1000", "--disks", "4", "--base", "500",
             "--step", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "het. add big" in out

    def test_bad_capacities(self):
        with pytest.raises(SystemExit):
            main(["capacity", "--capacities", "abc"])

    def test_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["place", "--strategy", "bogus"])

    def test_durability(self, capsys):
        assert main(["durability", "--mttf", "500", "--mttr", "2"]) == 0
        out = capsys.readouterr().out
        assert "mirror k=2" in out
        assert "RS 4+2" in out

    def test_fast_strategy_available(self, capsys):
        assert main(
            ["fairness", "--capacities", "5,4,3", "--strategy", "fast",
             "--balls", "1000"]
        ) == 0

    def test_growth(self, capsys):
        assert main(
            ["growth", "--balls", "1500", "--base", "500", "--step", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 Disks" in out
        assert "spread" in out

    def test_stats(self, capsys):
        assert main(
            ["stats", "--capacities", "2,1,1", "--balls", "4000",
             "--blocks", "60"]
        ) == 0
        out = capsys.readouterr().out
        assert "chi-square: ACCEPT" in out
        assert "max-deviation: ACCEPT" in out
        assert "Counters" in out
        assert "rebalance.moved_shares" in out
        assert "Trace events" in out

    def test_stats_strict_rejects_trivial(self, capsys):
        assert main(
            ["stats", "--capacities", "2,1,1", "--strategy", "trivial",
             "--balls", "4000", "--no-exercise", "--strict"]
        ) == 1
        assert "REJECT" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["lin-mirror", "classic-lin-mirror"])
    def test_stats_uses_the_strategy_copy_count(self, strategy, capsys):
        # The mirror-only entries place 2 copies whatever --copies says.
        assert main(
            ["stats", "--strategy", strategy, "--copies", "3", "--capacities",
             "1000,100,100,100", "--no-exercise", "--strict"]
        ) == 0
        out = capsys.readouterr().out
        assert "chi-square: ACCEPT" in out
        assert "max-deviation: ACCEPT" in out

    def test_stats_jsonl_export(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["stats", "--capacities", "4,3,2", "--balls", "2000",
             "--blocks", "40", "--jsonl", path]
        ) == 0
        kinds = {record["kind"] for record in read_jsonl(path)}
        assert "placement.batch" in kinds
        assert "rebalance.done" in kinds
        assert "chaos.fault" in kinds
        assert "chaos.finished" in kinds


class TestChaosCli:
    def test_chaos_smoke(self, capsys):
        assert main(
            ["chaos", "--capacities", "60,60,60,60,60,60", "--blocks", "40",
             "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "repairs completed" in out
        assert "blocks at risk over time" in out
        assert "chaos.repair.completed" in out

    def test_chaos_strict_passes_on_zero_loss(self, capsys):
        assert main(
            ["chaos", "--capacities", "60,60,60,60,60,60", "--blocks", "40",
             "--copies", "3", "--seed", "1", "--outages", "0", "--flaky", "0",
             "--strict"]
        ) == 0
        assert "blocks lost          0" in capsys.readouterr().out

    def test_chaos_strict_fails_on_data_loss(self, capsys, tmp_path):
        # k=2 with two simultaneous crashes: some blocks must be lost.
        schedule = tmp_path / "schedule.json"
        schedule.write_text(
            '{"faults": ['
            '{"time": 1.0, "kind": "crash", "device": "dev-0"},'
            '{"time": 1.0, "kind": "crash", "device": "dev-1"}]}'
        )
        assert main(
            ["chaos", "--capacities", "60,60,60,60", "--blocks", "40",
             "--copies", "2", "--schedule", str(schedule), "--strict"]
        ) == 1
        assert "data-loss events" in capsys.readouterr().out

    def test_chaos_schedule_file_round_trip(self, capsys, tmp_path):
        from repro.chaos import generate_schedule

        devices = [f"dev-{i}" for i in range(5)]
        schedule = tmp_path / "schedule.json"
        schedule.write_text(
            generate_schedule(devices, seed=3, crashes=1, outages=1).to_json()
        )
        assert main(
            ["chaos", "--capacities", "60,60,60,60,60", "--blocks", "30",
             "--schedule", str(schedule)]
        ) == 0
        assert "schedule (2 faults" in capsys.readouterr().out

    def test_chaos_rejects_bad_schedule_file(self, tmp_path):
        schedule = tmp_path / "broken.json"
        schedule.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot load schedule"):
            main(
                ["chaos", "--capacities", "60,60,60", "--schedule",
                 str(schedule)]
            )

    def test_chaos_infeasible_shrink_aborts(self, capsys, tmp_path):
        schedule = tmp_path / "shrink.json"
        schedule.write_text(
            '{"faults": [{"time": 1.0, "kind": "shrink", "device": "dev-1"}]}'
        )
        assert main(
            ["chaos", "--capacities", "100,40,40", "--copies", "2",
             "--blocks", "20", "--schedule", str(schedule)]
        ) == 1
        assert "Lemma 2.1" in capsys.readouterr().out

    def test_chaos_flags_come_from_their_dataclasses(self):
        from repro import cli
        from repro.chaos import ChaosOptions, FleetOptions, RepairPolicy

        generated = cli._FIELD_FLAGS
        assert sum(len(flags) for flags in generated.values()) == 20
        parser = cli.build_parser()
        for argv, classes in (
            (["chaos"], (RepairPolicy, ChaosOptions)),
            (["fleet"], (FleetOptions,)),
        ):
            args = parser.parse_args(argv)
            for cls in classes:
                built = cli._from_flags(cls, args)
                for dest in generated[cls]:
                    assert getattr(built, dest) == getattr(cls(), dest), dest
        # A given value lands in the field of that name, with its type.
        args = parser.parse_args(
            ["chaos", "--rate", "3", "--max-attempts", "2", "--allow-degraded"]
        )
        policy = cli._from_flags(RepairPolicy, args)
        assert (policy.rate, policy.max_attempts) == (3.0, 2)
        assert isinstance(policy.rate, float)
        options = cli._from_flags(ChaosOptions, args, policy=policy)
        assert options.allow_degraded and options.policy is policy

    def test_chaos_jsonl_export(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = str(tmp_path / "chaos.jsonl")
        assert main(
            ["chaos", "--capacities", "60,60,60,60,60,60", "--blocks", "30",
             "--seed", "7", "--jsonl", path]
        ) == 0
        kinds = {record["kind"] for record in read_jsonl(path)}
        assert "chaos.fault" in kinds
        assert "chaos.window_closed" in kinds
        assert "chaos.sample" in kinds
        assert "chaos.finished" in kinds


class TestServeCli:
    """Argument validation and typed-error coverage for ``repro serve``."""

    def test_serve_bad_capacities(self):
        with pytest.raises(SystemExit, match="invalid capacity list"):
            main(["serve", "--capacities", "abc"])

    def test_serve_unknown_strategy(self):
        with pytest.raises(SystemExit, match="unknown strategy"):
            main(["serve", "--capacities", "10,10,10", "--strategy", "bogus"])

    def test_serve_infeasible_copies(self):
        # copies > devices: the registry factory's ConfigurationError
        # must surface as a CLI error before anything binds a socket.
        with pytest.raises(SystemExit, match="cannot serve"):
            main(["serve", "--capacities", "10,10,10", "--copies", "5"])

    def test_serve_zero_copies(self):
        with pytest.raises(SystemExit, match="--copies"):
            main(["serve", "--capacities", "10,10,10", "--copies", "0"])

    def test_serve_port_overflow(self):
        # the N blockstores bind port+1..port+N; no room above 65534
        with pytest.raises(SystemExit, match="--port"):
            main(["serve", "--capacities", "10,10,10", "--port", "65534"])

    def test_serve_negative_port(self):
        with pytest.raises(SystemExit, match="--port"):
            main(["serve", "--capacities", "10,10,10", "--port", "-1"])


class TestClientCli:
    """``repro client`` against a live in-process service."""

    @pytest.fixture()
    def service(self):
        from repro.service import ServiceCluster

        from .service.harness import LoopThread

        loop = LoopThread()
        cluster = ServiceCluster.from_capacities(
            [300, 200, 100], copies=3, prefix="store"
        )
        loop.run(cluster.start())
        host, port = cluster.metastore_address
        yield f"{host}:{port}", cluster, loop
        loop.run(cluster.stop())
        loop.stop()

    def test_client_bad_endpoint(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["client", "ping", "--connect", "nope"])

    def test_client_bad_port_text(self):
        with pytest.raises(SystemExit, match="invalid port"):
            main(["client", "ping", "--connect", "localhost:http"])

    def test_client_port_out_of_range(self):
        with pytest.raises(SystemExit, match="port must be"):
            main(["client", "ping", "--connect", "localhost:70000"])

    def test_client_put_requires_address(self):
        with pytest.raises(SystemExit, match="--address"):
            main(["client", "put", "--connect", "localhost:1", "--payload", "x"])

    def test_client_put_requires_payload(self):
        with pytest.raises(SystemExit, match="--payload"):
            main(["client", "put", "--connect", "localhost:1", "--address", "1"])

    def test_client_connection_refused_exits_nonzero(self, capsys):
        import socket

        # bind-then-close yields a port with no listener
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["client", "ping", "--connect", f"127.0.0.1:{port}"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_client_ping(self, service, capsys):
        endpoint, _, _ = service
        assert main(["client", "ping", "--connect", endpoint]) == 0
        out = capsys.readouterr().out
        assert "pong" in out
        assert "k=3" in out

    def test_client_put_get_where_round_trip(self, service, capsys):
        endpoint, _, _ = service
        assert main(
            ["client", "put", "--connect", endpoint, "--address", "42",
             "--payload", "hello wire"]
        ) == 0
        out = capsys.readouterr().out
        assert "stored 42 on 3/3 copies" in out

        assert main(
            ["client", "get", "--connect", endpoint, "--address", "42"]
        ) == 0
        assert "hello wire" in capsys.readouterr().out

        assert main(
            ["client", "where", "--connect", endpoint, "--address", "42"]
        ) == 0
        devices = capsys.readouterr().out.split()
        assert len(devices) == 3
        assert all(device.startswith("store-") for device in devices)

    def test_client_get_missing_block_exits_nonzero(self, service, capsys):
        endpoint, _, _ = service
        assert main(
            ["client", "get", "--connect", endpoint, "--address", "777"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_client_degraded_read_reports_fallback(self, service, capsys):
        endpoint, cluster, loop = service
        assert main(
            ["client", "put", "--connect", endpoint, "--address", "9",
             "--payload", "resilient"]
        ) == 0
        primary = capsys.readouterr()  # discard the put report
        devices = loop.run(_where(cluster, 9))
        loop.run(cluster.kill_blockstore(devices[0]))
        assert main(
            ["client", "get", "--connect", endpoint, "--address", "9"]
        ) == 0
        out = capsys.readouterr().out
        assert "resilient" in out
        assert "degraded read" in out

    def test_client_metrics(self, service, capsys):
        endpoint, _, _ = service
        assert main(["client", "ping", "--connect", endpoint]) == 0
        capsys.readouterr()
        assert main(["client", "metrics", "--connect", endpoint]) == 0
        out = capsys.readouterr().out
        assert '"metastore.requests"' in out
        assert '"metastore.request_ms"' in out


async def _where(cluster, address):
    """Placement of one address straight from the metastore's strategy."""
    return list(cluster.metastore.strategy.place(address))


class TestChaosFleetCli:
    FAST = [
        "fleet", "--devices", "8", "--blocks", "200",
        "--copies", "2", "--years", "1", "--epochs-per-year", "12",
        "--failure-rate", "2.0", "--repair-rate", "20.0", "--seed", "3",
    ]

    def test_fleet_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "mean-field fit" in out
        assert "copy-count timeline" in out
        assert "chaos.fleet.epochs" in out

    def test_fleet_phase_diagram(self, capsys):
        assert main(self.FAST + ["--phase", "0,5,50"]) == 0
        out = capsys.readouterr().out
        assert "durability vs repair rate" in out
        assert "lost_frac" in out

    def test_fleet_phase_rejects_bad_rates(self):
        with pytest.raises(SystemExit):
            main(self.FAST + ["--phase", "fast,slow"])

    def test_fleet_rejects_bad_options(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--devices", "0"])

    def test_fleet_jsonl_export(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = str(tmp_path / "fleet.jsonl")
        assert main(self.FAST + ["--jsonl", path]) == 0
        kinds = {record["kind"] for record in read_jsonl(path)}
        assert "chaos.fleet.sample" in kinds
        assert "chaos.fleet.finished" in kinds

    def test_fleet_strict_fails_on_data_loss(self, capsys):
        # k=2, brutal failure rate, no repair: loss is certain.
        assert main(
            ["fleet", "--devices", "6", "--blocks", "60",
             "--copies", "2", "--years", "1", "--epochs-per-year", "12",
             "--failure-rate", "12.0", "--repair-rate", "0", "--seed", "1",
             "--strict", "--tv-tolerance", "1.0"]
        ) == 1
        assert "blocks lost" in capsys.readouterr().out

    def test_fleet_strict_passes_when_calm(self, capsys):
        assert main(
            ["fleet", "--devices", "8", "--blocks", "200",
             "--copies", "3", "--years", "1", "--epochs-per-year", "12",
             "--failure-rate", "0.0", "--repair-rate", "20.0",
             "--strict"]
        ) == 0


class TestStrategyOptionsCli:
    """``--strategy-opt key=value`` flows through the registry schemas."""

    def test_place_accepts_new_strategies(self, capsys):
        assert main(
            ["place", "--capacities", "5,4,3", "--count", "3",
             "--strategy", "sequential-checking"]
        ) == 0
        assert capsys.readouterr().out.count("\n") == 3

    def test_rpdp_rates_parse_from_the_command_line(self, capsys):
        assert main(
            ["place", "--capacities", "5,4,3", "--count", "3",
             "--strategy", "rpdp", "--strategy-opt", "service_rates=1,2,4"]
        ) == 0
        assert capsys.readouterr().out.count("\n") == 3

    def test_striping_resolution_option(self, capsys):
        assert main(
            ["fairness", "--capacities", "5,4,3", "--balls", "500",
             "--strategy", "striping", "--strategy-opt", "resolution=8"]
        ) == 0
        assert "observed" in capsys.readouterr().out

    def test_alias_resolves_before_option_validation(self, capsys):
        assert main(
            ["place", "--capacities", "5,4,3", "--count", "1",
             "--strategy", "seq-check", "--strategy-opt", "overflow=wrap"]
        ) == 0

    def test_unknown_option_key_exits_with_declared_names(self):
        with pytest.raises(SystemExit, match="service_rates"):
            main(
                ["place", "--capacities", "5,4,3",
                 "--strategy", "rpdp", "--strategy-opt", "rates=1,2,3"]
            )

    def test_ill_typed_option_value_exits(self):
        with pytest.raises(SystemExit, match="resolution"):
            main(
                ["place", "--capacities", "5,4,3",
                 "--strategy", "striping",
                 "--strategy-opt", "resolution=wide"]
            )

    def test_option_on_optionless_strategy_exits(self):
        with pytest.raises(SystemExit, match="declares no options"):
            main(
                ["place", "--capacities", "5,4,3",
                 "--strategy", "trivial", "--strategy-opt", "resolution=8"]
            )

    def test_malformed_pair_exits(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(
                ["place", "--capacities", "5,4,3",
                 "--strategy", "rpdp", "--strategy-opt", "service_rates"]
            )
