"""Tests for the extension features: adaptive refresh, encrypted DNS, CLI."""

import dataclasses
import gc
import os

import pytest

from repro.core.classify import Classifier, ConnClass
from repro.core.context import ContextStudy
from repro.core.improvements import RefreshSimulator
from repro.core.pairing import pair_trace
from repro.errors import AnalysisError, WorkloadError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto
from repro.workload.generate import (
    TrafficGenerator,
    generate_trace,
    generate_trace_with_pressure,
)
from repro.workload.households import HouseholdMixConfig
from repro.workload.scenario import smoke_scenario

HOUSE = "10.77.0.10"
LOCAL = "192.168.200.10"


def dns(uid, ts, address, ttl=300.0, query="api.example.com"):
    return DnsRecord(
        ts=ts, uid=uid, orig_h=HOUSE, orig_p=40000, resp_h=LOCAL, resp_p=53,
        query=query, rtt=0.002, answers=(DnsAnswer(address, ttl, "A"),),
    )


def conn(uid, ts, address):
    return ConnRecord(
        ts=ts, uid=uid, orig_h=HOUSE, orig_p=50000, resp_h=address, resp_p=443,
        proto=Proto.TCP, duration=1.0, orig_bytes=100, resp_bytes=1000,
    )


def simulator_for(use_times, ttl=100.0):
    records, conns = [], []
    for i, ts in enumerate(use_times):
        records.append(dns(f"D{i}", ts, "1.2.3.4", ttl=ttl))
        conns.append(conn(f"C{i}", ts + 0.005, "1.2.3.4"))
    paired = pair_trace(records, conns)
    classified = Classifier(records).classify_all(paired)
    return RefreshSimulator(records, classified, houses=1)


class TestAdaptiveRefresh:
    def test_active_name_stays_fresh(self):
        # Uses every 150 s with TTL 100: each gap needs one refresh, and
        # every use after the first is a hit.
        simulator = simulator_for([150.0 * i for i in range(10)], ttl=100.0)
        result = simulator.run_adaptive(idle_multiplier=4.0)
        assert result.hit_rate == pytest.approx(9 / 10)
        full = simulator.run_refresh_all()
        assert result.lookups <= full.lookups

    def test_idle_name_stops_refreshing(self):
        # Two uses a long time apart: the idle window (4 TTLs) closes and
        # the second use misses, but only ~4 refreshes were wasted
        # instead of gap/TTL ~ 100.
        simulator = simulator_for([0.0, 10000.0], ttl=100.0)
        adaptive = simulator.run_adaptive(idle_multiplier=4.0)
        full = simulator.run_refresh_all()
        assert adaptive.hit_rate == pytest.approx(0.0)
        assert full.hit_rate == pytest.approx(0.5)
        assert adaptive.lookups < full.lookups / 3

    def test_adaptive_between_standard_and_full(self):
        simulator = simulator_for(
            [0, 150, 300, 450, 5000, 5150, 5300, 20000], ttl=100.0
        )
        standard = simulator.run_standard()
        adaptive = simulator.run_adaptive(idle_multiplier=4.0)
        full = simulator.run_refresh_all()
        assert standard.hit_rate <= adaptive.hit_rate <= full.hit_rate + 1e-9
        assert standard.lookups <= adaptive.lookups <= full.lookups

    def test_zero_idle_multiplier_degenerates(self):
        simulator = simulator_for([150.0 * i for i in range(5)], ttl=100.0)
        adaptive = simulator.run_adaptive(idle_multiplier=0.0)
        # No refresh window at all: every use misses (period > TTL).
        assert adaptive.hit_rate == pytest.approx(0.0)

    def test_negative_multiplier_rejected(self):
        simulator = simulator_for([0.0], ttl=100.0)
        with pytest.raises(AnalysisError):
            simulator.run_adaptive(idle_multiplier=-1.0)

    def test_ttl_floor_names_not_refreshed(self):
        simulator = simulator_for([0.0, 50.0], ttl=5.0)
        adaptive = simulator.run_adaptive()
        assert adaptive.lookups == 2  # plain on-demand behaviour


class TestEncryptedDns:
    @pytest.fixture(scope="class")
    def encrypted_trace(self):
        config = smoke_scenario(seed=12)
        config = dataclasses.replace(
            config,
            houses=6,
            duration=3600.0,
            mix=dataclasses.replace(config.mix, encrypted_dns_fraction=1.0),
        )
        return generate_trace(config)

    def test_no_plaintext_dns_visible(self, encrypted_trace):
        assert encrypted_trace.dns == []

    def test_dot_connections_present(self, encrypted_trace):
        dot = [c for c in encrypted_trace.conns if c.resp_p == 853]
        assert dot, "expected DoT connections to the resolvers"
        assert all(c.proto == Proto.TCP for c in dot)

    def test_analysis_blind_to_blocking(self, encrypted_trace):
        # With encrypted DNS the monitor cannot pair anything: every
        # connection collapses into class N — the paper's point that the
        # methodology requires plaintext DNS (§3).
        study = ContextStudy(encrypted_trace)
        assert study.breakdown.share(ConnClass.NO_DNS) == pytest.approx(1.0)

    def test_partial_deployment(self):
        config = smoke_scenario(seed=12)
        config = dataclasses.replace(
            config,
            houses=6,
            duration=3600.0,
            mix=dataclasses.replace(config.mix, encrypted_dns_fraction=0.5),
        )
        trace = generate_trace(config)
        assert trace.dns, "plaintext houses still produce DNS records"
        study = ContextStudy(trace)
        n_share = study.breakdown.share(ConnClass.NO_DNS)
        assert 0.2 < n_share < 0.9

    def test_fraction_validation(self):
        import pytest as _pytest

        from repro.errors import WorkloadError

        with _pytest.raises(WorkloadError):
            HouseholdMixConfig(encrypted_dns_fraction=2.0)


@pytest.fixture
def collector_state():
    """Set the caller's collector state for a test; restore it afterwards."""
    was_enabled = gc.isenabled()

    def set_state(enabled: bool) -> None:
        if enabled:
            gc.enable()
        else:
            gc.disable()

    yield set_state
    set_state(was_enabled)


@pytest.fixture(scope="class")
def logs_with_checkpoint(tmp_path_factory):
    """Small dns/conn logs plus a checkpoint a finished streaming run left."""
    from repro.cli import main
    from repro.core.checkpoint import CheckpointConfig, run_checkpointed_stream
    from repro.monitor.logs import open_records

    out = str(tmp_path_factory.mktemp("collector"))
    assert main(["generate", "--houses", "3", "--hours", "1", "--seed", "2", "--out", out]) == 0
    dns_path, conn_path = f"{out}/dns.log", f"{out}/conn.log"
    checkpoint = CheckpointConfig(path=f"{out}/ck.bin", interval_s=60.0)
    run_checkpointed_stream(
        open_records(dns_path, "dns"), open_records(conn_path, "conn"), checkpoint=checkpoint
    )
    assert os.path.exists(checkpoint.path)
    return dns_path, conn_path, checkpoint.path


class TestCli:
    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize(
        "case, status, message",
        [
            pytest.param("success", 0, "", id="success"),
            pytest.param("config-mismatch", 65, "config digest mismatch", id="config-mismatch"),
            pytest.param("missing-log", 66, "No such file", id="missing-log"),
        ],
    )
    def test_main_restores_collector_state(
        self, logs_with_checkpoint, collector_state, monkeypatch, capsys,
        case, status, message, caller_enabled,
    ):
        """The job runs with the cyclic collector off; main hands back the
        caller's state whether the job succeeds or exits on an error."""
        from repro import cli

        dns_path, conn_path, checkpoint_path = logs_with_checkpoint
        argv = {
            "success": ["analyze", "--dns", dns_path, "--conn", conn_path],
            "config-mismatch": [
                "analyze", "--streaming", "--dns", dns_path, "--conn", conn_path,
                "--checkpoint", checkpoint_path, "--resume", "--window-s", "60",
            ],
            "missing-log": ["analyze", "--dns", dns_path + ".missing", "--conn", conn_path],
        }[case]
        during = []
        cmd_analyze = cli.cmd_analyze

        def recording(args):
            during.append(gc.isenabled())
            return cmd_analyze(args)

        monkeypatch.setattr(cli, "cmd_analyze", recording)
        collector_state(caller_enabled)
        assert cli.main(argv) == status
        assert gc.isenabled() is caller_enabled
        assert during == [False]
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize(
        "generate", [generate_trace, generate_trace_with_pressure], ids=lambda f: f.__name__
    )
    def test_generation_restores_collector_state_when_it_raises(
        self, collector_state, monkeypatch, generate, caller_enabled
    ):
        during = []

        def failing_run(self):
            during.append(gc.isenabled())
            raise WorkloadError("simulated generation failure")

        monkeypatch.setattr(TrafficGenerator, "run", failing_run)
        collector_state(caller_enabled)
        with pytest.raises(WorkloadError, match="simulated"):
            generate(smoke_scenario())
        assert gc.isenabled() is caller_enabled
        assert during == [False]

    def test_generate_and_analyze(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "out")
        assert main(["generate", "--houses", "3", "--hours", "0.5", "--seed", "2", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "dns.log" in captured
        assert main(["analyze", "--dns", f"{out}/dns.log", "--conn", f"{out}/conn.log"]) == 0
        captured = capsys.readouterr().out
        assert "Table 2" in captured
        assert "Refresh All" in captured

    def test_report(self, capsys):
        from repro.cli import main

        assert main(["report", "--houses", "3", "--hours", "0.5", "--seed", "2"]) == 0
        assert "significant" in capsys.readouterr().out

    def test_analyze_requires_inputs(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 2

    def test_batch_analyze_runs_in_one_process(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "out")
        assert main(["generate", "--houses", "2", "--hours", "0.5", "--seed", "2", "--out", out]) == 0
        logs = ["--dns", f"{out}/dns.log", "--conn", f"{out}/conn.log"]
        capsys.readouterr()
        # Only --streaming shards the analysis; batch refuses other counts.
        assert main(["analyze", *logs, "--workers", "2"]) == 2
        assert "requires --streaming" in capsys.readouterr().err
        assert main(["analyze", "--pcap", f"{out}/none.pcap", "--workers", "2"]) == 2
        assert "requires --streaming" in capsys.readouterr().err
        assert main(["analyze", *logs, "--workers", "1"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_analyze_pcap(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        from repro.cli import main

        example = Path(__file__).parent.parent / "examples" / "pcap_pipeline.py"
        spec = importlib.util.spec_from_file_location("pcap_pipeline_example", example)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        path = str(tmp_path / "x.pcap")
        module.synthesize(path)
        assert main(["analyze", "--pcap", path, "--local-net", "10.77."]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_generate_json_format_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "json_out")
        assert main([
            "generate", "--houses", "3", "--hours", "0.5", "--seed", "2",
            "--out", out, "--format", "json",
        ]) == 0
        with open(f"{out}/dns.log", encoding="utf-8") as stream:
            first = stream.readline().strip()
        assert first.startswith("{")
        assert main(["analyze", "--dns", f"{out}/dns.log", "--conn", f"{out}/conn.log"]) == 0
        assert "Table 2" in capsys.readouterr().out
