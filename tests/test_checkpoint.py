"""Crash-safety tests for streaming checkpoint/resume.

The acceptance gate of the crash-safe streaming work lives here: for a
set of seeded kill points over a golden trace, a run that dies mid-pass
and resumes from its last checkpoint must render a report byte-identical
to an uninterrupted run. Alongside the parity gate: atomicity under torn
writes, rejection of mismatched configs/traces/corrupt files, telemetry
accounting, and the CLI's exit-code and cleanup behaviour.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointTelemetry,
    atomic_write_bytes,
    config_digest,
    discard_checkpoint,
    load_checkpoint,
    run_checkpointed_stream,
)
from repro.core.parallel import run_streaming_pipeline, run_streaming_summary
from repro.core.streaming import StreamingConfig
from repro.errors import AnalysisError, CheckpointError
from repro.monitor.logs import save_conn_log, save_dns_log
from repro.report.tables import render_pipeline_report, render_streaming_summary
from repro.simulation.random import derive_seed
from repro.workload.generate import generate_trace
from repro.workload.scenario import FaultConfig, ScenarioConfig

#: Snapshot cadence (stream seconds) dense enough that every kill point
#: after the first few hundred records has a checkpoint behind it.
INTERVAL_S = 300.0

KILL_POINTS = 6


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        ScenarioConfig(
            seed=11,
            houses=2,
            duration=2 * 3600.0,
            faults=FaultConfig(timeout_probability=0.04, servfail_probability=0.02),
        )
    )


class _SimulatedCrash(BaseException):
    """Raised by the crashing readers; BaseException so no handler in the

    engine can accidentally swallow it — mimicking a SIGKILL, which no
    userspace code observes either."""


def _crashing(records, budget: list[int]):
    """Yield records until the shared *budget* of pulls is exhausted."""
    for record in records:
        if budget[0] <= 0:
            raise _SimulatedCrash
        budget[0] -= 1
        yield record


def _seeded_kill_budgets(trace) -> list[int]:
    """KILL_POINTS seeded record budgets spread across the whole trace."""
    total = len(trace.dns) + len(trace.conns)
    budgets = []
    for index in range(KILL_POINTS):
        rng = random.Random(derive_seed(11, "checkpoint-kill", index))
        budgets.append(rng.randrange(5, total - 5))
    return budgets


def test_resume_parity_across_seeded_kill_points(trace, tmp_path):
    """The tentpole gate: byte-identical reports from any interruption."""
    baseline = render_pipeline_report(
        run_streaming_pipeline(trace.dns, trace.conns)
    )
    resumed_at_least_once = False
    for index, budget in enumerate(_seeded_kill_budgets(trace)):
        path = str(tmp_path / f"kill{index}.ckpt")
        checkpoint = CheckpointConfig(path=path, interval_s=INTERVAL_S)
        cell = [budget]
        with pytest.raises(_SimulatedCrash):
            run_streaming_pipeline(
                _crashing(trace.dns, cell),
                _crashing(trace.conns, cell),
                checkpoint=checkpoint,
            )
        telemetry = CheckpointTelemetry()
        result = run_streaming_pipeline(
            trace.dns,
            trace.conns,
            checkpoint=checkpoint,
            resume=True,
            checkpoint_telemetry=telemetry,
        )
        assert render_pipeline_report(result) == baseline, (
            f"kill point {index} (budget {budget}) broke report parity"
        )
        resumed_at_least_once = resumed_at_least_once or telemetry.resumed
    # With a 300 s cadence over a two-hour trace, at least one seeded
    # kill must land after the first snapshot — otherwise the test only
    # ever exercised the start-fresh path and the gate is vacuous.
    assert resumed_at_least_once


def test_resume_keeps_one_candidate_per_lookup(trace, tmp_path):
    """A lookup's one pairing candidate, shared by the bucket of every
    (house, address) key its answers name, is still one object after a
    checkpoint load, and the resumed run renders the uninterrupted report."""
    path = str(tmp_path / "shared.ckpt")
    checkpoint = _crash_and_leave_checkpoint(
        trace, path, (len(trace.dns) + len(trace.conns)) // 2
    )
    _, analyzer, _ = load_checkpoint(path, config_digest(StreamingConfig()))
    index = analyzer.pairer.index
    multi_address = [
        (candidate, keys)
        for _, _, candidate, keys in index._expiry_heap
        if len(set(keys)) > 1
    ]
    assert multi_address, "no live multi-address lookup at the snapshot"
    for candidate, keys in multi_address:
        for key in keys:
            assert any(item is candidate for item in index._by_house_address[key])
    baseline = render_pipeline_report(run_streaming_pipeline(trace.dns, trace.conns))
    telemetry = CheckpointTelemetry()
    result = run_streaming_pipeline(
        trace.dns,
        trace.conns,
        checkpoint=checkpoint,
        resume=True,
        checkpoint_telemetry=telemetry,
    )
    assert telemetry.resumed
    assert render_pipeline_report(result) == baseline


def test_sketch_summary_resume_parity(trace, tmp_path):
    baseline = render_streaming_summary(
        run_streaming_summary(trace.dns, trace.conns)
    )
    path = str(tmp_path / "sketch.ckpt")
    checkpoint = CheckpointConfig(path=path, interval_s=INTERVAL_S)
    cell = [(len(trace.dns) + len(trace.conns)) // 2]
    with pytest.raises(_SimulatedCrash):
        run_streaming_summary(
            _crashing(trace.dns, cell),
            _crashing(trace.conns, cell),
            checkpoint=checkpoint,
        )
    telemetry = CheckpointTelemetry()
    summary = run_streaming_summary(
        trace.dns,
        trace.conns,
        checkpoint=checkpoint,
        resume=True,
        checkpoint_telemetry=telemetry,
    )
    assert telemetry.resumed
    assert render_streaming_summary(summary) == baseline


def _crash_and_leave_checkpoint(trace, path: str, budget: int) -> CheckpointConfig:
    """Run until *budget* record pulls, leaving a checkpoint at *path*."""
    checkpoint = CheckpointConfig(path=path, interval_s=INTERVAL_S)
    cell = [budget]
    with pytest.raises(_SimulatedCrash):
        run_checkpointed_stream(
            _crashing(trace.dns, cell),
            _crashing(trace.conns, cell),
            checkpoint=checkpoint,
        )
    assert os.path.exists(path)
    return checkpoint


def test_config_digest_mismatch_rejected(trace, tmp_path):
    path = str(tmp_path / "config.ckpt")
    checkpoint = _crash_and_leave_checkpoint(trace, path, 2000)
    with pytest.raises(CheckpointError, match="config digest mismatch"):
        run_checkpointed_stream(
            trace.dns,
            trace.conns,
            config=StreamingConfig(window_s=900.0),
            checkpoint=checkpoint,
            resume=True,
        )


def test_resume_against_different_trace_rejected(trace, tmp_path):
    other = generate_trace(ScenarioConfig(seed=12, houses=2, duration=2 * 3600.0))
    path = str(tmp_path / "othertrace.ckpt")
    checkpoint = _crash_and_leave_checkpoint(trace, path, 2000)
    with pytest.raises(CheckpointError, match="cannot resume"):
        run_checkpointed_stream(
            other.dns, other.conns, checkpoint=checkpoint, resume=True
        )


def test_truncated_and_corrupt_checkpoints_rejected(trace, tmp_path):
    path = str(tmp_path / "corrupt.ckpt")
    _crash_and_leave_checkpoint(trace, path, 2000)
    digest = config_digest(StreamingConfig())
    blob = open(path, "rb").read()

    truncated = str(tmp_path / "truncated.ckpt")
    atomic_write_bytes(truncated, blob[:-10])
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(truncated, digest)

    flipped = str(tmp_path / "flipped.ckpt")
    body = bytearray(blob)
    body[-1] ^= 0xFF
    atomic_write_bytes(flipped, bytes(body))
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(flipped, digest)

    junk = str(tmp_path / "junk.ckpt")
    atomic_write_bytes(junk, b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(CheckpointError, match="not a checkpoint file"):
        load_checkpoint(junk, digest)

    wrong_version = str(tmp_path / "version.ckpt")
    header = json.loads(blob.split(b"\n", 1)[0])
    header["version"] = 99
    atomic_write_bytes(
        wrong_version,
        json.dumps(header).encode("ascii") + b"\n" + blob.split(b"\n", 1)[1],
    )
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(wrong_version, digest)


def test_kill_mid_write_leaves_previous_checkpoint_loadable(trace, tmp_path):
    """A torn temp file never shadows the last durable snapshot."""
    path = str(tmp_path / "torn.ckpt")
    _crash_and_leave_checkpoint(trace, path, 2000)
    good = open(path, "rb").read()
    # Simulate a writer killed mid-write: a truncated temp file beside
    # the real checkpoint. The checkpoint itself must be untouched and
    # a resume must sail past the debris.
    with open(path + ".tmp", "wb") as stream:
        stream.write(good[: len(good) // 3])
    assert open(path, "rb").read() == good
    baseline = render_pipeline_report(run_streaming_pipeline(trace.dns, trace.conns))
    checkpoint = CheckpointConfig(path=path, interval_s=INTERVAL_S)
    result = run_streaming_pipeline(
        trace.dns, trace.conns, checkpoint=checkpoint, resume=True
    )
    assert render_pipeline_report(result) == baseline


def test_failed_rename_preserves_previous_checkpoint(trace, tmp_path, monkeypatch):
    """If the atomic rename itself dies, the old checkpoint survives."""
    import repro.core.checkpoint as checkpoint_mod

    path = str(tmp_path / "rename.ckpt")
    _crash_and_leave_checkpoint(trace, path, 2000)
    good = open(path, "rb").read()

    real_replace = os.replace

    def failing_replace(src, dst):
        if dst == path:
            raise OSError("simulated disk-full during rename")
        return real_replace(src, dst)

    monkeypatch.setattr(checkpoint_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated disk-full"):
        run_checkpointed_stream(
            trace.dns,
            trace.conns,
            checkpoint=CheckpointConfig(path=path, interval_s=INTERVAL_S),
        )
    monkeypatch.undo()
    assert open(path, "rb").read() == good
    load_checkpoint(path, config_digest(StreamingConfig()))


def test_interval_must_be_positive(tmp_path):
    with pytest.raises(CheckpointError, match="positive"):
        CheckpointConfig(path=str(tmp_path / "x.ckpt"), interval_s=0.0)


def test_missing_checkpoint_resume_starts_fresh(trace, tmp_path):
    baseline = render_pipeline_report(run_streaming_pipeline(trace.dns, trace.conns))
    telemetry = CheckpointTelemetry()
    checkpoint = CheckpointConfig(
        path=str(tmp_path / "never-written.ckpt"), interval_s=INTERVAL_S
    )
    result = run_streaming_pipeline(
        trace.dns,
        trace.conns,
        checkpoint=checkpoint,
        resume=True,
        checkpoint_telemetry=telemetry,
    )
    assert not telemetry.resumed
    assert render_pipeline_report(result) == baseline


def test_telemetry_accounting(trace, tmp_path):
    telemetry = CheckpointTelemetry()
    assert telemetry.bytes_per_snapshot == 0.0
    checkpoint = CheckpointConfig(
        path=str(tmp_path / "telemetry.ckpt"), interval_s=INTERVAL_S
    )
    run_checkpointed_stream(
        trace.dns, trace.conns, checkpoint=checkpoint, telemetry=telemetry
    )
    assert telemetry.snapshots > 0
    assert telemetry.bytes_total > 0
    assert telemetry.last_bytes > 0
    assert telemetry.bytes_per_snapshot == telemetry.bytes_total / telemetry.snapshots
    discard_checkpoint(checkpoint.path)
    assert not os.path.exists(checkpoint.path)
    assert not os.path.exists(checkpoint.path + ".tmp")


def test_checkpoint_requires_single_worker(trace, tmp_path):
    checkpoint = CheckpointConfig(path=str(tmp_path / "sharded.ckpt"))
    with pytest.raises(AnalysisError, match="workers=1"):
        run_streaming_pipeline(
            trace.dns, trace.conns, workers=2, checkpoint=checkpoint
        )


# --- CLI behaviour ---------------------------------------------------------


@pytest.fixture(scope="module")
def logs_on_disk(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt-cli-logs")
    dns_path = str(directory / "dns.log")
    conn_path = str(directory / "conn.log")
    save_dns_log(dns_path, trace.dns)
    save_conn_log(conn_path, trace.conns)
    return dns_path, conn_path


def test_cli_success_discards_checkpoint(trace, logs_on_disk, tmp_path, capsys):
    from repro.cli import main

    dns_path, conn_path = logs_on_disk
    path = str(tmp_path / "cli.ckpt")
    code = main(
        [
            "analyze",
            "--streaming",
            "--dns",
            dns_path,
            "--conn",
            conn_path,
            "--checkpoint",
            path,
            "--checkpoint-interval-s",
            str(INTERVAL_S),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert not os.path.exists(path)
    assert "snapshot(s)" in captured.err
    assert "Streaming summary" in captured.out


def test_cli_resume_config_mismatch_exits_data(trace, logs_on_disk, tmp_path, capsys):
    from repro.cli import EXIT_DATA, main

    dns_path, conn_path = logs_on_disk
    path = str(tmp_path / "mismatch.ckpt")
    _crash_and_leave_checkpoint(trace, path, 2000)
    code = main(
        [
            "analyze",
            "--streaming",
            "--dns",
            dns_path,
            "--conn",
            conn_path,
            "--checkpoint",
            path,
            "--resume",
            "--window-s",
            "900",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert "config digest mismatch" in captured.err


def test_cli_checkpoint_requires_streaming(logs_on_disk, tmp_path, capsys):
    from repro.cli import main

    dns_path, conn_path = logs_on_disk
    code = main(
        [
            "analyze",
            "--dns",
            dns_path,
            "--conn",
            conn_path,
            "--checkpoint",
            str(tmp_path / "batch.ckpt"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "requires --streaming" in captured.err


def test_cli_checkpoint_rejects_multiple_workers(logs_on_disk, tmp_path, capsys):
    from repro.cli import EXIT_DATA, main

    dns_path, conn_path = logs_on_disk
    code = main(
        [
            "analyze",
            "--streaming",
            "--dns",
            dns_path,
            "--conn",
            conn_path,
            "--workers",
            "2",
            "--checkpoint",
            str(tmp_path / "w2.ckpt"),
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert "workers=1" in captured.err


@pytest.mark.chaos
def test_sigkill_resume_parity_subprocess(logs_on_disk, tmp_path):
    """One real SIGKILL mid-run, then a --resume run, byte-for-byte."""
    dns_path, conn_path = logs_on_disk
    path = str(tmp_path / "sigkill.ckpt")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro",
        "analyze",
        "--streaming",
        "--dns",
        dns_path,
        "--conn",
        conn_path,
        "--checkpoint",
        path,
        "--checkpoint-interval-s",
        str(INTERVAL_S),
    ]
    baseline = subprocess.run(command, env=env, capture_output=True, check=True)
    victim = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    time.sleep(0.9)
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    resumed = subprocess.run(
        command + ["--resume"], env=env, capture_output=True, check=True
    )
    assert resumed.stdout == baseline.stdout
