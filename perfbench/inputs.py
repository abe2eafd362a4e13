"""The benchmark's set-up and checking child, run in its own process.

Generating inputs and references here keeps the parent (``run.py``) small, so
it never inflates a job's peak RSS or competes with it for memory.

    inputs.py setup WORKLOAD HOURS SEED DIR
        Write the inputs of the scenario with CLI seed SEED under DIR and
        its reference aggregates to DIR/reference.json.
    inputs.py digest DIR...
        Print, as JSON, the digest of the RBLG logs in each DIR.
    inputs.py resume HOURS DIR
        Leave a last checkpoint of DIR's RBLG logs, time resuming from it
        through the library (at the reference host speed), and check the
        resumed result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import spec
from repro.core.checkpoint import CheckpointConfig, CheckpointTelemetry, discard_checkpoint
from repro.core.parallel import run_pipeline, run_streaming_summary
from repro.monitor.binlog import (
    iter_conn_binlog,
    iter_dns_binlog,
    load_conn_binlog,
    load_dns_binlog,
    save_conn_binlog,
    save_dns_binlog,
)
from repro.monitor.capture import Trace, trace_digest
from repro.monitor.logs import load_conn_log, load_dns_log, save_conn_log, save_dns_log
from repro.report.tables import render_pipeline_report
from repro.simulation.faults import FaultConfig
from repro.workload.generate import generate_trace, generate_trace_with_pressure
from repro.workload.scenario import PressureConfig, ScenarioConfig
from job import reference_s
from tracer import Tracer


def scenario_config(workload: str, seed: int, hours: float) -> ScenarioConfig:
    """The config ``repro-dns`` builds from :func:`spec.job_argv`'s flags."""
    config = ScenarioConfig(seed=seed, houses=spec.HOUSES, duration=hours * 3600.0)
    if workload != "generate-pressure":
        return config
    knobs = spec.PRESSURE
    return dataclasses.replace(
        config,
        faults=FaultConfig(
            timeout_probability=knobs["timeout_rate"],
            servfail_probability=knobs["servfail_rate"],
        ),
        pressure=PressureConfig(
            stub_cache_capacity=knobs["stub_cache_capacity"],
            stub_cache_policy=knobs["stub_cache_policy"],
            stub_stale_ttl_s=knobs["stub_stale_ttl"],
            stub_fd_budget=knobs["stub_fd_budget"],
            resolver_cache_capacity=knobs["resolver_cache_capacity"],
            resolver_cache_policy=knobs["resolver_cache_policy"],
            resolver_stale_ttl_s=knobs["resolver_stale_ttl"],
            resolver_fd_budget=knobs["resolver_fd_budget"],
            flash_crowd_rate_per_hour=knobs["flash_crowd_rate"],
            flash_crowd_duration_s=knobs["flash_crowd_duration"],
            flash_crowd_intensity=knobs["flash_crowd_intensity"],
        ),
    )


def log_digest(dns, conns) -> str:
    """Digest of the records a pair of logs holds (no truth, no metadata)."""
    return trace_digest(Trace(dns=list(dns), conns=list(conns)))


def table2(breakdown) -> dict[str, int]:
    return {cls: count for cls, _, count, _ in breakdown.as_rows()}


def check_pin(name: str, value: str, pinned: str) -> None:
    if value != pinned:
        raise SystemExit(f"pinned {name} mismatch: {value} != {pinned}")
    print(f"pinned {name} matches ({pinned[:8]}...)", file=sys.stderr)


def generate(workload: str, seed: int, hours: float) -> Trace:
    config = scenario_config(workload, seed, hours)
    if workload == "generate-pressure":
        return generate_trace_with_pressure(config)[0]
    return generate_trace(config)


def reference(workload: str, seed: int, hours: float, directory: str) -> dict:
    """Write one scenario's inputs and return the aggregates its job must print."""
    trace = generate(workload, seed, hours)
    if workload == "generate-pressure":
        return {
            "records": len(trace.dns) + len(trace.conns),
            "written": [len(trace.dns), len(trace.conns)],
            "log_digest": log_digest(trace.dns, trace.conns),
        }
    pinned = spec.is_pinned(seed, hours)
    if pinned:
        check_pin("trace digest", trace_digest(trace), spec.PINNED_TRACE_DIGEST)
    records = len(trace.dns) + len(trace.conns)
    if workload == "stream-rblg":
        save_dns_binlog(os.path.join(directory, "dns.rblg"), trace.dns)
        save_conn_binlog(os.path.join(directory, "conn.rblg"), trace.conns)
        summary = run_streaming_summary(trace.dns, trace.conns, window_s=spec.WINDOW_S)
        return {
            "records": records,
            "table2": table2(summary.breakdown),
            "census": [summary.census.conns, summary.census.paired],
            "peak_live": summary.peak_live_records,
        }
    if workload == "analyze-tsv":
        dns_path = os.path.join(directory, "dns.log")
        conn_path = os.path.join(directory, "conn.log")
        save_dns_log(dns_path, trace.dns)
        save_conn_log(conn_path, trace.conns)
        trace = Trace(dns=load_dns_log(dns_path), conns=load_conn_log(conn_path))
        records = len(trace.dns) + len(trace.conns)
    result = run_pipeline(trace, workers=1)
    if pinned and workload == "analyze-tsv":
        report = render_pipeline_report(result).encode("utf-8")
        check_pin("report sha256", hashlib.sha256(report).hexdigest(), spec.PINNED_REPORT_SHA256)
    return {
        "records": records,
        "table2": table2(result.breakdown),
        "knee_ms": f"{1000 * result.gap_analysis.knee:.1f}",
    }


def setup(workload: str, hours: float, seed: int, directory: str) -> None:
    result = reference(workload, seed, hours, directory)
    with open(os.path.join(directory, "reference.json"), "w", encoding="utf-8") as stream:
        json.dump(result, stream)


def digest(directories: list[str]) -> None:
    digests = {
        directory: log_digest(
            load_dns_binlog(os.path.join(directory, "dns.rblg")),
            load_conn_binlog(os.path.join(directory, "conn.rblg")),
        )
        for directory in directories
    }
    print(json.dumps(digests))


def resume(hours: float, directory: str) -> None:
    """Time a resume from the last snapshot a finished run leaves behind."""
    dns_path = os.path.join(directory, "dns.rblg")
    conn_path = os.path.join(directory, "conn.rblg")
    checkpoint = CheckpointConfig(
        path=os.path.join(directory, "resume.ckpt"),
        interval_s=spec.checkpoint_interval_s(hours),
    )

    def summarize(from_snapshot: bool, telemetry: CheckpointTelemetry):
        return run_streaming_summary(
            iter_dns_binlog(dns_path),
            iter_conn_binlog(conn_path),
            window_s=spec.WINDOW_S,
            checkpoint=checkpoint,
            resume=from_snapshot,
            checkpoint_telemetry=telemetry,
        )

    # The library (unlike the CLI) keeps the last snapshot on completion.
    written = CheckpointTelemetry()
    first = summarize(False, written)
    tracer = Tracer()
    tracer.wrap("repro.core.checkpoint:load_checkpoint", "checkpoint.resume", hwm=False)
    tracer.wrap("repro.core.checkpoint:HashingReader.skip_to", "checkpoint.resume", hwm=False)
    resumed_telemetry = CheckpointTelemetry()
    speed = spec.REFERENCE_S / reference_s()
    resumed = summarize(True, resumed_telemetry)
    discard_checkpoint(checkpoint.path)
    error = None
    if not written.snapshots or not resumed_telemetry.resumed:
        error = f"no resume: {written.snapshots} snapshot(s) written"
    elif (table2(resumed.breakdown), resumed.census) != (table2(first.breakdown), first.census):
        error = "resumed run disagrees with the uninterrupted run"
    resume_s = tracer.spans["checkpoint.resume"].self_s * speed
    print(json.dumps({"resume_s": resume_s, "error": error}))


def main(argv: list[str]) -> None:
    command = argv[0]
    if command == "setup":
        setup(argv[1], float(argv[2]), int(argv[3]), argv[4])
    elif command == "digest":
        digest(argv[1:])
    elif command == "resume":
        resume(float(argv[1]), argv[2])
    else:
        raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
