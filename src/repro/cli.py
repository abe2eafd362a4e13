"""Command-line interface: generate traces, analyse logs/pcaps, report.

Subcommands::

    repro-dns generate --houses 20 --hours 12 --seed 1 --out out/
        Generate a synthetic residential trace and write out/dns.log
        and out/conn.log.

    repro-dns analyze --dns out/dns.log --conn out/conn.log
    repro-dns analyze --pcap capture.pcap --local-net 10.77.
        Run the paper's full analysis and print every table plus the
        headline statistics.

    repro-dns report --houses 20 --hours 12 --seed 1
        Generate and analyse in one step.

    repro-dns convert out/dns.log out/dns.rblg
        Convert a trace log to or from the RBLG binary columnar format:
        an RBLG input becomes Zeek TSV, a TSV or JSON input becomes RBLG.

    repro-dns lint src/repro
        Run the repro-lint static invariant checker (also available as
        the ``repro-lint`` entry point; extra flags are passed through).

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.core.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL_S,
    CheckpointConfig,
    CheckpointTelemetry,
    discard_checkpoint,
)
from repro.core.context import ContextStudy
from repro.core.parallel import PressureStats, run_streaming_pipeline, run_streaming_summary
from repro.core.streaming import reorder_records
from repro.errors import (
    AnalysisError,
    CheckpointError,
    DnsError,
    LogFormatError,
    PcapError,
    ReproError,
    SimulationError,
    SupervisionError,
    WorkloadError,
)
from repro.dns.cache import EVICTION_POLICIES
from repro.monitor.binlog import DNS_KIND, save_conn_binlog, save_dns_binlog, sniff_binlog
from repro.monitor.capture import Trace
from repro.monitor.logs import IngestReport, open_records, save_conn_log, save_dns_log
from repro.report.tables import (
    render_failure_rates,
    render_pipeline_report,
    render_pressure,
    render_streaming_summary,
    render_table1,
    render_table2,
    render_table3,
)
from repro.simulation.faults import FaultConfig
from repro.workload.generate import collector_paused, generate_trace_with_pressure
from repro.workload.scenario import PressureConfig, ScenarioConfig

# sysexits.h-style codes: data errors, usage errors, missing inputs,
# and internal software faults map to distinct, scriptable exit codes.
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_SOFTWARE = 70


def _faults_from_args(args: argparse.Namespace) -> FaultConfig:
    return FaultConfig(
        timeout_probability=args.timeout_rate,
        servfail_probability=args.servfail_rate,
        nxdomain_probability=args.nxdomain_rate,
        outage_rate_per_hour=args.outage_rate,
    )


def _pressure_from_args(args: argparse.Namespace) -> PressureConfig:
    return PressureConfig(
        stub_cache_capacity=args.stub_cache_capacity,
        stub_cache_policy=args.stub_cache_policy,
        stub_stale_ttl_s=args.stub_stale_ttl,
        stub_fd_budget=args.stub_fd_budget,
        resolver_cache_capacity=args.resolver_cache_capacity,
        resolver_cache_policy=args.resolver_cache_policy,
        resolver_stale_ttl_s=args.resolver_stale_ttl,
        resolver_fd_budget=args.resolver_fd_budget,
        flash_crowd_rate_per_hour=args.flash_crowd_rate,
        flash_crowd_duration_s=args.flash_crowd_duration,
        flash_crowd_intensity=args.flash_crowd_intensity,
    )


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed,
        houses=args.houses,
        duration=args.hours * 3600.0,
        faults=_faults_from_args(args),
        pressure=_pressure_from_args(args),
    )


def _positive_int(text: str) -> int:
    """argparse type of a worker or shard count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type of a time span: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _add_generation_sharding_arguments(
    parser: argparse.ArgumentParser, workers_help: str
) -> None:
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="generation house shards (default: auto from --workers); the "
        "trace is byte-identical for every shard count",
    )
    parser.add_argument("--workers", type=_positive_int, default=1, help=workers_help)


def _add_streaming_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="analyse in one bounded-memory pass (TTL-windowed pairing "
        "index, incremental thresholds) instead of loading the trace",
    )
    parser.add_argument(
        "--window-s",
        type=float,
        default=None,
        help="streaming: drop expired-fallback pairing state older than "
        "this many seconds (default: keep for the stream's lifetime)",
    )
    parser.add_argument(
        "--exact-stats",
        action="store_true",
        help="streaming: buffer full samples for exact, batch-identical "
        "statistics instead of bounded-memory quantile sketches",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="streaming: periodically snapshot analysis state to PATH "
        "(atomic write) so a crashed run can be resumed; requires --workers 1",
    )
    parser.add_argument(
        "--checkpoint-interval-s",
        type=float,
        default=DEFAULT_CHECKPOINT_INTERVAL_S,
        help="streaming: stream-time seconds between checkpoint snapshots "
        f"(default {DEFAULT_CHECKPOINT_INTERVAL_S:.0f})",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="streaming: resume from the --checkpoint file if present "
        "(refused unless its config and input prefix match this run)",
    )
    parser.add_argument(
        "--reorder-window-s",
        type=float,
        default=None,
        help="streaming: buffer and re-sort records arriving up to this many "
        "seconds out of order (default: 5 with --follow, otherwise off)",
    )


def _print_ingest_reports(reports, stream) -> None:
    """Write the summary of each lenient-ingest report that quarantined
    or dropped rows to *stream*."""
    for report in reports:
        if report.ok and not report.dropped:
            continue
        print(f"ingest: {report.summary()}", file=stream)
        for line in report.quarantined[:10]:
            print(f"  line {line.line_number}: {line.reason}", file=stream)
        if len(report.quarantined) > 10:
            remaining = len(report.quarantined) - 10
            print(f"  ... and {remaining} more", file=stream)


def _ingest_reports(args: argparse.Namespace) -> tuple[IngestReport, IngestReport] | None:
    """The caller-owned (dns, conn) reports a ``--lenient`` read fills."""
    return (IngestReport("dns"), IngestReport("conn")) if args.lenient else None


def _run_streaming_report(
    args: argparse.Namespace, dns_records, conns, ingest=None
) -> None:
    """Run the one-pass engine over record iterables and print its report.

    *ingest* holds the reports of a lenient read; they are complete only
    after the run, once the lazy readers have drained.
    """
    reorder_window_s = args.reorder_window_s
    if reorder_window_s is None:
        reorder_window_s = 5.0 if getattr(args, "follow", False) else 0.0
    if reorder_window_s:
        dns_records = reorder_records(dns_records, reorder_window_s)
        conns = reorder_records(conns, reorder_window_s)
    checkpoint = None
    telemetry = None
    if args.checkpoint:
        checkpoint = CheckpointConfig(
            path=args.checkpoint, interval_s=args.checkpoint_interval_s
        )
        telemetry = CheckpointTelemetry()
    run = run_streaming_pipeline if args.exact_stats else run_streaming_summary
    result = run(
        dns_records,
        conns,
        workers=args.workers,
        window_s=args.window_s,
        checkpoint=checkpoint,
        resume=args.resume,
        checkpoint_telemetry=telemetry,
    )
    if args.exact_stats:
        report = render_pipeline_report(result)
    else:
        report = render_streaming_summary(result)
    if ingest is not None:
        _print_ingest_reports(ingest, sys.stderr)
    if checkpoint is not None:
        # The run completed: the checkpoint has nothing left to resume.
        discard_checkpoint(checkpoint.path)
        if telemetry is not None and telemetry.resumed:
            print(
                f"checkpoint: resumed at event ts {telemetry.resumed_event_ts:.6f}",
                file=sys.stderr,
            )
        if telemetry is not None:
            print(
                f"checkpoint: {telemetry.snapshots} snapshot(s), "
                f"{telemetry.bytes_per_snapshot:.0f} bytes/snapshot",
                file=sys.stderr,
            )
    print(report)


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--houses", type=int, default=20, help="number of houses (default 20)")
    parser.add_argument("--hours", type=float, default=12.0, help="simulated hours (default 12)")
    parser.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    parser.add_argument(
        "--servfail-rate",
        type=float,
        default=0.0,
        help="per-query SERVFAIL probability for fault injection (default 0)",
    )
    parser.add_argument(
        "--timeout-rate",
        type=float,
        default=0.0,
        help="per-query timeout probability for fault injection (default 0)",
    )
    parser.add_argument(
        "--nxdomain-rate",
        type=float,
        default=0.0,
        help="per-query spurious-NXDOMAIN probability for fault injection (default 0)",
    )
    parser.add_argument(
        "--outage-rate",
        type=float,
        default=0.0,
        help="resolver outage windows per hour per platform (default 0)",
    )
    parser.add_argument(
        "--stub-cache-capacity",
        type=int,
        default=None,
        help="device stub cache entry limit (default: unchanged, 4096)",
    )
    parser.add_argument(
        "--stub-cache-policy",
        choices=EVICTION_POLICIES,
        default="lru",
        help="stub cache eviction policy (default lru)",
    )
    parser.add_argument(
        "--stub-stale-ttl",
        type=float,
        default=0.0,
        help="serve-stale staleness budget in seconds for stub caches "
        "(0 = RFC 8767 default of one day; only used with serve-stale)",
    )
    parser.add_argument(
        "--stub-fd-budget",
        type=int,
        default=None,
        help="concurrent connection budget per device stub (default: unbounded)",
    )
    parser.add_argument(
        "--resolver-cache-capacity",
        type=int,
        default=None,
        help="recursive resolver cache entry limit (default: per-platform profile)",
    )
    parser.add_argument(
        "--resolver-cache-policy",
        choices=EVICTION_POLICIES,
        default="lru",
        help="recursive resolver cache eviction policy (default lru)",
    )
    parser.add_argument(
        "--resolver-stale-ttl",
        type=float,
        default=0.0,
        help="serve-stale staleness budget in seconds for resolver caches "
        "(0 = RFC 8767 default of one day; only used with serve-stale)",
    )
    parser.add_argument(
        "--resolver-fd-budget",
        type=int,
        default=None,
        help="concurrent connection budget per resolver platform; excess "
        "queries queue then shed as REFUSED (default: unbounded)",
    )
    parser.add_argument(
        "--flash-crowd-rate",
        type=float,
        default=0.0,
        help="flash-crowd windows per hour (default 0 = no flash crowds)",
    )
    parser.add_argument(
        "--flash-crowd-duration",
        type=float,
        default=300.0,
        help="flash-crowd window length in seconds (default 300)",
    )
    parser.add_argument(
        "--flash-crowd-intensity",
        type=float,
        default=5.0,
        help="browsing-rate multiplier inside a flash-crowd window (default 5)",
    )


def _generate_scenario(args: argparse.Namespace) -> tuple[Trace, PressureStats | None]:
    """The scenario's trace, and its pressure tally when pressure is enabled."""
    config = _scenario_from_args(args)
    trace, pressure = generate_trace_with_pressure(
        config, shards=args.shards, workers=args.workers
    )
    return trace, pressure if config.pressure.enabled else None


def _print_pressure(pressure: PressureStats | None) -> None:
    if pressure is not None:
        print()
        print("Cache/connection pressure:")
        print(render_pressure(pressure))


def cmd_generate(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    trace, pressure = _generate_scenario(args)
    if args.format == "bin":
        dns_path = os.path.join(args.out, "dns.rblg")
        conn_path = os.path.join(args.out, "conn.rblg")
        save_dns_binlog(dns_path, trace.dns)
        save_conn_binlog(conn_path, trace.conns)
    else:
        dns_path = os.path.join(args.out, "dns.log")
        conn_path = os.path.join(args.out, "conn.log")
        if args.format == "json":
            from repro.monitor.json_logs import write_conn_json, write_dns_json

            with open(dns_path, "w", encoding="utf-8") as stream:
                write_dns_json(stream, trace.dns)
            with open(conn_path, "w", encoding="utf-8") as stream:
                write_conn_json(stream, trace.conns)
        else:
            save_dns_log(dns_path, trace.dns)
            save_conn_log(conn_path, trace.conns)
    print(trace.summary())
    _print_pressure(pressure)
    print(f"wrote {dns_path} ({len(trace.dns)} records)")
    print(f"wrote {conn_path} ({len(trace.conns)} records)")
    return 0


def _print_report(study: ContextStudy) -> None:
    print(study.population().summary())
    print()
    print("Table 1 — resolver platform usage:")
    print(render_table1(study.resolver_usage()))
    failures = render_failure_rates(study.failure_stats())
    if failures:
        print()
        print(failures)
    print()
    print("Table 2 — DNS information origin by connection:")
    print(render_table2(study.breakdown))
    print()
    gaps = study.gap_analysis()
    print(
        f"Figure 1: knee at {1000 * gaps.knee:.1f} ms; blocked (<=100 ms): "
        f"{100 * study.breakdown.blocked_fraction():.1f}% of connections"
    )
    delays = study.lookup_delays()
    print(
        f"Figure 2: SC+R lookup median {1000 * delays.median:.1f} ms, "
        f"p75 {1000 * delays.p75:.1f} ms, >100 ms {100 * delays.over_100ms_fraction:.1f}%"
    )
    quadrant = study.significance_quadrant()
    print(
        f"§6: DNS cost significant (>20 ms and >1%) for "
        f"{100 * quadrant.significant_of_all:.1f}% of all connections"
    )
    print(f"§7: shared-cache hit rates: "
          + ", ".join(f"{k} {100 * v:.1f}%" for k, v in sorted(study.hit_rates().items())))
    whole_house = study.whole_house()
    print(
        f"§8: a whole-house cache would unblock "
        f"{100 * whole_house.moved_fraction_of_all:.1f}% of connections"
    )
    print()
    print("Table 3 — refreshing expiring names:")
    print(render_table3(study.refresh()))


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.follow and not args.streaming:
        print("analyze --follow requires --streaming", file=sys.stderr)
        return 2
    if (args.checkpoint or args.resume or args.workers != 1) and not args.streaming:
        # The batch path runs in one process and cannot snapshot;
        # refusing beats silently ignoring what the flag asked for.
        print(
            "analyze --checkpoint/--resume/--workers N requires --streaming",
            file=sys.stderr,
        )
        return 2
    if args.streaming:
        if not (args.dns and args.conn):
            print("analyze --streaming requires both --dns and --conn", file=sys.stderr)
            return 2
        reports = _ingest_reports(args)
        dns_report, conn_report = reports or (None, None)
        dns_records = open_records(
            args.dns, "dns", report=dns_report,
            follow=args.follow, idle_timeout_s=args.idle_timeout_s,
        )
        conns = open_records(
            args.conn, "conn", report=conn_report,
            follow=args.follow, idle_timeout_s=args.idle_timeout_s,
        )
        _run_streaming_report(args, dns_records, conns, reports)
        return 0
    if args.pcap:
        study = ContextStudy.from_pcap(args.pcap, local_networks=tuple(args.local_net))
    elif args.dns and args.conn:
        reports = _ingest_reports(args)
        study = ContextStudy.from_logs(args.dns, args.conn, reports=reports)
        _print_ingest_reports(reports or (), sys.stderr)
    else:
        print("analyze requires either --pcap or both --dns and --conn", file=sys.stderr)
        return 2
    _print_report(study)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if (args.checkpoint or args.resume) and not args.streaming:
        print("report --checkpoint/--resume requires --streaming", file=sys.stderr)
        return 2
    trace, pressure = _generate_scenario(args)
    if args.streaming:
        _run_streaming_report(args, trace.dns, trace.conns)
    else:
        _print_report(ContextStudy(trace))
    _print_pressure(pressure)
    return 0


def _sniff_tsv_kind(path: str) -> str | None:
    """The ``#path`` label of a Zeek TSV log, when one is present."""
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        for line in stream:
            if line.startswith("#path"):
                parts = line.rstrip("\n").split("\t")
                if len(parts) > 1 and parts[1] in ("dns", "conn"):
                    return parts[1]
            if not line.startswith("#"):
                break
    return None


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert one trace log to or from the RBLG binary format.

    An RBLG input becomes Zeek TSV; any text log, TSV or JSON, becomes
    RBLG. The records stream from :func:`open_records` straight into the
    writer. The record kind comes from the RBLG header or the TSV
    ``#path`` label; pass ``--kind`` for logs without one (JSON has
    none). ``--lenient`` quarantines corrupt text lines through the
    standard ingest report instead of aborting the migration.
    """
    bin_kind = sniff_binlog(args.input)
    if bin_kind is not None:
        kind = "dns" if bin_kind == DNS_KIND else "conn"
        if args.kind and args.kind != kind:
            print(
                f"convert: input is a {kind} binlog, but --kind {args.kind} was given",
                file=sys.stderr,
            )
            return 2
    else:
        kind = args.kind or _sniff_tsv_kind(args.input)
        if kind is None:
            print(
                "convert: cannot infer the record kind (no #path header); "
                "pass --kind dns or --kind conn",
                file=sys.stderr,
            )
            return 2
    report = IngestReport(kind) if args.lenient else None
    records = open_records(args.input, kind, report=report)
    if bin_kind is not None:
        save, label = (save_dns_log if kind == "dns" else save_conn_log), "TSV"
    else:
        save, label = (save_dns_binlog if kind == "dns" else save_conn_binlog), "RBLG"
    total = save(args.output, records)
    if report is not None:
        _print_ingest_reports((report,), sys.stderr)
    print(f"wrote {args.output} ({total} {kind} records, {label})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Putting DNS in Context (IMC 2020) — reproduction toolkit",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of clean error messages",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic trace")
    _add_scenario_arguments(generate)
    generate.add_argument("--out", default="out", help="output directory (default out/)")
    generate.add_argument(
        "--format",
        choices=("tsv", "json", "bin"),
        default="tsv",
        help="log format: Zeek TSV (default), JSON-streaming, or the RBLG "
        "binary columnar format (writes dns.rblg/conn.rblg)",
    )
    _add_generation_sharding_arguments(
        generate,
        "generation worker processes; shards fan out over a fork pool "
        "and merge byte-identically (default 1)",
    )
    generate.set_defaults(func=cmd_generate)

    analyze = subparsers.add_parser("analyze", help="analyse logs or a pcap")
    analyze.add_argument("--dns", help="path to dns.log")
    analyze.add_argument("--conn", help="path to conn.log")
    analyze.add_argument("--pcap", help="path to a pcap file")
    analyze.add_argument(
        "--local-net",
        action="append",
        default=["10."],
        help="local network prefix for pcap ingestion (repeatable)",
    )
    analyze.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine malformed log lines (reported on stderr) instead of "
        "aborting; a no-op for RBLG logs, whose blocks are checksummed",
    )
    analyze.add_argument(
        "--follow",
        action="store_true",
        help="with --streaming: tail growing TSV or JSON logs live, surviving "
        "rotation and truncation, instead of reading to EOF and stopping "
        "(RBLG logs cannot be followed)",
    )
    analyze.add_argument(
        "--idle-timeout-s",
        type=_positive_seconds,
        default=None,
        help="with --follow: stop once no new data arrives for this many "
        "seconds (default: follow until interrupted)",
    )
    analyze.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="with --streaming: analysis worker processes; >1 shards the "
        "logs by household and merges the shards, and with --exact-stats "
        "prints the same bytes as 1 (the sketch summary's SC/R split and "
        "peak live count depend on the shard count); default 1, and the "
        "batch analysis runs in one process and accepts only 1",
    )
    _add_streaming_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    report = subparsers.add_parser("report", help="generate and analyse in one step")
    _add_scenario_arguments(report)
    _add_generation_sharding_arguments(
        report,
        "generation worker processes (house shards fan out over fork "
        "workers); with --streaming, also the analysis workers; the batch "
        "analysis runs in one process (default 1)",
    )
    _add_streaming_arguments(report)
    report.set_defaults(func=cmd_report)

    convert = subparsers.add_parser(
        "convert", help="convert a trace log to or from RBLG binary"
    )
    convert.add_argument("input", help="source log (Zeek TSV, Zeek JSON or .rblg)")
    convert.add_argument("output", help="destination path")
    convert.add_argument(
        "--kind",
        choices=("dns", "conn"),
        default=None,
        help="record kind when the input has no #path header (required for JSON)",
    )
    convert.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine corrupt lines (reported on stderr) instead of "
        "aborting the migration; a no-op for RBLG inputs",
    )
    convert.set_defaults(func=cmd_convert)

    lint = subparsers.add_parser(
        "lint",
        help="run the repro-lint static invariant checker",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER, help="arguments passed to repro-lint")
    lint.set_defaults(func=cmd_lint)
    return parser


def _exit_code_for(error: ReproError) -> int:
    """Map a library error to its sysexits.h-style exit code."""
    if isinstance(error, (LogFormatError, AnalysisError, PcapError, CheckpointError)):
        return EXIT_DATA
    if isinstance(error, WorkloadError):
        return EXIT_USAGE
    if isinstance(error, (DnsError, SimulationError, SupervisionError)):
        return EXIT_SOFTWARE
    return EXIT_SOFTWARE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The job makes no cyclic garbage beyond what generation reclaims
    # itself, so automatic collector passes would only re-walk the
    # trace (see collector_paused).
    with collector_paused():
        try:
            return args.func(args)
        except ReproError as error:
            if args.debug:
                raise
            print(f"repro-dns: error: {error}", file=sys.stderr)
            return _exit_code_for(error)
        except OSError as error:
            if args.debug:
                raise
            print(f"repro-dns: error: {error}", file=sys.stderr)
            return EXIT_NOINPUT


if __name__ == "__main__":
    raise SystemExit(main())
