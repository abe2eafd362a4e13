"""Text rendering of the paper's tables."""

from __future__ import annotations

from typing import Sequence

from repro.core.classify import ClassBreakdown
from repro.core.improvements import RefreshComparison
from repro.core.parallel import PressureStats
from repro.core.resolvers import ResolverUsageRow
from repro.core.streaming import PipelineResult, StreamingSummary
from repro.monitor.logs import IngestReport


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    columns = len(headers)
    cells = [[str(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != columns:
            raise ValueError(f"row has {len(row)} cells, expected {columns}")
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)).rstrip()
    separator = "  ".join("-" * width for width in widths)
    lines = [fmt(headers), separator]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def render_table1(rows: list[ResolverUsageRow]) -> str:
    """Table 1: resolver platform usage."""
    body = [
        (
            row.platform,
            f"{100 * row.house_fraction:.1f}",
            f"{100 * row.lookup_fraction:.1f}",
            f"{100 * row.conn_fraction:.1f}",
            f"{100 * row.byte_fraction:.1f}",
        )
        for row in rows
    ]
    return render_table(("Resolver", "% Houses", "% Lookups", "% Conns", "% Bytes"), body)


def render_table2(breakdown: ClassBreakdown) -> str:
    """Table 2: DNS information origin by connection."""
    body = [
        (cls, description, f"{count}", f"{percent:.1f}")
        for cls, description, count, percent in breakdown.as_rows()
    ]
    return render_table(("Class", "Desc.", "Conns", "% Conns"), body)


def render_pressure(stats: PressureStats) -> str:
    """Cache/connection pressure summary (stub vs. resolver side)."""
    body = [
        (
            "stub",
            f"{stats.stub_lookups}",
            f"{100 * stats.stub_hit_rate:.1f}%",
            f"{stats.stub_evictions}",
            f"{stats.stub_stale_serves}",
            f"{stats.stub_queued}",
            f"{stats.stub_shed}",
        ),
        (
            "resolver",
            f"{stats.resolver_lookups}",
            f"{100 * stats.resolver_hit_rate:.1f}%",
            f"{stats.resolver_evictions}",
            f"{stats.resolver_stale_serves}",
            f"{stats.resolver_queued}",
            f"{stats.resolver_refused}",
        ),
    ]
    return render_table(
        ("Side", "Lookups", "Hit rate", "Evictions", "Stale serves", "Queued", "Shed"),
        body,
    )


def render_table3(comparison: RefreshComparison) -> str:
    """Table 3: efficacy of refreshing expiring names."""
    standard = comparison.standard
    refresh = comparison.refresh_all
    body = [
        ("Conns.", f"{standard.conns}", f"{refresh.conns}"),
        ("DNS Lookups", f"{standard.lookups}", f"{refresh.lookups}"),
        (
            "Lookups/sec/house",
            f"{standard.lookups_per_second_per_house:.2f}",
            f"{refresh.lookups_per_second_per_house:.2f}",
        ),
        ("Cache Hits", f"{100 * standard.hit_rate:.1f}%", f"{100 * refresh.hit_rate:.1f}%"),
        ("Cache Misses", f"{100 * standard.miss_rate:.1f}%", f"{100 * refresh.miss_rate:.1f}%"),
    ]
    return render_table(("", "Standard", "Refresh All"), body)

def render_pipeline_report(result: "PipelineResult") -> str:
    """Text report of one §4–§6 result.

    Renders only the :class:`~repro.core.streaming.PipelineResult`
    payload — no trace access — so the streaming engine and the
    per-connection reference
    (:meth:`~repro.core.context.ContextStudy.pipeline_result`) share it;
    all dict-backed sections sort their keys, making equal results
    render byte-identically regardless of which of the two (or which
    shard order) produced them.
    """
    census = result.census
    gaps = result.gap_analysis
    delays = result.lookup_delays
    contribution = result.contribution
    quadrant = result.quadrant
    lines = [
        "Pairing census (§4):",
        f"  connections: {census.conns}, paired: {census.paired} "
        f"({100 * census.paired / census.conns:.1f}%)",
        f"  <=1 viable candidate: {100 * census.ambiguity_fraction:.1f}% of paired",
        f"  expired-lookup pairings: {100 * census.expired_pairing_fraction:.1f}% of paired",
        "",
        "Table 2 — DNS information origin by connection:",
        render_table2(result.breakdown),
        "",
        f"Figure 1: knee at {1000 * gaps.knee:.1f} ms; blocked "
        f"(<={1000 * gaps.blocking_threshold:.0f} ms): "
        f"{100 * gaps.blocked_fraction():.1f}% of paired connections",
        f"  first use below knee: {100 * gaps.first_use_below_knee:.1f}%, "
        f"above: {100 * gaps.first_use_above_knee:.1f}%",
        f"Figure 2: SC+R lookup median {1000 * delays.median:.1f} ms, "
        f"p75 {1000 * delays.p75:.1f} ms, >100 ms {100 * delays.over_100ms_fraction:.1f}%",
        f"  DNS contribution >1%: {100 * contribution.over_1pct_all:.1f}%, "
        f">10%: {100 * contribution.over_10pct_all:.1f}% of blocked connections",
        "",
        "§6 significance quadrant (share of blocked connections):",
    ]
    lines.extend(
        f"  {label}: {100 * fraction:.1f}%" for label, fraction in quadrant.as_rows()
    )
    lines.append(
        f"  significant for {100 * quadrant.significant_of_all:.1f}% of all connections"
    )
    if result.thresholds:
        lines.append("")
        lines.append("Per-resolver SC/R thresholds:")
        lines.extend(
            f"  {resolver}: {1000 * result.thresholds[resolver]:.1f} ms"
            for resolver in sorted(result.thresholds)
        )
    failed = {
        resolver: stats
        for resolver, stats in result.failure_stats.items()
        if stats.failures or stats.nxdomains
    }
    if failed:
        lines.append("")
        lines.append("Resolver failure rates:")
        lines.extend(
            f"  {resolver}: {failed[resolver].queries} queries, "
            f"{failed[resolver].servfails} SERVFAIL, "
            f"{failed[resolver].timeouts} timeout, "
            f"{failed[resolver].refused} REFUSED, "
            f"{failed[resolver].nxdomains} NXDOMAIN "
            f"({100 * failed[resolver].failure_rate:.2f}% failed)"
            for resolver in sorted(failed)
        )
    return "\n".join(lines)


def render_streaming_summary(
    summary: "StreamingSummary", ingest: "tuple[IngestReport, ...] | None" = None
) -> str:
    """Text report of a sketch-mode streaming run.

    Counts are exact; distribution numbers come from the quantile
    sketches and are annotated with the certified worst-case rank-error
    bound. Dict-backed sections sort their keys (see
    :func:`render_pipeline_report`). *ingest* reports from a lenient
    streaming read are surfaced as a quarantine section, so discarded
    lines stay visible even when the record lists never materialize."""
    census = summary.census
    lines = [
        "Streaming summary (one pass, sketched statistics):",
        f"  window: {'unbounded' if summary.window_s is None else f'{summary.window_s:.0f} s'}, "
        f"epsilon: {summary.epsilon}, peak live DNS records: {summary.peak_live_records}",
        f"  rank error <= {100 * summary.rank_error_bound:.2f}% "
        f"(budget {100 * summary.epsilon:.2f}%)",
        "",
        "Pairing census (§4):",
        f"  connections: {census.conns}, paired: {census.paired} "
        f"({100 * census.paired / census.conns:.1f}%)",
        f"  <=1 viable candidate: {100 * census.ambiguity_fraction:.1f}% of paired",
        f"  expired-lookup pairings: {100 * census.expired_pairing_fraction:.1f}% of paired",
        f"  unused lookups (§5.2): {100 * summary.unused_lookup_fraction:.1f}% "
        f"of {summary.answered_lookups} answered",
        "",
        "Table 2 — DNS information origin by connection (SC/R via running thresholds):",
        render_table2(summary.breakdown),
    ]
    if len(summary.gap_sketch):
        lines.append("")
        lines.append(
            f"Figure 1 (sketched): gap median {summary.gap_sketch.median:.3f} s; "
            f"first use below knee: {100 * summary.first_use_below_knee:.1f}%, "
            f"above: {100 * summary.first_use_above_knee:.1f}%"
        )
    if len(summary.delay_sketch):
        lines.append(
            f"Figure 2 (sketched): SC+R lookup median "
            f"{1000 * summary.delay_sketch.median:.1f} ms, "
            f"p75 {1000 * summary.delay_sketch.quantile(0.75):.1f} ms, "
            f">100 ms {100 * summary.delay_sketch.fraction_above(0.100):.1f}%"
        )
    if len(summary.contribution_sketch):
        lines.append(
            f"  DNS contribution >1%: "
            f"{100 * summary.contribution_sketch.fraction_above(1.0):.1f}%, "
            f">10%: {100 * summary.contribution_sketch.fraction_above(10.0):.1f}% "
            f"of blocked connections"
        )
    if summary.quadrant is not None:
        lines.append("")
        lines.append("§6 significance quadrant (share of blocked connections):")
        lines.extend(
            f"  {label}: {100 * fraction:.1f}%"
            for label, fraction in summary.quadrant.as_rows()
        )
        lines.append(
            f"  significant for {100 * summary.quadrant.significant_of_all:.1f}% "
            f"of all connections"
        )
    if summary.thresholds:
        lines.append("")
        lines.append("Per-resolver SC/R thresholds (final):")
        lines.extend(
            f"  {resolver}: {1000 * summary.thresholds[resolver]:.1f} ms"
            for resolver in sorted(summary.thresholds)
        )
    if ingest:
        lines.append("")
        lines.append("Lenient ingest quarantine:")
        lines.extend(f"  {report.summary()}" for report in ingest)
    return "\n".join(lines)
