#!/usr/bin/env python3
"""Full study: regenerate every table and figure of the paper.

Generates a larger synthetic trace (default 24 houses, half a simulated
day — pass hours/houses to scale up toward the paper's week), runs the
complete analysis, prints every table, sketches every figure as an ASCII
CDF, and exports the machine-readable artifacts:

    out/dns.log, out/conn.log     — the two Zeek-style datasets
    out/fig*.csv                  — every figure's CDF series

Usage:
    python examples/residential_week.py [houses] [hours] [seed] [outdir]
"""

import os
import sys

from repro.core.context import ContextStudy
from repro.monitor.logs import save_conn_log, save_dns_log
from repro.workload.generate import generate_trace
from repro.report.figures import ascii_cdf, series_to_csv
from repro.report.tables import render_table1, render_table2, render_table3
from repro.workload.scenario import ScenarioConfig


def export_series(outdir: str, name: str, series, x_label: str) -> None:
    path = os.path.join(outdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(series_to_csv(series, x_label=x_label))
    print(f"  wrote {path}")


def main() -> None:
    houses = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    hours = float(sys.argv[2]) if len(sys.argv) > 2 else 12.0
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    outdir = sys.argv[4] if len(sys.argv) > 4 else "out"
    os.makedirs(outdir, exist_ok=True)

    config = ScenarioConfig(seed=seed, houses=houses, duration=hours * 3600.0)
    print(f"Generating {houses} houses x {hours:.0f}h (seed={seed})...")
    study = ContextStudy(generate_trace(config))
    print(f"  {study.trace.summary()}\n")

    save_dns_log(os.path.join(outdir, "dns.log"), study.trace.dns)
    save_conn_log(os.path.join(outdir, "conn.log"), study.trace.conns)
    print(f"  wrote {outdir}/dns.log and {outdir}/conn.log\n")

    # ---- Table 1 ---------------------------------------------------------
    print("Table 1 — resolver platform usage:")
    print(render_table1(study.resolver_usage()))
    print(f"houses using only the ISP resolvers: {100 * study.local_only_houses():.1f}%\n")

    # ---- Figure 1 --------------------------------------------------------
    gaps = study.gap_analysis()
    print(ascii_cdf({"gap (s)": gaps.series(120)}, title="Figure 1: lookup-to-connection gap"))
    print(
        f"knee at {1000 * gaps.knee:.1f} ms; first-use below/above: "
        f"{100 * gaps.first_use_below_knee:.0f}%/{100 * gaps.first_use_above_knee:.0f}%\n"
    )
    export_series(outdir, "fig1_gap_cdf", gaps.series(200), "gap_seconds")

    # ---- Table 2 / §5 ----------------------------------------------------
    print("\nTable 2 — DNS information origin:")
    print(render_table2(study.breakdown))
    ttl_stats = study.ttl_violations()
    print(f"\n§5.2: {ttl_stats.summary()}")
    prefetch = study.prefetching()
    print(
        f"§5.2: {100 * prefetch.unused_lookup_fraction:.1f}% of lookups unused; "
        f"{100 * prefetch.prefetch_used_fraction:.1f}% of speculative lookups pay off\n"
    )

    # ---- Figure 2 --------------------------------------------------------
    delays = study.lookup_delays()
    print(ascii_cdf({"delay (s)": delays.series(120)}, title="Figure 2 (top): SC+R lookup delays"))
    print(f"median {1000 * delays.median:.1f} ms, p75 {1000 * delays.p75:.1f} ms\n")
    export_series(outdir, "fig2_lookup_delay_cdf", delays.series(200), "delay_seconds")

    contribution = study.contribution()
    series = {"all": contribution.series("all", 120)}
    if contribution.sc_cdf:
        series["SC"] = contribution.series("sc", 120)
    if contribution.r_cdf:
        series["R"] = contribution.series("r", 120)
    print(ascii_cdf(series, title="Figure 2 (bottom): DNS %% contribution"))
    export_series(outdir, "fig2_contribution_cdf", contribution.series("all", 200), "percent")

    quadrant = study.significance_quadrant()
    print("§6 significance quadrant (of SC+R):")
    for label, value in quadrant.as_rows():
        print(f"  {label:<22} {100 * value:5.1f}%")
    print(f"  -> significant for {100 * quadrant.significant_of_all:.1f}% of ALL connections\n")

    # ---- Figure 3 / §7 ---------------------------------------------------
    print("§7 shared-cache hit rates:", {k: f"{100 * v:.1f}%" for k, v in study.hit_rates().items()})
    r_delays = study.r_delays()
    print(
        ascii_cdf(
            {name: cdf.series(100) for name, cdf in sorted(r_delays.items())},
            title="Figure 3 (top): R lookup delay by platform",
        )
    )
    for name, cdf in sorted(r_delays.items()):
        export_series(outdir, f"fig3_r_delay_{name}", cdf.series(200), "delay_seconds")

    throughput = study.throughput()
    series = {name: cdf.series(100) for name, cdf in sorted(throughput.cdfs.items())}
    if throughput.google_filtered:
        series["google-filtered"] = throughput.google_filtered.series(100)
    print(ascii_cdf(series, title="Figure 3 (bottom): throughput by platform"))
    print(
        f"connectivitycheck share: google {100 * throughput.connectivity_share_google:.1f}% "
        f"vs others {100 * throughput.connectivity_share_other:.1f}%\n"
    )
    for name, cdf in sorted(throughput.cdfs.items()):
        export_series(outdir, f"fig3_throughput_{name}", cdf.series(200), "bytes_per_second")

    # ---- §8 / Table 3 ----------------------------------------------------
    whole_house = study.whole_house()
    print(
        f"\n§8 whole-house cache: {100 * whole_house.moved_fraction_of_all:.1f}% of all "
        f"connections move to LC (SC: {100 * whole_house.sc_moved_fraction:.0f}%, "
        f"R: {100 * whole_house.r_moved_fraction:.0f}%)"
    )
    print("\nTable 3 — refreshing expiring names:")
    comparison = study.refresh()
    print(render_table3(comparison))
    print(f"lookup blowup: {comparison.lookup_blowup:.0f}x")


if __name__ == "__main__":
    main()
