"""What the benchmark runs: workloads, scale, command lines, output checks.

``run.py`` imports this module and must stay small, so it imports
nothing from the program under test. The set-up child (``inputs.py``)
imports it too, so both sides build the same scenarios.
"""

from __future__ import annotations

import re

WORKLOADS = ("report-default", "analyze-tsv", "stream-rblg", "generate-pressure")

DEFAULT_SEED = 1

HOUSES = 8
"""Houses per scenario: the repo's bench scenario (8 houses x 168 h, seed 1)."""

HOURS = 12.0
"""Simulated span of the scenario (about 49 000 records). At this span the
records, not the interpreter and its imports (about 38 MiB), set the
batch workloads' peak RSS, and a job still takes 1-5 s on a 2-vCPU host,
so a run holds several."""

SCENARIO_SEEDS = (
    4, 24, 30, 48, 49, 51, 55, 57, 60, 63, 77, 88,
    104, 106, 112, 138, 139, 146, 149, 152, 162, 176, 181, 185,
)
"""CLI seeds whose 8-house x 12 h trace holds 48 200-50 200 records: within
2% of the median (49 200) over CLI seeds 1-210. A scenario's size varies
by a CV of 16% from seed to seed (heavy-tailed sessions) and a job's time
and memory follow it, so the benchmark seed picks its scenario from this
list: every seed then gives a different scenario of nearly the same size,
and what spreads from run to run is the host and the program, not the
input size."""

PRESSURE_SCENARIO_SEEDS = (
    33, 36, 48, 52, 80, 84, 88, 97, 111, 112, 118,
    127, 139, 152, 171, 174, 175, 176, 193, 195, 196,
)
"""The same for generate-pressure, whose faults, retries and flash crowds
change the size (CV 18%): CLI seeds whose 8-house x 12 h trace under
:data:`PRESSURE` holds 56 500-58 500 records, within 2.5% of the median
(57 000) over CLI seeds 1-200."""

REFERENCE_S = 0.05
"""The job launcher's reference computation (``job.reference_s``) on this
benchmark's reference host: end-to-end times are reported as if every
job had run at the speed that reading implies."""

WINDOW_S = 3600.0
"""``--window-s`` of stream-rblg: shorter than the span, so the windowed
drain of the incremental pairing index runs."""

SNAPSHOTS_PER_SPAN = 4
"""stream-rblg checkpoints every span/4 of stream time: several snapshots."""

PINNED_SCENARIO = (1, 8, 168.0)
"""Seed, houses and hours of the repo's pinned golden digests."""
PINNED_TRACE_DIGEST = "82512c6f236a12d85ce4d16f0bfcfe9c77e4137e05ff75a0a175660a3b9607a6"
PINNED_REPORT_SHA256 = "6b2f5dfd5b7c2737e0f21e01f96db9ee58a554c593c269ff549eb1c278c89ded"

# Fault injection plus capped serve-stale caches and fd budgets on both
# the stub and the resolver side, plus flash crowds. Stub-only pressure
# leaves the resolver caches without a single eviction. Many short flash
# crowds rather than a few long ones keep the work of a run steady.
PRESSURE = {
    "servfail_rate": 0.02,
    "timeout_rate": 0.02,
    "stub_cache_capacity": 16,
    "stub_cache_policy": "serve-stale",
    "stub_stale_ttl": 900.0,
    "stub_fd_budget": 3,
    "resolver_cache_capacity": 512,
    "resolver_cache_policy": "serve-stale",
    "resolver_stale_ttl": 900.0,
    "resolver_fd_budget": 8,
    "flash_crowd_rate": 4.0,
    "flash_crowd_duration": 120.0,
    "flash_crowd_intensity": 4.0,
}


def scenario_seed(workload: str, seed: int) -> int:
    """The CLI ``--seed`` of the scenario of a *workload* run with benchmark *seed*."""
    seeds = PRESSURE_SCENARIO_SEEDS if workload == "generate-pressure" else SCENARIO_SEEDS
    return seeds[(seed - 1) % len(seeds)]


def is_pinned(seed: int, hours: float) -> bool:
    """Is this the scenario the repo's golden digests are pinned at?"""
    return (seed, HOUSES, hours) == PINNED_SCENARIO


def checkpoint_interval_s(hours: float) -> float:
    return hours * 3600.0 / SNAPSHOTS_PER_SPAN


def pressure_flags() -> list[str]:
    flags = []
    for name, value in PRESSURE.items():
        flags += ["--" + name.replace("_", "-"), str(value)]
    return flags


def job_argv(
    workload: str, seed: int, hours: float, work_dir: str, checkpoint: bool = True
) -> list[str]:
    """The ``repro-dns`` arguments of one job (paths relative to the checkout).

    These command lines are part of the benchmark: a change that retires
    a flag they pass must keep it accepted with the same meaning.
    """
    scenario = ["--houses", str(HOUSES), "--hours", repr(hours), "--seed", str(seed)]
    if workload == "report-default":
        return ["report", *scenario, "--workers", "1"]
    if workload == "analyze-tsv":
        return [
            "analyze",
            "--dns", f"{work_dir}/dns.log",
            "--conn", f"{work_dir}/conn.log",
            "--workers", "1",
        ]
    if workload == "stream-rblg":
        argv = [
            "analyze",
            "--streaming",
            "--dns", f"{work_dir}/dns.rblg",
            "--conn", f"{work_dir}/conn.rblg",
            "--window-s", repr(WINDOW_S),
            "--workers", "1",
        ]
        if checkpoint:
            argv += [
                "--checkpoint", f"{work_dir}/stream.ckpt",
                "--checkpoint-interval-s", repr(checkpoint_interval_s(hours)),
            ]
        return argv
    if workload == "generate-pressure":
        return [
            "generate", *scenario, "--format", "bin", "--out", f"{work_dir}/out",
            "--workers", "1", *pressure_flags(),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks -----------------------------------------------------------
#
# Jobs are checked on aggregates, not on whole-report bytes, so that a
# change of report layout (such as one renderer for every path) does not
# read as a failure while any change of a number does.

_KNEE = re.compile(r"knee at (-?[0-9.]+) ms")
_CENSUS = re.compile(r"connections: (\d+), paired: (\d+)")
_PEAK_LIVE = re.compile(r"peak live DNS records: (\d+)")
_WROTE = re.compile(r"^wrote \S+ \((\d+) records\)$", re.MULTILINE)


def table2_counts(text: str) -> dict[str, int] | None:
    """Class -> connection count from the first printed Table 2."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.split()[:2] != ["Class", "Desc."]:
            continue
        counts = {}
        for row in lines[index + 2 :]:
            tokens = row.split()
            if not tokens:
                break
            counts[tokens[0]] = int(tokens[-2])
        return counts
    return None


def summarize_output(workload: str, text: str) -> dict:
    """The aggregates a job printed, in the shape of its reference."""
    if workload == "generate-pressure":
        return {"written": [int(count) for count in _WROTE.findall(text)]}
    summary: dict = {"table2": table2_counts(text)}
    if workload == "stream-rblg":
        census = _CENSUS.search(text)
        peak = _PEAK_LIVE.search(text)
        summary["census"] = [int(census[1]), int(census[2])] if census else None
        summary["peak_live"] = int(peak[1]) if peak else None
    else:
        knee = _KNEE.search(text)
        summary["knee_ms"] = knee[1] if knee else None
    return summary


def output_error(workload: str, text: str, reference: dict) -> str | None:
    """Why a job's output disagrees with its reference (None when it agrees)."""
    printed = summarize_output(workload, text)
    for key, value in printed.items():
        if value != reference[key]:
            return f"{key}: printed {value!r}, reference {reference[key]!r}"
    return None
