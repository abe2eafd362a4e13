"""Report blocks that several reports print read alike in each of them.

The batch report, the exact streaming report and the sketch summary
share the failure-rate, census, §6 quadrant and threshold blocks. On a
trace generated under SERVFAIL and timeout injection, so that the
failure-rate block prints, each shared block must print byte for byte
alike wherever it appears, and the failure counts must be the
per-resolver tallies of the DNS log.
"""

from __future__ import annotations

import contextlib
import io
import os
import re

import pytest

from repro.cli import main
from repro.core.classify import collect_failure_stats
from repro.monitor.logs import load_dns_log

MODES = {
    "batch": (),
    "sketch": ("--streaming",),
    "exact": ("--streaming", "--exact-stats"),
}

FAILURE_LINE = re.compile(
    r"  (\S+): (\d+) queries, (\d+) SERVFAIL, (\d+) timeout, (\d+) REFUSED, "
    r"(\d+) NXDOMAIN \(\d+\.\d\d% failed\)"
)


@pytest.fixture(scope="module")
def faulted(tmp_path_factory) -> tuple[str, str]:
    """3 houses × 2 h, seed 4, with 5% SERVFAIL and 5% timeouts."""
    out = str(tmp_path_factory.mktemp("faulted"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "generate", "--houses", "3", "--hours", "2", "--seed", "4",
            "--servfail-rate", "0.05", "--timeout-rate", "0.05", "--out", out,
        ])
    assert code == 0
    return os.path.join(out, "dns.log"), os.path.join(out, "conn.log")


@pytest.fixture(scope="module")
def reports(faulted) -> dict[str, str]:
    dns_path, conn_path = faulted
    printed = {}
    for mode, flags in MODES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", *flags, "--dns", dns_path, "--conn", conn_path])
        assert code == 0
        printed[mode] = out.getvalue()
    return printed


def _block(report: str, title: str) -> list[str]:
    """The lines from the line *title* up to the next blank line."""
    lines = report.split("\n")
    start = lines.index(title)
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


def test_failure_block_is_shared_and_counts_the_dns_log(faulted, reports):
    block = _block(reports["batch"], "Resolver failure rates:")
    assert block == _block(reports["exact"], "Resolver failure rates:")
    stats = collect_failure_stats(load_dns_log(faulted[0]))
    failed = sorted(r for r, s in stats.items() if s.failures or s.nxdomains)
    rows = [FAILURE_LINE.fullmatch(line) for line in block[1:]]
    assert all(rows) and [row.group(1) for row in rows] == failed
    for row in rows:
        tally = stats[row.group(1)]
        counts = tuple(int(value) for value in row.groups()[1:])
        assert counts == (
            tally.queries, tally.servfails, tally.timeouts, tally.refused, tally.nxdomains
        )
    assert sum(stats[resolver].servfails for resolver in failed)


def test_failure_block_prints_alike_in_every_mode(reports):
    blocks = [_block(report, "Resolver failure rates:") for report in reports.values()]
    assert len(blocks[0]) > 1 and blocks.count(blocks[0]) == len(MODES)


def test_census_and_quadrant_blocks_are_exact_in_sketch_mode(reports):
    census = _block(reports["exact"], "Pairing census (§4):")
    sketched = _block(reports["sketch"], "Pairing census (§4):")
    # The sketch summary adds the §5.2 unused-lookup line to the census.
    assert sketched[:-1] == census
    assert sketched[-1].startswith("  unused lookups (§5.2): ")
    title = "§6 significance quadrant (share of blocked connections):"
    assert _block(reports["sketch"], title) == _block(reports["exact"], title)


def test_threshold_rows_are_shared(reports):
    exact = _block(reports["exact"], "Per-resolver SC/R thresholds:")
    sketch = _block(reports["sketch"], "Per-resolver SC/R thresholds (final):")
    assert len(exact) > 1 and exact[1:] == sketch[1:]
