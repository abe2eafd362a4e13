"""One record source: every reader shape accepts Zeek TSV, Zeek JSON and RBLG.

One generated trace is written in each format. Every ``analyze`` mode
must then print the same report whichever format it reads, and the
JSON log must stream, tail across a rotation, quarantine a torn line
and convert like the TSV log does. The file also pins the two ingest
rules the shared line loop owns: a malformed line is named by its line
number exactly once, and Zeek's unset byte counts read as 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import threading
import time

import pytest

from repro.cli import EXIT_DATA, main
from repro.core.context import ContextStudy
from repro.monitor.logs import DNS_FIELDS, write_header

#: Every ``analyze`` mode a log can be read in, by test id.
MODES = {
    "batch": (),
    "lenient": ("--lenient",),
    "streaming": ("--streaming",),
    "exact": ("--streaming", "--exact-stats"),
    "streaming-lenient": ("--streaming", "--lenient"),
    "exact-lenient": ("--streaming", "--exact-stats", "--lenient"),
}


def _run(*argv: str) -> tuple[int, str, str]:
    """``repro-dns *argv`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def logs(tmp_path_factory) -> dict[str, tuple[str, str]]:
    """The seed-3 trace (2 houses, 1 h) as (dns, conn) paths per format."""
    paths = {}
    for fmt, flag, suffix in (("tsv", "tsv", "log"), ("json", "json", "log"), ("rblg", "bin", "rblg")):
        out = str(tmp_path_factory.mktemp(fmt))
        code, _, err = _run(
            "generate", "--houses", "2", "--hours", "1", "--seed", "3",
            "--format", flag, "--out", out,
        )
        assert code == 0, err
        paths[fmt] = (os.path.join(out, f"dns.{suffix}"), os.path.join(out, f"conn.{suffix}"))
    return paths


@pytest.fixture(scope="module")
def tsv_reports(logs) -> dict[str, str]:
    """The TSV stdout of every mode: the reference the other formats match."""
    dns_path, conn_path = logs["tsv"]
    reports = {}
    for mode, flags in MODES.items():
        code, out, err = _run("analyze", *flags, "--dns", dns_path, "--conn", conn_path)
        assert code == 0, err
        reports[mode] = out
    return reports


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("fmt", ["json", "rblg"])
def test_every_format_prints_the_tsv_report(logs, tsv_reports, fmt, mode):
    dns_path, conn_path = logs[fmt]
    code, out, err = _run("analyze", *MODES[mode], "--dns", dns_path, "--conn", conn_path)
    assert code == 0, err
    assert out == tsv_reports[mode]


def test_streaming_reads_mixed_formats(logs, tsv_reports):
    code, out, err = _run(
        "analyze", "--streaming", "--dns", logs["rblg"][0], "--conn", logs["json"][1]
    )
    assert code == 0, err
    assert out == tsv_reports["streaming"]


def test_follow_tails_a_json_log_across_rotation(logs, tsv_reports, tmp_path):
    with open(logs["json"][0], encoding="utf-8") as stream:
        lines = stream.readlines()
    half = len(lines) // 2
    path = str(tmp_path / "dns.log")
    with open(path, "w", encoding="utf-8") as stream:
        stream.writelines(lines[:half])

    def rotate() -> None:
        time.sleep(0.5)
        os.rename(path, str(tmp_path / "dns.log.1"))
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(lines[half:])

    writer = threading.Thread(target=rotate, daemon=True)
    writer.start()
    code, out, err = _run(
        "analyze", "--streaming", "--follow", "--idle-timeout-s", "2",
        "--dns", path, "--conn", logs["json"][1],
    )
    writer.join()
    assert code == 0, err
    assert out == tsv_reports["streaming"]


def test_follow_refuses_rblg(logs):
    dns_path, conn_path = logs["rblg"]
    code, _, err = _run(
        "analyze", "--streaming", "--follow", "--idle-timeout-s", "1",
        "--dns", dns_path, "--conn", conn_path,
    )
    assert code == EXIT_DATA
    assert "RBLG" in err


def test_lenient_quarantines_a_torn_json_line(logs, tmp_path):
    with open(logs["json"][0], encoding="utf-8") as stream:
        lines = stream.readlines()
    torn = lines[4][: len(lines[4]) // 2] + "\n"
    path = str(tmp_path / "dns.log")
    with open(path, "w", encoding="utf-8") as stream:
        stream.writelines(lines[:4] + [torn] + lines[4:])
    conn_path = logs["json"][1]
    code, _, err = _run("analyze", "--dns", path, "--conn", conn_path)
    assert code == EXIT_DATA
    assert "line 5: invalid JSON" in err
    code, _, err = _run("analyze", "--lenient", "--dns", path, "--conn", conn_path)
    assert code == 0, err
    assert f"dns: {len(lines)} records, 1 quarantined lines" in err
    assert "  line 5: invalid JSON" in err


def test_convert_json_to_rblg_and_back_equals_tsv(logs, tmp_path):
    binary, back = str(tmp_path / "dns.rblg"), str(tmp_path / "dns.log")
    code, out, err = _run("convert", "--kind", "dns", logs["json"][0], binary)
    assert code == 0, err
    assert out.endswith("dns records, RBLG)\n")
    code, out, err = _run("convert", binary, back)
    assert code == 0, err
    assert out.endswith("dns records, TSV)\n")
    with open(back, "rb") as converted, open(logs["tsv"][0], "rb") as direct:
        assert converted.read() == direct.read()


# -- the line loop owns the line number --------------------------------------

DNS_ROW = (
    "100.000000\tD1\t10.77.0.10\t40000\t8.8.8.8\t53\tudp\twww.example.com\tA\t"
    "NOERROR\t0.020000\t93.184.216.34\t300.000000\tA\n"
)
CONN_LOG = (
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\t"
    "service\tduration\torig_bytes\tresp_bytes\tconn_state\n"
    "100.030000\tC1\t10.77.0.10\t50000\t93.184.216.34\t443\ttcp\tssl\t"
    "1.000000\t100\t200\tSF\n"
)


def _dns_log(path: str, *rows: str) -> str:
    with open(path, "w", encoding="utf-8") as stream:
        write_header(stream, "dns", DNS_FIELDS)
        stream.writelines(rows)
    return path


@pytest.fixture
def conn_log(tmp_path) -> str:
    path = str(tmp_path / "conn.log")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(CONN_LOG)
    return path


def test_strict_error_names_the_line_of_an_unknown_protocol(tmp_path, conn_log):
    sctp = DNS_ROW.replace("\tudp\t", "\tsctp\t").replace("D1", "D2")
    dns_path = _dns_log(str(tmp_path / "dns.log"), DNS_ROW, sctp)
    code, _, err = _run("analyze", "--dns", dns_path, "--conn", conn_log)
    assert code == EXIT_DATA
    assert "error: line 5: unknown protocol 'sctp'" in err


def test_lenient_reason_names_the_line_once(tmp_path, conn_log):
    short = "\t".join(DNS_ROW.split("\t")[:11]) + "\n"
    dns_path = _dns_log(str(tmp_path / "dns.log"), DNS_ROW, short)
    code, _, err = _run("analyze", "--lenient", "--dns", dns_path, "--conn", conn_log)
    assert code == 0, err
    assert "  line 5: missing field 'answers'\n" in err
    assert "line 5: line 5:" not in err


# -- Zeek's unset byte counts ---------------------------------------------------

UNSET_CONN = {
    # Zeek TSV writes an unset field as "-".
    "tsv": CONN_LOG.replace("1.000000\t100\t200", "-\t-\t-"),
    # Zeek JSON leaves an unset field out of the object.
    "json": (
        '{"ts":100.03,"uid":"C1","id.orig_h":"10.77.0.10","id.orig_p":50000,'
        '"id.resp_h":"93.184.216.34","id.resp_p":443,"proto":"tcp",'
        '"service":"ssl","conn_state":"S0"}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(UNSET_CONN))
def test_unset_duration_and_byte_counts_read_as_zero(tmp_path, fmt):
    dns_path = _dns_log(str(tmp_path / "dns.log"), DNS_ROW)
    conn_path = str(tmp_path / "conn.log")
    with open(conn_path, "w", encoding="utf-8") as stream:
        stream.write(UNSET_CONN[fmt])
    (conn,) = ContextStudy.from_logs(dns_path, conn_path).trace.conns
    assert (conn.duration, conn.orig_bytes, conn.resp_bytes) == (0.0, 0, 0)
