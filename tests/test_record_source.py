"""One record source: every reader shape accepts Zeek TSV, Zeek JSON and RBLG.

One generated trace is written in each format. Every ``analyze`` mode
must then print the same report whichever format it reads, and the
JSON log must stream, tail across a rotation, quarantine a torn line
and convert like the TSV log does. The file also pins the ingest rules
the shared line loop owns: a malformed line is named by its line number
exactly once, Zeek's unset byte counts read as 0, a JSON field of the
wrong type is a malformed line, a CRLF log reads alike whole and
followed, and a conn row of a flow without TCP or UDP is dropped, not
malformed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import threading
import time

import pytest

from repro.cli import EXIT_DATA, main
from repro.core.context import ContextStudy
from repro.errors import LogFormatError
from repro.monitor.logs import (
    DNS_FIELDS,
    IngestReport,
    open_records,
    parse_lines,
    write_conn_log,
    write_dns_log,
    write_header,
)
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

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


def test_a_deeply_nested_json_line_is_malformed(logs, tsv_reports, tmp_path):
    with open(logs["json"][1], encoding="utf-8") as stream:
        lines = stream.readlines()
    nested = '{"ts": ' + "[" * 100_000 + "]" * 100_000 + "}\n"
    path = str(tmp_path / "conn.log")
    with open(path, "w", encoding="utf-8") as stream:
        stream.writelines(lines[:4] + [nested] + lines[4:])
    dns_path = logs["json"][0]
    code, _, err = _run("analyze", "--dns", dns_path, "--conn", path)
    assert code == EXIT_DATA
    assert "error: line 5: invalid JSON: nested too deeply" in err
    code, out, err = _run("analyze", "--lenient", "--dns", dns_path, "--conn", path)
    assert code == 0, err
    assert "  line 5: invalid JSON: nested too deeply" in err
    assert out == tsv_reports["lenient"]


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


# -- bytes that are not UTF-8 ----------------------------------------------------

BAD_LINE = 10


def _with_bad_bytes(src: str, dst: str, drop: bool = False) -> str:
    """Copy the log at *src* with bytes ``ff fe`` inside line BAD_LINE,
    or with that line left out (*drop*)."""
    with open(src, "rb") as stream:
        lines = stream.readlines()
    bad = lines[BAD_LINE - 1]
    assert not bad.startswith(b"#")
    lines[BAD_LINE - 1] = b"" if drop else bad[:20] + b"\xff\xfe" + bad[20:]
    with open(dst, "wb") as stream:
        stream.writelines(lines)
    return dst


@pytest.mark.parametrize("mode", ["batch", "streaming", "exact"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_strict_read_names_the_line_with_bad_bytes(logs, tmp_path, fmt, mode):
    dns_path, conn_path = logs[fmt]
    bad = _with_bad_bytes(conn_path, str(tmp_path / "conn.log"))
    code, out, err = _run("analyze", *MODES[mode], "--dns", dns_path, "--conn", bad)
    assert code == EXIT_DATA
    assert f"error: line {BAD_LINE}: invalid UTF-8 byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["lenient", "streaming-lenient", "exact-lenient"])
def test_lenient_read_quarantines_the_line_with_bad_bytes(logs, tmp_path, mode):
    dns_path, conn_path = logs["tsv"]
    bad = _with_bad_bytes(conn_path, str(tmp_path / "bad.log"))
    without = _with_bad_bytes(conn_path, str(tmp_path / "without.log"), drop=True)
    code, out, err = _run("analyze", *MODES[mode], "--dns", dns_path, "--conn", bad)
    assert code == 0, err
    assert f"  line {BAD_LINE}: invalid UTF-8 byte 0xff" in err
    code, expected, _ = _run("analyze", *MODES[mode], "--dns", dns_path, "--conn", without)
    assert code == 0
    assert out == expected


def test_follow_refuses_or_quarantines_the_line_with_bad_bytes(logs, tmp_path):
    dns_path, conn_path = logs["tsv"]
    bad = _with_bad_bytes(conn_path, str(tmp_path / "bad.log"))
    without = _with_bad_bytes(conn_path, str(tmp_path / "without.log"), drop=True)
    follow = ("analyze", "--streaming", "--exact-stats", "--follow", "--idle-timeout-s", "0.5")
    code, _, err = _run(*follow, "--dns", dns_path, "--conn", bad)
    assert code == EXIT_DATA
    assert f"error: line {BAD_LINE}: invalid UTF-8 byte 0xff" in err
    code, out, err = _run(*follow, "--lenient", "--dns", dns_path, "--conn", bad)
    assert code == 0, err
    assert f"  line {BAD_LINE}: invalid UTF-8 byte 0xff" in err
    code, expected, _ = _run(*follow, "--dns", dns_path, "--conn", without)
    assert code == 0
    assert out == expected


# -- JSON fields of the wrong type ----------------------------------------------

JSON_ROWS = {
    "dns": {
        "ts": 100.0, "uid": "D1", "id.orig_h": "10.77.0.10", "id.orig_p": 40000,
        "id.resp_h": "8.8.8.8", "id.resp_p": 53, "proto": "udp", "query": "q.com",
        "rtt": 0.02, "answers": ["1.2.3.4"], "TTLs": [300.0], "answer_types": ["A"],
    },
    "conn": {
        "ts": 100.5, "uid": "C1", "id.orig_h": "10.77.0.10", "id.orig_p": 50000,
        "id.resp_h": "1.2.3.4", "id.resp_p": 443, "proto": "tcp", "service": "ssl",
        "duration": 1.5, "orig_bytes": 100, "resp_bytes": 900, "conn_state": "SF",
    },
}

#: case: (kind, field, hostile value, reason). At the parent of the type
#: checks each of these read as a different record (a string's letters
#: as seven answers, 1.7 or true as port 1, a list spelled as a query)
#: or escaped as an uncaught OverflowError.
HOSTILE_JSON = {
    "answers-string": ("dns", "answers", "1.2.3.4", "field 'answers' must be an array of strings"),
    "answer-number": ("dns", "answers", [1234], "field 'answers' must be an array of strings"),
    "ttl-string": ("dns", "TTLs", ["300"], "field 'TTLs' must be an array of numbers"),
    "ttl-bool": ("dns", "TTLs", [True], "field 'TTLs' must be an array of numbers"),
    "type-number": ("dns", "answer_types", [1], "field 'answer_types' must be an array of strings"),
    "port-float": ("dns", "id.orig_p", 1.7, "field 'id.orig_p' must be an integer"),
    "port-bool": ("dns", "id.orig_p", True, "field 'id.orig_p' must be an integer"),
    "query-list": ("dns", "query", ["q.com"], "field 'query' must be a string"),
    "ts-string": ("dns", "ts", "100.0", "field 'ts' must be a number"),
    "rtt-bool": ("dns", "rtt", True, "field 'rtt' must be a number"),
    "bytes-float": ("conn", "orig_bytes", 1.5, "field 'orig_bytes' must be an integer"),
    "duration-bool": ("conn", "duration", False, "field 'duration' must be a number"),
    "proto-null": ("conn", "proto", None, "field 'proto' must be a string"),
    "ts-overflow": ("conn", "ts", 10**400, "int too large to convert to float"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
def test_a_json_field_of_the_wrong_type_is_a_malformed_line(case):
    kind, name, value, reason = HOSTILE_JSON[case]
    good = json.dumps(JSON_ROWS[kind])
    text = "\n".join([good, json.dumps({**JSON_ROWS[kind], name: value}), good]) + "\n"
    with pytest.raises(LogFormatError, match=f"^line 2: {re.escape(reason)}$"):
        list(parse_lines(io.StringIO(text), kind))
    report = IngestReport(kind)
    assert len(list(parse_lines(io.StringIO(text), kind, report))) == 2
    assert [(line.line_number, line.reason) for line in report.quarantined] == [(2, reason)]


# -- CRLF line ends ----------------------------------------------------------------

CRLF_RECORDS = {
    # The CNAME answer reads as an address when answer_types is lost.
    "dns": [
        DnsRecord(
            ts=100.5, uid="D1", orig_h="10.77.0.10", orig_p=40000, resp_h="8.8.8.8",
            resp_p=53, query="www.example.com", rtt=0.0125,
            answers=(DnsAnswer("edge.cdn.net", 60.0, "CNAME"), DnsAnswer("1.2.3.4", 60.0)),
        )
    ],
    "conn": [
        ConnRecord(
            ts=101.0, uid="C1", orig_h="10.77.0.10", orig_p=50000, resp_h="1.2.3.4",
            resp_p=443, proto=Proto.TCP, duration=1.5, orig_bytes=100, resp_bytes=900,
        )
    ],
}


@pytest.mark.parametrize("kind", sorted(CRLF_RECORDS))
def test_a_crlf_log_reads_alike_whole_and_followed(tmp_path, kind):
    buffer = io.StringIO()
    (write_dns_log if kind == "dns" else write_conn_log)(buffer, CRLF_RECORDS[kind])
    path = tmp_path / f"{kind}.log"
    path.write_bytes(buffer.getvalue().replace("\n", "\r\n").encode())
    whole = list(open_records(str(path), kind))
    followed = list(
        open_records(str(path), kind, follow=True, idle_timeout_s=0.3, poll_interval_s=0.05)
    )
    assert whole == followed == CRLF_RECORDS[kind]


# -- flows without TCP or UDP ------------------------------------------------------

#: Zeek's conn rows for flows with no TCP or UDP header, in any case.
NO_TRANSPORT_ROWS = (
    ("icmp", 8, 0), ("ICMP", 3, 3), ("unknown_transport", 0, 0), ("Unknown_Transport", 0, 0),
)


def _with_no_transport_rows(src: str, dst: str, fmt: str) -> str:
    """Copy the conn log at *src* with one row per :data:`NO_TRANSPORT_ROWS`
    entry spread among its data lines, each at its neighbour's timestamp."""
    with open(src, encoding="utf-8") as stream:
        lines = stream.readlines()
    data = [index for index, line in enumerate(lines) if not line.startswith("#")]
    picks = [data[0], data[len(data) // 3], data[2 * len(data) // 3], data[-1]]
    for count, (at, (proto, orig_p, resp_p)) in enumerate(
        sorted(zip(picks, NO_TRANSPORT_ROWS), reverse=True)
    ):
        neighbour = lines[at]
        if fmt == "json":
            ts = json.loads(neighbour)["ts"]
            row = json.dumps({
                "ts": ts, "uid": f"CX{count}", "id.orig_h": "10.77.0.10", "id.orig_p": orig_p,
                "id.resp_h": "192.0.2.9", "id.resp_p": resp_p, "proto": proto,
                "duration": 0.5, "orig_bytes": 64, "resp_bytes": 64, "conn_state": "OTH",
            }) + "\n"
        else:
            ts = neighbour.split("\t")[0]
            row = f"{ts}\tCX{count}\t10.77.0.10\t{orig_p}\t192.0.2.9\t{resp_p}\t{proto}\t-\t-\t-\t-\tOTH\n"
        lines.insert(at + 1, row)
    with open(dst, "w", encoding="utf-8") as stream:
        stream.writelines(lines)
    return dst


@pytest.mark.parametrize("mode", ["batch", "streaming"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_strict_reads_drop_rows_without_tcp_or_udp(logs, tsv_reports, tmp_path, fmt, mode):
    dns_path, conn_path = logs[fmt]
    conn = _with_no_transport_rows(conn_path, str(tmp_path / "conn.log"), fmt)
    code, out, err = _run("analyze", *MODES[mode], "--dns", dns_path, "--conn", conn)
    assert code == 0, err
    assert out == tsv_reports[mode]
    assert err == ""


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_lenient_reads_count_rows_without_tcp_or_udp(logs, tsv_reports, tmp_path, fmt):
    dns_path, conn_path = logs[fmt]
    conn = _with_no_transport_rows(conn_path, str(tmp_path / "conn.log"), fmt)
    clean = len(list(open_records(conn_path, "conn")))
    report = IngestReport("conn")
    assert list(open_records(conn, "conn", report=report)) == list(open_records(conn_path, "conn"))
    assert (report.parsed, report.dropped, report.quarantined) == (clean, 4, [])
    assert report.ok
    code, out, err = _run("analyze", "--lenient", "--dns", dns_path, "--conn", conn)
    assert code == 0, err
    assert out == tsv_reports["lenient"]
    assert err == (
        f"ingest: conn: {clean} records, 4 rows without TCP or UDP dropped, "
        "no quarantined lines\n"
    )


def test_convert_drops_rows_without_tcp_or_udp(logs, tmp_path):
    conn_path = logs["tsv"][1]
    conn = _with_no_transport_rows(conn_path, str(tmp_path / "conn.log"), "tsv")
    for source, target in ((conn_path, "clean.rblg"), (conn, "dropped.rblg")):
        code, _, err = _run("convert", source, str(tmp_path / target))
        assert code == 0, err
    assert (tmp_path / "dropped.rblg").read_bytes() == (tmp_path / "clean.rblg").read_bytes()


def test_other_conn_protocols_stay_malformed(tmp_path, conn_log):
    dns_path = _dns_log(str(tmp_path / "dns.log"), DNS_ROW)
    with open(conn_log, encoding="utf-8") as stream:
        text = stream.read()
    sctp = str(tmp_path / "sctp.log")
    with open(sctp, "w", encoding="utf-8") as stream:
        stream.write(text.replace("\ttcp\t", "\tsctp\t"))
    code, _, err = _run("analyze", "--dns", dns_path, "--conn", sctp)
    assert code == EXIT_DATA
    assert "unknown protocol 'sctp'" in err
    # A DNS row never travels without TCP or UDP.
    icmp = DNS_ROW.replace("\tudp\t", "\ticmp\t")
    code, _, err = _run("analyze", "--dns", _dns_log(str(tmp_path / "d2.log"), icmp), "--conn", conn_log)
    assert code == EXIT_DATA
    assert "unknown protocol 'icmp'" in err
