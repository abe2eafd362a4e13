"""The numeric ingest rule, applied alike by the TSV, JSON and RBLG readers.

``ts``, ``rtt``, ``duration`` and every answer TTL must be finite, and
``rtt`` and ``duration`` must not be negative. A violation raises
:class:`LogFormatError` naming the line (TSV, JSON) or block (RBLG);
lenient TSV ingest quarantines the line instead. Without the rule a NaN
sorts silently into a wrong order statistic.

The range rule rides along: a port is 0–65535 and a byte count
0–2^64−1, the widths RBLG stores them in, so a text log that reads can
also be converted.
"""

from __future__ import annotations

import io
import math
import re

import pytest

from repro.cli import EXIT_DATA, main
from repro.errors import LogFormatError
from repro.monitor.binlog import (
    encode_conn_binlog,
    encode_dns_binlog,
    read_conn_binlog,
    read_dns_binlog,
)
from repro.monitor.json_logs import write_conn_json, write_dns_json
from repro.monitor.logs import (
    IngestReport,
    parse_lines,
    save_conn_log,
    save_dns_log,
    write_conn_log,
    write_dns_log,
)
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto


def _dns(index: int) -> DnsRecord:
    return DnsRecord(
        ts=100.0 + index, uid=f"D{index}", orig_h="10.77.0.10", orig_p=40000 + index,
        resp_h="8.8.8.8", resp_p=53, query="www.example.com", rtt=0.02,
        answers=(DnsAnswer("93.184.216.34", 300.0),),
    )


def _conn(index: int) -> ConnRecord:
    return ConnRecord(
        ts=100.5 + index, uid=f"C{index}", orig_h="10.77.0.10", orig_p=50000 + index,
        resp_h="93.184.216.34", resp_p=443, proto=Proto.TCP, duration=1.5,
        orig_bytes=100, resp_bytes=900,
    )


def _tsv_dns(records):
    buffer = io.StringIO()
    write_dns_log(buffer, records)
    return list(parse_lines(io.StringIO(buffer.getvalue()), "dns"))


def _tsv_conn(records):
    buffer = io.StringIO()
    write_conn_log(buffer, records)
    return list(parse_lines(io.StringIO(buffer.getvalue()), "conn"))


def _json_dns(records):
    buffer = io.StringIO()
    write_dns_json(buffer, records)
    return list(parse_lines(io.StringIO(buffer.getvalue()), "dns"))


def _json_conn(records):
    buffer = io.StringIO()
    write_conn_json(buffer, records)
    return list(parse_lines(io.StringIO(buffer.getvalue()), "conn"))


def _rblg_dns(records):
    return read_dns_binlog(encode_dns_binlog(records, block_records=1))


def _rblg_conn(records):
    return read_conn_binlog(encode_conn_binlog(records, block_records=1))


# (round trip, where the second of three records sits): TSV data starts
# after three header lines; RBLG holds one record per block here.
FORMATS = {
    "tsv": (_tsv_dns, _tsv_conn, "line 5"),
    "json": (_json_dns, _json_conn, "line 2"),
    "rblg": (_rblg_dns, _rblg_conn, "block 1"),
}

FIELDS = {
    "ts": ("dns", lambda value: {"ts": value}),
    "rtt": ("dns", lambda value: {"rtt": value}),
    "answer TTL": ("dns", lambda value: {"answers": (DnsAnswer("93.184.216.34", value),)}),
    "conn ts": ("conn", lambda value: {"ts": value}),
    "duration": ("conn", lambda value: {"duration": value}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_non_finite_value_rejected(fmt, field, value):
    read_dns, read_conn, location = FORMATS[fmt]
    kind, override = FIELDS[field]
    make, read = (_dns, read_dns) if kind == "dns" else (_conn, read_conn)
    records = [make(0), make(1)._replace(**override(value)), make(2)]
    name = field.removeprefix("conn ")
    with pytest.raises(LogFormatError, match=rf"{location}: {name} must be finite"):
        read(records)


def test_rblg_nan_does_not_hide_a_later_negative_rtt():
    # min() over [nan, -0.5] returns nan, so a min-based negativity
    # scan alone passes this block.
    records = [_dns(0)._replace(rtt=math.nan), _dns(1)._replace(rtt=-0.5)]
    with pytest.raises(LogFormatError, match="block 0: rtt"):
        read_dns_binlog(encode_dns_binlog(records))


@pytest.mark.parametrize(
    "read, record",
    [
        (_json_dns, _dns(1)._replace(rtt=-0.5)),
        (_json_conn, _conn(1)._replace(duration=-0.5)),
        (_json_conn, _conn(1)._replace(resp_bytes=-1)),
    ],
    ids=["rtt", "duration", "bytes"],
)
def test_json_negative_values_rejected(read, record):
    with pytest.raises(LogFormatError, match="line 1: .*cannot be negative"):
        read([record])


def test_lenient_tsv_quarantines_the_line():
    buffer = io.StringIO()
    write_dns_log(buffer, [_dns(0), _dns(1)._replace(rtt=math.nan), _dns(2)])
    report = IngestReport("dns")
    records = list(parse_lines(io.StringIO(buffer.getvalue()), "dns", report))
    assert [record.uid for record in records] == ["D0", "D2"]
    assert [line.line_number for line in report.quarantined] == [5]
    assert "rtt must be finite" in report.quarantined[0].reason


def test_analyze_refuses_a_nan_rtt_and_lenient_drops_it(tmp_path, capsys):
    dns_path, conn_path = str(tmp_path / "dns.log"), str(tmp_path / "conn.log")
    dns_records = [_dns(i) for i in range(20)]
    dns_records[7] = dns_records[7]._replace(rtt=math.nan)
    save_dns_log(dns_path, dns_records)
    # Each connection starts 10 ms after its lookup completes: blocked.
    save_conn_log(conn_path, [_conn(i)._replace(ts=100.03 + i) for i in range(20)])
    assert main(["analyze", "--dns", dns_path, "--conn", conn_path]) == EXIT_DATA
    assert "rtt must be finite" in capsys.readouterr().err
    assert main(["analyze", "--lenient", "--dns", dns_path, "--conn", conn_path]) == 0
    captured = capsys.readouterr()
    assert "1 quarantined" in captured.err
    assert "nan" not in captured.out


# (kind, field override, reason): each is a value RBLG cannot store.
OUT_OF_RANGE = {
    "dns orig_p 70000": ("dns", {"orig_p": 70000}, "port out of u16 range: 70000"),
    "dns resp_p -5": ("dns", {"resp_p": -5}, "port out of u16 range: -5"),
    "conn orig_p -1": ("conn", {"orig_p": -1}, "port out of u16 range: -1"),
    "conn resp_p 65536": ("conn", {"resp_p": 65536}, "port out of u16 range: 65536"),
    "conn orig_bytes 2^70": (
        "conn", {"orig_bytes": 2**70}, f"byte count out of u64 range: {2**70}",
    ),
    "conn resp_bytes 2^64": (
        "conn", {"resp_bytes": 2**64}, f"byte count out of u64 range: {2**64}",
    ),
}

WRITERS = {
    ("tsv", "dns"): write_dns_log,
    ("tsv", "conn"): write_conn_log,
    ("json", "dns"): write_dns_json,
    ("json", "conn"): write_conn_json,
}


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_out_of_range_port_or_byte_count_is_a_malformed_line(fmt, case, lenient):
    kind, override, reason = OUT_OF_RANGE[case]
    make = _dns if kind == "dns" else _conn
    records = [make(0), make(1)._replace(**override), make(2)]
    buffer = io.StringIO()
    WRITERS[fmt, kind](buffer, records)
    lines = io.StringIO(buffer.getvalue())
    number = 5 if fmt == "tsv" else 2
    if not lenient:
        with pytest.raises(LogFormatError, match=rf"^line {number}: {re.escape(reason)}$"):
            list(parse_lines(lines, kind))
        return
    report = IngestReport(kind)
    assert list(parse_lines(lines, kind, report)) == [records[0], records[2]]
    assert [(line.line_number, line.reason) for line in report.quarantined] == [
        (number, reason)
    ]


def test_convert_names_the_out_of_range_line(tmp_path, capsys):
    source, target = str(tmp_path / "conn.log"), str(tmp_path / "conn.rblg")
    records = [_conn(i) for i in range(10)]
    records[6] = records[6]._replace(orig_p=70000)
    save_conn_log(source, records)
    assert main(["convert", source, target]) == EXIT_DATA
    assert "line 10: port out of u16 range: 70000" in capsys.readouterr().err
    assert main(["convert", "--lenient", source, target]) == 0
    assert "line 10: port out of u16 range: 70000" in capsys.readouterr().err
    assert read_conn_binlog(open(target, "rb").read()) == records[:6] + records[7:]


# (kind, column, spelling): Python's int() and float() read each of
# these as a number, and Zeek never writes any of them.
MISSPELLED = {
    "dns resp_p 4_43": ("dns", "id.resp_p", "4_43"),
    "dns resp_p +443": ("dns", "id.resp_p", "+443"),
    "dns resp_p blank": ("dns", "id.resp_p", " 443"),
    "dns resp_p arabic-indic": ("dns", "id.resp_p", "٤٤٣"),
    "dns ts 1_51.5": ("dns", "ts", "1_51.5"),
    "dns ts vertical tab": ("dns", "ts", "\x0b151.5"),
    "dns rtt +0.02": ("dns", "rtt", "+0.02"),
    "dns TTL 3_00": ("dns", "TTLs", "3_00.000000"),
    "conn resp_p 4_43": ("conn", "id.resp_p", "4_43"),
    "conn resp_p +443": ("conn", "id.resp_p", "+443"),
    "conn resp_p blank": ("conn", "id.resp_p", " 443"),
    "conn resp_p arabic-indic": ("conn", "id.resp_p", "٤٤٣"),
    "conn ts 1_51.5": ("conn", "ts", "1_51.5"),
    "conn ts vertical tab": ("conn", "ts", "\x0b151.5"),
    "conn duration 1_0.5": ("conn", "duration", "1_0.5"),
    "conn orig_bytes 1_000": ("conn", "orig_bytes", "1_000"),
}


def _tsv_with(kind: str, values: dict[str, str]) -> tuple[list, io.StringIO]:
    """Three records as a TSV log whose second row (line 5) has *values*
    written into its columns."""
    make = _dns if kind == "dns" else _conn
    records = [make(0), make(1), make(2)]
    buffer = io.StringIO()
    WRITERS["tsv", kind](buffer, records)
    lines = buffer.getvalue().split("\n")
    fields = lines[2].split("\t")[1:]
    columns = lines[4].split("\t")
    for name, value in values.items():
        columns[fields.index(name)] = value
    lines[4] = "\t".join(columns)
    return records, io.StringIO("\n".join(lines))


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("case", sorted(MISSPELLED))
def test_a_number_zeek_never_writes_is_a_malformed_line(case, lenient):
    kind, column, spelling = MISSPELLED[case]
    records, lines = _tsv_with(kind, {column: spelling})
    reason = f"malformed number {spelling!r}"
    if not lenient:
        with pytest.raises(LogFormatError, match=rf"^line 5: {re.escape(reason)}$"):
            list(parse_lines(lines, kind))
        return
    report = IngestReport(kind)
    assert list(parse_lines(lines, kind, report)) == [records[0], records[2]]
    assert [(line.line_number, line.reason) for line in report.quarantined] == [(5, reason)]


def test_zeek_spellings_at_the_boundaries_still_read():
    # A warm-up row's negative ts, the port and byte-count bounds, and
    # Zeek's unset and (empty) markers.
    _, lines = _tsv_with("conn", {
        "ts": "-3.500000", "id.orig_p": "0", "id.resp_p": "65535", "duration": "-",
        "orig_bytes": "18446744073709551615", "resp_bytes": "-",
    })
    conn = list(parse_lines(lines, "conn"))[1]
    assert (conn.ts, conn.orig_p, conn.resp_p, conn.duration) == (-3.5, 0, 65535, 0.0)
    assert (conn.orig_bytes, conn.resp_bytes) == (2**64 - 1, 0)
    _, lines = _tsv_with("dns", {
        "ts": "-0.000001", "rtt": "-", "answers": "(empty)", "TTLs": "(empty)",
        "answer_types": "(empty)",
    })
    dns = list(parse_lines(lines, "dns"))[1]
    assert (dns.ts, dns.rtt, dns.answers) == (-0.000001, 0.0, ())
