"""The numeric ingest rule, applied alike by the TSV, JSON and RBLG readers.

``ts``, ``rtt``, ``duration`` and every answer TTL must be finite, and
``rtt`` and ``duration`` must not be negative. A violation raises
:class:`LogFormatError` naming the line (TSV, JSON) or block (RBLG);
lenient TSV ingest quarantines the line instead. Without the rule a NaN
sorts silently into a wrong order statistic.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.cli import EXIT_DATA, main
from repro.errors import LogFormatError
from repro.monitor.binlog import (
    encode_conn_binlog,
    encode_dns_binlog,
    read_conn_binlog,
    read_dns_binlog,
)
from repro.monitor.json_logs import read_conn_json, read_dns_json, write_conn_json, write_dns_json
from repro.monitor.logs import (
    read_conn_log,
    read_dns_log,
    read_dns_log_lenient,
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
    return read_dns_log(io.StringIO(buffer.getvalue()))


def _tsv_conn(records):
    buffer = io.StringIO()
    write_conn_log(buffer, records)
    return read_conn_log(io.StringIO(buffer.getvalue()))


def _json_dns(records):
    buffer = io.StringIO()
    write_dns_json(buffer, records)
    return read_dns_json(io.StringIO(buffer.getvalue()))


def _json_conn(records):
    buffer = io.StringIO()
    write_conn_json(buffer, records)
    return read_conn_json(io.StringIO(buffer.getvalue()))


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
    records, report = read_dns_log_lenient(io.StringIO(buffer.getvalue()))
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
