"""Header-compiled TSV rows and the JSON rows that share their shape.

Each ``#fields`` line is compiled once into a row parser that gathers
the columns it needs in one call. These tests pin what that must keep:
a generated trace reads back as written, any column layout (real Zeek
adds columns of its own, and a rotated-in file may lay them out anew)
reads as the plain one, a missing column is named in the documented
order, and strings that repeat from row to row are one shared object.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.monitor.json_logs import write_conn_json, write_dns_json
from repro.monitor.logs import (
    CONN_FIELDS,
    DNS_FIELDS,
    parse_lines,
    write_conn_log,
    write_dns_log,
)
from repro.monitor.records import ConnRecord, Proto
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig

from tests.strategies import full_conn_records, full_dns_records

WRITERS = {
    "tsv": {"dns": write_dns_log, "conn": write_conn_log},
    "json": {"dns": write_dns_json, "conn": write_conn_json},
}


def _written(fmt: str, kind: str, records: list) -> str:
    buffer = io.StringIO()
    WRITERS[fmt][kind](buffer, records)
    return buffer.getvalue()


def _read(text: str, kind: str) -> list:
    return list(parse_lines(io.StringIO(text), kind))


# -- a whole generated trace ------------------------------------------------------


@pytest.fixture(scope="module")
def trace():
    """CLI seed 3, 4 houses × 6 h."""
    return generate_trace(ScenarioConfig(seed=3, houses=4, duration=6 * 3600.0))


def _six(value: float) -> float:
    """*value* as TSV's ``%.6f`` writes and reads it."""
    return float(f"{value:.6f}")


def test_tsv_reads_the_trace_back_rounded_to_six_decimals(trace):
    assert (len(trace.dns), len(trace.conns)) == (5940, 12312)
    dns = [
        record._replace(
            ts=_six(record.ts),
            rtt=_six(record.rtt),
            answers=tuple(answer._replace(ttl=_six(answer.ttl)) for answer in record.answers),
        )
        for record in trace.dns
    ]
    conns = [
        record._replace(ts=_six(record.ts), duration=_six(record.duration))
        for record in trace.conns
    ]
    assert _read(_written("tsv", "dns", trace.dns), "dns") == dns
    assert _read(_written("tsv", "conn", trace.conns), "conn") == conns


def test_json_reads_the_trace_back_exactly(trace):
    assert _read(_written("json", "dns", trace.dns), "dns") == trace.dns
    assert _read(_written("json", "conn", trace.conns), "conn") == trace.conns


# -- column layouts -----------------------------------------------------------------

#: Columns real Zeek writes that the readers do not need, with a value.
ZEEK_EXTRAS = {
    "trans_id": "4711",
    "qclass": "1",
    "AA": "F",
    "history": "ShADadFf",
    "orig_pkts": "3",
    "tunnel_parents": "(empty)",
}

KINDS = {
    "dns": (full_dns_records, DNS_FIELDS),
    "conn": (full_conn_records, CONN_FIELDS),
}


@st.composite
def layouts(draw, fields: tuple[str, ...]) -> tuple[str, ...]:
    """The kind's columns and some of Zeek's extras, in any order.

    The first column holds a timestamp, a uid or an extra, never free
    text: a row that began with ``#`` would be a header, and a first
    row that began with ``{`` would make the log JSON.
    """
    extras = draw(st.lists(st.sampled_from(sorted(ZEEK_EXTRAS)), unique=True))
    lead = draw(st.sampled_from(["ts", "uid", *extras]))
    rest = [name for name in (*fields, *extras) if name != lead]
    return (lead, *draw(st.permutations(rest)))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_column_layout_reads_as_the_plain_one(kind, data):
    strategy, fields = KINDS[kind]
    plain = _written("tsv", kind, data.draw(strategy()))
    # Split on "\n" alone: str.splitlines also breaks at characters a
    # field may hold, such as form feed.
    rows = [dict(zip(fields, line.split("\t"))) for line in plain.split("\n")[3:-1]]
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    lines = ["#separator \\x09", f"#path\t{kind}"]
    for part in (rows[:cut], rows[cut:]):
        layout = data.draw(layouts(fields))
        lines.append("\t".join(("#fields", *layout)))
        lines.extend(
            "\t".join(row[name] if name in row else ZEEK_EXTRAS[name] for name in layout)
            for row in part
        )
    assert _read("\n".join(lines) + "\n", kind) == _read(plain, kind)


# -- which fault a row names --------------------------------------------------------

CONN_ROW = dict(
    zip(CONN_FIELDS, "101.0 C1 10.77.0.10 44444 1.2.3.4 443 tcp ssl 1.5 100 900 SF".split())
)


def test_a_header_short_of_a_column_fails_only_at_its_first_row():
    layout = [name for name in CONN_FIELDS if name != "service"]
    header = "\t".join(["#fields", *layout]) + "\n"
    assert _read(header, "conn") == []
    row = "\t".join(CONN_ROW[name] for name in layout) + "\n"
    with pytest.raises(LogFormatError, match="^line 2: missing field 'service'$"):
        _read(header + row, "conn")


@pytest.mark.parametrize(
    "kind, missing", [("dns", "answers"), ("conn", "duration")], ids=["dns", "conn"]
)
def test_a_short_row_names_the_first_missing_column(kind, missing):
    _, fields = KINDS[kind]
    header = "\t".join(["#fields", *fields]) + "\n"
    row = "\t".join(("100.0", "X1", "10.77.0.10", "44444", "8.8.8.8")) + "\n"
    with pytest.raises(LogFormatError, match=f"^line 2: missing field '{missing}'$"):
        _read(header + row, kind)


def test_a_short_row_reports_its_width_before_its_values():
    # Two answers and one TTL, and the row stops before rcode_name: the
    # width check comes first, so the missing column is named.
    layout = [name for name in DNS_FIELDS if name != "rcode_name"] + ["rcode_name"]
    values = {
        "ts": "100.0", "uid": "D1", "id.orig_h": "10.77.0.10", "id.orig_p": "44444",
        "id.resp_h": "8.8.8.8", "id.resp_p": "53", "proto": "udp", "query": "q.com",
        "qtype_name": "A", "rtt": "0.01", "answers": "1.2.3.4,5.6.7.8", "TTLs": "300",
        "answer_types": "A,A",
    }
    text = "\t".join(["#fields", *layout]) + "\n" + "\t".join(values[n] for n in layout[:-1])
    with pytest.raises(LogFormatError, match="^line 2: missing field 'rcode_name'$"):
        _read(text + "\n", "dns")


# -- shared strings -----------------------------------------------------------------


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_rows_of_one_read_share_their_repeated_strings(fmt):
    conns = [
        ConnRecord(
            ts=100.0 + index, uid=f"C{index}", orig_h="10.77.0.10", orig_p=50000 + index,
            resp_h="93.184.216.34", resp_p=443, proto=Proto.TCP, service="ssl",
        )
        for index in range(2)
    ]
    first, second = _read(_written(fmt, "conn", conns), "conn")
    assert first == conns[0] and second == conns[1]
    assert first.orig_h is second.orig_h
    assert first.resp_h is second.resp_h
    assert first.service is second.service
