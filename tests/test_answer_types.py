"""Answers logged without an ``answer_types`` column take their type from their data.

Real Zeek's ``dns.log`` has no ``answer_types`` column, and it lists an
A query's CNAME targets among its answers. An IPv4 literal reads as A,
an IPv6 literal as AAAA, and any other answer as a CNAME name, in the
TSV and JSON rows alike, so the target is never taken for an address
(``DnsRecord.addresses``) and a conversion to RBLG keeps the types.
"""

from __future__ import annotations

import contextlib
import io
import json

from repro.cli import main
from repro.monitor.json_logs import dns_record_to_json
from repro.monitor.logs import open_records, parse_lines, write_dns_log
from repro.monitor.records import DnsAnswer, DnsRecord, build_answers

#: A lookup as real Zeek logs it: a CNAME target, then the addresses.
RECORD = DnsRecord(
    12.5,
    "CZeek01",
    "10.0.0.7",
    51234,
    "8.8.8.8",
    53,
    "www.example.com",
    "A",
    "NOERROR",
    0.031,
    (
        DnsAnswer("www.example.com.cdn.net", 3600.0, "CNAME"),
        DnsAnswer("93.184.216.34", 300.0, "A"),
        DnsAnswer("2606:2800:220:1::1", 300.0, "AAAA"),
    ),
)
ADDRESSES = ("93.184.216.34", "2606:2800:220:1::1")


def zeek_tsv(records: list[DnsRecord]) -> list[str]:
    """*records* as a TSV ``dns.log`` without the ``answer_types`` column."""
    stream = io.StringIO()
    write_dns_log(stream, records)
    lines = stream.getvalue().splitlines()
    header = next(line for line in lines if line.startswith("#fields"))
    dropped = header.split("\t").index("answer_types")

    def drop(line: str) -> str:
        if line.startswith("#") and not line.startswith("#fields"):
            return line
        columns = line.split("\t")
        return "\t".join(columns[:dropped] + columns[dropped + 1 :])

    return [drop(line) for line in lines]


def zeek_json(records: list[DnsRecord]) -> list[str]:
    """*records* as JSON ``dns.log`` lines without ``answer_types``."""
    lines = []
    for record in records:
        payload = json.loads(dns_record_to_json(record))
        del payload["answer_types"]
        lines.append(json.dumps(payload))
    return lines


def test_a_tsv_row_without_answer_types_types_each_answer_by_its_data():
    lines = zeek_tsv([RECORD])
    assert not any("answer_types" in line for line in lines)
    (record,) = parse_lines(lines, "dns")
    assert record == RECORD
    assert record.addresses() == ADDRESSES


def test_a_json_row_without_answer_types_types_each_answer_by_its_data():
    (record,) = parse_lines(zeek_json([RECORD]), "dns")
    assert record == RECORD
    assert record.addresses() == ADDRESSES


def test_only_answers_past_the_types_vector_are_inferred():
    answers = build_answers(["a.example", "10.0.0.1", "b.example"], [], ["A"])
    assert [answer.rtype for answer in answers] == ["A", "A", "CNAME"]


def test_convert_to_rblg_keeps_the_inferred_types(tmp_path):
    text = tmp_path / "dns.log"
    text.write_text("\n".join(zeek_tsv([RECORD])) + "\n", encoding="utf-8")
    binary = str(tmp_path / "dns.rblg")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["convert", str(text), binary]) == 0
    assert list(open_records(binary, "dns")) == [RECORD]
