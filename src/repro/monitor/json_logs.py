"""JSON-streaming log support (Zeek's ``LogAscii::use_json`` format).

Many modern Zeek deployments write one JSON object per line instead of
TSV. This module reads and writes that shape for both logs, using Zeek's
field names, so the analysis pipeline accepts either format:

    {"ts": 100.5, "uid": "D1", "id.orig_h": "10.77.0.10", ...}
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.errors import LogFormatError
from repro.monitor.records import (
    ConnRecord,
    DnsAnswer,
    DnsRecord,
    Proto,
    check_elapsed,
    check_finite,
)


def dns_record_to_json(record: DnsRecord) -> str:
    """Serialize one DNS record as a JSON line."""
    payload = {
        "ts": record.ts,
        "uid": record.uid,
        "id.orig_h": record.orig_h,
        "id.orig_p": record.orig_p,
        "id.resp_h": record.resp_h,
        "id.resp_p": record.resp_p,
        "proto": record.proto.value,
        "query": record.query,
        "qtype_name": record.qtype,
        "rcode_name": record.rcode,
        "rtt": record.rtt,
        "answers": [answer.data for answer in record.answers],
        "TTLs": [answer.ttl for answer in record.answers],
        "answer_types": [answer.rtype for answer in record.answers],
    }
    return json.dumps(payload, separators=(",", ":"))


def conn_record_to_json(record: ConnRecord) -> str:
    """Serialize one connection record as a JSON line."""
    payload = {
        "ts": record.ts,
        "uid": record.uid,
        "id.orig_h": record.orig_h,
        "id.orig_p": record.orig_p,
        "id.resp_h": record.resp_h,
        "id.resp_p": record.resp_p,
        "proto": record.proto.value,
        "service": record.service,
        "duration": record.duration,
        "orig_bytes": record.orig_bytes,
        "resp_bytes": record.resp_bytes,
        "conn_state": record.conn_state,
    }
    return json.dumps(payload, separators=(",", ":"))


def _load_line(line: str, number: int) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"line {number}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogFormatError(f"line {number}: expected a JSON object")
    return payload


def _require(payload: dict, field: str, number: int):
    if field not in payload:
        raise LogFormatError(f"line {number}: missing field {field!r}")
    return payload[field]


def read_dns_json(stream: IO[str]) -> list[DnsRecord]:
    """Parse a JSON-streaming dns.log."""
    records: list[DnsRecord] = []
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        payload = _load_line(line, number)
        answers_data = payload.get("answers", []) or []
        ttls = payload.get("TTLs", []) or []
        types = payload.get("answer_types", []) or []
        if ttls and len(ttls) != len(answers_data):
            raise LogFormatError(
                f"line {number}: {len(answers_data)} answers but {len(ttls)} TTLs"
            )
        try:
            answers = tuple(
                DnsAnswer(
                    data=str(data),
                    ttl=float(ttls[i]) if ttls else 0.0,
                    rtype=str(types[i]) if i < len(types) else "A",
                )
                for i, data in enumerate(answers_data)
            )
            ts = float(_require(payload, "ts", number))
            rtt = float(payload.get("rtt", 0.0))
            check_finite("ts", ts)
            check_elapsed("rtt", rtt)
            for answer in answers:
                check_finite("answer TTL", answer.ttl)
            records.append(
                DnsRecord(
                    ts=ts,
                    uid=str(_require(payload, "uid", number)),
                    orig_h=str(_require(payload, "id.orig_h", number)),
                    orig_p=int(_require(payload, "id.orig_p", number)),
                    resp_h=str(_require(payload, "id.resp_h", number)),
                    resp_p=int(payload.get("id.resp_p", 53)),
                    proto=Proto.parse(str(payload.get("proto", "udp"))),
                    query=str(_require(payload, "query", number)),
                    qtype=str(payload.get("qtype_name", "A")),
                    rcode=str(payload.get("rcode_name", "NOERROR")),
                    rtt=rtt,
                    answers=answers,
                )
            )
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"line {number}: {exc}") from exc
    return records


def read_conn_json(stream: IO[str]) -> list[ConnRecord]:
    """Parse a JSON-streaming conn.log."""
    records: list[ConnRecord] = []
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        payload = _load_line(line, number)
        try:
            ts = float(_require(payload, "ts", number))
            duration = float(payload.get("duration", 0.0))
            orig_bytes = int(payload.get("orig_bytes", 0))
            resp_bytes = int(payload.get("resp_bytes", 0))
            check_finite("ts", ts)
            check_elapsed("duration", duration)
            if orig_bytes < 0 or resp_bytes < 0:
                raise ValueError("byte counts cannot be negative")
            records.append(
                ConnRecord(
                    ts=ts,
                    uid=str(_require(payload, "uid", number)),
                    orig_h=str(_require(payload, "id.orig_h", number)),
                    orig_p=int(_require(payload, "id.orig_p", number)),
                    resp_h=str(_require(payload, "id.resp_h", number)),
                    resp_p=int(_require(payload, "id.resp_p", number)),
                    proto=Proto.parse(str(_require(payload, "proto", number))),
                    service=str(payload.get("service", "-")),
                    duration=duration,
                    orig_bytes=orig_bytes,
                    resp_bytes=resp_bytes,
                    conn_state=str(payload.get("conn_state", "SF")),
                )
            )
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"line {number}: {exc}") from exc
    return records


def write_dns_json(stream: IO[str], records: Iterable[DnsRecord]) -> int:
    """Write a JSON-streaming dns.log; returns the record count."""
    count = 0
    for record in records:
        stream.write(dns_record_to_json(record) + "\n")
        count += 1
    return count


def write_conn_json(stream: IO[str], records: Iterable[ConnRecord]) -> int:
    """Write a JSON-streaming conn.log; returns the record count."""
    count = 0
    for record in records:
        stream.write(conn_record_to_json(record) + "\n")
        count += 1
    return count
