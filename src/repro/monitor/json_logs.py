"""JSON-streaming log support (Zeek's ``LogAscii::use_json`` format).

Many modern Zeek deployments write one JSON object per line instead of
TSV. This module writes that shape for both logs, using Zeek's field
names, and parses it one line at a time for
:func:`repro.monitor.logs.parse_lines`, which imports it on the first
JSON line it meets:

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


def _load_object(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogFormatError("expected a JSON object")
    return payload


def _require(payload: dict, field: str):
    if field not in payload:
        raise LogFormatError(f"missing field {field!r}")
    return payload[field]


def _dns_from_json(line: str, fields: object = None) -> DnsRecord:
    """Build one :class:`DnsRecord` from a JSON line.

    The per-line parser :func:`repro.monitor.logs.parse_lines` calls;
    *fields* (the TSV column map) is unused, since an object names its
    own fields. Like the TSV parser it names no line number.
    """
    payload = _load_object(line)
    try:
        answers_data = payload.get("answers", []) or []
        ttls = payload.get("TTLs", []) or []
        types = payload.get("answer_types", []) or []
        if ttls and len(ttls) != len(answers_data):
            raise LogFormatError(f"{len(answers_data)} answers but {len(ttls)} TTLs")
        answers = tuple(
            DnsAnswer(
                data=str(data),
                ttl=float(ttls[i]) if ttls else 0.0,
                rtype=str(types[i]) if i < len(types) else "A",
            )
            for i, data in enumerate(answers_data)
        )
        ts = float(_require(payload, "ts"))
        rtt = float(payload.get("rtt", 0.0))
        check_finite("ts", ts)
        check_elapsed("rtt", rtt)
        for answer in answers:
            check_finite("answer TTL", answer.ttl)
        return DnsRecord(
            ts=ts,
            uid=str(_require(payload, "uid")),
            orig_h=str(_require(payload, "id.orig_h")),
            orig_p=int(_require(payload, "id.orig_p")),
            resp_h=str(_require(payload, "id.resp_h")),
            resp_p=int(payload.get("id.resp_p", 53)),
            proto=Proto.parse(str(payload.get("proto", "udp"))),
            query=str(_require(payload, "query")),
            qtype=str(payload.get("qtype_name", "A")),
            rcode=str(payload.get("rcode_name", "NOERROR")),
            rtt=rtt,
            answers=answers,
        )
    except TypeError as exc:
        raise LogFormatError(str(exc)) from exc


def _conn_from_json(line: str, fields: object = None) -> ConnRecord:
    """Build one :class:`ConnRecord` from a JSON line; see :func:`_dns_from_json`."""
    payload = _load_object(line)
    try:
        ts = float(_require(payload, "ts"))
        duration = float(payload.get("duration", 0.0))
        orig_bytes = int(payload.get("orig_bytes", 0))
        resp_bytes = int(payload.get("resp_bytes", 0))
        check_finite("ts", ts)
        check_elapsed("duration", duration)
        if orig_bytes < 0 or resp_bytes < 0:
            raise LogFormatError("byte counts cannot be negative")
        return ConnRecord(
            ts=ts,
            uid=str(_require(payload, "uid")),
            orig_h=str(_require(payload, "id.orig_h")),
            orig_p=int(_require(payload, "id.orig_p")),
            resp_h=str(_require(payload, "id.resp_h")),
            resp_p=int(_require(payload, "id.resp_p")),
            proto=Proto.parse(str(_require(payload, "proto"))),
            service=str(payload.get("service", "-")),
            duration=duration,
            orig_bytes=orig_bytes,
            resp_bytes=resp_bytes,
            conn_state=str(payload.get("conn_state", "SF")),
        )
    except TypeError as exc:
        raise LogFormatError(str(exc)) from exc


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
