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
from operator import itemgetter
from sys import intern
from typing import IO, Iterable

from repro.errors import LogFormatError
from repro.monitor.records import (
    ConnRecord,
    DnsRecord,
    Proto,
    build_answers,
    check_byte_count,
    check_elapsed,
    check_finite,
    check_port,
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
    except RecursionError:
        raise LogFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise LogFormatError("expected a JSON object")
    return payload


# The JSON type of each field a record reads. An integer is not a
# float or a boolean, and a number is not a boolean: json.loads reads
# true as True, which int() takes for 1. Other fields are ignored, as
# the TSV reader ignores other columns.
_STRING = (frozenset({str}), "a string")
_INTEGER = (frozenset({int}), "an integer")
_NUMBER = (frozenset({int, float}), "a number")
_STRINGS = (_STRING[0], "an array of strings")
_NUMBERS = (_NUMBER[0], "an array of numbers")
_ENDPOINTS = {
    "ts": _NUMBER, "uid": _STRING, "id.orig_h": _STRING, "id.orig_p": _INTEGER,
    "id.resp_h": _STRING, "id.resp_p": _INTEGER, "proto": _STRING,
}
_DNS_TYPES = {
    **_ENDPOINTS, "query": _STRING, "qtype_name": _STRING, "rcode_name": _STRING, "rtt": _NUMBER,
}
_CONN_TYPES = {
    **_ENDPOINTS, "service": _STRING, "duration": _NUMBER, "orig_bytes": _INTEGER,
    "resp_bytes": _INTEGER, "conn_state": _STRING,
}

# The fields a record cannot go without, in the order the first missing
# one is named.
_DNS_REQUIRED = itemgetter("ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "query")
_CONN_REQUIRED = itemgetter(
    "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "proto"
)


def _check_types(payload: dict, types: dict) -> None:
    for name, value in payload.items():
        rule = types.get(name)
        if rule is not None and type(value) not in rule[0]:
            raise LogFormatError(f"field {name!r} must be {rule[1]}")


def _array(payload: dict, name: str, rule: tuple) -> list:
    """The array *name*, absent or null read as empty."""
    value = payload.get(name)
    if value is None:
        return []
    if type(value) is not list or not set(map(type, value)) <= rule[0]:
        raise LogFormatError(f"field {name!r} must be {rule[1]}")
    return value


def _required(payload: dict, fields: itemgetter) -> tuple:
    try:
        return fields(payload)
    except KeyError as exc:
        raise LogFormatError(f"missing field {exc.args[0]!r}") from None


def _dns_from_json(line: str) -> DnsRecord:
    """Build one :class:`DnsRecord` from a JSON line.

    The row parser :func:`repro.monitor.logs.parse_lines` calls on a
    JSON log. Like the TSV rows it names no line number, and shares the
    strings that repeat from row to row through :func:`sys.intern`.
    """
    payload = _load_object(line)
    _check_types(payload, _DNS_TYPES)
    answers = build_answers(
        _array(payload, "answers", _STRINGS),
        _array(payload, "TTLs", _NUMBERS),
        _array(payload, "answer_types", _STRINGS),
    )
    ts, uid, orig_h, orig_p, resp_h, query = _required(payload, _DNS_REQUIRED)
    get = payload.get
    ts = float(ts)
    rtt = float(get("rtt", 0.0))
    check_finite("ts", ts)
    check_elapsed("rtt", rtt)
    for answer in answers:
        check_finite("answer TTL", answer.ttl)
    # Positional, in field order, as the TSV rows build it.
    return DnsRecord(
        ts, uid, intern(orig_h), check_port(orig_p), intern(resp_h),
        check_port(get("id.resp_p", 53)), intern(query), intern(get("qtype_name", "A")),
        intern(get("rcode_name", "NOERROR")), rtt, answers, Proto.parse(get("proto", "udp")),
    )


def _conn_from_json(line: str) -> ConnRecord:
    """Build one :class:`ConnRecord` from a JSON line; see :func:`_dns_from_json`."""
    payload = _load_object(line)
    _check_types(payload, _CONN_TYPES)
    ts, uid, orig_h, orig_p, resp_h, resp_p, proto = _required(payload, _CONN_REQUIRED)
    get = payload.get
    ts = float(ts)
    duration = float(get("duration", 0.0))
    orig_bytes = get("orig_bytes", 0)
    resp_bytes = get("resp_bytes", 0)
    check_finite("ts", ts)
    check_elapsed("duration", duration)
    check_byte_count(orig_bytes)
    check_byte_count(resp_bytes)
    return ConnRecord(
        ts, uid, intern(orig_h), check_port(orig_p), intern(resp_h), check_port(resp_p),
        Proto.parse(proto), duration, orig_bytes, resp_bytes, intern(get("service", "-")),
        intern(get("conn_state", "SF")),
    )


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
