"""Zeek-style TSV logs, and the one record source behind every reader.

The on-disk format follows Zeek's ASCII logs closely enough to feel
familiar: ``#fields`` / ``#types`` header lines, tab-separated values,
``-`` for unset fields, and comma-separated vectors. Readers accept any
field order and ignore unknown fields, so logs written by other tools
(or future versions) still load.

:func:`open_records` reads a log in any of the three formats — Zeek
TSV, Zeek JSON (one object per line) or RBLG binary
(:mod:`repro.monitor.binlog`) — to end of file or, with ``follow``, as
it grows. Batch loads, streaming, tails, lenient reads and ``convert``
all go through it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator

from repro.errors import LogFormatError
from repro.monitor import binlog
from repro.monitor.records import (
    ConnRecord,
    DnsAnswer,
    DnsRecord,
    Proto,
    check_elapsed,
    check_finite,
)


@dataclass(frozen=True, slots=True)
class QuarantinedLine:
    """One malformed log line set aside by a lenient read."""

    line_number: int
    reason: str
    text: str


@dataclass(slots=True)
class IngestReport:
    """What a lenient log read parsed and what it quarantined.

    Real capture infrastructure produces the occasional truncated or
    corrupt line (disk-full, rotation races, mid-write crashes); the
    paper's conservative stance is to analyse what is unambiguous and
    account for the rest, not to abort. The caller creates the report
    and passes it to a reader as ``report=``; the reader counts parsed
    records into it and quarantines each malformed line with its line
    number and reason, so the discarded population can be audited once
    the reader has drained.
    """

    path_label: str
    parsed: int = 0
    quarantined: list[QuarantinedLine] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every line parsed cleanly."""
        return not self.quarantined

    @property
    def quarantine_fraction(self) -> float:
        """Share of data lines that had to be quarantined."""
        total = self.parsed + len(self.quarantined)
        if not total:
            return 0.0
        return len(self.quarantined) / total

    def summary(self) -> str:
        """A one-line human-readable digest."""
        if self.ok:
            return f"{self.path_label}: {self.parsed} records, no quarantined lines"
        return (
            f"{self.path_label}: {self.parsed} records, "
            f"{len(self.quarantined)} quarantined lines "
            f"({100.0 * self.quarantine_fraction:.2f}%)"
        )

_UNSET = "-"
_SEPARATOR = "\t"
_VECTOR_SEPARATOR = ","

DNS_FIELDS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "query",
    "qtype_name",
    "rcode_name",
    "rtt",
    "answers",
    "TTLs",
    "answer_types",
)

CONN_FIELDS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "service",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "conn_state",
)


def _format_float(value: float) -> str:
    return f"{value:.6f}"


def _escape(value: str) -> str:
    if value == "":
        return "(empty)"
    return value.replace(_SEPARATOR, " ")


def write_header(stream: IO[str], path_label: str, fields: tuple[str, ...]) -> None:
    """Write Zeek-style header lines."""
    stream.write("#separator \\x09\n")
    stream.write(f"#path\t{path_label}\n")
    stream.write("#fields\t" + _SEPARATOR.join(fields) + "\n")


def dns_record_to_line(record: DnsRecord) -> str:
    """Serialize one DNS record as a TSV line."""
    answers = _VECTOR_SEPARATOR.join(_escape(a.data) for a in record.answers) or _UNSET
    ttls = _VECTOR_SEPARATOR.join(_format_float(a.ttl) for a in record.answers) or _UNSET
    types = _VECTOR_SEPARATOR.join(a.rtype for a in record.answers) or _UNSET
    values = (
        _format_float(record.ts),
        record.uid,
        record.orig_h,
        str(record.orig_p),
        record.resp_h,
        str(record.resp_p),
        record.proto.value,
        _escape(record.query),
        record.qtype,
        record.rcode,
        _format_float(record.rtt),
        answers,
        ttls,
        types,
    )
    return _SEPARATOR.join(values)


def conn_record_to_line(record: ConnRecord) -> str:
    """Serialize one connection record as a TSV line."""
    values = (
        _format_float(record.ts),
        record.uid,
        record.orig_h,
        str(record.orig_p),
        record.resp_h,
        str(record.resp_p),
        record.proto.value,
        record.service or _UNSET,
        _format_float(record.duration),
        str(record.orig_bytes),
        str(record.resp_bytes),
        record.conn_state,
    )
    return _SEPARATOR.join(values)


def write_dns_log(stream: IO[str], records: Iterable[DnsRecord]) -> int:
    """Write a complete dns.log; returns the number of records written."""
    write_header(stream, "dns", DNS_FIELDS)
    count = 0
    for record in records:
        stream.write(dns_record_to_line(record) + "\n")
        count += 1
    return count


def write_conn_log(stream: IO[str], records: Iterable[ConnRecord]) -> int:
    """Write a complete conn.log; returns the number of records written."""
    write_header(stream, "conn", CONN_FIELDS)
    count = 0
    for record in records:
        stream.write(conn_record_to_line(record) + "\n")
        count += 1
    return count


def _field(columns: list[str], fields: dict[str, int], name: str) -> str:
    index = fields.get(name)
    if index is None or index >= len(columns):
        raise LogFormatError(f"missing field {name!r}")
    return columns[index]


def _parse_vector(text: str) -> list[str]:
    if text == _UNSET or text == "":
        return []
    return text.split(_VECTOR_SEPARATOR)


def _dns_from_tsv(line: str, fields: dict[str, int] | None) -> DnsRecord:
    """Build one :class:`DnsRecord` from a TSV data line."""
    if fields is None:
        raise LogFormatError("data before #fields header")
    columns = line.split(_SEPARATOR)
    answers_text = _field(columns, fields, "answers")
    ttls_text = _field(columns, fields, "TTLs")
    types_text = (
        _field(columns, fields, "answer_types") if "answer_types" in fields else _UNSET
    )
    answer_data = _parse_vector(answers_text)
    ttl_data = _parse_vector(ttls_text)
    type_data = _parse_vector(types_text)
    if ttl_data and len(ttl_data) != len(answer_data):
        raise LogFormatError(f"{len(answer_data)} answers but {len(ttl_data)} TTLs")
    answers = tuple(
        DnsAnswer(
            data=data,
            ttl=float(ttl_data[i]) if ttl_data else 0.0,
            rtype=type_data[i] if i < len(type_data) else "A",
        )
        for i, data in enumerate(answer_data)
    )
    rtt_text = _field(columns, fields, "rtt")
    rtt = 0.0 if rtt_text == _UNSET else float(rtt_text)
    ts = float(_field(columns, fields, "ts"))
    # Boundary validation: the record types are plain NamedTuples, so
    # untrusted values are checked here, where the bytes come in.
    check_finite("ts", ts)
    check_elapsed("rtt", rtt)
    for answer in answers:
        check_finite("answer TTL", answer.ttl)
    return DnsRecord(
        ts=ts,
        uid=_field(columns, fields, "uid"),
        orig_h=_field(columns, fields, "id.orig_h"),
        orig_p=int(_field(columns, fields, "id.orig_p")),
        resp_h=_field(columns, fields, "id.resp_h"),
        resp_p=int(_field(columns, fields, "id.resp_p")),
        proto=Proto.parse(_field(columns, fields, "proto")),
        query=_field(columns, fields, "query"),
        qtype=_field(columns, fields, "qtype_name"),
        rcode=_field(columns, fields, "rcode_name"),
        rtt=rtt,
        answers=answers,
    )


def _conn_from_tsv(line: str, fields: dict[str, int] | None) -> ConnRecord:
    """Build one :class:`ConnRecord` from a TSV data line."""
    if fields is None:
        raise LogFormatError("data before #fields header")
    columns = line.split(_SEPARATOR)
    # Zeek leaves duration and the byte counts unset on one-packet
    # connections.
    duration_text = _field(columns, fields, "duration")
    orig_text = _field(columns, fields, "orig_bytes")
    resp_text = _field(columns, fields, "resp_bytes")
    duration = 0.0 if duration_text == _UNSET else float(duration_text)
    orig_bytes = 0 if orig_text == _UNSET else int(orig_text)
    resp_bytes = 0 if resp_text == _UNSET else int(resp_text)
    ts = float(_field(columns, fields, "ts"))
    # Boundary validation (see _dns_from_tsv).
    check_finite("ts", ts)
    check_elapsed("duration", duration)
    if orig_bytes < 0 or resp_bytes < 0:
        raise LogFormatError("byte counts cannot be negative")
    return ConnRecord(
        ts=ts,
        uid=_field(columns, fields, "uid"),
        orig_h=_field(columns, fields, "id.orig_h"),
        orig_p=int(_field(columns, fields, "id.orig_p")),
        resp_h=_field(columns, fields, "id.resp_h"),
        resp_p=int(_field(columns, fields, "id.resp_p")),
        proto=Proto.parse(_field(columns, fields, "proto")),
        service=_field(columns, fields, "service"),
        duration=duration,
        orig_bytes=orig_bytes,
        resp_bytes=resp_bytes,
        conn_state=_field(columns, fields, "conn_state"),
    )


_TSV_PARSERS = {"dns": _dns_from_tsv, "conn": _conn_from_tsv}


def _json_parser(kind: str) -> Callable:
    # Imported on the first JSON line, so TSV and RBLG runs never load it.
    from repro.monitor import json_logs

    return json_logs._dns_from_json if kind == "dns" else json_logs._conn_from_json


def parse_lines(
    lines: Iterable[str], kind: str, report: IngestReport | None = None
) -> Iterator:
    """Parse a text log's *lines* into *kind* (``"dns"`` or ``"conn"``) records.

    The one line loop behind every text read, whole-file or tailed.
    ``#`` lines are headers, and each ``#fields`` line re-maps the
    columns, so a tail that crosses a rotation picks up the new file's
    layout. The first data line decides the format of the rest: ``{``
    starts Zeek JSON, anything else is TSV laid out by the latest
    ``#fields`` header. The row parsers name no location; this loop
    owns the line number. Without *report* a malformed line raises
    :class:`LogFormatError` as ``line N: <reason>``. With a report the
    line is quarantined into it with the bare reason, every parsed
    record is counted into it, and reading goes on.
    """
    parse = None
    fields: dict[str, int] | None = None
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line[0] == "#":
            if line.startswith("#fields"):
                parts = line.split(_SEPARATOR)
                fields = {name: index for index, name in enumerate(parts[1:])}
            continue
        if parse is None:
            parse = _json_parser(kind) if line.lstrip()[:1] == "{" else _TSV_PARSERS[kind]
        try:
            record = parse(line, fields)
        except (ValueError, LogFormatError) as exc:
            if report is None:
                raise LogFormatError(f"line {number}: {exc}") from exc
            report.quarantined.append(QuarantinedLine(number, str(exc), line))
            continue
        if report is not None:
            report.parsed += 1
        yield record


def open_records(
    path: str,
    kind: str,
    *,
    report: IngestReport | None = None,
    follow: bool = False,
    idle_timeout_s: float | None = None,
    poll_interval_s: float = 0.25,
) -> Iterator:
    """Lazily read the *kind* (``"dns"`` or ``"conn"``) records of the log at *path*.

    The one record source. An RBLG binlog is recognised by its 16-byte
    header (:func:`~repro.monitor.binlog.sniff_binlog`) and decoded
    block by block; any other file is a text log, Zeek TSV or JSON,
    read through :func:`parse_lines`. Records come in file order, and
    the file stays open until the iterator is exhausted or closed.

    *report* makes the read lenient (see :func:`parse_lines`). A binlog
    read only counts its records into it: each block is
    checksum-verified, and a corrupt one raises either way.
    ``follow=True`` tails a growing text log through :func:`tail_lines`,
    surviving rotation and truncation, until *idle_timeout_s* passes
    with no new data; a binlog is written whole and cannot be followed.
    """
    if kind not in _TSV_PARSERS:
        raise ValueError(f"kind must be 'dns' or 'conn', got {kind!r}")
    if binlog.sniff_binlog(path) is not None:
        if follow:
            raise LogFormatError("follow reads TSV and JSON logs, not RBLG binlogs")
        # Looked up on the module at call time: perfbench's tracer
        # wraps the module attribute, and the strict read must return
        # the decoder's own iterator.
        records = getattr(binlog, f"iter_{kind}_binlog")(path)
        return records if report is None else _counting(records, report)
    if follow:
        lines = tail_lines(path, poll_interval_s, idle_timeout_s)
        return parse_lines(lines, kind, report)
    return _read_text(path, kind, report)


def _read_text(path: str, kind: str, report: IngestReport | None) -> Iterator:
    with open(path, "r", encoding="utf-8") as stream:
        yield from parse_lines(stream, kind, report)


def _counting(records: Iterator, report: IngestReport) -> Iterator:
    for record in records:
        report.parsed += 1
        yield record


def save_dns_log(path: str, records: Iterable[DnsRecord]) -> int:
    """Write a dns.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_dns_log(stream, records)


def save_conn_log(path: str, records: Iterable[ConnRecord]) -> int:
    """Write a conn.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_conn_log(stream, records)


def load_dns_log(path: str, report: IngestReport | None = None) -> list[DnsRecord]:
    """Read every DNS record of the log at *path*, in any format.

    ``list(open_records(path, "dns", report=report))``: the batch read.
    """
    return list(open_records(path, "dns", report=report))


def load_conn_log(path: str, report: IngestReport | None = None) -> list[ConnRecord]:
    """Read every connection record of the log at *path*, in any format.

    See :func:`load_dns_log`.
    """
    return list(open_records(path, "conn", report=report))


def tail_lines(
    path: str,
    poll_interval_s: float = 0.25,
    idle_timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[str]:
    """Follow a growing log file, yielding complete lines as they land.

    The live-ingest primitive: reads in binary so byte positions are
    exact, buffers a partial trailing line until its newline arrives,
    and survives the two things log writers do to followers —

    * **truncation** (``copytruncate``-style rotation): the file's size
      drops below our read position; re-seek to the start and drop any
      buffered partial line, since its continuation is gone.
    * **rotation** (rename-and-recreate): the path's inode changes.
      The old stream is drained to EOF first — nothing more will be
      appended to a renamed-away file — then the new file is opened
      from the beginning. A buffered partial line from the old file is
      flushed as-is: the writer closed that file, so the line is final.

    A missing file (not yet created, or mid-rotation) is waited out.
    ``idle_timeout_s`` ends the tail after that much time with no new
    data; ``stop`` is polled between reads for cooperative shutdown.
    Decoding replaces invalid UTF-8 rather than raising, leaving
    malformed-line policy to the record-level parser.
    """
    if poll_interval_s <= 0.0:
        raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
    if idle_timeout_s is not None and idle_timeout_s <= 0.0:
        raise ValueError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
    stream: IO[bytes] | None = None
    inode: int | None = None
    buffer = b""
    last_data_s = time.monotonic()
    while True:
        if stream is None:
            try:
                stream = open(path, "rb")
            except FileNotFoundError:
                if stop is not None and stop():
                    return
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - last_data_s >= idle_timeout_s
                ):
                    return
                time.sleep(poll_interval_s)
                continue
            inode = os.fstat(stream.fileno()).st_ino
            buffer = b""
        chunk = stream.read(65536)
        if chunk:
            last_data_s = time.monotonic()
            buffer += chunk
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                yield buffer[:newline].decode("utf-8", errors="replace")
                buffer = buffer[newline + 1 :]
            continue
        # At EOF of the current stream: check for truncation, rotation,
        # shutdown, and idleness — in that order.
        size = os.fstat(stream.fileno()).st_size
        if size < stream.tell():
            stream.seek(0)
            buffer = b""
            continue
        rotated = False
        try:
            rotated = os.stat(path).st_ino != inode
        except FileNotFoundError:
            # Mid-rotation window: the old file persists via our fd;
            # keep polling it until the new file appears.
            pass
        if rotated:
            if buffer:
                yield buffer.decode("utf-8", errors="replace")
            stream.close()
            stream = None
            continue
        if stop is not None and stop():
            if buffer:
                yield buffer.decode("utf-8", errors="replace")
            stream.close()
            return
        if (
            idle_timeout_s is not None
            and time.monotonic() - last_data_s >= idle_timeout_s
        ):
            stream.close()
            return
        time.sleep(poll_interval_s)
