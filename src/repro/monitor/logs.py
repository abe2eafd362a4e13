"""Zeek-style TSV log serialization.

The on-disk format follows Zeek's ASCII logs closely enough to feel
familiar: ``#fields`` / ``#types`` header lines, tab-separated values,
``-`` for unset fields, and comma-separated vectors. Readers accept any
field order and ignore unknown fields, so logs written by other tools
(or future versions) still load.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from repro.errors import LogFormatError
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


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What a lenient log read parsed and what it quarantined.

    Real capture infrastructure produces the occasional truncated or
    corrupt line (disk-full, rotation races, mid-write crashes); the
    paper's conservative stance is to analyse what is unambiguous and
    account for the rest, not to abort. ``quarantined`` preserves line
    numbers and reasons so the discarded population can be audited.
    """

    path_label: str
    parsed: int
    quarantined: tuple[QuarantinedLine, ...] = ()

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


def _parse_header(lines: Iterator[tuple[int, str]]) -> dict[str, int]:
    """Consume header lines until #fields is found; returns name->index."""
    for number, line in lines:
        if not line.startswith("#"):
            raise LogFormatError(f"line {number}: data before #fields header")
        if line.startswith("#fields"):
            parts = line.rstrip("\n").split(_SEPARATOR)
            return {name: index for index, name in enumerate(parts[1:])}
    raise LogFormatError("log ended before a #fields header")


def _field(columns: list[str], index_by_name: dict[str, int], name: str, line_number: int) -> str:
    index = index_by_name.get(name)
    if index is None or index >= len(columns):
        raise LogFormatError(f"line {line_number}: missing field {name!r}")
    return columns[index]


def _parse_vector(text: str) -> list[str]:
    if text == _UNSET or text == "":
        return []
    return text.split(_VECTOR_SEPARATOR)


def _dns_from_columns(
    columns: list[str], index_by_name: dict[str, int], number: int
) -> DnsRecord:
    """Build one :class:`DnsRecord` from a split data line."""
    answers_text = _field(columns, index_by_name, "answers", number)
    ttls_text = _field(columns, index_by_name, "TTLs", number)
    types_text = (
        _field(columns, index_by_name, "answer_types", number)
        if "answer_types" in index_by_name
        else _UNSET
    )
    answer_data = _parse_vector(answers_text)
    ttl_data = _parse_vector(ttls_text)
    type_data = _parse_vector(types_text)
    if ttl_data and len(ttl_data) != len(answer_data):
        raise LogFormatError(
            f"line {number}: {len(answer_data)} answers but {len(ttl_data)} TTLs"
        )
    answers = tuple(
        DnsAnswer(
            data=data,
            ttl=float(ttl_data[i]) if ttl_data else 0.0,
            rtype=type_data[i] if i < len(type_data) else "A",
        )
        for i, data in enumerate(answer_data)
    )
    rtt_text = _field(columns, index_by_name, "rtt", number)
    rtt = 0.0 if rtt_text == _UNSET else float(rtt_text)
    ts = float(_field(columns, index_by_name, "ts", number))
    # Boundary validation: the record types are plain NamedTuples, so
    # untrusted values are checked here, where the bytes come in.
    check_finite("ts", ts)
    check_elapsed("rtt", rtt)
    for answer in answers:
        check_finite("answer TTL", answer.ttl)
    return DnsRecord(
        ts=ts,
        uid=_field(columns, index_by_name, "uid", number),
        orig_h=_field(columns, index_by_name, "id.orig_h", number),
        orig_p=int(_field(columns, index_by_name, "id.orig_p", number)),
        resp_h=_field(columns, index_by_name, "id.resp_h", number),
        resp_p=int(_field(columns, index_by_name, "id.resp_p", number)),
        proto=Proto.parse(_field(columns, index_by_name, "proto", number)),
        query=_field(columns, index_by_name, "query", number),
        qtype=_field(columns, index_by_name, "qtype_name", number),
        rcode=_field(columns, index_by_name, "rcode_name", number),
        rtt=rtt,
        answers=answers,
    )


def _conn_from_columns(
    columns: list[str], index_by_name: dict[str, int], number: int
) -> ConnRecord:
    """Build one :class:`ConnRecord` from a split data line."""
    duration_text = _field(columns, index_by_name, "duration", number)
    duration = 0.0 if duration_text == _UNSET else float(duration_text)
    orig_bytes = int(_field(columns, index_by_name, "orig_bytes", number))
    resp_bytes = int(_field(columns, index_by_name, "resp_bytes", number))
    ts = float(_field(columns, index_by_name, "ts", number))
    # Boundary validation (see _dns_from_columns).
    check_finite("ts", ts)
    check_elapsed("duration", duration)
    if orig_bytes < 0 or resp_bytes < 0:
        raise LogFormatError(f"line {number}: byte counts cannot be negative")
    return ConnRecord(
        ts=ts,
        uid=_field(columns, index_by_name, "uid", number),
        orig_h=_field(columns, index_by_name, "id.orig_h", number),
        orig_p=int(_field(columns, index_by_name, "id.orig_p", number)),
        resp_h=_field(columns, index_by_name, "id.resp_h", number),
        resp_p=int(_field(columns, index_by_name, "id.resp_p", number)),
        proto=Proto.parse(_field(columns, index_by_name, "proto", number)),
        service=_field(columns, index_by_name, "service", number),
        duration=duration,
        orig_bytes=orig_bytes,
        resp_bytes=resp_bytes,
        conn_state=_field(columns, index_by_name, "conn_state", number),
    )


def _read_log(stream: IO[str], parse, strict: bool) -> tuple[list, list[QuarantinedLine]]:
    """The shared reader loop behind both log formats.

    ``strict`` re-raises on the first malformed line (the historical
    behaviour); otherwise each offending line is quarantined with its
    line number and reason, and reading continues.
    """
    index_by_name: dict[str, int] | None = None
    records: list = []
    quarantined: list[QuarantinedLine] = []
    for number, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#fields"):
                parts = line.split(_SEPARATOR)
                index_by_name = {name: index for index, name in enumerate(parts[1:])}
            continue
        if index_by_name is None:
            if strict:
                raise LogFormatError(f"line {number}: data before #fields header")
            quarantined.append(
                QuarantinedLine(number, "data before #fields header", line)
            )
            continue
        columns = line.split(_SEPARATOR)
        try:
            records.append(parse(columns, index_by_name, number))
        except (ValueError, LogFormatError) as exc:
            if strict:
                if isinstance(exc, LogFormatError):
                    raise
                raise LogFormatError(f"line {number}: {exc}") from exc
            quarantined.append(QuarantinedLine(number, str(exc), line))
    return records, quarantined


def read_dns_log(stream: IO[str], strict: bool = True) -> list[DnsRecord]:
    """Parse a dns.log written by :func:`write_dns_log` (or Zeek-like).

    With ``strict=False`` malformed lines are silently skipped; use
    :func:`read_dns_log_lenient` to also get the quarantine report.
    """
    records, _ = _read_log(stream, _dns_from_columns, strict)
    return records


def read_conn_log(stream: IO[str], strict: bool = True) -> list[ConnRecord]:
    """Parse a conn.log written by :func:`write_conn_log` (or Zeek-like).

    With ``strict=False`` malformed lines are silently skipped; use
    :func:`read_conn_log_lenient` to also get the quarantine report.
    """
    records, _ = _read_log(stream, _conn_from_columns, strict)
    return records


def read_dns_log_lenient(stream: IO[str]) -> tuple[list[DnsRecord], IngestReport]:
    """Parse a dns.log, quarantining malformed lines instead of raising."""
    records, quarantined = _read_log(stream, _dns_from_columns, strict=False)
    report = IngestReport(path_label="dns", parsed=len(records), quarantined=tuple(quarantined))
    return records, report


def read_conn_log_lenient(stream: IO[str]) -> tuple[list[ConnRecord], IngestReport]:
    """Parse a conn.log, quarantining malformed lines instead of raising."""
    records, quarantined = _read_log(stream, _conn_from_columns, strict=False)
    report = IngestReport(path_label="conn", parsed=len(records), quarantined=tuple(quarantined))
    return records, report


def save_dns_log(path: str, records: Iterable[DnsRecord]) -> int:
    """Write a dns.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_dns_log(stream, records)


def save_conn_log(path: str, records: Iterable[ConnRecord]) -> int:
    """Write a conn.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_conn_log(stream, records)


def load_dns_log(path: str) -> list[DnsRecord]:
    """Read a dns.log file from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return read_dns_log(stream)


def load_conn_log(path: str) -> list[ConnRecord]:
    """Read a conn.log file from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return read_conn_log(stream)

def _parse_lines(
    lines: Iterable[str],
    parse,
    strict: bool,
    quarantine: list[QuarantinedLine] | None,
) -> Iterator:
    """The shared incremental parse loop behind lazy and tailing readers.

    Header (``#``) lines re-establish the field map whenever they
    appear, so a tailed stream that crosses a rotation boundary picks
    up the new file's header transparently. With ``strict`` a
    malformed line raises :class:`LogFormatError`; otherwise it is
    appended to *quarantine* (when given) and skipped, keeping a
    long-lived tail alive across the occasional torn line.
    """
    index_by_name: dict[str, int] | None = None
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#fields"):
                parts = line.split(_SEPARATOR)
                index_by_name = {name: index for index, name in enumerate(parts[1:])}
            continue
        if index_by_name is None:
            if strict:
                raise LogFormatError(f"line {number}: data before #fields header")
            if quarantine is not None:
                quarantine.append(
                    QuarantinedLine(number, "data before #fields header", line)
                )
            continue
        columns = line.split(_SEPARATOR)
        try:
            yield parse(columns, index_by_name, number)
        except (ValueError, LogFormatError) as exc:
            if strict:
                if isinstance(exc, LogFormatError):
                    raise
                raise LogFormatError(f"line {number}: {exc}") from exc
            if quarantine is not None:
                quarantine.append(QuarantinedLine(number, str(exc), line))


def _iter_log(
    stream: IO[str],
    parse,
    strict: bool = True,
    quarantine: list[QuarantinedLine] | None = None,
) -> Iterator:
    """Incremental variant of :func:`_read_log`.

    Yields records as lines are parsed instead of materializing the
    log, so week-scale logs stream through the one-pass analysis engine
    in O(1) reader memory. With ``strict=False`` malformed lines are
    collected into *quarantine* (a caller-owned list, inspected after
    the stream drains) instead of raising.
    """
    yield from _parse_lines(stream, parse, strict, quarantine)


def iter_dns_log(
    path: str,
    strict: bool = True,
    quarantine: list[QuarantinedLine] | None = None,
) -> Iterator[DnsRecord]:
    """Lazily read a dns.log from *path*, one record at a time.

    The streaming counterpart of :func:`load_dns_log`: feed it straight
    to :func:`repro.core.parallel.run_streaming_pipeline` and the full
    record list never exists in memory. The file stays open until the
    generator is exhausted or closed. ``strict=False`` plus a
    *quarantine* list gives lenient ingest with a post-hoc audit trail."""
    with open(path, "r", encoding="utf-8") as stream:
        yield from _iter_log(stream, _dns_from_columns, strict, quarantine)


def iter_conn_log(
    path: str,
    strict: bool = True,
    quarantine: list[QuarantinedLine] | None = None,
) -> Iterator[ConnRecord]:
    """Lazily read a conn.log from *path*, one record at a time.

    The streaming counterpart of :func:`load_conn_log`; see
    :func:`iter_dns_log`."""
    with open(path, "r", encoding="utf-8") as stream:
        yield from _iter_log(stream, _conn_from_columns, strict, quarantine)


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


def tail_dns_log(
    path: str,
    poll_interval_s: float = 0.25,
    idle_timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
    strict: bool = True,
    quarantine: list[QuarantinedLine] | None = None,
) -> Iterator[DnsRecord]:
    """Follow a growing dns.log, yielding records as they are written.

    :func:`tail_lines` handles growth, rotation, and truncation; this
    wrapper parses each completed line, re-reading headers whenever a
    rotation delivers a fresh file. Lenient mode (``strict=False``)
    quarantines torn or malformed lines instead of killing the tail."""
    lines = tail_lines(path, poll_interval_s, idle_timeout_s, stop)
    yield from _parse_lines(lines, _dns_from_columns, strict, quarantine)


def tail_conn_log(
    path: str,
    poll_interval_s: float = 0.25,
    idle_timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
    strict: bool = True,
    quarantine: list[QuarantinedLine] | None = None,
) -> Iterator[ConnRecord]:
    """Follow a growing conn.log, yielding records as they are written.

    See :func:`tail_dns_log`."""
    lines = tail_lines(path, poll_interval_s, idle_timeout_s, stop)
    yield from _parse_lines(lines, _conn_from_columns, strict, quarantine)
