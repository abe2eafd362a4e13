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

import math
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter
from sys import intern, maxsize
from typing import IO, Callable, Iterable, Iterator, NoReturn

from repro.errors import LogFormatError
from repro.monitor import binlog
from repro.monitor.records import (
    ConnRecord,
    DnsRecord,
    Proto,
    build_answers,
    check_byte_count,
    check_elapsed,
    check_finite,
    check_port,
    no_transport,
)


@dataclass(frozen=True, slots=True)
class QuarantinedLine:
    """One malformed log line set aside by a lenient read. Bytes that
    were not UTF-8 stay in ``text`` as ``surrogateescape`` surrogates."""

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
    the reader has drained. ``dropped`` counts the well-formed conn rows
    no record can hold (Zeek's ``icmp`` and ``unknown_transport``).
    """

    path_label: str
    parsed: int = 0
    quarantined: list[QuarantinedLine] = field(default_factory=list)
    dropped: int = 0

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
        counts = f"{self.path_label}: {self.parsed} records"
        if self.dropped:
            counts += f", {self.dropped} rows without TCP or UDP dropped"
        if self.ok:
            return f"{counts}, no quarantined lines"
        return (
            f"{counts}, {len(self.quarantined)} quarantined lines "
            f"({100.0 * self.quarantine_fraction:.2f}%)"
        )

_UNSET = "-"
# Zeek's #empty_field: an empty vector; the writer also spells "" so.
_EMPTY = "(empty)"
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
        return _EMPTY
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


#: The columns a row parser reads, in the order in which a row that
#: lacks some of them names the first missing one. ``answer_types`` is
#: optional: under a header without it every answer is an A record.
_COLUMNS = {
    "dns": (
        "answers", "TTLs", "answer_types", "rtt", "ts", "uid", "id.orig_h", "id.orig_p",
        "id.resp_h", "id.resp_p", "proto", "query", "qtype_name", "rcode_name",
    ),
    "conn": (
        "duration", "orig_bytes", "resp_bytes", "ts", "uid", "id.orig_h", "id.orig_p",
        "id.resp_h", "id.resp_p", "proto", "service", "conn_state",
    ),
}


def _vector(text: str) -> list[str]:
    if text in (_UNSET, "", _EMPTY):
        return []
    return text.split(_VECTOR_SEPARATOR)


def _before_header(line: str) -> NoReturn:
    raise LogFormatError("data before #fields header")


def _misspelled(text: str) -> bool:
    """True when the number *text* holds a character Zeek never writes
    in one: not ASCII, a control character, a blank, ``_`` or ``+``.
    Python's ``int()`` reads ``4_43``, ``+443``, `` 443`` and ``٤٤٣``
    alike as 443. A leading ``-`` stays legal."""
    return not (text.isascii() and text.isprintable()) or " " in text or "_" in text or "+" in text


def _malformed_number(*fields: str) -> LogFormatError:
    """The error naming the first misspelled of a row's number *fields*."""
    return LogFormatError(f"malformed number {next(filter(_misspelled, fields))!r}")


def _compile_row(kind: str, header: str) -> Callable[[str], DnsRecord | ConnRecord]:
    """Compile a ``#fields`` *header* line into the TSV row parser for *kind*.

    A row then costs one ``split``, one width check and one
    :func:`operator.itemgetter` gather of the columns the record needs.
    A row narrower than the widest of them, and any row under a header
    that lacks one, names the first missing column in :data:`_COLUMNS`
    order before any value is read. The row's number fields are then
    joined and tested once for a spelling Zeek never writes
    (:func:`_misspelled`, inline); only a row that fails has its fields
    looked at one by one, to name the culprit. Strings that repeat from
    row to row are shared through :func:`sys.intern`, as the RBLG
    decoder shares them through its block dictionary; the unique uid is
    not.
    """
    fields = {name: index for index, name in enumerate(header.split(_SEPARATOR)[1:])}
    needed = [name for name in _COLUMNS[kind] if name != "answer_types" or name in fields]
    width = 1 + max(map(fields.get, needed)) if fields.keys() >= set(needed) else maxsize
    # Under a header that lacks a column no row is wide enough to reach the gather.
    gather = itemgetter(*(fields.get(name, 0) for name in needed if name != "answer_types"))
    types_at = fields.get("answer_types")
    parse_proto = Proto.parse

    def missing(columns: list[str]) -> LogFormatError:
        name = next(name for name in needed if fields.get(name, maxsize) >= len(columns))
        return LogFormatError(f"missing field {name!r}")

    def dns_row(line: str) -> DnsRecord:
        columns = line.split(_SEPARATOR)
        if len(columns) < width:
            raise missing(columns)
        (data, ttls, rtt_text, ts, uid, orig_h, orig_p, resp_h, resp_p, proto, query, qtype,
         rcode) = gather(columns)
        numbers = "".join((ts, rtt_text, ttls, orig_p, resp_p))
        if (not (numbers.isascii() and numbers.isprintable()) or " " in numbers
                or "_" in numbers or "+" in numbers):
            raise _malformed_number(ts, rtt_text, *_vector(ttls), orig_p, resp_p)
        answers = build_answers(
            _vector(data), _vector(ttls), [] if types_at is None else _vector(columns[types_at])
        )
        rtt = 0.0 if rtt_text == _UNSET else float(rtt_text)
        ts = float(ts)
        # Boundary validation: the record types are plain NamedTuples,
        # so untrusted values are checked here, where the bytes come in.
        check_finite("ts", ts)
        check_elapsed("rtt", rtt)
        for answer in answers:
            check_finite("answer TTL", answer.ttl)
        # Positional, in field order: keywords cost a name match per
        # field and row. The writer spells an empty query (empty).
        return DnsRecord(
            ts, uid, intern(orig_h), check_port(int(orig_p)), intern(resp_h),
            check_port(int(resp_p)), "" if query == _EMPTY else intern(query), intern(qtype),
            intern(rcode), rtt, answers, parse_proto(proto),
        )

    def conn_row(line: str) -> ConnRecord:
        columns = line.split(_SEPARATOR)
        if len(columns) < width:
            raise missing(columns)
        (duration_text, orig_bytes, resp_bytes, ts, uid, orig_h, orig_p, resp_h, resp_p,
         proto, service, conn_state) = gather(columns)
        numbers = "".join((ts, duration_text, orig_bytes, resp_bytes, orig_p, resp_p))
        if (not (numbers.isascii() and numbers.isprintable()) or " " in numbers
                or "_" in numbers or "+" in numbers):
            raise _malformed_number(ts, duration_text, orig_bytes, resp_bytes, orig_p, resp_p)
        # Zeek leaves duration and the byte counts unset on one-packet
        # connections.
        duration = 0.0 if duration_text == _UNSET else float(duration_text)
        orig_bytes = 0 if orig_bytes == _UNSET else int(orig_bytes)
        resp_bytes = 0 if resp_bytes == _UNSET else int(resp_bytes)
        ts = float(ts)
        check_finite("ts", ts)
        check_elapsed("duration", duration)
        check_byte_count(orig_bytes)
        check_byte_count(resp_bytes)
        return ConnRecord(
            ts, uid, intern(orig_h), check_port(int(orig_p)), intern(resp_h),
            check_port(int(resp_p)), parse_proto(proto), duration, orig_bytes, resp_bytes,
            intern(service), intern(conn_state),
        )

    return dns_row if kind == "dns" else conn_row


def _check_utf8(line: str) -> None:
    """Refuse a line that held bytes which are not UTF-8: text logs are
    decoded with ``surrogateescape``, which turns each such byte into a
    lone surrogate that UTF-8 cannot encode."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise LogFormatError(f"invalid UTF-8 byte 0x{byte:02x}") from None


def _json_parser(kind: str) -> Callable:
    # Imported on the first JSON line, so TSV and RBLG runs never load it.
    from repro.monitor import json_logs

    return json_logs._dns_from_json if kind == "dns" else json_logs._conn_from_json


def parse_lines(
    lines: Iterable[str], kind: str, report: IngestReport | None = None
) -> Iterator:
    """Parse a text log's *lines* into *kind* (``"dns"`` or ``"conn"``) records.

    The one line loop behind every text read, whole-file or tailed.
    A line ends at ``\n`` or ``\r\n``. ``#`` lines are headers, and
    each ``#fields`` line is compiled into the TSV row parser
    (:func:`_compile_row`), so a tail that crosses a rotation picks up
    the new file's layout. The first data line decides the format of
    the rest: ``{`` starts Zeek JSON, anything else is TSV laid out by
    the latest ``#fields`` header. The row parsers name no location;
    this loop owns the line number. A data line that held bytes which
    are not UTF-8 is malformed too. Without *report* a malformed line
    raises :class:`LogFormatError` as ``line N: <reason>``. With a
    report the line is quarantined into it with the bare reason, every
    parsed record is counted into it, and reading goes on. A conn row
    of a flow without TCP or UDP is not malformed: it is dropped, and
    counted into *report* when there is one. The rows signal it through
    their error, so a row that parses pays nothing for the rule.
    """
    parse: Callable = _before_header
    is_json = None
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line[0] == "#":
            if line.startswith("#fields") and not is_json:
                parse = _compile_row(kind, line)
            continue
        if is_json is None:
            is_json = line.lstrip()[:1] == "{"
            if is_json:
                parse = _json_parser(kind)
        # float() of a JSON integer past the double range overflows.
        try:
            if not line.isascii():
                _check_utf8(line)
            record = parse(line)
        except (ValueError, OverflowError, LogFormatError) as exc:
            if kind == "conn" and no_transport(exc):
                if report is not None:
                    report.dropped += 1
                continue
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
    if kind not in _COLUMNS:
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
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
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
    Bytes that are not UTF-8 are decoded with ``surrogateescape``, as
    whole-file reads decode them, leaving malformed-line policy to
    :func:`parse_lines`.
    """
    if poll_interval_s <= 0.0:
        raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
    if idle_timeout_s is not None and not 0.0 < idle_timeout_s < math.inf:
        raise ValueError(f"idle_timeout_s must be positive and finite, got {idle_timeout_s}")
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
                yield buffer[:newline].decode("utf-8", errors="surrogateescape")
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
                yield buffer.decode("utf-8", errors="surrogateescape")
            stream.close()
            stream = None
            continue
        if stop is not None and stop():
            if buffer:
                yield buffer.decode("utf-8", errors="surrogateescape")
            stream.close()
            return
        if (
            idle_timeout_s is not None
            and time.monotonic() - last_data_s >= idle_timeout_s
        ):
            stream.close()
            return
        time.sleep(poll_interval_s)
