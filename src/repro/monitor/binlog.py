"""RBLG: a compact binary columnar trace format with mmap ingest.

The Zeek-style TSV logs (:mod:`repro.monitor.logs`) are the repo's
interchange format, but text parsing dominates week-scale ingest: every
float re-parsed from decimal, every line re-split. This module stores
the same two record schemas column-wise in typed blocks, so batch loads
and streaming iteration decode whole arrays at C speed and string
columns decode each distinct value once per block.

**Layout (RBLG version 1, all integers little-endian, packed — no
alignment padding):**

* File header (16 bytes): magic ``b"RBLG"``, ``u16`` version, ``u8``
  kind (1 = dns, 2 = conn), ``u8`` reserved (zero), ``u64`` total
  record count.
* Zero or more blocks, each: a 12-byte header — ``u32`` record count,
  ``u32`` payload length, ``u32`` CRC-32 of the payload — followed by
  the payload. A reader can skip or verify any block without decoding
  it, and a torn tail (crash mid-write of a non-atomic copy) is
  detected by the checksum.
* Block payload: a string dictionary — ``u32`` entry count, ``u32 ×
  (count + 1)`` byte offsets, then the concatenated UTF-8 bytes — holding
  every distinct string in the block (uids, addresses, query names,
  enum-like labels), followed by the typed columns in fixed order:

  - dns: ``ts f64×n``, ``rtt f64×n``, ``orig_p u16×n``, ``resp_p
    u16×n``, ``proto u8×n``, then ``u32×n`` dictionary references for
    uid / orig_h / resp_h / query / qtype / rcode, then the answer
    vectors — ``count u16×n``, ``u32`` total, and ``total``-long
    data-ref ``u32``, ``ttl f64``, rtype-ref ``u32`` columns.
  - conn: ``ts f64×n``, ``duration f64×n``, ``orig_p u16×n``,
    ``resp_p u16×n``, ``proto u8×n``, ``orig_bytes u64×n``,
    ``resp_bytes u64×n``, then ``u32×n`` references for uid / orig_h /
    resp_h / service / conn_state.

**Versioning:** the ``u16`` version is bumped on any layout change;
readers reject versions they do not know. **Endianness:** the on-disk
byte order is little-endian regardless of host; on big-endian hosts the
column arrays are byteswapped on the way in and out (`array.byteswap`),
so files are portable. Fields are packed with no alignment guarantees —
readers must not cast the buffer to wider-than-byte views in place,
which the `array.frombytes` decode path never does.

Writers emit the whole file through
:func:`repro.core.checkpoint.atomic_write_bytes` (temp file, fsync,
rename), so a crashed write never leaves a truncated ``.rblg`` behind —
the CKPT002 lint rule enforces this for any binlog writer. Readers mmap
the file: the OS pages in only the blocks actually decoded, so
:func:`iter_dns_binlog` streams a week-scale trace in O(block) memory.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import IO, Iterable, Iterator

from repro.errors import LogFormatError
from repro.monitor.records import (
    ConnRecord,
    DnsAnswer,
    DnsRecord,
    Proto,
    check_elapsed_column,
    check_finite_column,
)

# repro.core.checkpoint sits above repro.monitor in the import graph
# (it pulls in the streaming engine, which consumes monitor records),
# so the atomic-write helper is imported inside the save functions to
# keep this low-level module importable from either direction.

BINLOG_MAGIC = b"RBLG"
BINLOG_VERSION = 1
DNS_KIND = 1
CONN_KIND = 2

#: Records per column block: large enough that per-block overhead
#: (dictionary, header, checksum) amortises to nothing, small enough
#: that streaming readers hold only a sliver of a week-scale trace.
DEFAULT_BLOCK_RECORDS = 8192

_FILE_HEADER = struct.Struct("<4sHBBQ")
_BLOCK_HEADER = struct.Struct("<III")
_U32 = struct.Struct("<I")

_PROTO_CODES = {Proto.TCP: 0, Proto.UDP: 1}
_PROTO_BY_CODE = (Proto.TCP, Proto.UDP)

_KIND_LABELS = {DNS_KIND: "dns", CONN_KIND: "conn"}


def _pack_array(values: array) -> bytes:
    """Serialize a column little-endian regardless of host byte order."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _read_array(buffer, offset: int, typecode: str, count: int) -> tuple[array, int]:
    """Decode a little-endian column of *count* items at *offset*."""
    values = array(typecode)
    nbytes = values.itemsize * count
    chunk = buffer[offset : offset + nbytes]
    if len(chunk) != nbytes:
        raise LogFormatError("binlog block payload truncated")
    values.frombytes(chunk)
    if sys.byteorder == "big":
        values.byteswap()
    return values, offset + nbytes


class _Dictionary:
    """Per-block string interning: each distinct value stored once."""

    __slots__ = ("_index", "strings")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.strings: list[str] = []

    def ref(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.strings)
            self._index[value] = index
            self.strings.append(value)
        return index

    def encode(self) -> bytes:
        blobs = [value.encode("utf-8") for value in self.strings]
        offsets = array("I", [0])
        total = 0
        for blob in blobs:
            total += len(blob)
            offsets.append(total)
        return _U32.pack(len(blobs)) + _pack_array(offsets) + b"".join(blobs)


def _decode_dictionary(buffer, offset: int) -> tuple[list[str], int]:
    (count,) = _U32.unpack_from(buffer[offset : offset + 4])
    offset += 4
    offsets, offset = _read_array(buffer, offset, "I", count + 1)
    blob = bytes(buffer[offset : offset + offsets[-1]]) if count else b""
    if count and len(blob) != offsets[-1]:
        raise LogFormatError("binlog dictionary truncated")
    strings = [
        blob[offsets[i] : offsets[i + 1]].decode("utf-8") for i in range(count)
    ]
    return strings, offset + (offsets[-1] if count else 0)


def _check_port(value: int) -> int:
    if not 0 <= value <= 0xFFFF:
        raise LogFormatError(f"port out of u16 range: {value}")
    return value


def _check_u64(value: int) -> int:
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise LogFormatError(f"byte count out of u64 range: {value}")
    return value


# -- block encoding ----------------------------------------------------------


def _encode_dns_block(records: list[DnsRecord]) -> bytes:
    dictionary = _Dictionary()
    ref = dictionary.ref
    ts = array("d")
    rtt = array("d")
    orig_p = array("H")
    resp_p = array("H")
    proto = array("B")
    uid = array("I")
    orig_h = array("I")
    resp_h = array("I")
    query = array("I")
    qtype = array("I")
    rcode = array("I")
    answer_counts = array("H")
    answer_data = array("I")
    answer_ttl = array("d")
    answer_type = array("I")
    for record in records:
        ts.append(record.ts)
        rtt.append(record.rtt)
        orig_p.append(_check_port(record.orig_p))
        resp_p.append(_check_port(record.resp_p))
        proto.append(_PROTO_CODES[record.proto])
        uid.append(ref(record.uid))
        orig_h.append(ref(record.orig_h))
        resp_h.append(ref(record.resp_h))
        query.append(ref(record.query))
        qtype.append(ref(record.qtype))
        rcode.append(ref(record.rcode))
        if len(record.answers) > 0xFFFF:
            raise LogFormatError(
                f"answer vector too long for u16 count: {len(record.answers)}"
            )
        answer_counts.append(len(record.answers))
        for answer in record.answers:
            answer_data.append(ref(answer.data))
            answer_ttl.append(answer.ttl)
            answer_type.append(ref(answer.rtype))
    return b"".join(
        (
            dictionary.encode(),
            _pack_array(ts),
            _pack_array(rtt),
            _pack_array(orig_p),
            _pack_array(resp_p),
            _pack_array(proto),
            _pack_array(uid),
            _pack_array(orig_h),
            _pack_array(resp_h),
            _pack_array(query),
            _pack_array(qtype),
            _pack_array(rcode),
            _pack_array(answer_counts),
            _U32.pack(len(answer_data)),
            _pack_array(answer_data),
            _pack_array(answer_ttl),
            _pack_array(answer_type),
        )
    )


def _decode_dns_block(buffer, count: int) -> list[DnsRecord]:
    strings, offset = _decode_dictionary(buffer, 0)
    ts, offset = _read_array(buffer, offset, "d", count)
    rtt, offset = _read_array(buffer, offset, "d", count)
    orig_p, offset = _read_array(buffer, offset, "H", count)
    resp_p, offset = _read_array(buffer, offset, "H", count)
    proto, offset = _read_array(buffer, offset, "B", count)
    uid, offset = _read_array(buffer, offset, "I", count)
    orig_h, offset = _read_array(buffer, offset, "I", count)
    resp_h, offset = _read_array(buffer, offset, "I", count)
    query, offset = _read_array(buffer, offset, "I", count)
    qtype, offset = _read_array(buffer, offset, "I", count)
    rcode, offset = _read_array(buffer, offset, "I", count)
    answer_counts, offset = _read_array(buffer, offset, "H", count)
    (total,) = _U32.unpack_from(buffer[offset : offset + 4])
    offset += 4
    answer_data, offset = _read_array(buffer, offset, "I", total)
    answer_ttl, offset = _read_array(buffer, offset, "d", total)
    answer_type, offset = _read_array(buffer, offset, "I", total)
    # Boundary validation (the records are plain NamedTuples): C-speed
    # scans per column replace a per-record __post_init__.
    check_finite_column("ts", ts)
    check_elapsed_column("rtt", rtt)
    check_finite_column("answer TTL", answer_ttl)
    # Bulk construction: every per-record loop below runs in C (map /
    # slicing); decode wall time is dominated by the tuple constructors
    # themselves. See DESIGN §17.
    get = strings.__getitem__
    flat_answers = list(
        map(DnsAnswer, map(get, answer_data), answer_ttl, map(get, answer_type))
    )
    empty: tuple[DnsAnswer, ...] = ()
    answers = []
    append = answers.append
    cursor = 0
    for n_answers in answer_counts:
        if n_answers:
            end = cursor + n_answers
            append(tuple(flat_answers[cursor:end]))
            cursor = end
        else:
            append(empty)
    if cursor != total:
        raise LogFormatError(
            f"binlog answer vectors inconsistent: {cursor} used of {total}"
        )
    return list(
        map(
            DnsRecord,
            ts,
            map(get, uid),
            map(get, orig_h),
            orig_p,
            map(get, resp_h),
            resp_p,
            map(get, query),
            map(get, qtype),
            map(get, rcode),
            rtt,
            answers,
            map(_PROTO_BY_CODE.__getitem__, proto),
        )
    )


def _encode_conn_block(records: list[ConnRecord]) -> bytes:
    dictionary = _Dictionary()
    ref = dictionary.ref
    ts = array("d")
    duration = array("d")
    orig_p = array("H")
    resp_p = array("H")
    proto = array("B")
    orig_bytes = array("Q")
    resp_bytes = array("Q")
    uid = array("I")
    orig_h = array("I")
    resp_h = array("I")
    service = array("I")
    conn_state = array("I")
    for record in records:
        ts.append(record.ts)
        duration.append(record.duration)
        orig_p.append(_check_port(record.orig_p))
        resp_p.append(_check_port(record.resp_p))
        proto.append(_PROTO_CODES[record.proto])
        orig_bytes.append(_check_u64(record.orig_bytes))
        resp_bytes.append(_check_u64(record.resp_bytes))
        uid.append(ref(record.uid))
        orig_h.append(ref(record.orig_h))
        resp_h.append(ref(record.resp_h))
        service.append(ref(record.service))
        conn_state.append(ref(record.conn_state))
    return b"".join(
        (
            dictionary.encode(),
            _pack_array(ts),
            _pack_array(duration),
            _pack_array(orig_p),
            _pack_array(resp_p),
            _pack_array(proto),
            _pack_array(orig_bytes),
            _pack_array(resp_bytes),
            _pack_array(uid),
            _pack_array(orig_h),
            _pack_array(resp_h),
            _pack_array(service),
            _pack_array(conn_state),
        )
    )


def _decode_conn_block(buffer, count: int) -> list[ConnRecord]:
    strings, offset = _decode_dictionary(buffer, 0)
    ts, offset = _read_array(buffer, offset, "d", count)
    duration, offset = _read_array(buffer, offset, "d", count)
    orig_p, offset = _read_array(buffer, offset, "H", count)
    resp_p, offset = _read_array(buffer, offset, "H", count)
    proto, offset = _read_array(buffer, offset, "B", count)
    orig_bytes, offset = _read_array(buffer, offset, "Q", count)
    resp_bytes, offset = _read_array(buffer, offset, "Q", count)
    uid, offset = _read_array(buffer, offset, "I", count)
    orig_h, offset = _read_array(buffer, offset, "I", count)
    resp_h, offset = _read_array(buffer, offset, "I", count)
    service, offset = _read_array(buffer, offset, "I", count)
    conn_state, offset = _read_array(buffer, offset, "I", count)
    # Boundary validation + bulk construction; see _decode_dns_block.
    check_finite_column("ts", ts)
    check_elapsed_column("duration", duration)
    get = strings.__getitem__
    return list(
        map(
            ConnRecord,
            ts,
            map(get, uid),
            map(get, orig_h),
            orig_p,
            map(get, resp_h),
            resp_p,
            map(_PROTO_BY_CODE.__getitem__, proto),
            duration,
            orig_bytes,
            resp_bytes,
            map(get, service),
            map(get, conn_state),
        )
    )


_ENCODERS = {DNS_KIND: _encode_dns_block, CONN_KIND: _encode_conn_block}
_DECODERS = {DNS_KIND: _decode_dns_block, CONN_KIND: _decode_conn_block}


# -- whole-file encode / write ----------------------------------------------


def _encode_binlog(records: Iterable, kind: int, block_records: int) -> tuple[bytes, int]:
    if block_records < 1:
        raise LogFormatError(f"block_records must be positive, got {block_records}")
    encode = _ENCODERS[kind]
    chunks: list[bytes] = []
    pending: list = []
    total = 0

    def flush() -> None:
        nonlocal pending
        payload = encode(pending)
        chunks.append(
            _BLOCK_HEADER.pack(len(pending), len(payload), zlib.crc32(payload))
        )
        chunks.append(payload)
        pending = []

    for record in records:
        pending.append(record)
        total += 1
        if len(pending) >= block_records:
            flush()
    if pending:
        flush()
    header = _FILE_HEADER.pack(BINLOG_MAGIC, BINLOG_VERSION, kind, 0, total)
    return header + b"".join(chunks), total


def encode_dns_binlog(
    records: Iterable[DnsRecord], block_records: int = DEFAULT_BLOCK_RECORDS
) -> bytes:
    """Serialize DNS records to RBLG bytes."""
    payload, _ = _encode_binlog(records, DNS_KIND, block_records)
    return payload


def encode_conn_binlog(
    records: Iterable[ConnRecord], block_records: int = DEFAULT_BLOCK_RECORDS
) -> bytes:
    """Serialize connection records to RBLG bytes."""
    payload, _ = _encode_binlog(records, CONN_KIND, block_records)
    return payload


def save_dns_binlog(
    path: str, records: Iterable[DnsRecord], block_records: int = DEFAULT_BLOCK_RECORDS
) -> int:
    """Atomically write a dns ``.rblg`` file; returns the record count."""
    from repro.core.checkpoint import atomic_write_bytes

    payload, total = _encode_binlog(records, DNS_KIND, block_records)
    atomic_write_bytes(path, payload)
    return total


def save_conn_binlog(
    path: str, records: Iterable[ConnRecord], block_records: int = DEFAULT_BLOCK_RECORDS
) -> int:
    """Atomically write a conn ``.rblg`` file; returns the record count."""
    from repro.core.checkpoint import atomic_write_bytes

    payload, total = _encode_binlog(records, CONN_KIND, block_records)
    atomic_write_bytes(path, payload)
    return total


# -- decode / read -----------------------------------------------------------


def _parse_file_header(buffer, expect_kind: int) -> int:
    if len(buffer) < _FILE_HEADER.size:
        raise LogFormatError("binlog shorter than its file header")
    magic, version, kind, _reserved, total = _FILE_HEADER.unpack_from(
        buffer[: _FILE_HEADER.size]
    )
    if magic != BINLOG_MAGIC:
        raise LogFormatError("not an RBLG binlog (bad magic)")
    if version != BINLOG_VERSION:
        raise LogFormatError(
            f"unsupported binlog version {version} (reader supports {BINLOG_VERSION})"
        )
    if kind != expect_kind:
        found = _KIND_LABELS.get(kind, str(kind))
        raise LogFormatError(
            f"binlog holds {found} records, expected {_KIND_LABELS[expect_kind]}"
        )
    return total


def _iter_blocks(buffer, expect_kind: int) -> Iterator[list]:
    """Yield each block's decoded record list (shared reader loop)."""
    total = _parse_file_header(buffer, expect_kind)
    decode = _DECODERS[expect_kind]
    offset = _FILE_HEADER.size
    size = len(buffer)
    seen = 0
    block = 0
    while offset < size:
        if offset + _BLOCK_HEADER.size > size:
            raise LogFormatError(f"binlog block {block}: truncated header")
        count, payload_len, checksum = _BLOCK_HEADER.unpack_from(
            buffer[offset : offset + _BLOCK_HEADER.size]
        )
        offset += _BLOCK_HEADER.size
        payload = buffer[offset : offset + payload_len]
        if len(payload) != payload_len:
            raise LogFormatError(f"binlog block {block}: truncated payload")
        if zlib.crc32(payload) != checksum:
            raise LogFormatError(f"binlog block {block}: checksum mismatch")
        try:
            records = decode(payload, count)
        except ValueError as exc:
            raise LogFormatError(f"binlog block {block}: {exc}") from exc
        yield records
        seen += count
        offset += payload_len
        block += 1
    if seen != total:
        raise LogFormatError(
            f"binlog record count mismatch: header says {total}, blocks hold {seen}"
        )


def read_dns_binlog(buffer) -> list[DnsRecord]:
    """Decode a dns binlog from a bytes-like buffer."""
    records: list[DnsRecord] = []
    for block in _iter_blocks(buffer, DNS_KIND):
        records.extend(block)
    return records


def read_conn_binlog(buffer) -> list[ConnRecord]:
    """Decode a conn binlog from a bytes-like buffer."""
    records: list[ConnRecord] = []
    for block in _iter_blocks(buffer, CONN_KIND):
        records.extend(block)
    return records


def _mmap_file(stream: IO[bytes]) -> mmap.mmap:
    return mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)


def load_dns_binlog(path: str) -> list[DnsRecord]:
    """Read a dns ``.rblg`` file (mmap-backed, whole file)."""
    with open(path, "rb") as stream, _mmap_file(stream) as buffer:
        return read_dns_binlog(buffer)


def load_conn_binlog(path: str) -> list[ConnRecord]:
    """Read a conn ``.rblg`` file (mmap-backed, whole file)."""
    with open(path, "rb") as stream, _mmap_file(stream) as buffer:
        return read_conn_binlog(buffer)


def iter_dns_binlog(path: str) -> Iterator[DnsRecord]:
    """Lazily read a dns ``.rblg`` file, one record at a time.

    The file is mmapped and decoded block by block, so only one block's
    records are materialized at once and the OS pages the rest in on
    demand. :func:`repro.monitor.logs.open_records` returns this
    iterator for a binlog.
    """
    with open(path, "rb") as stream, _mmap_file(stream) as buffer:
        for block in _iter_blocks(buffer, DNS_KIND):
            yield from block


def iter_conn_binlog(path: str) -> Iterator[ConnRecord]:
    """Lazily read a conn ``.rblg`` file; see :func:`iter_dns_binlog`."""
    with open(path, "rb") as stream, _mmap_file(stream) as buffer:
        for block in _iter_blocks(buffer, CONN_KIND):
            yield from block


# -- sniffing ----------------------------------------------------------------


def sniff_binlog(path: str) -> int | None:
    """The record kind of the binlog at *path*, or None for non-binlogs.

    Reads only the 16-byte header, so it is safe to call on TSV or JSON
    logs before choosing a reader. Returns :data:`DNS_KIND` or
    :data:`CONN_KIND`; an RBLG file with an unknown version or kind
    raises, distinguishing "not a binlog" from "a binlog we can't read".
    """
    try:
        with open(path, "rb") as stream:
            header = stream.read(_FILE_HEADER.size)
    except OSError:
        return None
    if len(header) < 4 or header[:4] != BINLOG_MAGIC:
        return None
    if len(header) < _FILE_HEADER.size:
        raise LogFormatError("binlog shorter than its file header")
    _magic, version, kind, _reserved, _total = _FILE_HEADER.unpack(header)
    if version != BINLOG_VERSION:
        raise LogFormatError(
            f"unsupported binlog version {version} (reader supports {BINLOG_VERSION})"
        )
    if kind not in _KIND_LABELS:
        raise LogFormatError(f"unknown binlog kind {kind}")
    return kind
