"""Corruption fuzzing of the log decoders: a mutant is records or a typed error.

RBLG files get bit flips, truncations and oversized counts, each with
the block's CRC left alone or recomputed over the mutated payload.
Every read ends in records or a :class:`~repro.errors.ReproError`,
never another exception; with the CRC left alone the records are the
original ones, since the checksum and the record-count checks catch
every single mutation that changes them. TSV and JSON logs get byte
flips, truncations and inserted bytes: a strict read ends in records or
a :class:`~repro.errors.LogFormatError`, and a lenient read accounts
for every data line as parsed, quarantined or dropped. The crafted
blocks and the deeply nested JSON line that once escaped as
``IndexError``, ``struct.error`` and ``RecursionError`` are explicit
cases.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_DATA, main
from repro.errors import LogFormatError, ReproError
from repro.monitor.binlog import (
    encode_conn_binlog,
    encode_dns_binlog,
    iter_conn_binlog,
    load_conn_binlog,
    read_conn_binlog,
    read_dns_binlog,
)
from repro.monitor.json_logs import write_conn_json, write_dns_json
from repro.monitor.logs import IngestReport, open_records, write_conn_log, write_dns_log
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

_FILE_HEADER_SIZE = 16
_BLOCK_HEADER = struct.Struct("<III")

DNS_RECORDS = [
    DnsRecord(
        ts=100.0 + index,
        uid=f"D{index}",
        orig_h=f"10.0.0.{index % 3 + 1}",
        orig_p=40000 + index,
        resp_h=("8.8.8.8", "1.1.1.1")[index % 2],
        resp_p=53,
        query=f"host{index % 4}.example.com",
        rcode="NOERROR" if index % 5 else "SERVFAIL",
        rtt=0.01 * (index + 1),
        answers=tuple(
            DnsAnswer(data=f"93.184.216.{index + slot}", ttl=60.0 * (slot + 1))
            for slot in range(index % 4 if index % 5 else 0)
        )
        + ((DnsAnswer(data="edge.cdn.example.net", ttl=30.0, rtype="CNAME"),) if index == 3 else ()),
        proto=Proto.UDP if index % 2 else Proto.TCP,
    )
    for index in range(10)
]

CONN_RECORDS = [
    ConnRecord(
        ts=101.0 + index,
        uid=f"C{index}",
        orig_h=f"10.0.0.{index % 3 + 1}",
        orig_p=50000 + index,
        resp_h=f"93.184.216.{index}",
        resp_p=443 if index % 3 else 80,
        proto=Proto.UDP if index % 4 == 1 else Proto.TCP,
        service="ssl" if index % 2 else "-",
        duration=0.5 * index,
        orig_bytes=100 * index,
        resp_bytes=(1 << 40) + index,
        conn_state="SF",
    )
    for index in range(10)
]

BINLOGS = {
    "dns": (encode_dns_binlog(DNS_RECORDS, block_records=4), read_dns_binlog, DNS_RECORDS),
    "conn": (encode_conn_binlog(CONN_RECORDS, block_records=4), read_conn_binlog, CONN_RECORDS),
}


def _blocks(data: bytes) -> list[tuple[int, int, int]]:
    """``(header offset, payload start, payload end)`` of each block."""
    blocks = []
    offset = _FILE_HEADER_SIZE
    while offset < len(data):
        _count, length, _crc = _BLOCK_HEADER.unpack_from(data, offset)
        start = offset + _BLOCK_HEADER.size
        blocks.append((offset, start, start + length))
        offset = start + length
    return blocks


def _recompute_crcs(data: bytearray, blocks: list[tuple[int, int, int]]) -> None:
    """Rewrite each block's CRC over its (possibly mutated) payload."""
    for header, start, end in blocks:
        count, length, _crc = _BLOCK_HEADER.unpack_from(data, header)
        _BLOCK_HEADER.pack_into(data, header, count, length, zlib.crc32(data[start:end]))


# -- crafted inputs that once escaped untyped --------------------------------


def _one_conn_block(payload: bytes, count: int) -> bytes:
    """A conn binlog holding one block with a valid CRC over *payload*."""
    header = struct.pack("<4sHBBQ", b"RBLG", 1, 2, 0, count)
    return header + _BLOCK_HEADER.pack(count, len(payload), zlib.crc32(payload)) + payload


def _crafted_conn_block(field: str) -> bytes:
    """One conn record whose block decodes a bad proto code or string reference."""
    data = encode_conn_binlog(CONN_RECORDS[:1])
    payload = bytearray(data[_FILE_HEADER_SIZE + _BLOCK_HEADER.size :])
    (strings,) = struct.unpack_from("<I", payload, 0)
    blob = struct.unpack_from(f"<{strings + 1}I", payload, 4)[-1]
    # Columns: ts f64, duration f64, orig_p u16, resp_p u16, proto u8,
    # orig_bytes u64, resp_bytes u64, then the u32 string references.
    proto_at = 4 + 4 * (strings + 1) + blob + 8 + 8 + 2 + 2
    if field == "proto":
        payload[proto_at] = 7
    else:
        struct.pack_into("<I", payload, proto_at + 1 + 8 + 8, 999)
    return _one_conn_block(bytes(payload), 1)


CRAFTED_BLOCKS = {
    "proto-code-7": (_crafted_conn_block("proto"), "out of range"),
    "string-reference-999": (_crafted_conn_block("uid"), "out of range"),
    "empty-payload": (_one_conn_block(b"", 0), "payload truncated"),
}


@st.composite
def binlog_mutants(draw):
    """``(kind, mutant bytes, crc_recomputed)`` for one mutation of a binlog."""
    kind = draw(st.sampled_from(sorted(BINLOGS)))
    original = BINLOGS[kind][0]
    blocks = _blocks(original)
    data = bytearray(original)
    recompute = draw(st.booleans())
    mutation = draw(st.sampled_from(("flip", "truncate", "count")))
    if mutation == "flip":
        position = draw(st.integers(0, len(data) - 1))
        data[position] ^= 1 << draw(st.integers(0, 7))
    elif mutation == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
        # A truncated file has no whole blocks to re-checksum past the cut.
        blocks = [block for block in blocks if block[2] <= len(data)]
    else:
        # An oversized u32 count: the block's record count (outside the
        # CRC), its dictionary entry count, or any u32-aligned payload
        # word (DNS answer totals and string references among them).
        header, start, end = draw(st.sampled_from(blocks))
        position = draw(st.sampled_from([header, *range(start, end - 3, 4)]))
        value = draw(st.sampled_from((0xFFFFFFFF, 1 << 31, 1 << 20, 999)))
        struct.pack_into("<I", data, position, value)
    if recompute:
        _recompute_crcs(data, blocks)
    return kind, bytes(data), recompute


@pytest.mark.property
@given(binlog_mutants())
@example(("conn", CRAFTED_BLOCKS["proto-code-7"][0], True))
@example(("conn", CRAFTED_BLOCKS["string-reference-999"][0], True))
@example(("conn", CRAFTED_BLOCKS["empty-payload"][0], True))
@settings(max_examples=300, deadline=None)
def test_binlog_mutant_is_records_or_a_typed_error(mutant):
    kind, data, recompute = mutant
    _original, read, records = BINLOGS[kind]
    try:
        decoded = read(data)
    except ReproError:
        return
    if not recompute:
        assert decoded == records


def _text_logs() -> dict[tuple[str, str], bytes]:
    logs = {}
    for kind, records, tsv, json_writer in (
        ("dns", DNS_RECORDS, write_dns_log, write_dns_json),
        ("conn", CONN_RECORDS, write_conn_log, write_conn_json),
    ):
        for fmt, writer in (("tsv", tsv), ("json", json_writer)):
            stream = io.StringIO()
            writer(stream, records)
            logs[(kind, fmt)] = stream.getvalue().encode("utf-8")
    return logs


TEXT_LOGS = _text_logs()

#: A JSON line nested far past the interpreter's recursion limit.
NESTED_LINE = b'{"ts": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n"


@st.composite
def text_mutants(draw):
    """``(kind, mutant bytes)`` for one to three byte-level edits of a text log."""
    kind, fmt = draw(st.sampled_from(sorted(TEXT_LOGS)))
    data = bytearray(TEXT_LOGS[(kind, fmt)])
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(("flip", "truncate", "insert")))
        position = draw(st.integers(0, max(0, len(data) - 1)))
        if mutation == "flip" and data:
            data[position] ^= 1 << draw(st.integers(0, 7))
        elif mutation == "truncate":
            del data[position:]
        else:
            data[position:position] = draw(
                st.sampled_from((b"\xff", b"\t", b"\n", b"\r", b"#", b"{", b"[" * 5000, b"1e999"))
            )
    return kind, bytes(data)


@pytest.mark.property
@given(text_mutants())
@example(("conn", TEXT_LOGS[("conn", "json")] + NESTED_LINE))
@settings(max_examples=150, deadline=None)
def test_text_mutant_is_records_or_a_typed_error(mutant):
    kind, data = mutant
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{kind}.log")
        with open(path, "wb") as stream:
            stream.write(data)
        with contextlib.suppress(LogFormatError):
            list(open_records(path, kind))
        report = IngestReport(kind)
        parsed = list(open_records(path, kind, report=report))
        with open(path, encoding="utf-8", errors="surrogateescape") as stream:
            lines = [line.rstrip("\r\n") for line in stream]
    data_lines = sum(1 for line in lines if line and line[0] != "#")
    assert len(parsed) == report.parsed
    assert report.parsed + len(report.quarantined) + report.dropped == data_lines


@pytest.mark.parametrize("name", sorted(CRAFTED_BLOCKS))
def test_crafted_block_is_a_format_error_in_every_reader(name, tmp_path, capsys):
    data, reason = CRAFTED_BLOCKS[name]
    path = tmp_path / "conn.rblg"
    path.write_bytes(data)
    message = f"binlog block 0: .*{reason}"
    with pytest.raises(LogFormatError, match=message):
        read_conn_binlog(data)
    with pytest.raises(LogFormatError, match=message):
        load_conn_binlog(str(path))
    with pytest.raises(LogFormatError, match=message):
        list(iter_conn_binlog(str(path)))
    with pytest.raises(LogFormatError, match=message):
        list(open_records(str(path), "conn", report=IngestReport("conn")))
    assert main(["convert", str(path), str(tmp_path / "conn.log")]) == EXIT_DATA
    assert "binlog block 0: " in capsys.readouterr().err
