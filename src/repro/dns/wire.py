"""RFC 1035 wire-format encoder/decoder with name compression.

The encoder compresses every name against previously-emitted names using
the classic pointer scheme (§4.1.4). The decoder resolves pointers with
loop protection and enforces the 255-octet name limit.

These codecs let the rest of the library write genuine DNS packets into
pcap files (:mod:`repro.pcap`) and parse them back, so the analysis
pipeline can be exercised from packet captures as well as from Zeek-style
logs.
"""

from __future__ import annotations

import struct

from repro.dns.message import Flags, Message, Question
from repro.dns.name import DomainName, MAX_NAME_WIRE_LENGTH
from repro.dns.rr import (
    AAAARecordData,
    ARecordData,
    MXRecordData,
    NameRecordData,
    OpaqueRecordData,
    RData,
    ResourceRecord,
    RRClass,
    RRType,
    SOARecordData,
    SRVRecordData,
    TXTRecordData,
)
from repro.errors import WireFormatError

_HEADER = struct.Struct("!HHHHHH")
_POINTER_MASK = 0xC000
_MAX_POINTER_TARGET = 0x3FFF

_NAME_RDATA_TYPES = frozenset({RRType.CNAME, RRType.NS, RRType.PTR})


class NameCompressor:
    """Tracks label-suffix offsets while encoding one message."""

    def __init__(self) -> None:
        self._offsets: dict[tuple[str, ...], int] = {}

    def encode_name(self, name: DomainName, out: bytearray) -> None:
        """Append the (possibly compressed) encoding of *name* to *out*."""
        labels = name.labels
        folded = name.folded().split(".") if not name.is_root() else []
        for index in range(len(labels)):
            suffix = tuple(folded[index:])
            known = self._offsets.get(suffix)
            if known is not None:
                out += struct.pack("!H", _POINTER_MASK | known)
                return
            if len(out) <= _MAX_POINTER_TARGET:
                self._offsets[suffix] = len(out)
            label_bytes = labels[index].encode("ascii")
            out.append(len(label_bytes))
            out += label_bytes
        out.append(0)


def _encode_rdata(record: ResourceRecord, compressor: NameCompressor, out: bytearray) -> None:
    """Append RDLENGTH and RDATA for *record* to *out*."""
    length_at = len(out)
    out += b"\x00\x00"  # placeholder for RDLENGTH
    start = len(out)
    rdata = record.rdata
    if isinstance(rdata, (ARecordData, AAAARecordData, TXTRecordData, OpaqueRecordData)):
        out += rdata.to_wire()
    elif isinstance(rdata, NameRecordData):
        compressor.encode_name(rdata.target, out)
    elif isinstance(rdata, MXRecordData):
        out += struct.pack("!H", rdata.preference)
        compressor.encode_name(rdata.exchange, out)
    elif isinstance(rdata, SOARecordData):
        compressor.encode_name(rdata.mname, out)
        compressor.encode_name(rdata.rname, out)
        out += struct.pack(
            "!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum
        )
    elif isinstance(rdata, SRVRecordData):
        # RFC 2782: the SRV target must not be compressed, but offsets for it
        # may still be recorded; we emit it uncompressed for compatibility.
        out += struct.pack("!HHH", rdata.priority, rdata.weight, rdata.port)
        for label in rdata.target.labels:
            encoded = label.encode("ascii")
            out.append(len(encoded))
            out += encoded
        out.append(0)
    else:  # pragma: no cover - RData union is closed
        raise WireFormatError(f"cannot encode RDATA of type {type(rdata).__name__}")
    rdlength = len(out) - start
    if rdlength > 0xFFFF:
        raise WireFormatError(f"RDATA exceeds 65535 octets ({rdlength})")
    out[length_at:length_at + 2] = struct.pack("!H", rdlength)


def _encode_record(record: ResourceRecord, compressor: NameCompressor, out: bytearray) -> None:
    compressor.encode_name(record.name, out)
    out += struct.pack("!HHI", int(record.rtype), int(record.rclass), record.ttl)
    _encode_rdata(record, compressor, out)


def encode_message(message: Message) -> bytes:
    """Encode *message* into RFC 1035 wire format with name compression."""
    out = bytearray()
    out += _HEADER.pack(
        message.msg_id,
        message.flags.to_wire_bits(),
        len(message.questions),
        len(message.answers),
        len(message.authorities),
        len(message.additionals),
    )
    compressor = NameCompressor()
    for question in message.questions:
        compressor.encode_name(question.qname, out)
        out += struct.pack("!HH", int(question.qtype), int(question.qclass))
    for section in (message.answers, message.authorities, message.additionals):
        for record in section:
            _encode_record(record, compressor, out)
    return bytes(out)


class _Reader:
    """Cursor over a wire-format message with pointer-safe name decoding."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def need(self, count: int) -> None:
        """Raise :class:`WireFormatError` unless *count* octets remain."""
        if self.offset + count > len(self.data):
            raise WireFormatError(
                f"message truncated: need {count} octets at offset {self.offset}"
            )

    def read(self, count: int) -> bytes:
        """Consume and return the next *count* octets."""
        self.need(count)
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def read_u16(self) -> int:
        """Consume two octets as a network-order unsigned integer."""
        return struct.unpack("!H", self.read(2))[0]

    def read_u32(self) -> int:
        """Consume four octets as a network-order unsigned integer."""
        return struct.unpack("!I", self.read(4))[0]

    def read_name(self) -> DomainName:
        """Decode a possibly-compressed name starting at the cursor."""
        labels = self._name_labels(self.offset, set())
        name = DomainName.from_labels(labels)
        if name.wire_length() > MAX_NAME_WIRE_LENGTH:
            raise WireFormatError(f"decoded name exceeds limit: {name}")
        return name

    def _name_labels(self, offset: int, visited: set[int]) -> list[str]:
        labels: list[str] = []
        jumped = False
        while True:
            if offset >= len(self.data):
                raise WireFormatError("name runs past end of message")
            length = self.data[offset]
            if length & 0xC0 == 0xC0:
                if offset + 1 >= len(self.data):
                    raise WireFormatError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | self.data[offset + 1]
                if target in visited:
                    raise WireFormatError("compression pointer loop")
                visited.add(target)
                if not jumped:
                    self.offset = offset + 2
                    jumped = True
                offset = target
                continue
            if length & 0xC0:
                raise WireFormatError(f"reserved label type 0x{length & 0xC0:02x}")
            if length == 0:
                if not jumped:
                    self.offset = offset + 1
                return labels
            if offset + 1 + length > len(self.data):
                raise WireFormatError("label runs past end of message")
            raw = self.data[offset + 1:offset + 1 + length]
            try:
                labels.append(raw.decode("ascii"))
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"non-ASCII label {raw!r}") from exc
            if len(labels) > 127:
                raise WireFormatError("too many labels in name")
            offset += 1 + length


def _decode_rdata(reader: _Reader, rtype: RRType, rdlength: int) -> RData:
    end = reader.offset + rdlength
    if end > len(reader.data):
        raise WireFormatError("RDATA runs past end of message")
    if rtype == RRType.A:
        rdata: RData = ARecordData.from_wire(reader.read(rdlength))
    elif rtype == RRType.AAAA:
        rdata = AAAARecordData.from_wire(reader.read(rdlength))
    elif rtype in _NAME_RDATA_TYPES:
        rdata = NameRecordData(reader.read_name())
    elif rtype == RRType.MX:
        preference = reader.read_u16()
        rdata = MXRecordData(preference, reader.read_name())
    elif rtype == RRType.TXT:
        rdata = TXTRecordData.from_wire(reader.read(rdlength))
    elif rtype == RRType.SOA:
        mname = reader.read_name()
        rname = reader.read_name()
        serial = reader.read_u32()
        refresh = reader.read_u32()
        retry = reader.read_u32()
        expire = reader.read_u32()
        minimum = reader.read_u32()
        rdata = SOARecordData(mname, rname, serial, refresh, retry, expire, minimum)
    elif rtype == RRType.SRV:
        priority = reader.read_u16()
        weight = reader.read_u16()
        port = reader.read_u16()
        rdata = SRVRecordData(priority, weight, port, reader.read_name())
    else:
        rdata = OpaqueRecordData(reader.read(rdlength))
    if reader.offset != end:
        raise WireFormatError(
            f"RDATA length mismatch for {rtype.name}: "
            f"declared {rdlength}, consumed {rdlength - (end - reader.offset)}"
        )
    return rdata


def _decode_record(reader: _Reader) -> ResourceRecord:
    name = reader.read_name()
    raw_type = reader.read_u16()
    try:
        rtype = RRType(raw_type)
    except ValueError:
        rtype = None  # type: ignore[assignment]
    raw_class = reader.read_u16()
    ttl = reader.read_u32()
    rdlength = reader.read_u16()
    if rtype is None:
        data = reader.read(rdlength)
        # Preserve unknown types as OPT-like opaque records under ANY class.
        raise WireFormatError(f"unsupported RR type {raw_type} for {name}")
    try:
        rclass = RRClass(raw_class)
    except ValueError as exc:
        raise WireFormatError(f"unsupported RR class {raw_class}") from exc
    if ttl > 0x7FFFFFFF:
        # RFC 2181 §8: treat TTLs with the high bit set as zero.
        ttl = 0
    rdata = _decode_rdata(reader, rtype, rdlength)
    return ResourceRecord(name, rtype, rdata, ttl, rclass)


def encode_message_tcp(message: Message) -> bytes:
    """Encode *message* with the 2-octet length prefix of DNS-over-TCP.

    RFC 1035 §4.2.2 (also used by DNS-over-TLS, RFC 7858): each message
    on a stream transport is preceded by its length.
    """
    payload = encode_message(message)
    if len(payload) > 0xFFFF:
        raise WireFormatError(f"message too large for TCP framing: {len(payload)} octets")
    return struct.pack("!H", len(payload)) + payload


def decode_message_stream(data: bytes) -> list[Message]:
    """Decode a concatenation of length-prefixed DNS messages.

    Parses a DNS-over-TCP/TLS stream payload into individual messages;
    raises :class:`WireFormatError` on truncation or trailing garbage.
    """
    messages: list[Message] = []
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise WireFormatError("stream ends inside a length prefix")
        (length,) = struct.unpack("!H", data[offset:offset + 2])
        offset += 2
        if offset + length > len(data):
            raise WireFormatError(
                f"stream ends inside a message (need {length} octets, have {len(data) - offset})"
            )
        messages.append(decode_message(data[offset:offset + length]))
        offset += length
    return messages


def decode_message(data: bytes) -> Message:
    """Decode *data* (one UDP DNS payload) into a :class:`Message`."""
    if len(data) < _HEADER.size:
        raise WireFormatError(f"message shorter than header: {len(data)} octets")
    reader = _Reader(data)
    msg_id, flag_bits, qdcount, ancount, nscount, arcount = _HEADER.unpack(
        reader.read(_HEADER.size)
    )
    flags = Flags.from_wire_bits(flag_bits)
    questions = []
    for _ in range(qdcount):
        qname = reader.read_name()
        raw_qtype = reader.read_u16()
        raw_qclass = reader.read_u16()
        try:
            qtype = RRType(raw_qtype)
            qclass = RRClass(raw_qclass)
        except ValueError as exc:
            raise WireFormatError(
                f"unsupported question type/class {raw_qtype}/{raw_qclass}"
            ) from exc
        questions.append(Question(qname, qtype, qclass))
    sections: list[tuple[ResourceRecord, ...]] = []
    for count in (ancount, nscount, arcount):
        records = tuple(_decode_record(reader) for _ in range(count))
        sections.append(records)
    return Message(
        msg_id=msg_id,
        flags=flags,
        questions=tuple(questions),
        answers=sections[0],
        authorities=sections[1],
        additionals=sections[2],
    )
