"""DNS message model (RFC 1035 §4).

A :class:`Message` carries a header, a question section, and three record
sections. Helper constructors build the common shapes: a recursive query
(:func:`make_query`) and a matching response (:func:`make_response`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dns.name import DomainName
from repro.dns.rr import ResourceRecord, RRClass, RRType
from repro.errors import WireFormatError


class Opcode(enum.IntEnum):
    """Message OPCODE values."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """Response RCODE values."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True, slots=True)
class Question:
    """A single entry of the question section."""

    qname: DomainName
    qtype: RRType = RRType.A
    qclass: RRClass = RRClass.IN

    def __str__(self) -> str:
        return f"{self.qname} {self.qclass.name} {self.qtype.name}"


@dataclass(frozen=True, slots=True)
class Flags:
    """Header flag bits (QR, AA, TC, RD, RA) plus opcode and rcode."""

    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: Rcode = Rcode.NOERROR

    def to_wire_bits(self) -> int:
        """Pack the flags into the 16-bit header field."""
        bits = 0
        if self.qr:
            bits |= 0x8000
        bits |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            bits |= 0x0400
        if self.tc:
            bits |= 0x0200
        if self.rd:
            bits |= 0x0100
        if self.ra:
            bits |= 0x0080
        bits |= int(self.rcode) & 0xF
        return bits

    @classmethod
    def from_wire_bits(cls, bits: int) -> "Flags":
        """Unpack the 16-bit header field into a Flags value."""
        try:
            opcode = Opcode((bits >> 11) & 0xF)
        except ValueError as exc:
            raise WireFormatError(f"unknown opcode {(bits >> 11) & 0xF}") from exc
        try:
            rcode = Rcode(bits & 0xF)
        except ValueError as exc:
            raise WireFormatError(f"unknown rcode {bits & 0xF}") from exc
        return cls(
            qr=bool(bits & 0x8000),
            opcode=opcode,
            aa=bool(bits & 0x0400),
            tc=bool(bits & 0x0200),
            rd=bool(bits & 0x0100),
            ra=bool(bits & 0x0080),
            rcode=rcode,
        )


@dataclass(frozen=True, slots=True)
class Message:
    """A complete DNS message."""

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authorities: tuple[ResourceRecord, ...] = ()
    additionals: tuple[ResourceRecord, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.msg_id <= 0xFFFF:
            raise WireFormatError(f"message id out of range: {self.msg_id}")

    @property
    def question(self) -> Question:
        """The sole question; raises if the section is not a singleton."""
        if len(self.questions) != 1:
            raise WireFormatError(
                f"expected exactly one question, found {len(self.questions)}"
            )
        return self.questions[0]

    def is_response(self) -> bool:
        """True when the QR bit is set."""
        return self.flags.qr

    def answer_addresses(self) -> tuple[str, ...]:
        """All IP addresses in the answer section, in order."""
        return tuple(rr.address for rr in self.answers if rr.is_address())

    def min_answer_ttl(self) -> int | None:
        """Smallest TTL across the answer section, or None if empty."""
        if not self.answers:
            return None
        return min(rr.ttl for rr in self.answers)

    def resolve_cname_chain(self, qname: DomainName) -> tuple[ResourceRecord, ...]:
        """Follow CNAMEs from *qname* and return the terminal address records.

        Raises :class:`WireFormatError` on a CNAME loop.
        """
        from repro.dns.rr import NameRecordData  # local import to avoid cycle noise

        current = qname
        seen: set[str] = set()
        while True:
            key = current.folded()
            if key in seen:
                raise WireFormatError(f"CNAME loop at {current}")
            seen.add(key)
            addresses = tuple(
                rr for rr in self.answers if rr.is_address() and rr.name == current
            )
            if addresses:
                return addresses
            cnames = [
                rr
                for rr in self.answers
                if rr.rtype == RRType.CNAME and rr.name == current
            ]
            if not cnames:
                return ()
            rdata = cnames[0].rdata
            assert isinstance(rdata, NameRecordData)
            current = rdata.target


def make_query(
    qname: DomainName | str,
    qtype: RRType | str = RRType.A,
    msg_id: int = 0,
    recursion_desired: bool = True,
) -> Message:
    """Build a standard query message for *qname*/*qtype*."""
    return Message(
        msg_id=msg_id,
        flags=Flags(qr=False, rd=recursion_desired),
        questions=(Question(DomainName(qname), RRType.parse(qtype)),),
    )


def make_response(
    query: Message,
    answers: tuple[ResourceRecord, ...] = (),
    rcode: Rcode = Rcode.NOERROR,
    authoritative: bool = False,
    recursion_available: bool = True,
    authorities: tuple[ResourceRecord, ...] = (),
    additionals: tuple[ResourceRecord, ...] = (),
) -> Message:
    """Build a response mirroring *query*'s id and question section."""
    if query.is_response():
        raise WireFormatError("cannot respond to a message that is itself a response")
    return Message(
        msg_id=query.msg_id,
        flags=Flags(
            qr=True,
            opcode=query.flags.opcode,
            aa=authoritative,
            rd=query.flags.rd,
            ra=recursion_available,
            rcode=rcode,
        ),
        questions=query.questions,
        answers=answers,
        authorities=authorities,
        additionals=additionals,
    )
