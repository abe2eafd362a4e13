"""DNS resource records: types, classes, and typed RDATA.

The model covers the record types that appear in residential DNS traffic
(the dataset the paper analyses): address records (A/AAAA), aliases
(CNAME), delegation (NS), reverse mapping (PTR), mail (MX), text (TXT),
zone authority (SOA), service location (SRV), and EDNS0 (OPT).

Each RDATA kind is a small frozen dataclass with a ``to_wire`` /
``from_wire`` pair used by :mod:`repro.dns.wire`.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass

from repro.dns.name import DomainName
from repro.errors import WireFormatError


class RRType(enum.IntEnum):
    """Resource record TYPE values (RFC 1035 §3.2.2 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    HTTPS = 65
    ANY = 255

    @classmethod
    def parse(cls, value: "int | str | RRType") -> "RRType":
        """Accept an int value, a mnemonic string, or an RRType."""
        if isinstance(value, RRType):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[value.upper()]
        except KeyError as exc:
            raise WireFormatError(f"unknown RR type {value!r}") from exc


class RRClass(enum.IntEnum):
    """Resource record CLASS values (RFC 1035 §3.2.4)."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255


_ADDRESS_TYPES = frozenset({RRType.A, RRType.AAAA})


@dataclass(frozen=True, slots=True)
class ARecordData:
    """RDATA for an A record: a single IPv4 address."""

    address: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", str(ipaddress.IPv4Address(self.address)))

    def to_wire(self) -> bytes:
        """The 4-octet RDATA encoding of the address."""
        return ipaddress.IPv4Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "ARecordData":
        """Decode 4 octets of A RDATA."""
        if len(data) != 4:
            raise WireFormatError(f"A RDATA must be 4 octets, got {len(data)}")
        return cls(str(ipaddress.IPv4Address(data)))

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True)
class AAAARecordData:
    """RDATA for an AAAA record: a single IPv6 address."""

    address: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", str(ipaddress.IPv6Address(self.address)))

    def to_wire(self) -> bytes:
        """The 16-octet RDATA encoding of the address."""
        return ipaddress.IPv6Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "AAAARecordData":
        """Decode 16 octets of AAAA RDATA."""
        if len(data) != 16:
            raise WireFormatError(f"AAAA RDATA must be 16 octets, got {len(data)}")
        return cls(str(ipaddress.IPv6Address(data)))

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True)
class NameRecordData:
    """RDATA holding a single domain name (CNAME, NS, PTR)."""

    target: DomainName

    def __str__(self) -> str:
        return str(self.target)


@dataclass(frozen=True, slots=True)
class MXRecordData:
    """RDATA for an MX record: preference plus exchange name."""

    preference: int
    exchange: DomainName

    def __post_init__(self) -> None:
        if not 0 <= self.preference <= 0xFFFF:
            raise WireFormatError(f"MX preference out of range: {self.preference}")

    def __str__(self) -> str:
        return f"{self.preference} {self.exchange}"


@dataclass(frozen=True, slots=True)
class TXTRecordData:
    """RDATA for a TXT record: one or more character strings."""

    strings: tuple[bytes, ...]

    def __post_init__(self) -> None:
        for chunk in self.strings:
            if len(chunk) > 255:
                raise WireFormatError("TXT character-string exceeds 255 octets")

    def to_wire(self) -> bytes:
        """The length-prefixed character-string RDATA encoding."""
        return b"".join(bytes([len(chunk)]) + chunk for chunk in self.strings)

    @classmethod
    def from_wire(cls, data: bytes) -> "TXTRecordData":
        """Decode a sequence of length-prefixed character-strings."""
        strings: list[bytes] = []
        offset = 0
        while offset < len(data):
            length = data[offset]
            offset += 1
            if offset + length > len(data):
                raise WireFormatError("TXT character-string runs past RDATA")
            strings.append(data[offset:offset + length])
            offset += length
        return cls(tuple(strings))

    @classmethod
    def from_text(cls, *texts: str) -> "TXTRecordData":
        """A TXT RDATA whose character-strings are UTF-8 encodings of *texts*."""
        return cls(tuple(text.encode("utf-8") for text in texts))

    def __str__(self) -> str:
        return " ".join(repr(chunk.decode("utf-8", "replace")) for chunk in self.strings)


@dataclass(frozen=True, slots=True)
class SOARecordData:
    """RDATA for an SOA record (RFC 1035 §3.3.13)."""

    mname: DomainName
    rname: DomainName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def __str__(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True, slots=True)
class SRVRecordData:
    """RDATA for an SRV record (RFC 2782)."""

    priority: int
    weight: int
    port: int
    target: DomainName

    def __post_init__(self) -> None:
        for label, value in (("priority", self.priority), ("weight", self.weight), ("port", self.port)):
            if not 0 <= value <= 0xFFFF:
                raise WireFormatError(f"SRV {label} out of range: {value}")

    def __str__(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target}"


@dataclass(frozen=True, slots=True)
class OpaqueRecordData:
    """RDATA of a type this library does not interpret, kept verbatim."""

    data: bytes

    def to_wire(self) -> bytes:
        """The RDATA exactly as captured."""
        return self.data

    def __str__(self) -> str:
        return self.data.hex()


RData = (
    ARecordData
    | AAAARecordData
    | NameRecordData
    | MXRecordData
    | TXTRecordData
    | SOARecordData
    | SRVRecordData
    | OpaqueRecordData
)

MAX_TTL = 0x7FFFFFFF


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single DNS resource record.

    ``ttl`` is the remaining-lifetime value carried in the response, in
    seconds. Records are immutable; use :meth:`with_ttl` to derive a copy
    with an adjusted TTL (e.g. when a cache serves a partially-aged entry).
    """

    name: DomainName
    rtype: RRType
    rdata: RData
    ttl: int = 300
    rclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= MAX_TTL:
            raise WireFormatError(f"TTL out of range: {self.ttl}")

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record carrying *ttl* seconds of lifetime.

        The record is frozen, so callers that can see the TTL is
        unchanged may share ``self`` instead of calling this (the cache
        does exactly that on its aged-RRset fast path).
        """
        return ResourceRecord(self.name, self.rtype, self.rdata, ttl, self.rclass)

    def is_address(self) -> bool:
        """True for A and AAAA records."""
        return self.rtype in _ADDRESS_TYPES

    @property
    def address(self) -> str:
        """The IP address carried by an A/AAAA record."""
        if not isinstance(self.rdata, (ARecordData, AAAARecordData)):
            raise TypeError(f"{self.rtype.name} record carries no address")
        return self.rdata.address

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} {self.rclass.name} {self.rtype.name} {self.rdata}"


def a_record(name: DomainName | str, address: str, ttl: int = 300) -> ResourceRecord:
    """Convenience constructor for an IN A record."""
    return ResourceRecord(DomainName(name), RRType.A, ARecordData(address), ttl)


def aaaa_record(name: DomainName | str, address: str, ttl: int = 300) -> ResourceRecord:
    """Convenience constructor for an IN AAAA record."""
    return ResourceRecord(DomainName(name), RRType.AAAA, AAAARecordData(address), ttl)


def cname_record(name: DomainName | str, target: DomainName | str, ttl: int = 300) -> ResourceRecord:
    """Convenience constructor for an IN CNAME record."""
    return ResourceRecord(DomainName(name), RRType.CNAME, NameRecordData(DomainName(target)), ttl)


def ns_record(zone: DomainName | str, nameserver: DomainName | str, ttl: int = 172800) -> ResourceRecord:
    """Convenience constructor for an IN NS record."""
    return ResourceRecord(DomainName(zone), RRType.NS, NameRecordData(DomainName(nameserver)), ttl)

