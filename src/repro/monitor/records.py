"""Log record schemas produced by the passive monitor.

These mirror the two Bro/Zeek datasets the paper analyses (§3):

* :class:`DnsRecord` — one DNS transaction as summarised by Bro's DNS
  policy script: timestamps, endpoints, query string, returned resource
  records (answers and their TTLs) and the transaction round-trip time.
* :class:`ConnRecord` — one connection summary from Bro's connection log:
  endpoints, ports, protocol, duration, bytes in each direction.

The analysis layer (:mod:`repro.core`) consumes ONLY these two record
types, exactly as the paper's analysis consumed only the two logs. The
optional :class:`GroundTruth` annotations produced by the synthetic
workload are used solely by validation tests to check the analysis
heuristics against simulated truth — never by the analysis itself.

The record types are :class:`typing.NamedTuple` subclasses, not
dataclasses: a week-scale trace constructs millions of them, and the
tuple ``__new__`` is a C constructor where a frozen-slots dataclass
``__init__`` pays a Python-level ``object.__setattr__`` per field —
the difference is the bulk of log-ingest wall time. They stay
immutable and hashable; the cost is that per-record validation no
longer lives in a ``__post_init__``, so sanity checks on untrusted
values belong to the ingest boundaries — the TSV/JSON parsers and the
binlog block decoder — not here. The numeric rule they share is
defined below (:func:`check_finite` and its siblings), and so are the
range rule for ports and byte counts (:func:`check_port`,
:func:`check_byte_count`) and the text parsers' answer-vector rule
(:func:`build_answers`).
"""

from __future__ import annotations

import enum
import ipaddress
import math
from dataclasses import dataclass
from itertools import repeat
from sys import intern
from typing import NamedTuple, Sequence

from repro.errors import LogFormatError

# The numeric ingest rule, applied by every reader where the bytes come
# in: ``ts``, ``rtt``, ``duration`` and every answer TTL are finite, and
# ``rtt`` and ``duration`` are not negative. A NaN would otherwise sort
# silently into a wrong order statistic, and an infinity makes every sum
# it enters infinite. The checks raise ValueError, which each reader
# turns into a LogFormatError naming the line or block (and which
# lenient TSV ingest quarantines). The scalar forms serve the per-line
# parsers; the column forms scan a binlog column at C speed, with no
# per-record Python loop.

_INF = math.inf


def check_finite(field: str, value: float) -> None:
    """Raise ValueError unless *value* is finite."""
    if not -_INF < value < _INF:
        raise ValueError(f"{field} must be finite: {value}")


def check_elapsed(field: str, value: float) -> None:
    """Raise ValueError unless *value* is finite and not negative."""
    if not 0.0 <= value < _INF:
        check_finite(field, value)
        raise ValueError(f"{field} cannot be negative: {value}")


def check_finite_column(field: str, values: Sequence[float]) -> None:
    """:func:`check_finite` over a whole column."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{field} must be finite")


def check_elapsed_column(field: str, values: Sequence[float]) -> None:
    """:func:`check_elapsed` over a whole column."""
    check_finite_column(field, values)
    if min(values, default=0.0) < 0:
        raise ValueError(f"{field} cannot be negative")


# The range rule, applied by the TSV and JSON rows and by the RBLG
# encoder: a port is 0–65535 and a byte count 0–2^64−1, the u16 and
# u64 widths RBLG stores them in, so every log that reads also
# converts. A violation raises LogFormatError, which the text line loop
# numbers and lenient ingest quarantines.


def check_port(value: int) -> int:
    """Return *value*, or raise LogFormatError unless it is 0–65535."""
    if not 0 <= value <= 0xFFFF:
        raise LogFormatError(f"port out of u16 range: {value}")
    return value


def check_byte_count(value: int) -> int:
    """Return *value*, or raise LogFormatError unless it is 0–2^64−1."""
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        if value < 0:
            raise LogFormatError("byte counts cannot be negative")
        raise LogFormatError(f"byte count out of u64 range: {value}")
    return value


class Proto(enum.Enum):
    """Transport protocol of a connection."""

    TCP = "tcp"
    UDP = "udp"

    @classmethod
    def parse(cls, text: str) -> "Proto":
        try:
            return _PROTOS[text.lower()]
        except KeyError:
            raise LogFormatError(_UNKNOWN_PROTOCOL.format(text)) from None


# A dict lookup: Enum.__call__ costs a Python call chain per parsed row.
_PROTOS = {proto.value: proto for proto in Proto}
_UNKNOWN_PROTOCOL = "unknown protocol {!r}"
# Proto.parse's errors for Zeek's two other ``proto`` values, the flows
# with no TCP or UDP header.
_NO_TRANSPORT = frozenset(map(_UNKNOWN_PROTOCOL.format, ("icmp", "unknown_transport")))


def no_transport(error: Exception) -> bool:
    """Is *error* :meth:`Proto.parse` refusing Zeek's ``icmp`` or
    ``unknown_transport``, in any case? A conn log holds such flows, but
    no record can: the log readers drop them instead of failing."""
    return str(error).lower() in _NO_TRANSPORT


class DnsAnswer(NamedTuple):
    """One answer resource record as logged: data string plus TTL."""

    data: str
    ttl: float
    rtype: str = "A"

    @property
    def is_address(self) -> bool:
        """True for A/AAAA answers (the data is an IP address)."""
        return self.rtype in ("A", "AAAA")


def _answer_type(data: str) -> str:
    """The type of an answer logged without one, read from its *data*.

    An IPv4 literal is A and an IPv6 literal AAAA. Anything else is a
    name, typed CNAME: real Zeek's ``dns.log`` has no ``answer_types``
    column and lists an A query's CNAME targets among its answers.
    """
    try:
        address = ipaddress.ip_address(data)
    except ValueError:
        return "CNAME"
    return "A" if address.version == 4 else "AAAA"


def build_answers(data: list[str], ttls: list, types: list[str]) -> tuple[DnsAnswer, ...]:
    """A logged transaction's answers from its three vectors, for the
    TSV and JSON rows. *ttls* is empty (every TTL 0) or as long as
    *data*; an answer past the end of *types* takes its type from its
    data (:func:`_answer_type`). Data and types are shared through
    :func:`sys.intern`."""
    if ttls and len(ttls) != len(data):
        raise LogFormatError(f"{len(data)} answers but {len(ttls)} TTLs")
    seconds = map(float, ttls) if ttls else repeat(0.0)
    if len(types) < len(data):
        types = types + [_answer_type(text) for text in data[len(types):]]
    return tuple(map(DnsAnswer, map(intern, data), seconds, map(intern, types)))


#: The rcode string Zeek logs for a query that never got a response
#: (the ``rcode_name`` column holds the unset marker).
TIMEOUT_RCODE = "-"

#: rcodes that mean the transaction failed outright: no response at all,
#: or an error response carrying no usable answer. NXDOMAIN is *not*
#: here — it is an authoritative negative answer, a successful
#: transaction about a nonexistent name.
FAILURE_RCODES = frozenset({TIMEOUT_RCODE, "SERVFAIL", "REFUSED"})


class DnsRecord(NamedTuple):
    """A Bro-style DNS transaction summary.

    ``ts`` is the query time; ``rtt`` the query-to-answer delay, so the
    response lands at ``ts + rtt`` — the instant the paper's blocking
    heuristic measures connection gaps from.
    """

    ts: float
    uid: str
    orig_h: str
    orig_p: int
    resp_h: str
    resp_p: int
    query: str
    qtype: str = "A"
    rcode: str = "NOERROR"
    rtt: float = 0.0
    answers: tuple[DnsAnswer, ...] = ()
    proto: Proto = Proto.UDP

    @property
    def completed_at(self) -> float:
        """Time the response was observed (lookup completion)."""
        return self.ts + self.rtt

    @property
    def is_timeout(self) -> bool:
        """True when the query got no response at all (Zeek logs '-')."""
        return self.rcode == TIMEOUT_RCODE

    @property
    def is_servfail(self) -> bool:
        """True when the resolver answered SERVFAIL."""
        return self.rcode == "SERVFAIL"

    @property
    def failed(self) -> bool:
        """Did this transaction fail to produce a usable answer?

        Failed transactions never seed address→name mappings, so pairing
        must not treat them as candidates; NXDOMAIN does not count — it
        is a definitive (negative) answer.
        """
        return self.rcode in FAILURE_RCODES

    def addresses(self) -> tuple[str, ...]:
        """IP addresses in the answer section."""
        return tuple(answer.data for answer in self.answers if answer.is_address)

    def min_ttl(self) -> float | None:
        """Smallest answer TTL, or None when there are no answers."""
        if not self.answers:
            return None
        return min(answer.ttl for answer in self.answers)

    @property
    def expires_at(self) -> float | None:
        """Absolute expiry of the answer RRset (completion + min TTL)."""
        ttl = self.min_ttl()
        if ttl is None:
            return None
        return self.completed_at + ttl


class ConnRecord(NamedTuple):
    """A Bro-style connection summary."""

    ts: float
    uid: str
    orig_h: str
    orig_p: int
    resp_h: str
    resp_p: int
    proto: Proto
    duration: float = 0.0
    orig_bytes: int = 0
    resp_bytes: int = 0
    service: str = "-"
    conn_state: str = "SF"

    @property
    def total_bytes(self) -> int:
        """Bytes carried in both directions."""
        return self.orig_bytes + self.resp_bytes

    @property
    def throughput(self) -> float:
        """Mean goodput in bytes/second (0 for zero-duration connections)."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes / self.duration

    def uses_reserved_port(self) -> bool:
        """True when either endpoint port is a well-known (<1024) port."""
        return self.orig_p < 1024 or self.resp_p < 1024

    def is_high_port_pair(self) -> bool:
        """True when both ports are unreserved — the paper's P2P hallmark."""
        return not self.uses_reserved_port()


class TruthClass(enum.Enum):
    """Ground-truth DNS-information origin for one simulated connection."""

    NO_DNS = "N"
    LOCAL_CACHE = "LC"
    PREFETCHED = "P"
    SHARED_CACHE = "SC"
    RESOLUTION = "R"


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Simulation-side truth for validating the analysis heuristics.

    Produced by the workload generator alongside each connection; the
    capture keys it by the uid it assigns the connection. Not consumed
    by :mod:`repro.core`.
    """

    truth_class: TruthClass
    hostname: str | None = None
    dns_uid: str | None = None
    used_expired_record: bool = False
    resolver_platform: str | None = None
