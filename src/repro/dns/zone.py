"""Authoritative zone data and servers.

The synthetic Internet behind the workload generator is a tree of
:class:`Zone` objects — a root zone delegating to TLD zones delegating to
second-level zones — served by :class:`AuthoritativeServer` instances.
Recursive resolvers (:mod:`repro.dns.resolver`) walk this tree exactly
like real resolvers walk the DNS, which is what gives the `R`-class
lookups in the reproduction their multi-hop latency structure.

Zones support *dynamic* RRsets: a provider callable invoked per query
with the identity of the querying resolver. This models CDN authoritative
servers that pick an edge cluster based on the resolver's location
(the mechanism behind §7's throughput-vs-resolver result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.dns.message import Message, Question, Rcode, make_response
from repro.dns.name import DomainName, ROOT
from repro.dns.rr import ResourceRecord, RRType, a_record, ns_record
from repro.errors import ZoneError

DynamicProvider = Callable[[str], tuple[ResourceRecord, ...]]
"""Signature for dynamic RRset providers: resolver identity -> records."""


class Zone:
    """One authoritative zone: an origin plus its RRsets and delegations."""

    def __init__(self, origin: DomainName | str):
        self.origin = DomainName(origin)
        self._static: dict[tuple[str, int], list[ResourceRecord]] = {}
        self._dynamic: dict[tuple[str, int], DynamicProvider] = {}
        self._delegations: dict[str, list[ResourceRecord]] = {}
        # Query-time memos, invalidated on mutation. Resolvers ask the
        # same bounded set of names over and over; walking a name's
        # ancestor chain (allocating a DomainName per level) on every
        # query dominated generation cost before these caches.
        self._delegation_cache: dict[str, tuple[DomainName, list[ResourceRecord]] | None] = {}
        self._names_cache: set[str] | None = None
        self._suffix_cache: set[str] | None = None

    def __repr__(self) -> str:
        return f"Zone({str(self.origin)!r}, rrsets={len(self._static) + len(self._dynamic)})"

    def _key(self, name: DomainName, rtype: RRType) -> tuple[str, int]:
        return (name.folded(), int(rtype))

    def add(self, record: ResourceRecord) -> None:
        """Add a static record; it must live at or below the origin."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is outside zone {self.origin}")
        self._static.setdefault(self._key(record.name, record.rtype), []).append(record)
        self._names_cache = None
        self._suffix_cache = None

    def add_dynamic(self, name: DomainName | str, rtype: RRType, provider: DynamicProvider) -> None:
        """Register a per-query RRset provider (e.g. CDN edge mapping)."""
        owner = DomainName(name)
        if not owner.is_subdomain_of(self.origin):
            raise ZoneError(f"{owner} is outside zone {self.origin}")
        self._dynamic[self._key(owner, rtype)] = provider
        self._names_cache = None
        self._suffix_cache = None

    def delegate(self, child_zone: DomainName | str, ns_records: Iterable[ResourceRecord]) -> None:
        """Record a delegation of *child_zone* to the given NS records."""
        child = DomainName(child_zone)
        if not child.is_subdomain_of(self.origin) or child == self.origin:
            raise ZoneError(f"{child} is not a proper child of {self.origin}")
        records = list(ns_records)
        if not records or any(rr.rtype != RRType.NS for rr in records):
            raise ZoneError("delegation requires at least one NS record")
        self._delegations[child.folded()] = records
        self._delegation_cache.clear()

    def find_delegation(self, qname: DomainName) -> tuple[DomainName, list[ResourceRecord]] | None:
        """Deepest delegation covering *qname*, if any."""
        memo = qname.folded()
        try:
            return self._delegation_cache[memo]
        except KeyError:
            pass
        best: tuple[DomainName, list[ResourceRecord]] | None = None
        probe = qname
        chain = [probe, *probe.ancestors()]
        for candidate in chain:
            if candidate == self.origin:
                break
            records = self._delegations.get(candidate.folded())
            if records is not None:
                best = (candidate, records)
                break
        self._delegation_cache[memo] = best
        return best

    def lookup(self, qname: DomainName, rtype: RRType, requester: str = "") -> tuple[ResourceRecord, ...]:
        """All records for *qname*/*rtype*, static plus dynamic."""
        key = self._key(qname, rtype)
        records = tuple(self._static.get(key, ()))
        provider = self._dynamic.get(key)
        if provider is not None:
            records += tuple(provider(requester))
        return records

    def names(self) -> set[str]:
        """Folded owner names of every static and dynamic RRset."""
        if self._names_cache is None:
            owners = {name for name, _ in self._static}
            owners |= {name for name, _ in self._dynamic}
            self._names_cache = owners
        return self._names_cache

    def covers_name(self, folded: str) -> bool:
        """Does *folded* exist in the zone, as an owner or empty non-terminal?

        Equivalent to scanning every owner for an exact match or a
        ``owner.endswith("." + folded)`` ancestor relation, but answered
        from a cached set of every owner suffix so each query costs one
        hash probe instead of an O(zone) string scan.
        """
        if self._suffix_cache is None:
            suffixes: set[str] = set()
            for owner in self.names():
                suffixes.add(owner)
                while "." in owner:
                    owner = owner.split(".", 1)[1]
                    suffixes.add(owner)
            self._suffix_cache = suffixes
        return folded in self._suffix_cache


@dataclass(frozen=True, slots=True)
class Referral:
    """A downward referral: the child zone cut and its nameservers."""

    zone: DomainName
    ns_records: tuple[ResourceRecord, ...]


@dataclass(frozen=True, slots=True)
class AuthoritativeAnswer:
    """Result of asking an authoritative server one question."""

    rcode: Rcode
    answers: tuple[ResourceRecord, ...] = ()
    referral: Referral | None = None

    @property
    def is_referral(self) -> bool:
        """Is this answer a delegation to another zone's servers?"""
        return self.referral is not None


class AuthoritativeServer:
    """An authoritative nameserver hosting one or more zones."""

    def __init__(self, name: str, zones: Iterable[Zone] = ()):
        self.name = name
        self._zones: dict[str, Zone] = {}
        self._zone_for_cache: dict[str, Zone | None] = {}
        for zone in zones:
            self.host(zone)

    def host(self, zone: Zone) -> None:
        """Serve *zone* from this server."""
        self._zones[zone.origin.folded()] = zone
        self._zone_for_cache.clear()

    def zone_for(self, qname: DomainName) -> Zone | None:
        """The most specific hosted zone enclosing *qname*."""
        memo = qname.folded()
        try:
            return self._zone_for_cache[memo]
        except KeyError:
            pass
        best: Zone | None = None
        for candidate in (qname, *qname.ancestors()):
            zone = self._zones.get(candidate.folded())
            if zone is not None:
                best = zone
                break
        self._zone_for_cache[memo] = best
        return best

    def query(self, question: Question, requester: str = "") -> AuthoritativeAnswer:
        """Answer one question: data, referral, or NXDOMAIN/REFUSED."""
        zone = self.zone_for(question.qname)
        if zone is None:
            return AuthoritativeAnswer(rcode=Rcode.REFUSED)
        delegation = zone.find_delegation(question.qname)
        if delegation is not None:
            child, ns_records = delegation
            return AuthoritativeAnswer(
                rcode=Rcode.NOERROR,
                referral=Referral(zone=child, ns_records=tuple(ns_records)),
            )
        records = zone.lookup(question.qname, question.qtype, requester)
        if records:
            return AuthoritativeAnswer(rcode=Rcode.NOERROR, answers=records)
        # Follow in-zone CNAMEs so the answer section carries the chain.
        cnames = zone.lookup(question.qname, RRType.CNAME, requester)
        if cnames:
            chain = list(cnames)
            target = chain[0].rdata.target  # type: ignore[union-attr]
            if target.is_subdomain_of(zone.origin):
                chain.extend(zone.lookup(target, question.qtype, requester))
            return AuthoritativeAnswer(rcode=Rcode.NOERROR, answers=tuple(chain))
        if zone.covers_name(question.qname.folded()):
            return AuthoritativeAnswer(rcode=Rcode.NOERROR, answers=())
        return AuthoritativeAnswer(rcode=Rcode.NXDOMAIN)

    def respond(self, query: Message, requester: str = "") -> Message:
        """Build a full response :class:`Message` for *query*."""
        answer = self.query(query.question, requester)
        authorities: tuple[ResourceRecord, ...] = ()
        if answer.referral is not None:
            authorities = answer.referral.ns_records
        return make_response(
            query,
            answers=answer.answers,
            rcode=answer.rcode,
            authoritative=answer.referral is None and answer.rcode != Rcode.REFUSED,
            recursion_available=False,
            authorities=authorities,
        )


class DnsHierarchy:
    """A complete root-to-leaf authoritative tree.

    Builds and owns the root zone, TLD zones, and one zone per registered
    second-level domain, wiring delegations automatically. Recursive
    resolvers resolve against it via :meth:`server_for_zone`.
    """

    def __init__(self) -> None:
        self.root_zone = Zone(ROOT)
        self.root_server = AuthoritativeServer("a.root-servers.example", [self.root_zone])
        self._tld_zones: dict[str, Zone] = {}
        self._tld_servers: dict[str, AuthoritativeServer] = {}
        self._leaf_zones: dict[str, Zone] = {}
        self._leaf_servers: dict[str, AuthoritativeServer] = {}
        # qname -> resolution path memo, invalidated whenever a zone (and
        # therefore a server) is added. Callers must not mutate the list.
        self._path_cache: dict[str, list[AuthoritativeServer]] = {}

    def ensure_tld(self, tld: str) -> Zone:
        """Create (or fetch) the zone for *tld* and delegate from the root."""
        folded = DomainName(tld).folded()
        zone = self._tld_zones.get(folded)
        if zone is None:
            zone = Zone(folded)
            server = AuthoritativeServer(f"ns.{folded}-registry.example", [zone])
            self._tld_zones[folded] = zone
            self._tld_servers[folded] = server
            self.root_zone.delegate(folded, [ns_record(folded, f"ns.{folded}-registry.example")])
            self._path_cache.clear()
        return zone

    def ensure_leaf_zone(self, origin: DomainName | str) -> Zone:
        """Create (or fetch) an authoritative zone for a 2LD like ``cnn.com``."""
        origin_name = DomainName(origin)
        if len(origin_name) < 2:
            raise ZoneError(f"leaf zones must be at least second-level: {origin_name}")
        folded = origin_name.folded()
        zone = self._leaf_zones.get(folded)
        if zone is None:
            tld_zone = self.ensure_tld(str(origin_name.labels[-1]))
            zone = Zone(origin_name)
            server = AuthoritativeServer(f"ns1.{folded}", [zone])
            self._leaf_zones[folded] = zone
            self._leaf_servers[folded] = server
            tld_zone.delegate(origin_name, [ns_record(origin_name, f"ns1.{folded}")])
            self._path_cache.clear()
        return zone

    def zone_origin_for(self, qname: DomainName) -> DomainName:
        """Origin of the leaf zone that would hold *qname*."""
        if len(qname) < 2:
            raise ZoneError(f"no leaf zone can hold {qname}")
        return DomainName.from_labels(qname.labels[-2:])

    def add_address(self, hostname: DomainName | str, address: str, ttl: int = 300) -> ResourceRecord:
        """Register a static A record, creating zones as needed."""
        name = DomainName(hostname)
        zone = self.ensure_leaf_zone(self.zone_origin_for(name))
        record = a_record(name, address, ttl)
        zone.add(record)
        return record

    def add_dynamic_address(self, hostname: DomainName | str, provider: DynamicProvider) -> None:
        """Register a per-resolver dynamic A RRset (CDN-style)."""
        name = DomainName(hostname)
        zone = self.ensure_leaf_zone(self.zone_origin_for(name))
        zone.add_dynamic(name, RRType.A, provider)

    def server_for_zone(self, origin: DomainName) -> AuthoritativeServer:
        """The authoritative server for a zone origin at any level."""
        folded = origin.folded()
        if folded == ".":
            return self.root_server
        server = self._leaf_servers.get(folded) or self._tld_servers.get(folded)
        if server is None:
            raise ZoneError(f"no server hosts zone {origin}")
        return server

    def resolution_path(self, qname: DomainName) -> list[AuthoritativeServer]:
        """Servers a cold resolver must visit to answer *qname*: root, TLD, leaf.

        The returned list is a shared memo entry — treat it as read-only.
        """
        memo = qname.folded()
        cached = self._path_cache.get(memo)
        if cached is not None:
            return cached
        leaf_origin = self.zone_origin_for(qname)
        path = [self.root_server]
        tld = DomainName.from_labels(qname.labels[-1:])
        if tld.folded() in self._tld_servers:
            path.append(self._tld_servers[tld.folded()])
        if leaf_origin.folded() in self._leaf_servers:
            path.append(self._leaf_servers[leaf_origin.folded()])
        self._path_cache[memo] = path
        return path
