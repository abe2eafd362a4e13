"""Devices: the in-home endpoints that generate lookups and connections.

A :class:`Device` owns a stub resolver (with its own local cache, which
may overstay TTLs) and exposes the two primitives application models
build on:

* :meth:`Device.resolve` — resolve a hostname the way an OS stub does:
  local cache first, then the configured upstream resolver. Wire-visible
  transactions are recorded at the monitor.
* :meth:`Device.open_connections` — open one or more application
  connections to a resolved host, recording Zeek-style connection
  summaries (and ground-truth class annotations) at the monitor.

Devices sit behind their house's NAT: the monitor sees the house IP and
a NAT-allocated source port, never the device — matching the paper's
vantage point (§3).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from repro.dns.cache import cache_key
from repro.dns.resolver import StubLookup, StubResolver
from repro.monitor.records import DnsAnswer, GroundTruth, Proto, TruthClass
from repro.simulation.random import lognormal
from repro.workload.namespace import HostProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workload.households import House

_CONN_SETUP_MEDIAN = 0.004
_CONN_SETUP_SIGMA = 0.8
_LN_CONN_SETUP_MEDIAN = math.log(_CONN_SETUP_MEDIAN)

#: The ground truth of every connection that no lookup answered: a
#: hard-coded address, or DNS-over-TLS to the resolver (class N).
_NO_DNS_TRUTH = GroundTruth(TruthClass.NO_DNS)


class Resolution(NamedTuple):
    """Outcome of a device-level name resolution.

    ``hard_failure`` distinguishes a lookup that failed at the transport
    level (timeout after the full retry budget, or SERVFAIL) from a
    definitive NXDOMAIN: applications may retry or fall back to a cached
    address after the former, never after the latter. A
    :class:`~typing.NamedTuple`, like the resolver's results: one is
    built per device resolution.
    """

    hostname: str
    addresses: tuple[str, ...]
    completed_at: float
    truth_class: TruthClass
    dns_uid: str | None
    used_expired_record: bool
    resolver_platform: str | None
    wire_visible: bool
    hard_failure: bool = False

    @property
    def failed(self) -> bool:
        """True when no address was obtained."""
        return not self.addresses


class Device:
    """One endpoint inside a house."""

    def __init__(
        self,
        name: str,
        house: "House",
        stub: StubResolver,
        rng: random.Random,
        kind: str = "laptop",
    ):
        self.name = name
        self.house = house
        self.stub = stub
        self.rng = rng
        self.kind = kind
        # The platform whose resolver most recently answered each host;
        # drives CDN edge choice for subsequent connections.
        self._platform_for_host: dict[str, str] = {}
        # Fraction of HTTPS connections carried over QUIC (UDP 443); the
        # paper treats QUIC as UDP "connections" (§3, footnote 3).
        self.quic_fraction = 0.12
        # When True the device resolves over DNS-over-TLS: its lookups
        # are invisible to the passive monitor (the §3 what-if).
        self.encrypted_dns = False

    def __repr__(self) -> str:
        return f"Device({self.name!r}, kind={self.kind!r})"

    # -- resolution -----------------------------------------------------

    def resolve(self, hostname: str, now: float) -> Resolution:
        """Resolve *hostname* at *now*, recording any wire transaction."""
        # Peek before the lookup: a cache probe that finds the entry
        # expired evicts it, so the entry must be captured now to be
        # available for the connect-by-cached-address fallback. Only the
        # (cheap) entry reference is taken here; its address tuple is
        # materialized in the rare hard-failure case that needs it.
        stale_entry = self.stub.cache.peek(cache_key(hostname))
        lookup = self.stub.lookup(hostname, now, rng=self.rng)
        if lookup.network_transaction:
            resolution = self._record_wire_lookup(hostname, now, lookup)
            if resolution.hard_failure:
                stale_addresses = (
                    tuple(rr.address for rr in stale_entry.records if rr.is_address())
                    if stale_entry is not None
                    else ()
                )
                stale = self._stale_fallback(resolution, stale_addresses)
                if stale is not None:
                    return stale
            return resolution
        if lookup.outcome is not None and lookup.outcome.resource_exhausted:
            # The stub shed the lookup on-device (fd budget exhausted):
            # nothing went out on the wire, so the monitor sees nothing.
            # Like any hard failure, the device may still ride a stale
            # cached address (§5.2's connect-by-cached-address).
            shed = Resolution(
                hostname,
                (),
                now,
                TruthClass.RESOLUTION,
                None,
                False,
                self._platform_for_host.get(hostname),
                False,
                True,
            )
            stale_addresses = (
                tuple(rr.address for rr in stale_entry.records if rr.is_address())
                if stale_entry is not None
                else ()
            )
            fallback = self._stale_fallback(shed, stale_addresses)
            return fallback if fallback is not None else shed
        cache_result = lookup.cache_result
        assert cache_result is not None
        truth = TruthClass.PREFETCHED if cache_result.first_use else TruthClass.LOCAL_CACHE
        # Positional construction (field order per Resolution): this and
        # the wire-path return below run once per device resolution.
        return Resolution(
            hostname,
            lookup.addresses(),
            now,
            truth,
            None,
            cache_result.expired,
            self._platform_for_host.get(hostname),
            False,
        )

    def _record_wire_lookup(self, hostname: str, now: float, lookup: StubLookup) -> Resolution:
        outcome = lookup.outcome
        assert outcome is not None and lookup.resolver_platform is not None
        self._platform_for_host[hostname] = lookup.resolver_platform
        truth = TruthClass.SHARED_CACHE if outcome.cache_hit else TruthClass.RESOLUTION
        if self.encrypted_dns:
            # DNS-over-TLS: the monitor sees only an opaque TCP
            # connection to port 853 — no query, no answers (§3: broad
            # encrypted-DNS use would make the paper's study impossible).
            self.house.capture.record_conn(
                ts=now,
                orig_h=self.house.ip,
                orig_p=self.house.nat_port(),
                resp_h=lookup.resolver_address or "0.0.0.0",
                resp_p=853,
                proto=Proto.TCP,
                duration=lookup.duration_s,
                orig_bytes=int(self.rng.uniform(200, 500)),
                resp_bytes=int(self.rng.uniform(300, 900)),
                service="dot",
                truth=_NO_DNS_TRUTH,
            )
            record_uid = None
        else:
            answers = tuple(
                [
                    DnsAnswer(rr.address, float(rr.ttl), rr.rtype.name)
                    for rr in lookup.records
                    if rr.is_address()
                ]
            )
            record = self.house.capture.record_dns(
                now,
                self.house.ip,
                self.house.nat_port(),
                lookup.resolver_address or "0.0.0.0",
                hostname,
                lookup.duration_s,
                answers,
                "A",
                outcome.rcode_name,
            )
            record_uid = record.uid
        return Resolution(
            hostname,
            lookup.addresses(),
            now + lookup.duration_s,
            truth,
            record_uid,
            False,
            lookup.resolver_platform,
            not self.encrypted_dns,
            outcome.failed,
        )

    def _stale_fallback(
        self, resolution: Resolution, addresses: tuple[str, ...]
    ) -> Resolution | None:
        """Connect-by-cached-address after a hard lookup failure.

        Real stacks (and many applications) keep using the last known
        address when a refresh lookup times out or SERVFAILs. The wire
        already shows the failed transaction; the connections that follow
        ride the expired local-cache entry (ground truth LC, with the
        expired-record marker §5.2 measures).
        """
        if not addresses:
            return None
        return resolution._replace(
            addresses=addresses,
            truth_class=TruthClass.LOCAL_CACHE,
            used_expired_record=True,
            hard_failure=True,
        )

    def prefetch(self, hostname: str, now: float) -> Resolution | None:
        """Speculatively resolve *hostname* (browser link prefetch, §5.2).

        Returns None when the name is already in the local cache — real
        prefetchers skip those. A cache probe without a use must not
        disturb first-use accounting, so we peek first.
        """
        entry = self.stub.cache.peek(cache_key(hostname))
        if entry is not None and not entry.is_expired(now):
            return None
        return self.resolve(hostname, now)

    # -- connections ------------------------------------------------------

    def open_connections(
        self,
        host: HostProfile,
        resolution: Resolution,
        count: int = 1,
        size_scale: float = 1.0,
        parallel: bool = True,
        service: str | None = None,
        port: int = 443,
        proto: Proto = Proto.TCP,
    ) -> float:
        """Open *count* connections to *host* using *resolution*.

        ``parallel`` connections all start within a few tens of
        milliseconds of the resolution completing (a browser's parallel
        fetch); sequential ones spread over the following seconds.
        Returns the time the last connection ends.
        """
        if resolution.failed:
            return resolution.completed_at
        if resolution.wire_visible:
            # The fresh lookup is being consumed right now: mark its cache
            # entry used, so the *next* cache hit counts as re-use (LC
            # truth) rather than first use of a speculative lookup (P).
            self.stub.cache.mark_used(cache_key(resolution.hostname))
        last_end = resolution.completed_at
        # OS/application processing between the DNS answer landing and the
        # SYN leaving: a few milliseconds, occasionally tens (this is the
        # sub-knee mass of the paper's Figure 1).
        setup = lognormal(self.rng, _LN_CONN_SETUP_MEDIAN, _CONN_SETUP_SIGMA)
        start = resolution.completed_at + min(setup, 0.03)
        for index in range(count):
            if index > 0:
                if parallel:
                    start += self.rng.uniform(0.002, 0.022)
                else:
                    start += self.rng.uniform(0.3, 4.0)
            if index == 0:
                truth_class = resolution.truth_class
            elif parallel and resolution.wire_visible:
                # Launched in the same burst as a wire lookup: the whole
                # batch waited on that lookup, so it shares the blocked
                # class (SC/R).
                truth_class = resolution.truth_class
            else:
                # Follow-on connections ride the now-populated local cache.
                truth_class = TruthClass.LOCAL_CACHE
            end = self._open_single(
                host, resolution, start, size_scale, truth_class, service, port, proto
            )
            last_end = max(last_end, end)
        return last_end

    def _open_single(
        self,
        host: HostProfile,
        resolution: Resolution,
        start: float,
        size_scale: float,
        truth_class: TruthClass,
        service: str | None,
        port: int,
        proto: Proto,
    ) -> float:
        rng = self.rng
        house = self.house
        address = rng.choice(resolution.addresses)
        if proto == Proto.TCP and port == 443 and rng.random() < self.quic_fraction:
            proto = Proto.UDP
        size = max(200.0, lognormal(rng, _ln(host.typical_bytes * size_scale), 0.9))
        duration = self._transfer_duration(host, resolution.resolver_platform, size)
        request_bytes = int(rng.uniform(300, 1800))
        # The capture keys this object under the uid it assigns.
        truth = GroundTruth(
            truth_class,
            host.hostname,
            resolution.dns_uid,
            resolution.used_expired_record,
            resolution.resolver_platform,
        )
        house.capture.record_conn(
            start,
            house.ip,
            house.nat_port(),
            address,
            port,
            proto,
            duration,
            request_bytes,
            int(size),
            service if service is not None else ("ssl" if port == 443 else "http"),
            "SF",
            truth,
        )
        return start + duration

    def _transfer_duration(self, host: HostProfile, platform: str | None, size: float) -> float:
        """Connection lifetime: RTT floor plus paced transfer time.

        The edge the CDN mapped this platform's clients to sets the raw
        transfer rate (§7). Real residential connections are not one
        back-to-back blast, though: persistent connections carry objects
        over time (keep-alive, chunking, streaming pacing), so the
        wire-level lifetime stretches the raw transfer by a pacing
        factor. This yields seconds-long durations — the regime in which
        the paper finds DNS contributes >1% to only ~20% of blocked
        transactions (§6) — while keeping measured throughput
        (bytes/duration) ordered by edge quality (Figure 3, bottom).
        """
        factor = 1.0
        if host.cdn_org is not None and platform is not None:
            edge = self.house.universe.cdn_edge(host.cdn_org, platform)
            factor = edge.sample_factor(self.rng, size)
        throughput = host.base_throughput * factor * lognormal(self.rng, 0.0, 0.55)
        rtt_floor = self.rng.uniform(0.02, 0.09)
        # Small transfers (beacons, checks) are one-shot; large ones ride
        # persistent connections that stay open far longer than the raw
        # transfer (keep-alive, chunked delivery).
        pacing_median = 45.0 + 425.0 * min(1.0, size / 2e5)
        pacing = lognormal(self.rng, _ln(pacing_median), 1.2)
        return rtt_floor + pacing * size / max(1e4, throughput)

    def followup_connections(
        self,
        host: HostProfile,
        resolution: Resolution,
        count: int,
        delay_min_s: float = 0.5,
        delay_max_s: float = 8.0,
        size_scale: float = 1.0,
        port: int = 443,
    ) -> None:
        """Later connections riding the same (now locally cached) mapping.

        Keep-alive re-opens, lazy-loaded objects, or a second tab: they
        start seconds after the lookup, so they never block on DNS
        (ground truth LC).
        """
        if resolution.failed:
            return
        start = resolution.completed_at
        for _ in range(count):
            start += self.rng.uniform(delay_min_s, delay_max_s)
            self._open_single(
                host,
                resolution,
                start,
                size_scale,
                TruthClass.LOCAL_CACHE,
                None,
                port,
                Proto.TCP,
            )

    def connect_hardcoded(
        self,
        now: float,
        address: str,
        port: int,
        proto: Proto,
        duration_s: float,
        orig_bytes: int,
        resp_bytes: int,
        service: str = "-",
        conn_state: str = "SF",
    ) -> None:
        """A connection to a hard-coded IP: no DNS involvement (class N)."""
        self.house.capture.record_conn(
            ts=now,
            orig_h=self.house.ip,
            orig_p=self.house.nat_port(),
            resp_h=address,
            resp_p=port,
            proto=proto,
            duration=duration_s,
            orig_bytes=orig_bytes,
            resp_bytes=resp_bytes,
            service=service,
            conn_state=conn_state,
            truth=_NO_DNS_TRUTH,
        )


#: Memo for :func:`_ln`: the arguments are host-profile byte medians
#: (a bounded set per universe), each worth one ``log`` per process.
#: Reset past the cap so many distinct universes in one long-lived
#: process cannot grow it without bound (pure function; a reset only
#: costs recomputed logs).
_LN_CACHE_MAX = 4096
_LN_CACHE: dict[float, float] = {}  # repro-lint: fork-shared(memo of a pure log: a fork worker fills only its copy-on-write copy, and every copy maps an argument to the same value)


def _ln(x: float) -> float:
    value = _LN_CACHE.get(x)
    if value is None:
        value = math.log(max(1e-9, x))
        if len(_LN_CACHE) >= _LN_CACHE_MAX:
            _LN_CACHE.clear()
        _LN_CACHE[x] = value
    return value
