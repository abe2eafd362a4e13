"""Recursive and stub resolver models.

:class:`RecursiveResolver` models a shared resolver platform (the local
ISP resolvers, Google Public DNS, OpenDNS, Cloudflare in the paper's
Table 1). Each platform has a client-facing latency model, a shared
cache, a latency model toward authoritative servers, and a *cache
effectiveness* knob modelling frontend sharding: large anycast platforms
spread queries over many cache nodes, so a record cached "somewhere" in
the platform is not always visible to the node a query lands on. This is
the mechanism behind the paper's observation that Google's effective
shared-cache hit rate (23.0%) is far below the ISP's (71.2%).

:class:`StubResolver` models the client side: an on-device (or in-home
forwarder) cache probed first, and one or more upstream recursive
resolvers used on a miss. Stub caches may overstay TTLs, reproducing the
TTL violations §5.2 measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.dns.cache import CacheKey, CacheLookup, DnsCache, cache_key
from repro.dns.message import Question, Rcode
from repro.dns.name import DomainName
from repro.dns.rr import NameRecordData, ResourceRecord, RRType
from repro.dns.zone import DnsHierarchy
from repro.errors import NameError_, ResolutionError, ZoneError
from repro.simulation.faults import ConnectionBudget, FaultKind, FaultPlan, RetryPolicy
from repro.simulation.latency import (
    LatencyModel,
    authoritative_latency,
    continental_latency,
    metro_latency,
    regional_latency,
)

_NS_CACHE_PREFIX = "\x00delegation\x00"
_NEGATIVE_TTL = 300.0
_PROCESSING_DELAY = 0.0002


@dataclass(frozen=True, slots=True)
class ResolverProfile:
    """Static description of one recursive resolver platform.

    ``cache_effectiveness`` models frontend sharding: the probability
    that a record cached somewhere in the platform is visible to the
    node a query lands on. ``background_scale`` models the platform's
    *other* clients: a resolver serving a whole ISP (or the world) has
    its cache kept warm by traffic the monitored houses never see. It
    multiplies the name's observed query rate to estimate how likely an
    external client refreshed the entry within its TTL.
    """

    platform: str
    address: str
    client_latency_model: LatencyModel
    auth_latency_model: LatencyModel
    cache_effectiveness: float = 1.0
    background_scale: float = 0.0
    cache_capacity: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.cache_effectiveness <= 1.0:
            raise ResolutionError(
                f"cache_effectiveness must be in [0, 1], got {self.cache_effectiveness}"
            )
        if self.background_scale < 0:
            raise ResolutionError(
                f"background_scale cannot be negative, got {self.background_scale}"
            )


class ResolutionOutcome(NamedTuple):
    """What one query to a recursive resolver produced.

    ``timed_out`` marks a query that never got a response (the monitor
    logs Zeek's ``-`` rcode); ``servfail`` an explicit error response;
    ``truncated`` a UDP answer that forced a TCP retry (visible only as
    extra latency); ``resource_exhausted`` a query shed by a resolver
    whose connection/fd budget was full (logged as REFUSED, and fed to
    the stub's failover machinery like any other hard failure). NXDOMAIN
    remains a *successful* transaction carrying a negative answer.

    This and :class:`StubLookup` are :class:`~typing.NamedTuple`
    subclasses, like the log records: one of each is built per lookup,
    and a tuple is built in one C call where a frozen dataclass pays one
    ``object.__setattr__`` per field.
    """

    qname: DomainName
    qtype: RRType
    records: tuple[ResourceRecord, ...]
    duration_s: float
    cache_hit: bool
    auth_queries: int
    nxdomain: bool = False
    timed_out: bool = False
    servfail: bool = False
    truncated: bool = False
    resource_exhausted: bool = False

    def addresses(self) -> tuple[str, ...]:
        """IP addresses among the answer records."""
        return tuple(rr.address for rr in self.records if rr.is_address())

    @property
    def failed(self) -> bool:
        """Did the transaction fail outright (no usable response)?"""
        return self.timed_out or self.servfail or self.resource_exhausted

    @property
    def rcode_name(self) -> str:
        """The rcode string a Zeek-style monitor would log for this outcome."""
        if self.timed_out:
            return "-"
        if self.servfail:
            return "SERVFAIL"
        if self.resource_exhausted:
            return "REFUSED"
        if self.nxdomain:
            return "NXDOMAIN"
        return "NOERROR"


class RecursiveResolver:
    """A shared recursive resolver platform resolving against a hierarchy."""

    def __init__(
        self,
        profile: ResolverProfile,
        hierarchy: DnsHierarchy,
        rng: random.Random | None = None,
        faults: FaultPlan | None = None,
        cache: DnsCache | None = None,
        connection_budget: ConnectionBudget | None = None,
    ):
        self.profile = profile
        self.hierarchy = hierarchy
        self.cache = cache if cache is not None else DnsCache(capacity=profile.cache_capacity)
        self._rng = rng if rng is not None else random.Random(0)
        self._faults = faults
        self._budget = connection_budget
        # Per-name demand estimates for background-population warming:
        # key -> [query count, first seen, last known TTL].
        self._demand: dict[CacheKey, list[float]] = {}
        # Memoized delegation cache keys (origin folded -> key) and
        # question objects (both immutable): resolution revisits the same
        # bounded set of zones and names for the whole scenario.
        self._delegation_keys: dict[str, CacheKey] = {}
        self._questions: dict[tuple[str, int], Question] = {}
        # RFC 2308 negative cache: key -> (expires at, was NXDOMAIN).
        self._negative: dict[CacheKey, tuple[float, bool]] = {}

    @property
    def platform(self) -> str:
        """The platform label of this resolver's profile."""
        return self.profile.platform

    @property
    def address(self) -> str:
        """The IPv4 address clients send queries to."""
        return self.profile.address

    def resolve(
        self,
        qname: DomainName | str,
        now: float,
        qtype: RRType = RRType.A,
        rng: random.Random | None = None,
    ) -> ResolutionOutcome:
        """Resolve *qname*/*qtype* at simulated time *now*.

        The returned duration covers the full client-observed transaction:
        one client<->resolver round trip plus any authoritative chasing,
        plus any time spent queued for a connection slot when the
        platform runs a :class:`ConnectionBudget`. A shed connection
        returns immediately with ``resource_exhausted`` set (REFUSED).
        """
        rng = rng if rng is not None else self._rng
        name = qname if isinstance(qname, DomainName) else DomainName.intern(qname)
        budget = self._budget
        if budget is None:
            return self._dispatch(name, qtype, now, rng)
        wait_s = budget.admit(now)
        if wait_s is None:
            # Out of connection slots and the queue is too deep: shed.
            duration = self.profile.client_latency_model.sample(rng) + _PROCESSING_DELAY
            return ResolutionOutcome(
                qname=name,
                qtype=qtype,
                records=(),
                duration_s=duration,
                cache_hit=False,
                auth_queries=0,
                resource_exhausted=True,
            )
        start_s = now + wait_s
        outcome = self._dispatch(name, qtype, start_s, rng)
        budget.occupy(start_s, start_s + outcome.duration_s)
        if wait_s > 0.0:
            outcome = outcome._replace(duration_s=outcome.duration_s + wait_s)
        return outcome

    def _dispatch(
        self,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
    ) -> ResolutionOutcome:
        """Route one admitted query through the fault plan or clean path."""
        if self._faults is not None:
            decision = self._faults.decide(self.platform, name.folded(), now)
            if decision.kind is not FaultKind.NONE:
                return self._faulted_resolve(decision.kind, name, qtype, now, rng)
        return self._resolve_clean(name, qtype, now, rng)

    def _faulted_resolve(
        self,
        kind: FaultKind,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
    ) -> ResolutionOutcome:
        """Produce the outcome the fault plan dictated for this query.

        Timeouts are answer-less and free of duration — the *client's*
        retry policy decides how long it waits. Injected SERVFAIL and
        NXDOMAIN cost one client round trip; neither touches the cache or
        demand bookkeeping (the platform never did the work). Truncation
        resolves normally, then pays one extra round trip plus the TCP
        fallback penalty.
        """
        if kind is FaultKind.TIMEOUT:
            return ResolutionOutcome(
                qname=name,
                qtype=qtype,
                records=(),
                duration_s=0.0,
                cache_hit=False,
                auth_queries=0,
                timed_out=True,
            )
        if kind is FaultKind.SERVFAIL:
            duration = self.profile.client_latency_model.sample(rng) + _PROCESSING_DELAY
            return ResolutionOutcome(
                qname=name,
                qtype=qtype,
                records=(),
                duration_s=duration,
                cache_hit=False,
                auth_queries=0,
                servfail=True,
            )
        if kind is FaultKind.NXDOMAIN:
            duration = self.profile.client_latency_model.sample(rng) + _PROCESSING_DELAY
            return ResolutionOutcome(
                qname=name,
                qtype=qtype,
                records=(),
                duration_s=duration,
                cache_hit=False,
                auth_queries=0,
                nxdomain=True,
            )
        assert kind is FaultKind.TRUNCATION and self._faults is not None
        outcome = self._resolve_clean(name, qtype, now, rng)
        penalty = (
            self.profile.client_latency_model.sample(rng)
            + self._faults.config.tcp_fallback_penalty_s
        )
        return outcome._replace(duration_s=outcome.duration_s + penalty, truncated=True)

    def _resolve_clean(
        self,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
    ) -> ResolutionOutcome:
        """The fault-free resolution path (cache, negative cache, chase)."""
        profile = self.profile
        duration = profile.client_latency_model.sample(rng) + _PROCESSING_DELAY

        key = cache_key(name, qtype)
        demand = self._demand.get(key)
        if demand is None:
            demand = [0.0, now, 0.0]
            self._demand[key] = demand
        demand[0] += 1.0

        cached = self.cache.peek(key)
        visible = (
            cached is not None
            and not cached.is_expired(now)
            and rng.random() < profile.cache_effectiveness
        )
        if visible:
            lookup = self.cache.get(key, now)
            if lookup.hit and not lookup.expired:
                return ResolutionOutcome(
                    qname=name,
                    qtype=qtype,
                    records=lookup.records,
                    duration_s=duration,
                    cache_hit=True,
                    auth_queries=0,
                    nxdomain=not lookup.records,
                )
        negative = self._negative.get(key)
        if negative is not None:
            expires_at, was_nxdomain = negative
            if now < expires_at and rng.random() < profile.cache_effectiveness:
                # RFC 2308 negative caching: the non-answer is itself
                # cached, so repeat misses are fast.
                return ResolutionOutcome(
                    qname=name,
                    qtype=qtype,
                    records=(),
                    duration_s=duration,
                    cache_hit=True,
                    auth_queries=0,
                    nxdomain=was_nxdomain,
                )
            if now >= expires_at:
                del self._negative[key]
        if self._background_warm(key, now, rng):
            # Some external client of the platform refreshed this entry
            # within its TTL; the answer is in cache even though none of
            # the monitored houses put it there.
            records, _, nxdomain = self._resolve_authoritatively(name, qtype, now, rng)
            if records:
                ttl = float(min(rr.ttl for rr in records))
                age = rng.uniform(0.0, 0.8 * ttl) if ttl > 0 else 0.0
                aged = tuple(rr.with_ttl(max(0, int(rr.ttl - age))) for rr in records)
                return ResolutionOutcome(
                    qname=name,
                    qtype=qtype,
                    records=aged,
                    duration_s=duration,
                    cache_hit=True,
                    auth_queries=0,
                    nxdomain=nxdomain,
                )
        records, auth_queries, nxdomain = self._resolve_authoritatively(name, qtype, now, rng)
        if records:
            demand[2] = float(min(rr.ttl for rr in records))
        else:
            self._negative[key] = (now + _NEGATIVE_TTL, nxdomain)
        for _ in range(auth_queries):
            duration += profile.auth_latency_model.sample(rng)
        return ResolutionOutcome(
            qname=name,
            qtype=qtype,
            records=records,
            duration_s=duration,
            cache_hit=False,
            auth_queries=auth_queries,
            nxdomain=nxdomain,
        )

    # -- internals -------------------------------------------------------

    def _background_warm(self, key: CacheKey, now: float, rng: random.Random) -> bool:
        """Did the platform's external population keep this entry warm?

        The name's demand among the monitored houses, scaled by the
        platform's ``background_scale``, estimates the external query
        rate; the entry is warm if at least one external query landed
        within the last TTL window (Poisson arrival assumption), and the
        serving frontend shard actually holds it.
        """
        if self.profile.background_scale <= 0:
            return False
        count, first_seen, last_ttl = self._demand[key]
        if last_ttl <= 0 or count < 1:
            return False
        observed_rate = count / max(now - first_seen, 300.0)
        external_rate = observed_rate * self.profile.background_scale
        p_warm = 1.0 - math.exp(-external_rate * last_ttl)
        return rng.random() < p_warm * self.profile.cache_effectiveness

    def _delegation_key(self, origin: DomainName) -> CacheKey:
        folded = origin.folded()
        key = self._delegation_keys.get(folded)
        if key is None:
            key = (_NS_CACHE_PREFIX + folded, int(RRType.NS))
            self._delegation_keys[folded] = key
        return key

    def _resolve_authoritatively(
        self,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
        depth: int = 0,
    ) -> tuple[tuple[ResourceRecord, ...], int, bool]:
        """Iteratively resolve, returning (records, auth queries, nxdomain)."""
        if depth > 8:
            raise ResolutionError(f"resolution of {name} exceeded CNAME depth limit")
        try:
            path = self.hierarchy.resolution_path(name)
        except (ZoneError, NameError_) as exc:
            raise ResolutionError(f"cannot resolve {name}: {exc}") from exc

        # Skip hops whose delegation is already cached; a real resolver
        # keeps NS records for the zones it has visited.
        start_index = 0
        for index, server in enumerate(path[1:], start=1):
            zone = server.zone_for(name)
            if zone is None:
                continue
            hit, expired = self.cache.probe(self._delegation_key(zone.origin), now)
            if hit and not expired:
                start_index = index
        auth_queries = 0
        answer_records: tuple[ResourceRecord, ...] = ()
        nxdomain = False
        question_key = (name.folded(), int(qtype))
        question = self._questions.get(question_key)
        if question is None:
            question = Question(name, qtype)
            self._questions[question_key] = question
        for server in path[start_index:]:
            auth_queries += 1
            answer = server.query(question, requester=self.platform)
            if answer.is_referral:
                referral = answer.referral
                assert referral is not None
                self.cache.put(
                    self._delegation_key(referral.zone),
                    referral.ns_records,
                    now,
                )
                continue
            if answer.rcode == Rcode.NXDOMAIN:
                nxdomain = True
                break
            answer_records = answer.answers
            break

        if nxdomain or not answer_records:
            # Negative-cache the non-answer briefly so repeat misses are
            # served from cache, as RFC 2308 prescribes.
            return (), auth_queries, nxdomain

        addresses = [rr for rr in answer_records if rr.is_address()]
        if not addresses and qtype in (RRType.A, RRType.AAAA):
            cname = next((rr for rr in answer_records if rr.rtype == RRType.CNAME), None)
            if cname is not None:
                assert isinstance(cname.rdata, NameRecordData)
                chased, extra_queries, chased_nx = self._resolve_authoritatively(
                    cname.rdata.target, qtype, now, rng, depth + 1
                )
                answer_records = answer_records + chased
                auth_queries += extra_queries
                nxdomain = chased_nx

        if answer_records:
            self.cache.put(cache_key(name, qtype), answer_records, now)
        return answer_records, auth_queries, nxdomain


class StubLookup(NamedTuple):
    """What a device-side name lookup produced.

    ``network_transaction`` is True when the lookup went out on the wire
    (and is therefore visible to a passive monitor); it is False when the
    local cache answered.
    """

    qname: DomainName
    qtype: RRType
    records: tuple[ResourceRecord, ...]
    duration_s: float
    network_transaction: bool
    resolver_address: str | None = None
    resolver_platform: str | None = None
    outcome: ResolutionOutcome | None = None
    cache_result: CacheLookup | None = None

    def addresses(self) -> tuple[str, ...]:
        """IP addresses among the returned records."""
        return tuple([rr.address for rr in self.records if rr.is_address()])

    @property
    def used_expired_record(self) -> bool:
        """True when a TTL-expired local-cache entry satisfied the lookup."""
        return bool(self.cache_result and self.cache_result.expired)


class StubResolver:
    """Device-side resolution: local cache first, then weighted upstreams."""

    def __init__(
        self,
        upstreams: list[tuple[RecursiveResolver, float]],
        cache: DnsCache | None = None,
        rng: random.Random | None = None,
        retry: RetryPolicy | None = None,
        connection_budget: ConnectionBudget | None = None,
    ):
        if not upstreams:
            raise ResolutionError("a stub resolver needs at least one upstream")
        total_weight = sum(weight for _, weight in upstreams)
        if total_weight <= 0:
            raise ResolutionError("upstream weights must sum to a positive value")
        self._upstreams = upstreams
        self._total_weight = total_weight
        self.cache = cache if cache is not None else DnsCache()
        self._rng = rng if rng is not None else random.Random(0)
        self._retry = retry if retry is not None else RetryPolicy()
        self._budget = connection_budget

    def pick_upstream(self, rng: random.Random | None = None) -> RecursiveResolver:
        """Choose an upstream resolver proportionally to its weight."""
        rng = rng if rng is not None else self._rng
        target = rng.random() * self._total_weight
        acc = 0.0
        for resolver, weight in self._upstreams:
            acc += weight
            if target < acc:
                return resolver
        return self._upstreams[-1][0]

    def lookup(
        self,
        qname: DomainName | str,
        now: float,
        qtype: RRType = RRType.A,
        rng: random.Random | None = None,
        bypass_cache: bool = False,
    ) -> StubLookup:
        """Resolve *qname* as an application on the device would.

        ``bypass_cache`` forces a network transaction (used to model
        applications and prefetchers that always query).
        """
        rng = rng if rng is not None else self._rng
        name = qname if isinstance(qname, DomainName) else DomainName.intern(qname)
        key = cache_key(name, qtype)
        if not bypass_cache:
            cached = self.cache.get(key, now)
            if cached.hit:
                # Positional construction (field order per StubLookup):
                # this and the wire-path return below run once per lookup.
                return StubLookup(name, qtype, cached.records, 0.0, False, None, None, None, cached)
        queue_wait_s = 0.0
        if self._budget is not None:
            admitted = self._budget.admit(now)
            if admitted is None:
                # The device itself is out of sockets: the lookup dies
                # locally, before any wire transaction.
                shed = ResolutionOutcome(
                    qname=name,
                    qtype=qtype,
                    records=(),
                    duration_s=0.0,
                    cache_hit=False,
                    auth_queries=0,
                    resource_exhausted=True,
                )
                return StubLookup(name, qtype, (), 0.0, False, None, None, shed, None)
            queue_wait_s = admitted
        start_s = now + queue_wait_s
        resolver = self.pick_upstream(rng)
        outcome = resolver.resolve(name, start_s, qtype, rng)
        waited_s = queue_wait_s
        if outcome.timed_out:
            outcome, resolver, retry_waited_s = self._retry_after_timeout(
                name, qtype, start_s, rng, resolver
            )
            waited_s += retry_waited_s
        elif outcome.resource_exhausted:
            outcome, resolver, retry_waited_s = self._failover_after_refusal(
                name, qtype, start_s, rng, resolver, outcome
            )
            waited_s += retry_waited_s
        if self._budget is not None:
            self._budget.occupy(start_s, now + waited_s + outcome.duration_s)
        if outcome.records:
            self.cache.put(key, outcome.records, now + waited_s + outcome.duration_s)
        return StubLookup(
            name,
            qtype,
            outcome.records,
            waited_s + outcome.duration_s,
            True,
            resolver.address,
            resolver.platform,
            outcome,
        )

    def _retry_after_timeout(
        self,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
        primary: RecursiveResolver,
    ) -> tuple[ResolutionOutcome, RecursiveResolver, float]:
        """Run the bounded retransmit/failover schedule after a timeout.

        The original query to *primary* has already timed out. Each
        further attempt is issued after waiting out the previous
        attempt's timeout; after exhausting the per-upstream schedule the
        stub fails over to the next configured upstream (at most
        ``max_failovers`` of them). Returns the final outcome, the
        upstream that produced it, and the total time spent waiting on
        dead attempts. When every attempt times out, the outcome is the
        last timed-out one and the wait equals the whole retry budget.
        """
        policy = self._retry
        timeouts = policy.schedule()
        chain: list[RecursiveResolver] = [primary]
        for upstream, _ in self._upstreams:
            if len(chain) > policy.max_failovers:
                break
            if upstream is not primary:
                chain.append(upstream)
        waited_s = timeouts[0]
        last = ResolutionOutcome(
            qname=name,
            qtype=qtype,
            records=(),
            duration_s=0.0,
            cache_hit=False,
            auth_queries=0,
            timed_out=True,
        )
        resolver = primary
        for upstream_index, upstream in enumerate(chain):
            for attempt, timeout_s in enumerate(timeouts):
                if upstream_index == 0 and attempt == 0:
                    continue  # the original query, already timed out
                outcome = upstream.resolve(name, now + waited_s, qtype, rng)
                if not outcome.timed_out:
                    return outcome, upstream, waited_s
                last, resolver = outcome, upstream
                waited_s += timeout_s
        return last, resolver, waited_s

    def _failover_after_refusal(
        self,
        name: DomainName,
        qtype: RRType,
        now: float,
        rng: random.Random,
        primary: RecursiveResolver,
        refused: ResolutionOutcome,
    ) -> tuple[ResolutionOutcome, RecursiveResolver, float]:
        """Fail over after an upstream shed the query (REFUSED).

        Unlike a timeout, a REFUSED response arrives quickly and
        explicitly, so the stub does not wait out its retransmit
        schedule — it retries the next configured upstream immediately
        (at most ``max_failovers`` of them), falling back to the timeout
        schedule only when a failover target itself goes silent. Returns
        the final outcome, the upstream that produced it, and the time
        spent on dead attempts (the returned outcome's own duration is
        the caller's to add, matching :meth:`_retry_after_timeout`).
        """
        policy = self._retry
        timeouts = policy.schedule()
        waited_s = 0.0
        # Cost of the current failure, charged only once another attempt
        # is actually issued (the final failure's cost is the caller's).
        pending_s = refused.duration_s
        last, resolver = refused, primary
        failovers = 0
        for upstream, _ in self._upstreams:
            if upstream is primary:
                continue
            if failovers >= policy.max_failovers:
                break
            failovers += 1
            for timeout_s in timeouts:
                waited_s += pending_s
                outcome = upstream.resolve(name, now + waited_s, qtype, rng)
                if outcome.timed_out:
                    last, resolver, pending_s = outcome, upstream, timeout_s
                    continue
                if outcome.resource_exhausted:
                    # This upstream is shedding too; move to the next.
                    last, resolver, pending_s = outcome, upstream, outcome.duration_s
                    break
                return outcome, upstream, waited_s
        if last.timed_out:
            # A client that ends on a timeout waited that timeout out.
            waited_s += pending_s
        return last, resolver, waited_s


def build_platform_profiles() -> dict[str, ResolverProfile]:
    """Profiles for the four platforms of the paper's Table 1.

    RTTs follow §7: the ISP resolvers sit ~2 ms away, Cloudflare ~9-10 ms,
    Google and OpenDNS ~20 ms. Cache effectiveness is calibrated so the
    §7 shared-cache hit rates (Cloudflare 83.6%, ISP 71.2%, OpenDNS
    58.8%, Google 23.0%) emerge from the default workload.
    """
    return {
        "local": ResolverProfile(
            platform="local",
            address="192.168.200.10",
            client_latency_model=metro_latency(),
            auth_latency_model=authoritative_latency(),
            cache_effectiveness=0.60,
            background_scale=10.0,
        ),
        "google": ResolverProfile(
            platform="google",
            address="8.8.8.8",
            client_latency_model=continental_latency(),
            # Google chases authoritative servers from farther frontends
            # (longer median) but with tight engineering (shorter tail).
            auth_latency_model=LatencyModel(
                base_rtt_s=0.036,
                jitter_median=0.010,
                jitter_sigma=0.55,
                loss_probability=0.002,
            ),
            cache_effectiveness=0.22,
            background_scale=2.0,
        ),
        "opendns": ResolverProfile(
            platform="opendns",
            address="208.67.222.222",
            client_latency_model=continental_latency(),
            auth_latency_model=authoritative_latency(),
            cache_effectiveness=0.50,
            background_scale=8.0,
        ),
        "cloudflare": ResolverProfile(
            platform="cloudflare",
            address="1.1.1.1",
            client_latency_model=regional_latency(),
            auth_latency_model=authoritative_latency().scaled(0.9),
            cache_effectiveness=0.90,
            background_scale=110.0,
        ),
    }
