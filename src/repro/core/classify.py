"""Connection classification: N / LC / P / SC / R (Table 2).

The paper's taxonomy of DNS-information origin, §5:

* ``N`` — the connection pairs with no DNS lookup at all.
* ``LC`` — starts >100 ms after its paired lookup and is *not* the first
  connection to use it: the mapping came from a local cache.
* ``P`` — starts >100 ms after its paired lookup and *is* the first to
  use it: the lookup was speculative (prefetched) and its cost hid in
  the lag before use.
* ``SC`` — blocked on its lookup, but the lookup was fast enough that
  the shared resolver must have answered from cache.
* ``R`` — blocked, and the lookup took long enough that the resolver
  must have contacted authoritative servers.

The SC/R boundary is a per-resolver duration threshold derived from the
minimum observed lookup duration against that resolver (≈ its RTT),
rounded up (§5.3: a 2 ms minimum to the ISP resolvers yields a 5 ms
threshold). Resolvers with too few lookups get a fixed default.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.blocking import DEFAULT_BLOCKING_THRESHOLD
from repro.core.pairing import PairedConnection
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsRecord


class ConnClass(enum.Enum):
    """DNS-information origin classes of the paper's Table 2."""

    NO_DNS = "N"
    LOCAL_CACHE = "LC"
    PREFETCHED = "P"
    SHARED_CACHE = "SC"
    RESOLUTION = "R"


BLOCKED_CLASSES = (ConnClass.SHARED_CACHE, ConnClass.RESOLUTION)
UNBLOCKED_CLASSES = (ConnClass.NO_DNS, ConnClass.LOCAL_CACHE, ConnClass.PREFETCHED)


@dataclass(frozen=True, slots=True)
class ThresholdPolicy:
    """How per-resolver SC/R duration thresholds are derived.

    ``threshold = ceil(min_duration * multiplier / grid) * grid``,
    floored at ``grid`` — e.g. a 2 ms minimum with the defaults gives
    5 ms, matching §5.3. Resolvers observed fewer than ``min_lookups``
    times use ``default_threshold``.
    """

    multiplier: float = 1.5
    grid: float = 0.005
    min_lookups: int = 200
    default_threshold: float = 0.005

    def derive(self, min_duration_s: float) -> float:
        """The SC/R threshold in seconds for a resolver whose fastest
        observed lookup took *min_duration_s* seconds."""
        if min_duration_s < 0:
            raise AnalysisError(f"negative minimum duration: {min_duration_s}")
        raw = min_duration_s * self.multiplier
        return max(self.grid, math.ceil(raw / self.grid - 1e-9) * self.grid)


@dataclass(frozen=True, slots=True)
class ResolverDurationStats:
    """Per-resolver lookup-duration aggregate (count + fastest lookup).

    These numbers are all threshold derivation needs, and both fold
    exactly (sum / min) — :class:`ResolverObserver` keeps them online
    and merges household shards. ``lookups`` counts *answered*
    transactions only: failed ones (timeout / SERVFAIL) carry the
    client's give-up time, not the resolver's RTT, so letting them into
    the minimum (or the min-lookups gate) would corrupt the SC/R
    thresholds. They are tallied in ``failed_lookups`` instead.
    """

    lookups: int
    min_rtt_s: float
    failed_lookups: int = 0


class ResolverObserver:
    """One-pass per-resolver duration *and* outcome aggregation.

    The incremental form of :func:`collect_resolver_stats` and
    :func:`collect_failure_stats`: feed it DNS records one at a time
    (:meth:`observe`) and read either aggregate at any point. The
    per-connection collectors are thin wrappers over this class, so both
    engines share one implementation and agree exactly — including dict
    insertion order (first-appearance order of each resolver address).

    The streaming engine additionally uses :meth:`threshold_for` to get
    a *running* SC/R threshold mid-stream (sketch mode classifies
    online); exact mode only reads thresholds after the full pass,
    where the running value equals the final one by construction.
    """

    __slots__ = (
        "_counts",
        "_failed",
        "_minima",
        "_queries",
        "_servfails",
        "_timeouts",
        "_nxdomains",
        "_refusals",
    )

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)
        self._failed: dict[str, int] = defaultdict(int)
        self._minima: dict[str, float] = {}
        self._queries: dict[str, int] = defaultdict(int)
        self._servfails: dict[str, int] = defaultdict(int)
        self._timeouts: dict[str, int] = defaultdict(int)
        self._nxdomains: dict[str, int] = defaultdict(int)
        self._refusals: dict[str, int] = defaultdict(int)

    def observe(self, record: DnsRecord) -> None:
        """Fold one DNS transaction into both aggregates."""
        self._queries[record.resp_h] += 1
        if record.is_servfail:
            self._servfails[record.resp_h] += 1
        elif record.is_timeout:
            self._timeouts[record.resp_h] += 1
        elif record.rcode == "REFUSED":
            self._refusals[record.resp_h] += 1
        elif record.rcode == "NXDOMAIN":
            self._nxdomains[record.resp_h] += 1
        if record.failed:
            self._failed[record.resp_h] += 1
            self._counts.setdefault(record.resp_h, 0)
            return
        self._counts[record.resp_h] += 1
        current = self._minima.get(record.resp_h)
        if current is None or record.rtt < current:
            self._minima[record.resp_h] = record.rtt

    def duration_stats(self) -> dict[str, ResolverDurationStats]:
        """Per-resolver duration aggregates seen so far."""
        return {
            resolver: ResolverDurationStats(
                lookups=count,
                min_rtt_s=self._minima.get(resolver, math.inf),
                failed_lookups=self._failed.get(resolver, 0),
            )
            for resolver, count in self._counts.items()
        }

    def failure_stats(self) -> dict[str, ResolverFailureStats]:
        """Per-resolver outcome tallies seen so far."""
        return {
            resolver: ResolverFailureStats(
                queries=count,
                servfails=self._servfails.get(resolver, 0),
                timeouts=self._timeouts.get(resolver, 0),
                nxdomains=self._nxdomains.get(resolver, 0),
                refused=self._refusals.get(resolver, 0),
            )
            for resolver, count in self._queries.items()
        }

    def thresholds(self, policy: "ThresholdPolicy | None" = None) -> dict[str, float]:
        """Per-resolver SC/R thresholds from the records seen so far."""
        return thresholds_from_stats(self.duration_stats(), policy)

    def threshold_for(self, resolver: str, policy: "ThresholdPolicy | None" = None) -> float:
        """Running SC/R threshold for one resolver (default until the
        min-lookups gate is met)."""
        policy = policy if policy is not None else ThresholdPolicy()
        count = self._counts.get(resolver, 0)
        minimum = self._minima.get(resolver)
        if count < policy.min_lookups or minimum is None:
            return policy.default_threshold
        return policy.derive(minimum)

    def merge_from(self, other: "ResolverObserver") -> None:
        """Fold another observer's aggregates into this one (shard merge)."""
        for resolver, count in other._counts.items():
            self._counts[resolver] += count
        for resolver, count in other._failed.items():
            self._failed[resolver] += count
        for resolver, minimum in other._minima.items():
            current = self._minima.get(resolver)
            if current is None or minimum < current:
                self._minima[resolver] = minimum
        for tally, other_tally in (
            (self._queries, other._queries),
            (self._servfails, other._servfails),
            (self._timeouts, other._timeouts),
            (self._nxdomains, other._nxdomains),
            (self._refusals, other._refusals),
        ):
            for resolver, count in other_tally.items():
                tally[resolver] += count


def collect_resolver_stats(dns_records: list[DnsRecord]) -> dict[str, ResolverDurationStats]:
    """Per-resolver-address duration aggregates for *dns_records*."""
    observer = ResolverObserver()
    for record in dns_records:
        observer.observe(record)
    return observer.duration_stats()


def thresholds_from_stats(
    stats: dict[str, ResolverDurationStats],
    policy: ThresholdPolicy | None = None,
) -> dict[str, float]:
    """Per-resolver SC/R thresholds from duration aggregates."""
    policy = policy if policy is not None else ThresholdPolicy()
    thresholds: dict[str, float] = {}
    for resolver, resolver_stats in stats.items():
        if resolver_stats.lookups < policy.min_lookups or not math.isfinite(
            resolver_stats.min_rtt_s
        ):
            thresholds[resolver] = policy.default_threshold
        else:
            thresholds[resolver] = policy.derive(resolver_stats.min_rtt_s)
    return thresholds


def resolver_thresholds(
    dns_records: list[DnsRecord],
    policy: ThresholdPolicy | None = None,
) -> dict[str, float]:
    """Per-resolver-address SC/R thresholds from lookup durations."""
    return thresholds_from_stats(collect_resolver_stats(dns_records), policy)


@dataclass(frozen=True, slots=True)
class ResolverFailureStats:
    """Per-resolver transaction-outcome tally.

    Plain counters, tallied by :class:`ResolverObserver` (whose
    :meth:`~ResolverObserver.merge_from` adds household shards).
    ``nxdomains`` is reported alongside the failures but does not count
    toward :attr:`failure_rate` — a negative answer is a successful
    transaction.
    """

    queries: int = 0
    servfails: int = 0
    timeouts: int = 0
    nxdomains: int = 0
    refused: int = 0

    @property
    def failures(self) -> int:
        """Transactions that produced no usable response."""
        return self.servfails + self.timeouts + self.refused

    @property
    def failure_rate(self) -> float:
        """Failed share of all transactions (0 when none were seen)."""
        if not self.queries:
            return 0.0
        return self.failures / self.queries


def collect_failure_stats(dns_records: list[DnsRecord]) -> dict[str, ResolverFailureStats]:
    """Per-resolver-address outcome tallies for *dns_records*."""
    observer = ResolverObserver()
    for record in dns_records:
        observer.observe(record)
    return observer.failure_stats()


@dataclass(frozen=True, slots=True)
class ClassifiedConnection:
    """A paired connection plus its Table 2 class."""

    pairing: PairedConnection
    conn_class: ConnClass
    resolver_platform: str | None

    @property
    def conn(self) -> ConnRecord:
        """The underlying connection record."""
        return self.pairing.conn

    @property
    def dns(self) -> DnsRecord | None:
        """The paired DNS transaction (None for class N)."""
        return self.pairing.dns

    @property
    def gap(self) -> float | None:
        """Seconds between the lookup answer and the connection start."""
        return self.pairing.gap

    @property
    def lookup_duration(self) -> float | None:
        """Duration of the paired DNS transaction (None for class N)."""
        if self.pairing.dns is None:
            return None
        return self.pairing.dns.rtt

    @property
    def is_blocked(self) -> bool:
        """Did a fresh network lookup hold this connection up (SC or R)?"""
        return self.conn_class in BLOCKED_CLASSES

    @property
    def used_expired_record(self) -> bool:
        """True when the pairing fell back to an expired lookup."""
        return self.pairing.expired_pairing


# Addresses of the four platforms in the synthetic workload; callers
# analysing foreign traces pass their own mapping.
DEFAULT_RESOLVER_NAMES = {
    "192.168.200.10": "local",
    "192.168.200.11": "local",
    "8.8.8.8": "google",
    "8.8.4.4": "google",
    "208.67.222.222": "opendns",
    "208.67.220.220": "opendns",
    "1.1.1.1": "cloudflare",
    "1.0.0.1": "cloudflare",
}


@dataclass(frozen=True, slots=True)
class ClassifierConfig:
    """All heuristic knobs of the classification stage."""

    blocking_threshold: float = DEFAULT_BLOCKING_THRESHOLD
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    resolver_names: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_RESOLVER_NAMES))

    def platform_of(self, resolver_address: str) -> str:
        """The platform label for *resolver_address* ("other" if unmapped)."""
        return self.resolver_names.get(resolver_address, "other")


class Classifier:
    """Applies the N/LC/P/SC/R taxonomy to paired connections.

    The per-resolver SC/R thresholds are derived from *dns_records*.
    """

    def __init__(
        self,
        dns_records: list[DnsRecord],
        config: ClassifierConfig | None = None,
    ) -> None:
        self.config = config if config is not None else ClassifierConfig()
        self.thresholds = resolver_thresholds(dns_records, self.config.threshold_policy)

    def threshold_for(self, resolver_address: str) -> float:
        """The SC/R duration threshold for one resolver address."""
        return self.thresholds.get(
            resolver_address, self.config.threshold_policy.default_threshold
        )

    def classify_one(self, pairing: PairedConnection) -> ClassifiedConnection:
        """Classify a single paired connection."""
        if pairing.dns is None:
            return ClassifiedConnection(pairing, ConnClass.NO_DNS, None)
        platform = self.config.platform_of(pairing.dns.resp_h)
        gap = pairing.gap
        assert gap is not None
        if gap > self.config.blocking_threshold:
            conn_class = (
                ConnClass.PREFETCHED if pairing.first_use else ConnClass.LOCAL_CACHE
            )
        else:
            threshold = self.threshold_for(pairing.dns.resp_h)
            conn_class = (
                ConnClass.SHARED_CACHE
                if pairing.dns.rtt <= threshold
                else ConnClass.RESOLUTION
            )
        return ClassifiedConnection(pairing, conn_class, platform)

    def classify_all(self, paired: list[PairedConnection]) -> list[ClassifiedConnection]:
        """Classify every paired connection."""
        return [self.classify_one(item) for item in paired]


@dataclass(frozen=True, slots=True)
class ClassBreakdown:
    """Table 2: connection counts and shares per class."""

    counts: dict[ConnClass, int]

    @property
    def total(self) -> int:
        """Number of classified connections across all classes."""
        return sum(self.counts.values())

    def share(self, conn_class: ConnClass) -> float:
        """Fraction of all connections in *conn_class*."""
        if not self.total:
            return 0.0
        return self.counts.get(conn_class, 0) / self.total

    def blocked_fraction(self) -> float:
        """Fraction of connections that block awaiting DNS (SC + R)."""
        return self.share(ConnClass.SHARED_CACHE) + self.share(ConnClass.RESOLUTION)

    def shared_cache_hit_rate(self) -> float:
        """SC / (SC + R): the shared resolvers' observed hit rate (§5.3)."""
        blocked = self.counts.get(ConnClass.SHARED_CACHE, 0) + self.counts.get(
            ConnClass.RESOLUTION, 0
        )
        if not blocked:
            return 0.0
        return self.counts.get(ConnClass.SHARED_CACHE, 0) / blocked

    def as_rows(self) -> list[tuple[str, str, int, float]]:
        """(class, description, count, percent) rows in Table 2 order."""
        descriptions = {
            ConnClass.NO_DNS: "No DNS",
            ConnClass.LOCAL_CACHE: "Local Cache",
            ConnClass.PREFETCHED: "Prefetched",
            ConnClass.SHARED_CACHE: "Shared Resolver Cache",
            ConnClass.RESOLUTION: "Requires Resolution",
        }
        rows = []
        for conn_class in (
            ConnClass.NO_DNS,
            ConnClass.LOCAL_CACHE,
            ConnClass.PREFETCHED,
            ConnClass.SHARED_CACHE,
            ConnClass.RESOLUTION,
        ):
            rows.append(
                (
                    conn_class.value,
                    descriptions[conn_class],
                    self.counts.get(conn_class, 0),
                    100.0 * self.share(conn_class),
                )
            )
        return rows


def class_breakdown(classified: list[ClassifiedConnection]) -> ClassBreakdown:
    """Count connections per class (the data behind Table 2)."""
    counts: dict[ConnClass, int] = {}
    for item in classified:
        counts[item.conn_class] = counts.get(item.conn_class, 0) + 1
    return ClassBreakdown(counts=counts)
