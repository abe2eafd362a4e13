"""TTL-aware DNS caches.

The same cache structure backs three different actors in this library:

* the **stub cache** on each simulated device (optionally violating TTLs,
  which §5.2 of the paper measures at 22.2% of local-cache connections),
* the **shared cache** inside each recursive resolver platform, and
* the **whole-house cache** simulated in §8 of the paper.

Entries are keyed by ``(qname, qtype)`` (case-folded). Every entry keeps
its absolute deadlines (see below), plus usage accounting the analysis
layer relies on (first-use detection, expired-use detection).

Capacity-bounded caches evict under one of three pluggable policies
(production resolvers differ here, and it matters under pressure):

* ``"lru"`` — drop the least-recently-used entry (the default, and the
  only behaviour earlier versions had).
* ``"ttl-aware"`` — drop the entry whose (nominal) TTL runs out
  soonest; already-expired entries naturally go first. This mirrors
  resolver caches that prefer reclaiming entries about to die anyway.
* ``"serve-stale"`` — RFC 8767: an expired entry may still be served
  for a bounded *staleness budget* (``stale_ttl_s``, evaluated
  per-entry at store time); eviction reclaims fully-dead entries first,
  then stale ones, then falls back to LRU. Stale serves and
  stale-window expirations are counted separately in
  :class:`CacheStats` so pressure experiments can report them.

**Deadlines are stored at put.** :meth:`DnsCache.put` evaluates the
entry's overstay and (for serve-stale caches) staleness budget once and
stores three absolute times on the :class:`CacheEntry`, associated
left to right::

    expires_at     = stored_at + ttl
    servable_until = expires_at + overstay
    dead_at        = servable_until + stale_budget

The budget is 0 outside serve-stale caches, where ``dead_at ==
servable_until``. An entry is fresh while ``now < expires_at``, served
flagged expired while ``now < servable_until``, served stale while
``now < dead_at``, and gone once ``now >= dead_at``. ``get``,
``probe``, ``purge_expired``, ``expiring_before`` and eviction all
compare ``now`` with these same stored numbers, so an entry exactly at
the boundary is dropped by a purge *and* is a miss on the next lookup,
never one without the other.

The serve-stale victim search walks the entries in LRU order and
compares ``now`` with two stored floats per entry, stopping at the
first dead one: O(capacity) per eviction in the worst case, with no
per-entry lookups besides the walk itself.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.dns.name import DomainName
from repro.dns.rr import ResourceRecord, RRType
from repro.errors import DnsError

CacheKey = tuple[str, int]

#: The pluggable eviction/staleness policies a capacity-bounded cache
#: can run (see the module docstring for semantics).
EVICTION_POLICIES = ("lru", "ttl-aware", "serve-stale")

#: Default per-entry staleness budget for ``"serve-stale"`` caches when
#: none is configured: RFC 8767 §5 recommends serving stale data for at
#: most one to three days; one day is the common implementation default.
RFC8767_DEFAULT_STALE_TTL_S = 86400.0


#: Memo for string-keyed lookups: the hot paths resolve the same bounded
#: hostname universe repeatedly, so each (text, qtype) pair is parsed,
#: validated, and folded exactly once — and, like the interning cache in
#: :mod:`repro.dns.name`, the memo resets past ``_KEY_CACHE_MAX`` so a
#: long-lived driver crossing many scenario universes cannot grow it
#: without bound (it memoizes a pure function; a reset only re-parses).
_KEY_CACHE_MAX = 65536
_KEY_CACHE: dict[tuple[str, int], CacheKey] = {}  # repro-lint: fork-shared(memo of a pure parse: a fork worker fills only its copy-on-write copy, and every copy maps a key to an equal CacheKey)


def cache_key(qname: DomainName | str, qtype: RRType | int = RRType.A) -> CacheKey:
    """Canonical cache key for a name/type pair."""
    qtype_value = int(qtype)
    if isinstance(qname, str):
        memo = (qname, qtype_value)
        key = _KEY_CACHE.get(memo)
        if key is None:
            key = (DomainName.intern(qname).folded(), qtype_value)
            if len(_KEY_CACHE) >= _KEY_CACHE_MAX:
                _KEY_CACHE.clear()
            _KEY_CACHE[memo] = key
        return key
    return (qname.folded(), qtype_value)


@dataclass(slots=True)
class CacheEntry:
    """One cached RRset plus bookkeeping.

    The deadline fields are computed once by :meth:`DnsCache.put` (see
    the module docstring for their association and meaning).
    """

    key: CacheKey
    records: tuple[ResourceRecord, ...]
    stored_at: float
    ttl: float  # repro-lint: disable=UNIT001 RFC 1035 field name; DNS TTLs are seconds by definition and every DNS library spells it 'ttl'
    #: Absolute time at which the entry's TTL runs out.
    expires_at: float
    #: ``expires_at`` plus the tolerated overstay.
    servable_until: float
    #: Staleness budget as evaluated at store time (0 unless serve-stale).
    stale_budget: float
    #: ``servable_until`` plus ``stale_budget``: gone from this instant.
    dead_at: float
    uses: int = 0
    last_used: float | None = None
    #: Memo for :meth:`aged_records`: ``(remaining, records)`` of the
    #: last call. The aged RRset depends only on the whole-second
    #: remaining TTL, so bursts of probes within the same second (a
    #: browser's parallel fetches) reuse one materialized tuple.
    aged_cache: "tuple[int, tuple[ResourceRecord, ...]] | None" = None

    def is_expired(self, now: float) -> bool:
        """True once *now* passes the entry's expiry."""
        return now >= self.expires_at

    def remaining_ttl(self, now: float) -> float:
        """Seconds of TTL left at *now* (negative once expired)."""
        return self.expires_at - now

    def aged_records(self, now: float) -> tuple[ResourceRecord, ...]:
        """Records with TTLs decremented by the entry's age, floored at 0."""
        remaining = max(0, int(self.remaining_ttl(now)))
        cached = self.aged_cache
        if cached is not None and cached[0] == remaining:
            return cached[1]
        records = self.records
        if len(records) == 1:
            # Singleton RRset: reuse the stored tuple outright while the
            # record's own TTL is the binding one.
            rr = records[0]
            aged = records if rr.ttl <= remaining else (rr.with_ttl(remaining),)
        else:
            aged = tuple(
                rr if rr.ttl <= remaining else rr.with_ttl(remaining) for rr in records
            )
        self.aged_cache = (remaining, aged)
        return aged


@dataclass(frozen=True, slots=True)
class CacheLookup:
    """Outcome of a cache probe.

    ``stale`` marks a serve-stale answer (RFC 8767): the entry's TTL —
    and any tolerated overstay — had run out, but it was still inside
    its staleness budget. ``expired`` is True for both overstay hits and
    stale serves; ``stale`` distinguishes the latter.
    """

    hit: bool
    records: tuple[ResourceRecord, ...] = ()
    expired: bool = False
    first_use: bool = False
    entry_age: float = 0.0
    stale: bool = False

    def addresses(self) -> tuple[str, ...]:
        """IP addresses among the returned records."""
        return tuple([rr.address for rr in self.records if rr.is_address()])


#: Shared miss result: frozen, so every miss can return the same object.
_MISS = CacheLookup(hit=False)


@dataclass(slots=True)
class CacheStats:
    """Aggregate counters for one cache instance.

    All fields are plain additive counters, so per-shard (or
    per-resolver) tallies merge by addition into exactly the
    whole-population tally — the contract per-house generation's merge
    step relies on (see :meth:`merged_with` / :meth:`merge`).
    """

    hits: int = 0
    misses: int = 0
    expired_hits: int = 0
    insertions: int = 0
    evictions: int = 0
    refreshes: int = 0
    #: RFC 8767 serve-stale accounting: answers served past TTL (and
    #: overstay) but within the staleness budget, and entries dropped
    #: because even the staleness budget had lapsed.
    stale_serves: int = 0
    stale_expirations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """The counter tally over both samples."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            expired_hits=self.expired_hits + other.expired_hits,
            insertions=self.insertions + other.insertions,
            evictions=self.evictions + other.evictions,
            refreshes=self.refreshes + other.refreshes,
            stale_serves=self.stale_serves + other.stale_serves,
            stale_expirations=self.stale_expirations + other.stale_expirations,
        )

    @classmethod
    def merge(cls, parts: Sequence["CacheStats"]) -> "CacheStats":
        """Merge many tallies (addition is associative and commutative)."""
        merged = cls()
        for part in parts:
            merged = merged.merged_with(part)
        return merged


class DnsCache:
    """An LRU, TTL-aware DNS cache with pluggable eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries, or ``None`` for unbounded.
    overstay:
        Either a constant number of seconds an expired entry may still be
        served (``0`` = strict TTL honoring), or a callable
        ``overstay(key) -> float`` evaluated when the entry is stored.
        This models the real-world TTL violations §5.2 quantifies.
    min_ttl_s / max_ttl_s:
        Clamp stored TTLs, mirroring resolver implementations that floor
        or cap TTLs.
    policy:
        One of :data:`EVICTION_POLICIES`; chooses both the
        capacity-eviction victim and (for ``"serve-stale"``) whether
        expired entries stay servable inside a staleness budget. The
        default ``"lru"`` reproduces the historical behaviour exactly.
    stale_ttl_s:
        Per-entry staleness budget for ``"serve-stale"`` caches: a
        constant number of seconds, or ``stale_ttl_s(key) -> float``
        evaluated at store time. ``0`` (the default) selects
        :data:`RFC8767_DEFAULT_STALE_TTL_S`. Ignored by the other two
        policies, which never serve past TTL + overstay.
    """

    def __init__(
        self,
        capacity: int | None = None,
        overstay: float | Callable[[CacheKey], float] = 0.0,
        min_ttl_s: float = 0.0,
        max_ttl_s: float | None = None,
        policy: str = "lru",
        stale_ttl_s: float | Callable[[CacheKey], float] = 0.0,
    ):
        if capacity is not None and capacity <= 0:
            raise DnsError(f"cache capacity must be positive, got {capacity}")
        if min_ttl_s < 0:
            raise DnsError(f"min_ttl_s must be non-negative, got {min_ttl_s}")
        if max_ttl_s is not None and max_ttl_s < min_ttl_s:
            raise DnsError("max_ttl_s must be >= min_ttl_s")
        if policy not in EVICTION_POLICIES:
            raise DnsError(
                f"unknown cache eviction policy {policy!r}; expected one of {EVICTION_POLICIES}"
            )
        self._capacity = capacity
        self._overstay = overstay
        self._min_ttl_s = min_ttl_s
        self._max_ttl_s = max_ttl_s
        self._policy = policy
        self._serves_stale = policy == "serve-stale"
        if self._serves_stale and not callable(stale_ttl_s) and float(stale_ttl_s) <= 0.0:
            stale_ttl_s = RFC8767_DEFAULT_STALE_TTL_S
        self._stale_ttl_s = stale_ttl_s
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self.stats = CacheStats()

    @property
    def policy(self) -> str:
        """The configured eviction policy (see :data:`EVICTION_POLICIES`)."""
        return self._policy

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over entries in LRU order (least recent first)."""
        return iter(self._entries.values())

    def _overstay_for(self, key: CacheKey) -> float:
        if callable(self._overstay):
            return max(0.0, float(self._overstay(key)))
        return max(0.0, float(self._overstay))

    def _stale_for(self, key: CacheKey) -> float:
        if callable(self._stale_ttl_s):
            return max(0.0, float(self._stale_ttl_s(key)))
        return max(0.0, float(self._stale_ttl_s))

    def _evict_one(self, now: float) -> None:
        """Evict one entry under capacity pressure, per the policy.

        * ``"lru"`` pops the least-recently-used entry (O(1)).
        * ``"ttl-aware"`` scans for the entry whose nominal TTL runs out
          soonest — already-expired entries naturally sort first (O(n),
          acceptable at simulation scale and only paid when over
          capacity).
        * ``"serve-stale"`` reclaims the least-recently-used fully-dead
          entry (past even the staleness budget) first, then the
          least-recently-used stale entry, and only then falls back to
          plain LRU — RFC 8767's "stale data is better than no data"
          applied to eviction.
        """
        entries = self._entries
        if self._policy == "lru":
            entries.popitem(last=False)
        elif self._policy == "ttl-aware":
            victim = min(entries.values(), key=lambda e: e.expires_at).key
            del entries[victim]
        else:
            stale_fallback = None
            for entry in entries.values():  # LRU order, least recent first
                if now >= entry.dead_at:
                    victim = entry.key
                    break
                if stale_fallback is None and now >= entry.servable_until:
                    stale_fallback = entry.key
            else:
                victim = stale_fallback if stale_fallback is not None else next(iter(entries))
            del entries[victim]
        self.stats.evictions += 1

    def put(
        self,
        key: CacheKey,
        records: tuple[ResourceRecord, ...],
        now: float,
        ttl: float | None = None,  # repro-lint: disable=UNIT001 RFC 1035 parameter name; DNS TTLs are seconds by definition and every DNS library spells it 'ttl'
    ) -> CacheEntry:
        """Store *records* under *key* at time *now*.

        ``ttl`` overrides the minimum record TTL when given (the §8
        refresh simulator uses this to apply the max-observed TTL rule).
        """
        if not records:
            raise DnsError("refusing to cache an empty RRset")
        if ttl is not None:
            effective_ttl = float(ttl)
        elif len(records) == 1:
            # Most RRsets in the simulated universe hold one record;
            # skip the generator the min() path would allocate.
            effective_ttl = float(records[0].ttl)
        else:
            effective_ttl = float(min(rr.ttl for rr in records))
        effective_ttl = max(self._min_ttl_s, effective_ttl)
        if self._max_ttl_s is not None:
            effective_ttl = min(self._max_ttl_s, effective_ttl)
        expires_at = now + effective_ttl
        servable_until = expires_at + self._overstay_for(key)
        stale_budget = self._stale_for(key) if self._serves_stale else 0.0
        entry = CacheEntry(
            key,
            records,
            now,
            effective_ttl,
            expires_at,
            servable_until,
            stale_budget,
            servable_until + stale_budget,
        )
        entries = self._entries
        if key in entries:
            del entries[key]
        entries[key] = entry
        self.stats.insertions += 1
        if self._capacity is not None:
            while len(entries) > self._capacity:
                self._evict_one(now)
        return entry

    def get(self, key: CacheKey, now: float) -> CacheLookup:
        """Probe the cache at time *now*, updating usage accounting.

        The expiry test is inlined (rather than going through
        :meth:`CacheEntry.is_expired`) because this is the single hottest
        call in trace generation.
        """
        entries = self._entries
        stats = self.stats
        entry = entries.get(key)
        if entry is None:
            stats.misses += 1
            return _MISS
        expired = now >= entry.expires_at
        stale = False
        if expired:
            if now >= entry.dead_at:
                del entries[key]
                if entry.stale_budget > 0.0:
                    stats.stale_expirations += 1
                stats.misses += 1
                return _MISS
            # Past the tolerated overstay but inside the staleness
            # budget (RFC 8767): a stale serve.
            stale = now >= entry.servable_until
        first_use = entry.uses == 0
        entry.uses += 1
        entry.last_used = now
        entries.move_to_end(key)
        stats.hits += 1
        if expired:
            stats.expired_hits += 1
            if stale:
                stats.stale_serves += 1
        return CacheLookup(
            True,
            entry.aged_records(now) if not expired else entry.records,
            expired,
            first_use,
            now - entry.stored_at,
            stale,
        )

    def probe(self, key: CacheKey, now: float) -> tuple[bool, bool]:
        """Probe the cache at *now*, returning only ``(hit, expired)``.

        Behaviourally identical to :meth:`get` — same stats counters,
        LRU movement, usage accounting, and overstay eviction — but
        skips materializing the aged RRset and the :class:`CacheLookup`.
        For callers that only need freshness (the resolver's delegation
        checks probe once per zone hop per resolution).
        """
        entries = self._entries
        stats = self.stats
        entry = entries.get(key)
        if entry is None:
            stats.misses += 1
            return (False, False)
        expired = now >= entry.expires_at
        stale = False
        if expired:
            if now >= entry.dead_at:
                del entries[key]
                if entry.stale_budget > 0.0:
                    stats.stale_expirations += 1
                stats.misses += 1
                return (False, False)
            stale = now >= entry.servable_until
        entry.uses += 1
        entry.last_used = now
        entries.move_to_end(key)
        stats.hits += 1
        if expired:
            stats.expired_hits += 1
            if stale:
                stats.stale_serves += 1
        return (True, expired)

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Return the entry for *key* without touching usage accounting.

        Applies **no** expiry notion at all: callers get the raw entry
        even when it is past every window (they compare ``now`` with its
        stored deadlines themselves).
        """
        return self._entries.get(key)

    def refresh(
        self,
        key: CacheKey,
        records: tuple[ResourceRecord, ...],
        now: float,
        ttl: float | None = None,  # repro-lint: disable=UNIT001 RFC 1035 parameter name; DNS TTLs are seconds by definition and every DNS library spells it 'ttl'
    ) -> CacheEntry:
        """Replace an entry in place, preserving its usage counters.

        Used by the §8 refresh-on-expiry simulator: a refreshed entry is
        not a "new" name, so first-use accounting must survive.
        """
        previous = self._entries.get(key)
        entry = self.put(key, records, now, ttl=ttl)
        if previous is not None:
            entry.uses = previous.uses
            entry.last_used = previous.last_used
        self.stats.refreshes += 1
        # put() counted an insertion; a refresh should not.
        self.stats.insertions -= 1
        return entry

    def purge_expired(self, now: float) -> int:
        """Drop every entry that a lookup at *now* would no longer serve.

        Compares *now* with each entry's stored ``dead_at`` (the
        overstay- and, for serve-stale caches, stale-extended deadline),
        the same number :meth:`get` compares with — an entry exactly at
        the boundary is purged here *and* would have been a miss on the
        next :meth:`get`, never one without the other.
        """
        entries = self._entries
        doomed = [entry for entry in entries.values() if now >= entry.dead_at]
        stats = self.stats
        for entry in doomed:
            if entry.stale_budget > 0.0:
                stats.stale_expirations += 1
            del entries[entry.key]
        return len(doomed)

    def expiring_before(self, deadline: float, nominal: bool = False) -> list[CacheEntry]:
        """Entries a lookup at *deadline* would no longer serve.

        By default this compares with the same stored ``dead_at`` as
        :meth:`get` and :meth:`purge_expired` (an entry is included once
        ``dead_at <= deadline``), so refresh-on-expiry simulations never
        treat a still-servable entry as gone. Pass ``nominal=True`` for
        the raw-TTL notion (``expires_at < deadline``, ignoring overstay
        and staleness), which is what refresh schedulers planning *ahead
        of* expiry want.
        """
        if nominal:
            return [entry for entry in self._entries.values() if entry.expires_at < deadline]
        return [entry for entry in self._entries.values() if entry.dead_at <= deadline]

    def clear(self) -> None:
        """Drop all entries (stats are preserved)."""
        self._entries.clear()
