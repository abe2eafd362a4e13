"""TTL-aware DNS caches.

The same cache structure backs two actors in this library:

* the **stub cache** on each simulated device (optionally violating TTLs,
  which §5.2 of the paper measures at 22.2% of local-cache connections),
  whose first-use flag separates a prefetched connection (P) from a
  local-cache one (LC) in the simulator's ground truth, and
* the **shared cache** inside each recursive resolver platform.

Entries are keyed by ``(qname, qtype)`` (case-folded). Every entry keeps
its absolute deadlines (see below) and whether it has been used.

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

    expires_at     = now + ttl
    servable_until = expires_at + overstay
    dead_at        = servable_until + stale_budget

The budget is 0 outside serve-stale caches, where ``dead_at ==
servable_until``. An entry is fresh while ``now < expires_at``, served
flagged expired while ``now < servable_until``, served stale while
``now < dead_at``, and gone once ``now >= dead_at``.

**One lookup rule.** :meth:`DnsCache.get` and :meth:`DnsCache.probe`
are two views of one lookup step, which compares ``now`` with those
stored numbers, drops a dead entry, counts the outcome, moves a hit to
the most-recently-used end and marks the entry used. ``get`` builds the
aged RRset and a :class:`CacheLookup`; ``probe`` returns ``(hit,
expired)`` and builds neither. Eviction compares with the same stored
numbers.

**Eviction bounds.** A serve-stale cache keeps two lower bounds beside
its entries: their earliest ``servable_until`` and earliest
``dead_at``. Every ``put`` lowers them; removing an entry can only
raise the true minimum, so they stay lower bounds whatever order the
puts' times arrive in. At a ``now`` below the dead bound no entry is
dead, and the walk for one is skipped; below the stale bound too, the
LRU head is the victim at once. Otherwise the walk runs in LRU order
as it always did and stops at the first match, so the victim is the
one a full walk would pick. A walk that finds no match has found its
bound loose, and resets it to the exact minimum in one C-level pass.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

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
    #: Absolute time at which the entry's TTL runs out.
    expires_at: float
    #: ``expires_at`` plus the tolerated overstay.
    servable_until: float
    #: Staleness budget as evaluated at store time (0 unless serve-stale).
    stale_budget: float
    #: ``servable_until`` plus ``stale_budget``: gone from this instant.
    dead_at: float
    #: Set by the cache alone: by a lookup hit or :meth:`DnsCache.mark_used`.
    used: bool = False
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


class CacheLookup(NamedTuple):
    """Outcome of a cache lookup.

    ``first_use`` is True when the hit is the entry's first use.
    ``stale`` marks a serve-stale answer (RFC 8767): the entry's TTL —
    and any tolerated overstay — had run out, but it was still inside
    its staleness budget. ``expired`` is True for both overstay hits and
    stale serves; ``stale`` distinguishes the latter.
    """

    hit: bool
    records: tuple[ResourceRecord, ...] = ()
    expired: bool = False
    first_use: bool = False
    stale: bool = False

    def addresses(self) -> tuple[str, ...]:
        """IP addresses among the returned records."""
        return tuple([rr.address for rr in self.records if rr.is_address()])


#: Shared miss result: immutable, so every miss can return the same object.
_MISS = CacheLookup(hit=False)

_SERVABLE_UNTIL = attrgetter("servable_until")
_DEAD_AT = attrgetter("dead_at")


@dataclass(slots=True)
class CacheStats:
    """Aggregate counters for one cache instance.

    The stub and the resolver caches are read alike: generation copies
    each cache's counters into the run's additive
    :class:`~repro.core.parallel.PressureStats` tally, house by house.
    """

    hits: int = 0
    misses: int = 0
    expired_hits: int = 0
    evictions: int = 0
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
        policy: str = "lru",
        stale_ttl_s: float | Callable[[CacheKey], float] = 0.0,
    ):
        if capacity is not None and capacity <= 0:
            raise DnsError(f"cache capacity must be positive, got {capacity}")
        if policy not in EVICTION_POLICIES:
            raise DnsError(
                f"unknown cache eviction policy {policy!r}; expected one of {EVICTION_POLICIES}"
            )
        self._capacity = capacity
        self._overstay = overstay
        self._policy = policy
        self._serves_stale = policy == "serve-stale"
        if self._serves_stale and not callable(stale_ttl_s) and float(stale_ttl_s) <= 0.0:
            stale_ttl_s = RFC8767_DEFAULT_STALE_TTL_S
        self._stale_ttl_s = stale_ttl_s
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        # Serve-stale only: lower bounds of the entries' servable_until
        # and dead_at (see "Eviction bounds" in the module docstring).
        self._servable_floor_s = math.inf
        self._dead_floor_s = math.inf
        self.stats = CacheStats()

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
            del entries[self._stale_victim(now)]
        self.stats.evictions += 1

    def _stale_victim(self, now: float) -> CacheKey:
        """The serve-stale victim at *now*, with walks the bounds rule out skipped.

        A walk runs only when *now* has reached its bound, and stops at
        the first match in LRU order. A walk that finds none has found
        its bound loose, and resets it to the exact minimum.
        """
        entries = self._entries
        if now >= self._dead_floor_s:
            stale_fallback = None
            for entry in entries.values():  # LRU order, least recent first
                if now >= entry.dead_at:
                    return entry.key
                if stale_fallback is None and now >= entry.servable_until:
                    stale_fallback = entry.key
            self._dead_floor_s = min(map(_DEAD_AT, entries.values()))
            if stale_fallback is not None:
                return stale_fallback
        if now >= self._servable_floor_s:
            for entry in entries.values():
                if now >= entry.servable_until:
                    return entry.key
            self._servable_floor_s = min(map(_SERVABLE_UNTIL, entries.values()))
        return next(iter(entries))

    def put(self, key: CacheKey, records: tuple[ResourceRecord, ...], now: float) -> CacheEntry:
        """Store *records* under *key* at time *now*, for their minimum TTL.

        The stub stores each answer it receives, and the resolver each
        answer and delegation it learns.
        """
        if not records:
            raise DnsError("refusing to cache an empty RRset")
        if len(records) == 1:
            # Most RRsets in the simulated universe hold one record;
            # skip the generator the min() path would allocate.
            expires_at = now + float(records[0].ttl)
        else:
            expires_at = now + float(min(rr.ttl for rr in records))
        servable_until = expires_at + self._overstay_for(key)
        if self._serves_stale:
            stale_budget = self._stale_for(key)
            dead_at = servable_until + stale_budget
            if servable_until < self._servable_floor_s:
                self._servable_floor_s = servable_until
            if dead_at < self._dead_floor_s:
                self._dead_floor_s = dead_at
        else:
            stale_budget, dead_at = 0.0, servable_until
        entry = CacheEntry(key, records, expires_at, servable_until, stale_budget, dead_at)
        entries = self._entries
        if key in entries:
            del entries[key]
        entries[key] = entry
        if self._capacity is not None:
            while len(entries) > self._capacity:
                self._evict_one(now)
        return entry

    def _serve(self, key: CacheKey, now: float) -> tuple[CacheEntry, bool, bool, bool] | None:
        """The one lookup step: ``(entry, expired, stale, first_use)``, or None on a miss.

        Counts the outcome, drops an entry past even its staleness
        budget (a miss), and moves a hit to the most-recently-used end
        and marks it used. The expiry test is inlined (rather than going
        through :meth:`CacheEntry.is_expired`) because this is the
        hottest call in trace generation.
        """
        entries = self._entries
        stats = self.stats
        entry = entries.get(key)
        if entry is None:
            stats.misses += 1
            return None
        expired = now >= entry.expires_at
        stale = False
        if expired:
            if now >= entry.dead_at:
                del entries[key]
                if entry.stale_budget > 0.0:
                    stats.stale_expirations += 1
                stats.misses += 1
                return None
            # Past the tolerated overstay but inside the staleness
            # budget (RFC 8767): a stale serve.
            stale = now >= entry.servable_until
            stats.expired_hits += 1
            if stale:
                stats.stale_serves += 1
        stats.hits += 1
        entries.move_to_end(key)
        first_use = not entry.used
        entry.used = True
        return entry, expired, stale, first_use

    def get(self, key: CacheKey, now: float) -> CacheLookup:
        """Look *key* up at time *now*; a fresh hit carries the aged RRset."""
        served = self._serve(key, now)
        if served is None:
            return _MISS
        entry, expired, stale, first_use = served
        records = entry.records if expired else entry.aged_records(now)
        return CacheLookup(True, records, expired, first_use, stale)

    def probe(self, key: CacheKey, now: float) -> tuple[bool, bool]:
        """Look *key* up at *now* as :meth:`get` does, returning only ``(hit, expired)``.

        Builds neither the aged RRset nor a :class:`CacheLookup`: the
        resolver's delegation checks probe once per zone hop per
        resolution and need only freshness.
        """
        served = self._serve(key, now)
        if served is None:
            return (False, False)
        return (True, served[1])

    def mark_used(self, key: CacheKey) -> None:
        """Mark *key*'s entry used, so its next hit is not a first use.

        The device calls this when it consumes an answer it just
        fetched. Like :meth:`peek`, it applies no expiry notion and
        touches neither the counters nor the LRU order.
        """
        entry = self._entries.get(key)
        if entry is not None:
            entry.used = True

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Return the entry for *key* without touching usage accounting.

        Applies **no** expiry notion at all: callers get the raw entry
        even when it is past every window (they compare ``now`` with its
        stored deadlines themselves).
        """
        return self._entries.get(key)
