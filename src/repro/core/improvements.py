"""§8: possible DNS improvements — whole-house caching and refreshing.

Two trace-driven simulations:

* :class:`WholeHouseCacheAnalysis` — how many blocked (SC/R) connections
  would have been served by a shared per-residence cache? The paper's
  method: repeated lookups for the same record within its TTL, from the
  same house, are hints that a whole-house cache would have answered.
* :class:`RefreshSimulator` — Table 3: replay the DNS-using connections
  through a per-house cache, either on-demand ("Standard") or with
  entries speculatively refreshed as they expire ("Refresh All", for
  records whose authoritative TTL exceeds a floor, 10 s in the paper).
  The authoritative TTL of a name is approximated by the maximum TTL
  observed for it anywhere in the dataset.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Sequence

from repro.core.classify import BLOCKED_CLASSES, ClassifiedConnection, ConnClass
from repro.errors import AnalysisError
from repro.monitor.records import DnsRecord

REFRESH_TTL_FLOOR = 10.0
"""Records with authoritative TTLs at or below this are not refreshed."""

_completed_at = attrgetter("completed_at")
_first = itemgetter(0)


@dataclass(frozen=True, slots=True)
class WholeHouseCacheAnalysis:
    """§8 "A Whole-House Cache": who would benefit."""

    total_conns: int
    moved_conns: int
    sc_conns: int
    sc_moved: int
    r_conns: int
    r_moved: int

    @property
    def moved_fraction_of_all(self) -> float:
        """Paper: 9.8% of all connections move SC/R → LC."""
        return self.moved_conns / self.total_conns if self.total_conns else 0.0

    @property
    def sc_moved_fraction(self) -> float:
        """Paper: ~22% of SC connections benefit."""
        return self.sc_moved / self.sc_conns if self.sc_conns else 0.0

    @property
    def r_moved_fraction(self) -> float:
        """Paper: ~25% of R connections benefit."""
        return self.r_moved / self.r_conns if self.r_conns else 0.0


def whole_house_cache_analysis(
    dns_records: list[DnsRecord],
    classified: list[ClassifiedConnection],
) -> WholeHouseCacheAnalysis:
    """Simulate a per-residence shared cache over the observed traffic."""
    # (completed, expires) per (house, folded name), in completion
    # order; expires is None for a lookup with no answers.
    lookups: dict[tuple[str, str], list[tuple[float, float | None]]] = defaultdict(list)
    for record in sorted(dns_records, key=_completed_at):
        completed = record.completed_at
        ttl_s = record.min_ttl()
        lookups[record.orig_h, record.query.lower()].append(
            (completed, None if ttl_s is None else completed + ttl_s)
        )
    sc_conns = sc_moved = r_conns = r_moved = 0
    for item in classified:
        if item.conn_class not in BLOCKED_CLASSES:
            continue
        dns = item.dns
        assert dns is not None
        hit = _would_hit(lookups.get((dns.orig_h, dns.query.lower()), ()), dns.ts)
        if item.conn_class == ConnClass.SHARED_CACHE:
            sc_conns += 1
            sc_moved += int(hit)
        else:
            r_conns += 1
            r_moved += int(hit)
    return WholeHouseCacheAnalysis(
        total_conns=len(classified),
        moved_conns=sc_moved + r_moved,
        sc_conns=sc_conns,
        sc_moved=sc_moved,
        r_conns=r_conns,
        r_moved=r_moved,
    )


def _would_hit(entries: Sequence[tuple[float, float | None]], when: float) -> bool:
    """Was one of *entries*, a key's (completed, expires) pairs in
    completion order, that completed before *when* still live then?
    They are scanned newest first, stopping after the first one more
    than 48 h old: TTLs vary per response, so an older lookup can
    outlive a newer one, and the scan is bounded."""
    for index in range(bisect.bisect_left(entries, when, key=_first) - 1, -1, -1):
        completed, expires = entries[index]
        if expires is not None and expires > when:
            return True
        if when - completed > 172800:
            break
    return False


@dataclass(frozen=True, slots=True)
class CacheSimulationResult:
    """One column of Table 3."""

    label: str
    conns: int
    lookups: int
    lookups_per_second_per_house: float
    hit_rate: float

    @property
    def miss_rate(self) -> float:
        """Fraction of simulated queries the cache could not answer."""
        return 1.0 - self.hit_rate


@dataclass(frozen=True, slots=True)
class RefreshComparison:
    """Table 3: the Standard and Refresh-All columns side by side."""

    standard: CacheSimulationResult
    refresh_all: CacheSimulationResult

    @property
    def lookup_blowup(self) -> float:
        """How many times more lookups refreshing costs (paper: ~144×)."""
        if not self.standard.lookups:
            return math.inf
        return self.refresh_all.lookups / self.standard.lookups


class RefreshSimulator:
    """Trace-driven whole-house cache simulation (§8 "Refreshing")."""

    def __init__(
        self,
        dns_records: list[DnsRecord],
        classified: list[ClassifiedConnection],
        ttl_floor_s: float = REFRESH_TTL_FLOOR,
        houses: int | None = None,
    ) -> None:
        if ttl_floor_s < 0:
            raise AnalysisError(f"ttl_floor_s cannot be negative, got {ttl_floor_s}")
        self.ttl_floor_s = ttl_floor_s
        # Authoritative TTL estimate: the maximum TTL observed per name.
        self.auth_ttl: dict[str, float] = {}
        for record in dns_records:
            ttl = record.min_ttl()
            if ttl is None:
                continue
            query = record.query.lower()
            self.auth_ttl[query] = max(self.auth_ttl.get(query, 0.0), ttl)
        # The DNS-using connections (everything but class N), with the
        # house and query of their paired lookup.
        self.events: list[tuple[float, str, str]] = []
        horizon = 0.0
        for item in classified:
            if item.conn_class == ConnClass.NO_DNS:
                continue
            dns = item.dns
            assert dns is not None
            self.events.append((item.conn.ts, dns.orig_h, dns.query.lower()))
            horizon = max(horizon, item.conn.ts)
        self.events.sort()
        self.horizon = horizon
        if houses is not None:
            self.house_count = houses
        else:
            self.house_count = len({house for _, house, _ in self.events})

    def _duration(self) -> float:
        if not self.events:
            return 0.0
        return max(1e-9, self.horizon - self.events[0][0])

    def run_standard(self) -> CacheSimulationResult:
        """An on-demand whole-house cache (Table 3, "Standard")."""
        expiry: dict[tuple[str, str], float] = {}
        hits = 0
        lookups = 0
        for when, house, query in self.events:
            key = (house, query)
            if expiry.get(key, -math.inf) > when:
                hits += 1
                continue
            lookups += 1
            expiry[key] = when + self.auth_ttl.get(query, 0.0)
        return self._result("standard", hits, lookups)

    def run_refresh_all(self) -> CacheSimulationResult:
        """Refresh every entry as it expires (Table 3, "Refresh All").

        Names with authoritative TTL at or below the floor behave like
        the standard cache (they are never refreshed).
        """
        expiry: dict[tuple[str, str], float] = {}
        refreshed_since: dict[tuple[str, str], float] = {}
        hits = 0
        lookups = 0
        for when, house, query in self.events:
            key = (house, query)
            ttl = self.auth_ttl.get(query, 0.0)
            if ttl > self.ttl_floor_s:
                if key in refreshed_since:
                    hits += 1
                else:
                    lookups += 1
                    refreshed_since[key] = when
                continue
            if expiry.get(key, -math.inf) > when:
                hits += 1
                continue
            lookups += 1
            expiry[key] = when + ttl
        # Account the refresh traffic: one query per TTL interval from the
        # first fetch until the end of the trace.
        for (house, query), since in refreshed_since.items():
            ttl = self.auth_ttl[query]
            lookups += int((self.horizon - since) / ttl)
        return self._result("refresh-all", hits, lookups)

    def run_adaptive(
        self,
        idle_multiplier: float = 4.0,
    ) -> CacheSimulationResult:
        """Refresh entries only while they are *in use* (§8's open question).

        The paper leaves open whether ~96% hit rates are achievable at
        costs commensurate with a standard cache. This policy refreshes
        an entry only while its last use is recent — within
        ``idle_multiplier`` TTLs — and lets idle entries expire. Popular
        names stay perpetually fresh (their uses keep the window open);
        one-shot names cost at most ``idle_multiplier`` extra queries.
        """
        if idle_multiplier < 0:
            raise AnalysisError(f"idle_multiplier cannot be negative, got {idle_multiplier}")
        last_use: dict[tuple[str, str], float] = {}
        expiry: dict[tuple[str, str], float] = {}
        hits = 0
        lookups = 0
        for when, house, query in self.events:
            key = (house, query)
            ttl = self.auth_ttl.get(query, 0.0)
            if ttl <= self.ttl_floor_s:
                # Below the floor: plain on-demand caching.
                if expiry.get(key, -math.inf) > when:
                    hits += 1
                else:
                    lookups += 1
                    expiry[key] = when + ttl
                continue
            previous = last_use.get(key)
            if previous is None:
                lookups += 1
            else:
                gap = when - previous
                window = idle_multiplier * ttl
                if gap <= window:
                    # The entry was kept fresh across the whole gap.
                    hits += 1
                    lookups += int(gap / ttl)
                else:
                    # Refreshing stopped once the entry went idle; this
                    # use is a miss that restarts the window.
                    lookups += int(window / ttl)
                    lookups += 1
            last_use[key] = when
        # Tail refreshes: entries keep refreshing until their idle window
        # closes or the trace ends.
        for (house, query), since in last_use.items():
            ttl = self.auth_ttl[query]
            if ttl <= self.ttl_floor_s:
                continue
            horizon_gap = min(self.horizon - since, idle_multiplier * ttl)
            lookups += int(max(0.0, horizon_gap) / ttl)
        return self._result("adaptive", hits, lookups)

    def _result(self, label: str, hits: int, lookups: int) -> CacheSimulationResult:
        conns = len(self.events)
        duration = self._duration()
        per_second_per_house = (
            lookups / duration / self.house_count if duration and self.house_count else 0.0
        )
        return CacheSimulationResult(
            label=label,
            conns=conns,
            lookups=lookups,
            lookups_per_second_per_house=per_second_per_house,
            hit_rate=hits / conns if conns else 0.0,
        )

    def compare(self) -> RefreshComparison:
        """Run both columns of Table 3."""
        return RefreshComparison(standard=self.run_standard(), refresh_all=self.run_refresh_all())
