"""Population characterization: the §3-style dataset description.

Before diving into the contextual analysis, the paper characterizes its
dataset: connection/lookup volumes, protocol mix, per-house activity,
name popularity, and TTLs. This module computes the same
characterization for any trace, so a downstream user can sanity-check
their own logs against the residential baseline (and so the synthetic
workload can be audited against the paper's §3 description).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.stats import Cdf, percentile
from repro.errors import AnalysisError
from repro.monitor.capture import Trace
from repro.monitor.records import Proto


@dataclass(frozen=True, slots=True)
class HouseActivity:
    """One house's share of the dataset."""

    house: str
    conns: int
    lookups: int
    bytes_total: int


@dataclass(frozen=True, slots=True)
class PopulationStats:
    """Dataset characterization in the spirit of the paper's §3."""

    houses: int
    conns: int
    dns_transactions: int
    tcp_fraction: float
    udp_fraction: float
    duration: float
    conns_per_house_median: float
    lookups_per_house_median: float
    top_queries: list[tuple[str, int]]
    ttl_quantiles: dict[str, float]
    distinct_names: int
    per_house: list[HouseActivity]

    def summary(self) -> str:
        """A §3-style paragraph about the dataset."""
        return (
            f"{self.dns_transactions} DNS transactions and {self.conns} connections "
            f"({100 * self.tcp_fraction:.0f}% TCP / {100 * self.udp_fraction:.0f}% UDP) "
            f"from {self.houses} houses over {self.duration / 3600:.1f} hours; "
            f"median house: {self.conns_per_house_median:.0f} connections, "
            f"{self.lookups_per_house_median:.0f} lookups; "
            f"{self.distinct_names} distinct names "
            f"(median answer TTL {self.ttl_quantiles['p50']:.0f}s)"
        )


def characterize(trace: Trace, top: int = 10) -> PopulationStats:
    """Compute :class:`PopulationStats` for *trace*."""
    if not trace.conns:
        raise AnalysisError("cannot characterize a trace with no connections")
    conns_by_house: Counter[str] = Counter()
    bytes_by_house: Counter[str] = Counter()
    tcp = 0
    for conn in trace.conns:
        conns_by_house[conn.orig_h] += 1
        bytes_by_house[conn.orig_h] += conn.total_bytes
        if conn.proto == Proto.TCP:
            tcp += 1
    lookups_by_house: Counter[str] = Counter()
    query_counts: Counter[str] = Counter()
    ttls: list[float] = []
    for record in trace.dns:
        lookups_by_house[record.orig_h] += 1
        query_counts[record.query.lower()] += 1
        ttl = record.min_ttl()
        if ttl is not None:
            ttls.append(ttl)
    houses = sorted(set(conns_by_house) | set(lookups_by_house))
    per_house = [
        HouseActivity(
            house=house,
            conns=conns_by_house.get(house, 0),
            lookups=lookups_by_house.get(house, 0),
            bytes_total=bytes_by_house.get(house, 0),
        )
        for house in houses
    ]
    conn_counts = [activity.conns for activity in per_house]
    lookup_counts = [activity.lookups for activity in per_house]
    if ttls:
        ttl_cdf = Cdf.from_values(ttls)
        ttl_quantiles = {
            "p10": ttl_cdf.percentile(10),
            "p50": ttl_cdf.percentile(50),
            "p90": ttl_cdf.percentile(90),
        }
    else:
        ttl_quantiles = {"p10": 0.0, "p50": 0.0, "p90": 0.0}
    duration = trace.duration
    if duration <= 0 and trace.conns:
        duration = trace.conns[-1].ts - trace.conns[0].ts
    return PopulationStats(
        houses=len(houses),
        conns=len(trace.conns),
        dns_transactions=len(trace.dns),
        tcp_fraction=tcp / len(trace.conns),
        udp_fraction=1.0 - tcp / len(trace.conns),
        duration=duration,
        conns_per_house_median=percentile(conn_counts, 50) if conn_counts else 0.0,
        lookups_per_house_median=percentile(lookup_counts, 50) if lookup_counts else 0.0,
        top_queries=query_counts.most_common(top),
        ttl_quantiles=ttl_quantiles,
        distinct_names=len(query_counts),
        per_house=per_house,
    )


def popularity_skew(trace: Trace) -> float:
    """The share of lookups going to the top 10% of names.

    Residential name popularity is heavy-tailed (Zipf-like): a small
    head of names draws most queries. Values near the uniform baseline
    (0.1) indicate something unnatural about a trace.
    """
    counts = Counter(record.query.lower() for record in trace.dns)
    if not counts:
        raise AnalysisError("no DNS transactions to measure popularity")
    ordered = sorted(counts.values(), reverse=True)
    head = max(1, len(ordered) // 10)
    return sum(ordered[:head]) / sum(ordered)
