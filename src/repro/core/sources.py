"""§5 analyses: where DNS information comes from.

* :func:`no_dns_breakdown` — the anatomy of the `N` class (§5.1):
  high-port P2P share, reserved-port destinations (the hard-coded NTP /
  alarm-monitoring artifacts), the encrypted-DNS sanity checks.
* :func:`ttl_violation_stats` — local-cache connections using expired
  records (§5.2): how common, and how late.
* :func:`prefetch_stats` — the economics of speculative lookups (§5.2):
  unused lookup share, P-vs-LC expired-use rates, reuse lags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.classify import ClassifiedConnection, ConnClass
from repro.core.pairing import PairedConnection, unused_lookup_counts
from repro.core.stats import percentile
from repro.errors import AnalysisError
from repro.monitor.records import DnsRecord

DOT_PORT = 853
RESERVED_PORT_LIMIT = 1024


@dataclass(frozen=True, slots=True)
class NoDnsBreakdown:
    """§5.1: what the unpaired (`N`) connections are."""

    total_conns: int
    n_conns: int
    high_port_fraction: float
    reserved_port_counts: dict[int, int]
    top_destinations: list[tuple[str, int, int]]  # (address, port, conns)
    dot_port_conns: int
    unpaired_non_p2p_fraction_of_all: float

    @property
    def n_fraction(self) -> float:
        """Share of all connections that are class N."""
        if not self.total_conns:
            return 0.0
        return self.n_conns / self.total_conns


def no_dns_breakdown(classified: list[ClassifiedConnection], top: int = 10) -> NoDnsBreakdown:
    """Dissect the `N` connections (§5.1)."""
    n_items = [item for item in classified if item.conn_class == ConnClass.NO_DNS]
    total = len(classified)
    high_port = [item for item in n_items if item.conn.is_high_port_pair()]
    reserved = [item for item in n_items if not item.conn.is_high_port_pair()]
    port_counts = Counter(item.conn.resp_p for item in reserved)
    destination_counts = Counter((item.conn.resp_h, item.conn.resp_p) for item in reserved)
    top_destinations = [
        (address, port, count)
        for (address, port), count in destination_counts.most_common(top)
    ]
    dot_conns = sum(1 for item in n_items if item.conn.resp_p == DOT_PORT)
    unpaired_non_p2p = len(reserved) / total if total else 0.0
    return NoDnsBreakdown(
        total_conns=total,
        n_conns=len(n_items),
        high_port_fraction=len(high_port) / len(n_items) if n_items else 0.0,
        reserved_port_counts=dict(port_counts),
        top_destinations=top_destinations,
        dot_port_conns=dot_conns,
        unpaired_non_p2p_fraction_of_all=unpaired_non_p2p,
    )


@dataclass(frozen=True, slots=True)
class TtlViolationStats:
    """§5.2: local-cache use of expired DNS records."""

    lc_conns: int
    lc_expired_fraction: float
    violation_over_30s_fraction: float
    violation_median: float
    violation_p90: float
    p_conns: int
    p_expired_fraction: float

    def summary(self) -> str:
        """One-line human-readable digest of expired-record usage."""
        return (
            f"{100 * self.lc_expired_fraction:.1f}% of LC connections use expired records; "
            f"{100 * self.violation_over_30s_fraction:.0f}% of violations exceed 30 s "
            f"(median {self.violation_median:.0f} s, p90 {self.violation_p90:.0f} s)"
        )


def ttl_violation_stats(classified: list[ClassifiedConnection]) -> TtlViolationStats:
    """Quantify TTL violations among LC (and P) connections (§5.2)."""
    lc_items = [item for item in classified if item.conn_class == ConnClass.LOCAL_CACHE]
    p_items = [item for item in classified if item.conn_class == ConnClass.PREFETCHED]
    lc_expired = [item for item in lc_items if item.used_expired_record]
    p_expired = [item for item in p_items if item.used_expired_record]
    lateness: list[float] = []
    for item in lc_expired + p_expired:
        dns = item.dns
        assert dns is not None
        expiry = dns.expires_at
        if expiry is None:
            continue
        lateness.append(item.conn.ts - expiry)
    over_30 = sum(1 for late in lateness if late > 30.0)
    return TtlViolationStats(
        lc_conns=len(lc_items),
        lc_expired_fraction=len(lc_expired) / len(lc_items) if lc_items else 0.0,
        violation_over_30s_fraction=over_30 / len(lateness) if lateness else 0.0,
        violation_median=percentile(lateness, 50) if lateness else 0.0,
        violation_p90=percentile(lateness, 90) if lateness else 0.0,
        p_conns=len(p_items),
        p_expired_fraction=len(p_expired) / len(p_items) if p_items else 0.0,
    )


@dataclass(frozen=True, slots=True)
class PrefetchStats:
    """§5.2: the cost/benefit ledger of speculative lookups."""

    total_lookups: int
    unused_lookup_fraction: float
    prefetch_used_fraction: float
    p_conn_fraction: float
    median_reuse_lag_p: float
    median_reuse_lag_lc: float


def prefetch_stats(
    dns_records: list[DnsRecord],
    paired: list[PairedConnection],
    classified: list[ClassifiedConnection],
) -> PrefetchStats:
    """Compute the §5.2 prefetching economics."""
    if not dns_records:
        raise AnalysisError("no DNS records: cannot compute prefetch statistics")
    # Failed transactions delivered nothing to use, so they are neither
    # unused nor speculative candidates (see ``unused_lookup_counts``).
    unused, answered = unused_lookup_counts(dns_records, paired)
    # If every unused lookup were speculative, the used share of
    # speculative lookups is used-P-lookups / (used-P-lookups + unused).
    p_items = [item for item in classified if item.conn_class == ConnClass.PREFETCHED]
    lc_items = [item for item in classified if item.conn_class == ConnClass.LOCAL_CACHE]
    # A lookup is its record object (see ``unused_lookup_counts``).
    p_lookups = {id(item.dns) for item in p_items if item.dns is not None}
    speculative = len(p_lookups) + unused
    used_fraction = len(p_lookups) / speculative if speculative else 0.0
    p_lags = [item.gap for item in p_items if item.gap is not None]
    lc_lags = [item.gap for item in lc_items if item.gap is not None]
    return PrefetchStats(
        total_lookups=len(dns_records),
        unused_lookup_fraction=unused / answered if answered else 0.0,
        prefetch_used_fraction=used_fraction,
        p_conn_fraction=len(p_items) / len(classified) if classified else 0.0,
        median_reuse_lag_p=percentile(p_lags, 50) if p_lags else 0.0,
        median_reuse_lag_lc=percentile(lc_lags, 50) if lc_lags else 0.0,
    )
