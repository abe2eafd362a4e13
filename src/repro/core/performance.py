"""§6 analyses: what DNS lookups cost blocked connections.

Only the SC and R connections pay a direct DNS cost (the N/LC/P classes
have their mapping on hand). This module computes:

* the lookup-delay distribution for SC∪R (Figure 2, top),
* DNS' percentage contribution ``100·D/(D+A)`` to each transaction
  (Figure 2, bottom; per-class lines), and
* the significance quadrant (§6): absolute (>20 ms) × relative (>1%)
  cost, whose intersection is the paper's headline 3.6%-of-all-
  connections result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.classify import BLOCKED_CLASSES, ClassifiedConnection, ConnClass
from repro.core.stats import Cdf, fraction_above
from repro.errors import AnalysisError

ABS_INSIGNIFICANT = 0.020
"""Paper's absolute-cost criterion: a lookup of at most 20 ms."""

REL_INSIGNIFICANT = 1.0
"""Paper's relative-cost criterion: at most 1% of transaction time."""


def _blocked(classified: list[ClassifiedConnection]) -> list[ClassifiedConnection]:
    return [item for item in classified if item.conn_class in BLOCKED_CLASSES]


@dataclass(frozen=True, slots=True)
class LookupDelayAnalysis:
    """Figure 2 (top): lookup durations of blocked connections."""

    cdf: Cdf
    median: float
    p75: float
    over_100ms_fraction: float

    @classmethod
    def from_delays(cls, delays: Sequence[float]) -> "LookupDelayAnalysis":
        """Figure 2 (top) from the lookup durations of the blocked connections."""
        if not delays:
            raise AnalysisError("no blocked connections: cannot analyse lookup delays")
        cdf = Cdf.from_values(delays)
        return cls(
            cdf=cdf,
            median=cdf.percentile(50),
            p75=cdf.percentile(75),
            over_100ms_fraction=fraction_above(delays, 0.100),
        )

    def series(self, points: int = 200) -> list[tuple[float, float]]:
        """(delay seconds, cumulative probability) pairs for plotting."""
        return self.cdf.series(points)


def lookup_delay_analysis(classified: list[ClassifiedConnection]) -> LookupDelayAnalysis:
    """Distribution of DNS lookup delays for SC∪R connections."""
    delays = [item.lookup_duration for item in _blocked(classified)]
    return LookupDelayAnalysis.from_delays([delay for delay in delays if delay is not None])


def dns_share_percent(lookup_s: float, transfer_s: float) -> float:
    """DNS' share ``100·D/(D+A)`` of a transaction's time, in percent.

    Total time ``T`` is lookup duration ``D`` plus transfer duration
    ``A`` (§6). Degenerate totals: a zero-duration lookup contributes 0%
    no matter how short the transfer (0/0 is a free lookup, not "DNS is
    100% of the transaction"); conversely a positive lookup ahead of a
    zero-length transfer is the whole transaction, 100%. Both follow
    from the formula with the convention 0/0 = 0.
    """
    if lookup_s <= 0:
        return 0.0
    return 100.0 * lookup_s / (lookup_s + transfer_s)


def contribution_percent(item: ClassifiedConnection) -> float | None:
    """DNS' share of the total transaction time, in percent
    (:func:`dns_share_percent`). Returns None for unblocked connections."""
    if item.conn_class not in BLOCKED_CLASSES:
        return None
    duration = item.lookup_duration
    assert duration is not None
    return dns_share_percent(duration, item.conn.duration)


@dataclass(frozen=True, slots=True)
class ContributionAnalysis:
    """Figure 2 (bottom): DNS' percentage contribution distributions."""

    all_cdf: Cdf
    sc_cdf: Cdf | None
    r_cdf: Cdf | None
    over_1pct_all: float
    over_10pct_all: float
    over_1pct_r: float

    @classmethod
    def from_samples(
        cls,
        values_all: Sequence[float],
        values_sc: Sequence[float],
        values_r: Sequence[float],
    ) -> "ContributionAnalysis":
        """Figure 2 (bottom) from the contributions of all blocked
        connections and of their SC and R subsets."""
        if not values_all:
            raise AnalysisError("no blocked connections: cannot analyse contribution")
        return cls(
            all_cdf=Cdf.from_values(values_all),
            sc_cdf=Cdf.from_values(values_sc) if values_sc else None,
            r_cdf=Cdf.from_values(values_r) if values_r else None,
            over_1pct_all=fraction_above(values_all, REL_INSIGNIFICANT),
            over_10pct_all=fraction_above(values_all, 10.0),
            over_1pct_r=fraction_above(values_r, REL_INSIGNIFICANT) if values_r else 0.0,
        )

    def series(self, which: str = "all", points: int = 200) -> list[tuple[float, float]]:
        """CDF series for 'all', 'sc' or 'r'."""
        cdf = {"all": self.all_cdf, "sc": self.sc_cdf, "r": self.r_cdf}.get(which)
        if cdf is None:
            raise AnalysisError(f"no contribution series for {which!r}")
        return cdf.series(points)


def contribution_analysis(classified: list[ClassifiedConnection]) -> ContributionAnalysis:
    """DNS' relative contribution for SC∪R, per class and overall."""
    values_all: list[float] = []
    values_sc: list[float] = []
    values_r: list[float] = []
    for item in _blocked(classified):
        value = contribution_percent(item)
        assert value is not None
        values_all.append(value)
        if item.conn_class == ConnClass.SHARED_CACHE:
            values_sc.append(value)
        else:
            values_r.append(value)
    return ContributionAnalysis.from_samples(values_all, values_sc, values_r)


@dataclass(frozen=True, slots=True)
class SignificanceQuadrant:
    """§6: the 2×2 split of blocked connections by DNS cost.

    Fractions are of SC∪R connections; ``significant_of_all`` rescales
    the both-criteria cell to the full connection population (the
    paper's 3.6%). The ``*_count`` integers are the raw cell counts the
    fractions derive from (:meth:`from_cells`).
    """

    insignificant_both: float
    relative_only: float
    absolute_only: float
    significant_both: float
    significant_of_all: float
    blocked_conns: int
    total_conns: int
    insignificant_both_count: int = 0
    relative_only_count: int = 0
    absolute_only_count: int = 0
    significant_both_count: int = 0

    @classmethod
    def from_cells(
        cls, cells: tuple[int, int, int, int], blocked_conns: int, total_conns: int
    ) -> "SignificanceQuadrant":
        """The quadrant from its cell counts ``(insignificant_both,
        relative_only, absolute_only, significant_both)`` and the
        blocked and total connection counts."""
        if not blocked_conns:
            raise AnalysisError("no blocked connections: cannot compute quadrant")
        ii, rel, abs_, sig = cells
        return cls(
            insignificant_both=ii / blocked_conns,
            relative_only=rel / blocked_conns,
            absolute_only=abs_ / blocked_conns,
            significant_both=sig / blocked_conns,
            significant_of_all=sig / total_conns,
            blocked_conns=blocked_conns,
            total_conns=total_conns,
            insignificant_both_count=ii,
            relative_only_count=rel,
            absolute_only_count=abs_,
            significant_both_count=sig,
        )

    def as_rows(self) -> list[tuple[str, float]]:
        """(quadrant label, fraction of paired connections) table rows."""
        return [
            ("<=20ms and <=1%", self.insignificant_both),
            (">1% only (<=20ms)", self.relative_only),
            (">20ms only (<=1%)", self.absolute_only),
            (">20ms and >1%", self.significant_both),
        ]


def significance_quadrant(
    classified: list[ClassifiedConnection],
    abs_threshold: float = ABS_INSIGNIFICANT,
    rel_threshold: float = REL_INSIGNIFICANT,
) -> SignificanceQuadrant:
    """Compute the §6 significance quadrant."""
    blocked = _blocked(classified)
    ii = rel = abs_ = sig = 0
    for item in blocked:
        duration = item.lookup_duration
        contribution = contribution_percent(item)
        assert duration is not None and contribution is not None
        absolute_bad = duration > abs_threshold
        relative_bad = contribution > rel_threshold
        if absolute_bad and relative_bad:
            sig += 1
        elif absolute_bad:
            abs_ += 1
        elif relative_bad:
            rel += 1
        else:
            ii += 1
    return SignificanceQuadrant.from_cells(
        (ii, rel, abs_, sig), len(blocked), len(classified)
    )
