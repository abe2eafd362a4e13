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

from repro.core.classify import BLOCKED_CLASSES, ClassifiedConnection, ConnClass
from repro.core.stats import Cdf, fraction_above, percentile
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

    def series(self, points: int = 200) -> list[tuple[float, float]]:
        """(delay seconds, cumulative probability) pairs for plotting."""
        return self.cdf.series(points)


def lookup_delay_analysis(classified: list[ClassifiedConnection]) -> LookupDelayAnalysis:
    """Distribution of DNS lookup delays for SC∪R connections."""
    delays = [item.lookup_duration for item in _blocked(classified)]
    values = [delay for delay in delays if delay is not None]
    if not values:
        raise AnalysisError("no blocked connections: cannot analyse lookup delays")
    cdf = Cdf.from_values(values)
    return LookupDelayAnalysis(
        cdf=cdf,
        median=percentile(values, 50),
        p75=percentile(values, 75),
        over_100ms_fraction=fraction_above(values, 0.100),
    )


def contribution_percent(item: ClassifiedConnection) -> float | None:
    """DNS' share of the total transaction time, in percent.

    Total time ``T`` is lookup duration ``D`` plus transfer duration
    ``A`` (§6). Returns None for unblocked connections.

    Degenerate totals: a zero-duration lookup contributes 0% no matter
    how short the transfer (0/0 is a free lookup, not "DNS is 100% of
    the transaction"); conversely a positive lookup ahead of a
    zero-length transfer is the whole transaction, 100%. Both follow
    from attributing ``100·D/(D+A)`` with the convention 0/0 = 0.
    """
    if item.conn_class not in BLOCKED_CLASSES:
        return None
    duration = item.lookup_duration
    assert duration is not None
    if duration <= 0:
        return 0.0
    total = duration + item.conn.duration
    return 100.0 * duration / total


@dataclass(frozen=True, slots=True)
class ContributionAnalysis:
    """Figure 2 (bottom): DNS' percentage contribution distributions."""

    all_cdf: Cdf
    sc_cdf: Cdf | None
    r_cdf: Cdf | None
    over_1pct_all: float
    over_10pct_all: float
    over_1pct_r: float

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
    if not values_all:
        raise AnalysisError("no blocked connections: cannot analyse contribution")
    return ContributionAnalysis(
        all_cdf=Cdf.from_values(values_all),
        sc_cdf=Cdf.from_values(values_sc) if values_sc else None,
        r_cdf=Cdf.from_values(values_r) if values_r else None,
        over_1pct_all=fraction_above(values_all, REL_INSIGNIFICANT),
        over_10pct_all=fraction_above(values_all, 10.0),
        over_1pct_r=fraction_above(values_r, REL_INSIGNIFICANT) if values_r else 0.0,
    )


@dataclass(frozen=True, slots=True)
class SignificanceQuadrant:
    """§6: the 2×2 split of blocked connections by DNS cost.

    Fractions are of SC∪R connections; ``significant_of_all`` rescales
    the both-criteria cell to the full connection population (the
    paper's 3.6%). The ``*_count`` integers are the raw cell counts the
    fractions derive from (:func:`quadrant_from_cells`).
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
    if not blocked:
        raise AnalysisError("no blocked connections: cannot compute quadrant")
    cells = {"ii": 0, "rel": 0, "abs": 0, "sig": 0}
    for item in blocked:
        duration = item.lookup_duration
        contribution = contribution_percent(item)
        assert duration is not None and contribution is not None
        absolute_bad = duration > abs_threshold
        relative_bad = contribution > rel_threshold
        if absolute_bad and relative_bad:
            cells["sig"] += 1
        elif absolute_bad:
            cells["abs"] += 1
        elif relative_bad:
            cells["rel"] += 1
        else:
            cells["ii"] += 1
    return quadrant_from_cells(cells, len(blocked), len(classified))


def quadrant_from_cells(
    cells: dict[str, int], blocked_conns: int, total_conns: int
) -> SignificanceQuadrant:
    """Build a quadrant from raw ``ii``/``rel``/``abs``/``sig`` cell
    counts and the blocked/total population sizes.

    Shared by :func:`significance_quadrant` and the streaming engine —
    both count cells their own way and converge here."""
    return SignificanceQuadrant(
        insignificant_both=cells["ii"] / blocked_conns,
        relative_only=cells["rel"] / blocked_conns,
        absolute_only=cells["abs"] / blocked_conns,
        significant_both=cells["sig"] / blocked_conns,
        significant_of_all=cells["sig"] / total_conns,
        blocked_conns=blocked_conns,
        total_conns=total_conns,
        insignificant_both_count=cells["ii"],
        relative_only_count=cells["rel"],
        absolute_only_count=cells["abs"],
        significant_both_count=cells["sig"],
    )
