"""Blocking inference: did a connection wait on its DNS lookup?

The paper's §4 heuristic: plot the distribution of the gap between DNS
lookup completion and connection start (Figure 1). The distribution has
two regions with a knee around 20 ms — connections that blocked on the
lookup start almost immediately after it, while connections using
already-available information start much later. The paper validates the
split with first-use rates (91% of sub-20 ms-gap connections are the
first user of their lookup vs 21% beyond) and then adopts a
conservative 100 ms threshold for the rest of the analysis.

:class:`GapAnalysis` carries the raw first-use counters alongside the
derived fractions. :meth:`GapAnalysis.from_sample` builds it from the
gap sample and those counters; the per-connection reference and the
streaming engine collect both their own way and call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.pairing import PairedConnection
from repro.core.stats import Cdf, find_knee_detailed
from repro.errors import AnalysisError

KNEE_REFERENCE = 0.020
"""The knee the paper reads off Figure 1 (20 ms)."""

DEFAULT_BLOCKING_THRESHOLD = 0.100
"""The conservative threshold the paper adopts (100 ms)."""


@dataclass(frozen=True, slots=True)
class GapAnalysis:
    """The Figure 1 analysis: gap distribution plus validation stats.

    ``knee_excluded_samples`` surfaces how many (clamped-to-zero) gaps
    could not be placed on the knee finder's log axis; their cumulative
    mass still anchors the knee (see
    :func:`repro.core.stats.find_knee_detailed`). The ``*_hits`` /
    ``*_total`` integers are the raw counters behind the two first-use
    fractions.
    """

    cdf: Cdf
    knee: float
    first_use_below_knee: float
    first_use_above_knee: float
    blocking_threshold: float
    knee_excluded_samples: int = 0
    first_use_below_hits: int = 0
    first_use_below_total: int = 0
    first_use_above_hits: int = 0
    first_use_above_total: int = 0

    @classmethod
    def from_sample(
        cls,
        gaps: Sequence[float],
        first_use_counts: tuple[int, int, int, int],
        blocking_threshold: float,
    ) -> "GapAnalysis":
        """Figure 1 from the clamped gaps and the first-use counters
        ``(below_hits, below_total, above_hits, above_total)`` split at
        :data:`KNEE_REFERENCE`.

        The knee falls back to that 20 ms reference when the sample
        defeats the knee finder (see
        :func:`repro.core.stats.find_knee_detailed`).
        """
        if blocking_threshold <= 0:
            raise AnalysisError(f"blocking threshold must be positive, got {blocking_threshold}")
        if not gaps:
            raise AnalysisError("no paired connections: cannot analyse gaps")
        cdf = Cdf.from_values(gaps)
        try:
            found = find_knee_detailed(cdf.xs, log_x=True)
            knee, excluded = found.knee, found.excluded_samples
        except AnalysisError:
            knee, excluded = KNEE_REFERENCE, 0
        below_hits, below_total, above_hits, above_total = first_use_counts
        return cls(
            cdf=cdf,
            knee=knee,
            first_use_below_knee=below_hits / below_total if below_total else 0.0,
            first_use_above_knee=above_hits / above_total if above_total else 0.0,
            blocking_threshold=blocking_threshold,
            knee_excluded_samples=excluded,
            first_use_below_hits=below_hits,
            first_use_below_total=below_total,
            first_use_above_hits=above_hits,
            first_use_above_total=above_total,
        )

    def blocked_fraction(self) -> float:
        """Fraction of paired connections at or below the threshold."""
        return self.cdf.evaluate(self.blocking_threshold)

    def series(self, points: int = 200) -> list[tuple[float, float]]:
        """The Figure 1 CDF as (gap seconds, cumulative fraction)."""
        return self.cdf.series(points)


def analyze_gaps(
    paired: list[PairedConnection],
    blocking_threshold: float = DEFAULT_BLOCKING_THRESHOLD,
) -> GapAnalysis:
    """Build the Figure 1 analysis from paired connections."""
    gaps: list[float] = []
    below_hits = below_total = above_hits = above_total = 0
    for item in paired:
        gap = item.gap
        if gap is None:
            continue
        gap = max(0.0, gap)
        gaps.append(gap)
        if gap <= KNEE_REFERENCE:
            below_total += 1
            below_hits += 1 if item.first_use else 0
        else:
            above_total += 1
            above_hits += 1 if item.first_use else 0
    return GapAnalysis.from_sample(
        gaps, (below_hits, below_total, above_hits, above_total), blocking_threshold
    )


def is_blocked(item: PairedConnection, threshold: float = DEFAULT_BLOCKING_THRESHOLD) -> bool:
    """True when the connection started within *threshold* of its lookup."""
    gap = item.gap
    return gap is not None and gap <= threshold
