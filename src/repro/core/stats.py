"""Small statistics helpers used across the analysis layer.

Everything here is intentionally dependency-light (plain Python plus
numpy for percentile work) and operates on simple sequences, so each
analysis module stays readable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*."""
    if not values:
        raise AnalysisError("cannot take a percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fraction(values: Iterable[bool]) -> float:
    """Fraction of True entries (0.0 for an empty iterable)."""
    total = 0
    hits = 0
    for value in values:
        total += 1
        if value:
            hits += 1
    return hits / total if total else 0.0


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold (0.0 for empty input)."""
    if not values:
        return 0.0
    return sum(1 for value in values if value <= threshold) / len(values)


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of values > threshold (0.0 for empty input)."""
    if not values:
        return 0.0
    return sum(1 for value in values if value > threshold) / len(values)


@dataclass(frozen=True, slots=True)
class Cdf:
    """An empirical CDF with convenient probing.

    ``xs`` are the sorted sample values; evaluation interpolates the
    step function from the right (P[X <= x]).
    """

    xs: tuple[float, ...]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Cdf":
        """An empirical CDF over *values* (at least one sample required)."""
        xs = tuple(sorted(float(v) for v in values))
        if not xs:
            raise AnalysisError("cannot build a CDF from no samples")
        return cls(xs)

    def __len__(self) -> int:
        return len(self.xs)

    def evaluate(self, x: float) -> float:
        """P[X <= x]."""
        return bisect.bisect_right(self.xs, x) / len(self.xs)

    def quantile(self, q: float) -> float:
        """The value at cumulative probability *q* in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self.xs[0]
        index = min(len(self.xs) - 1, max(0, math.ceil(q * len(self.xs)) - 1))
        return self.xs[index]

    @property
    def median(self) -> float:
        """The 0.5 quantile of the samples."""
        return self.quantile(0.5)

    def summarize(self) -> dict[str, float]:
        """The :func:`summarize` digest of this CDF's samples."""
        return summarize(self.xs)

    def series(self, points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting/export."""
        if points < 2:
            raise AnalysisError(f"need at least 2 points, got {points}")
        count = len(self.xs)
        out: list[tuple[float, float]] = []
        for i in range(points):
            q = i / (points - 1)
            out.append((self.quantile(q), q))
        # Collapse duplicates while keeping the envelope.
        deduped: list[tuple[float, float]] = []
        for x, y in out:
            if deduped and deduped[-1][0] == x:
                deduped[-1] = (x, y)
            else:
                deduped.append((x, y))
        return deduped


#: Stream size (items) the default capacity formula guarantees the
#: epsilon bound for. Larger streams still work — the *tracked*
#: :attr:`QuantileSketch.rank_error_bound` stays exact at any size.
SKETCH_DESIGN_WEIGHT = 1 << 20


class QuantileSketch:
    """A mergeable, deterministic quantile sketch (compactor hierarchy).

    A bounded-memory replacement for full-sample :class:`Cdf`: items are
    buffered per level (an item at level *i* stands for ``2**i``
    originals) and an over-full level is *compacted* — sorted, paired
    up, and the upper item of every pair promoted one level. Compaction
    is a pure function of the level's sorted content (fixed parity, no
    randomness), which buys two properties the analysis layer needs:

    * **Determinism** — the same stream always produces the same sketch,
      so results are reproducible without any seed plumbing.
    * **Exactly commutative merges** — ``merge([a, b]) == merge([b, a])``
      because merging is multiset union per level followed by the same
      content-deterministic compaction (the PR 2 merge contract).
      Associativity holds only up to the error bound: different merge
      trees compact at different moments, so ``merge([merge([a, b]), c])``
      and ``merge([a, merge([b, c])])`` are equal as estimators (both
      within the tracked bound) but not byte-identical.

    Every compaction of a level-*i* buffer can displace any rank by at
    most ``2**i``, and the sketch adds exactly that to a running error
    counter — :attr:`rank_error_bound` is therefore a *certificate*, not
    an estimate. The default capacity keeps the bound under *epsilon*
    for streams up to :data:`SKETCH_DESIGN_WEIGHT` items.
    """

    __slots__ = ("epsilon", "_capacity", "_levels", "_count", "_max_rank_error")

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0.0 < epsilon < 1.0:
            raise AnalysisError(f"sketch epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._capacity = max(16, math.ceil(40.0 / epsilon))
        self._levels: list[list[float]] = [[]]
        self._count = 0
        self._max_rank_error = 0

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self._count == other._count
            and self._max_rank_error == other._max_rank_error
            and [sorted(level) for level in self._levels]
            == [sorted(level) for level in other._levels]
        )

    def __hash__(self) -> int:  # pragma: no cover - sketches are not dict keys
        return id(self)

    @property
    def stored_items(self) -> int:
        """Items currently buffered (the sketch's memory footprint)."""
        return sum(len(level) for level in self._levels)

    @property
    def rank_error_bound(self) -> float:
        """Certified worst-case rank error as a fraction of the stream."""
        if not self._count:
            return 0.0
        return self._max_rank_error / self._count

    def offer(self, value: float) -> None:
        """Add one sample to the sketch."""
        self._levels[0].append(float(value))
        self._count += 1
        if len(self._levels[0]) > self._capacity:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Add every sample in *values*."""
        for value in values:
            self.offer(value)

    def _compress(self) -> None:
        """Compact every over-full level (bottom-up, cascading)."""
        level = 0
        while level < len(self._levels):
            buffer = self._levels[level]
            if len(buffer) <= self._capacity:
                level += 1
                continue
            buffer.sort()
            if len(buffer) % 2:
                # Odd item count: the largest stays behind so total
                # weight is conserved exactly.
                remainder = [buffer.pop()]
            else:
                remainder = []
            promoted = buffer[1::2]
            self._levels[level] = remainder
            if level + 1 == len(self._levels):
                self._levels.append([])
            self._levels[level + 1].extend(promoted)
            # One compaction of a weight-2**level buffer moves any rank
            # by at most one item-weight (exactly one pair can straddle
            # a query point in a sorted buffer).
            self._max_rank_error += 1 << level
            level += 1

    @classmethod
    def merge(cls, sketches: "Sequence[QuantileSketch]") -> "QuantileSketch":
        """Combine sketches over disjoint streams into one.

        Levels merge as multisets, error certificates add, and any
        over-full level is re-compacted — a pure function of the level
        contents, so the merge is exactly commutative.
        """
        if not sketches:
            raise AnalysisError("cannot merge an empty collection of sketches")
        epsilons = {sketch.epsilon for sketch in sketches}
        if len(epsilons) > 1:
            raise AnalysisError(f"cannot merge sketches with mixed epsilons: {epsilons}")
        merged = cls(epsilon=sketches[0].epsilon)
        depth = max(len(sketch._levels) for sketch in sketches)
        merged._levels = [[] for _ in range(depth)]
        for sketch in sketches:
            for level, buffer in enumerate(sketch._levels):
                merged._levels[level].extend(buffer)
            merged._count += sketch._count
            merged._max_rank_error += sketch._max_rank_error
        for level in range(len(merged._levels)):
            merged._levels[level].sort()
        merged._compress()
        return merged

    def _weighted_support(self) -> list[tuple[float, int]]:
        """(value, weight) pairs sorted by value."""
        pairs: list[tuple[float, int]] = []
        for level, buffer in enumerate(self._levels):
            weight = 1 << level
            pairs.extend((value, weight) for value in buffer)
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def evaluate(self, x: float) -> float:
        """Estimated P[X <= x]."""
        if not self._count:
            raise AnalysisError("cannot evaluate an empty sketch")
        below = sum(weight for value, weight in self._weighted_support() if value <= x)
        return below / self._count

    def quantile(self, q: float) -> float:
        """Estimated value at cumulative probability *q* in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        support = self._weighted_support()
        if not support:
            raise AnalysisError("cannot take a quantile of an empty sketch")
        target = max(1, math.ceil(q * self._count))
        cumulative = 0
        for value, weight in support:
            cumulative += weight
            if cumulative >= target:
                return value
        return support[-1][0]

    @property
    def median(self) -> float:
        """The estimated 0.5 quantile."""
        return self.quantile(0.5)

    def fraction_above(self, threshold: float) -> float:
        """Estimated share of samples strictly above *threshold*."""
        if not self._count:
            return 0.0
        return 1.0 - self.evaluate(threshold)

    def series(self, points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting/export."""
        if points < 2:
            raise AnalysisError(f"need at least 2 points, got {points}")
        support = self._weighted_support()
        if not support:
            raise AnalysisError("cannot build a series from an empty sketch")
        out: list[tuple[float, float]] = []
        cumulative = 0
        for value, weight in support:
            cumulative += weight
            fraction_seen = cumulative / self._count
            if out and out[-1][0] == value:
                out[-1] = (value, fraction_seen)
            else:
                out.append((value, fraction_seen))
        if len(out) <= points:
            return out
        stride = (len(out) - 1) / (points - 1)
        sampled = [out[round(index * stride)] for index in range(points)]
        sampled[-1] = out[-1]
        return sampled


@dataclass(frozen=True, slots=True)
class KneeResult:
    """A located CDF knee plus the sample accounting behind it.

    ``excluded_samples`` counts the zero/negative samples that cannot be
    placed on a log axis; they still contribute cumulative mass to the
    knee computation (see :func:`find_knee_detailed`).
    """

    knee: float
    excluded_samples: int
    total_samples: int

    @property
    def excluded_fraction(self) -> float:
        """Share of samples that could not be placed on the log axis."""
        if not self.total_samples:
            return 0.0
        return self.excluded_samples / self.total_samples


def find_knee_detailed(values: Sequence[float], log_x: bool = True) -> KneeResult:
    """Locate the knee of a CDF using the Kneedle chord-distance method.

    Used to find the blocked/unblocked boundary of the paper's Figure 1
    (the ~20 ms knee in the DNS-completion-to-connection-start gap
    distribution). Gaps spanning many orders of magnitude are analysed
    on a log axis.

    Zero/negative samples cannot be placed on a log axis, but silently
    dropping them would shift the knee whenever clamped zero gaps are
    common: cumulative fractions are therefore always computed relative
    to the **full** sample count, with the excluded mass anchoring the
    left edge of the curve, and the number of excluded samples is
    reported in the result.
    """
    total = len(values)
    if total < 10:
        raise AnalysisError(f"need at least 10 samples to find a knee, got {total}")
    xs = np.sort(np.asarray(values, dtype=float))
    excluded = 0
    if log_x:
        positive = xs[xs > 0]
        if len(positive) < 10:
            raise AnalysisError("too few positive samples for a log-axis knee")
        excluded = total - len(positive)
        xs = np.log10(positive)
    # Cumulative fraction of the FULL sample at each plotted point; on a
    # log axis the first plotted point already carries the excluded mass.
    ys = np.arange(excluded + 1, total + 1) / total
    x_span = xs[-1] - xs[0]
    if x_span <= 0:
        raise AnalysisError("degenerate sample range; no knee exists")
    x_norm = (xs - xs[0]) / x_span
    distance = ys - x_norm
    knee_index = int(np.argmax(distance))
    knee_x = xs[knee_index]
    knee = float(10 ** knee_x) if log_x else float(knee_x)
    return KneeResult(knee=knee, excluded_samples=excluded, total_samples=total)


def find_knee(values: Sequence[float], log_x: bool = True) -> float:
    """The knee location alone (see :func:`find_knee_detailed`)."""
    return find_knee_detailed(values, log_x=log_x).knee


def summarize(values: Sequence[float]) -> dict[str, float]:
    """A compact numeric summary (min/median/mean/p75/p90/p99/max).

    Every field is invariant to the order of *values* (the mean uses an
    exactly-rounded sum), so summarising a concatenated sample gives the
    same floats regardless of how the sample was sharded.
    """
    if not values:
        raise AnalysisError("cannot summarise an empty sequence")
    array = np.asarray(values, dtype=float)
    return {
        "count": float(len(array)),
        "min": float(array.min()),
        "median": float(np.percentile(array, 50)),
        "mean": math.fsum(array) / len(array),
        "p75": float(np.percentile(array, 75)),
        "p90": float(np.percentile(array, 90)),
        "p99": float(np.percentile(array, 99)),
        "max": float(array.max()),
    }
