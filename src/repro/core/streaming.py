"""One-pass streaming analysis: the §4–§6 engine with bounded memory.

The per-connection reference (:class:`~repro.core.context.ContextStudy`)
loads a full trace and makes several passes over it, so analysis memory
is O(trace). This module re-expresses the same §4–§6 analyses as a
graph of incremental operators over a single time-ordered pass — the
FlowDNS-style shape that scales to "millions of users, heavy traffic".
It is the only §4–§6 engine: :func:`repro.core.parallel.run_pipeline`
and :func:`~repro.core.parallel.run_streaming_pipeline` both drive it.

* :func:`stream_trace` merges a ``ts``-ordered DNS log and connection
  log into one event-time stream (a DNS record becomes visible at
  ``completed_at = ts + rtt``; a small reorder heap absorbs in-flight
  lookups, and DNS sorts before connections on timestamp ties — exactly
  the reference index's ``completed_at <= conn.ts`` visibility rule).
* :class:`StreamingAnalyzer` consumes the stream: the incremental
  :class:`~repro.core.pairing.Pairer` pairs each connection on arrival,
  TTL-based drains evict dead index state (emitting expired, never
  paired lookups as they retire), a
  :class:`~repro.core.classify.ResolverObserver` accumulates the
  per-resolver threshold and failure aggregates, and every paper
  statistic is folded into counters, bounded buffers, or mergeable
  :class:`~repro.core.stats.QuantileSketch` sketches.

**Exactness toggle.** With ``exact=True`` (the default) the analyzer
buffers the per-connection samples (three floats per blocked
connection, one per paired connection) that the paper's full-sample
CDFs and knee detection need, and :func:`finalize_result` reproduces
the per-connection reference
(:meth:`~repro.core.context.ContextStudy.pipeline_result`)
*byte-identically*: every aggregate is either an online counter, an
order-invariant statistic over the buffered sample, or derived from the
final merged thresholds exactly as the reference classifier derives them.
Record objects are still dropped as the window advances, so memory
falls from O(trace records) to O(window records + trace floats). With
``exact=False`` the sample buffers are replaced by quantile sketches
and SC/R classification happens online against *running* thresholds —
memory becomes O(window) outright, and every estimate carries a
certified rank-error bound (:func:`finalize_summary`).

**Windowing.** ``window_s=None`` evicts only TTL-dead candidates and
keeps one expired-fallback tail per (house, address) key, which
preserves reference parity unconditionally. A finite ``window_s``
additionally drops fallback tails older than the window: memory is then
strictly bounded, and results are unchanged for any trace whose
pairing gaps fit inside the window (the window-invariance property the
differential suite pins). Pick the window with some slack above the
largest expected gap — the drain horizon is the floating-point
difference ``now - window_s``, so a gap exactly equal to the window
sits one rounding error from the eviction boundary.

**Sharding.** :class:`StreamingState` is the analyzer's mergeable
accumulator: household shards stream independently and
:meth:`StreamingState.merge` combines them — counters add, buffers
concatenate, sketches merge, observers merge — so a sharded streaming
run finalizes to the same result as a single-stream run (bit-for-bit in
exact mode).
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.blocking import (
    KNEE_REFERENCE,
    GapAnalysis,
    find_gap_knee,
)
from repro.core.classify import (
    ClassBreakdown,
    ConnClass,
    ResolverFailureStats,
    ResolverObserver,
    thresholds_from_stats,
)
from repro.core.context import StudyOptions
from repro.core.pairing import Pairer, PairingCensus
from repro.core.performance import (
    ABS_INSIGNIFICANT,
    REL_INSIGNIFICANT,
    ContributionAnalysis,
    LookupDelayAnalysis,
    SignificanceQuadrant,
    quadrant_from_cells,
)
from repro.core.stats import Cdf, QuantileSketch, fraction_above, percentile
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsRecord

DEFAULT_DRAIN_INTERVAL_S = 60.0
"""How often (stream seconds) TTL-expired index state is evicted."""

DEFAULT_SKETCH_EPSILON = 0.01
"""Default certified rank-error budget of the quantile sketches."""


@dataclass(frozen=True, slots=True)
class StreamingConfig:
    """All knobs of the one-pass engine.

    ``exact`` selects full-sample buffers (reference parity) versus
    quantile sketches (O(window) memory); ``window_s`` bounds how long
    expired-fallback tails are retained (None keeps them for the
    stream's lifetime); ``drain_interval_s`` sets the eviction cadence
    (a pure performance knob — results are drain-schedule invariant).
    The blocking threshold is the classifier's
    (``options.classifier.blocking_threshold``), so a connection is
    blocked here exactly when the per-connection classifier says so.
    """

    options: StudyOptions = field(default_factory=StudyOptions)
    exact: bool = True
    epsilon: float = DEFAULT_SKETCH_EPSILON
    window_s: float | None = None
    drain_interval_s: float = DEFAULT_DRAIN_INTERVAL_S
    knee_reference: float = KNEE_REFERENCE
    abs_threshold: float = ABS_INSIGNIFICANT
    rel_threshold: float = REL_INSIGNIFICANT

    def __post_init__(self) -> None:
        if self.drain_interval_s <= 0:
            raise AnalysisError(
                f"drain interval must be positive, got {self.drain_interval_s}"
            )
        if self.window_s is not None and self.window_s <= 0:
            raise AnalysisError(f"window must be positive, got {self.window_s}")
        blocking_threshold = self.options.classifier.blocking_threshold
        if blocking_threshold <= 0:
            raise AnalysisError(
                f"blocking threshold must be positive, got {blocking_threshold}"
            )


@dataclass(slots=True)
class StreamingState:
    """The mergeable accumulator behind one :class:`StreamingAnalyzer`.

    Everything a finalize step needs, and nothing tied to the live
    index: counters merge by addition, sample buffers by concatenation,
    sketches via :meth:`QuantileSketch.merge`, and the resolver
    observer via :meth:`ResolverObserver.merge_from` — so household
    shards can stream independently and combine.
    """

    exact: bool = True
    # §4 pairing census counters.
    total_conns: int = 0
    paired: int = 0
    unique_viable: int = 0
    expired_pairings: int = 0
    expired_candidates: int = 0
    # Table 2 counters (SC/R deferred to finalize in exact mode).
    class_n: int = 0
    class_lc: int = 0
    class_p: int = 0
    class_sc: int = 0
    class_r: int = 0
    # Figure 1 first-use counters, split at the knee reference.
    first_use_below_hits: int = 0
    first_use_below_total: int = 0
    first_use_above_hits: int = 0
    first_use_above_total: int = 0
    # §6 quadrant cells (threshold-free, exact in both modes).
    cell_ii: int = 0
    cell_rel: int = 0
    cell_abs: int = 0
    cell_sig: int = 0
    blocked_conns: int = 0
    # Lookup population / §5.2 unused-lookup accounting.
    dns_records: int = 0
    failed_lookups: int = 0
    unused_lookups: int = 0
    # Memory telemetry: high-water mark of live records in the index.
    peak_live_records: int = 0
    # Per-resolver aggregates (thresholds + failure tallies).
    observer: ResolverObserver = field(default_factory=ResolverObserver)
    # Exact mode: chronological sample buffers, stored as compact
    # ``array('d')`` columns rather than per-item float objects — a
    # long-lived boxed float allocated between transient record objects
    # pins its whole allocator arena, so list-of-float buffers held the
    # process high-water mark near O(trace) even though the live data
    # was small. A blocked connection is the row
    # (blocked_resolvers[i], blocked_rtts_s[i], blocked_contributions[i]);
    # the SC/R split happens at finalize with the final thresholds.
    gaps: array = field(default_factory=lambda: array("d"))
    blocked_resolvers: list[str] = field(default_factory=list)
    blocked_rtts_s: array = field(default_factory=lambda: array("d"))
    blocked_contributions: array = field(default_factory=lambda: array("d"))
    # Sketch mode: bounded-memory distribution summaries.
    gap_sketch: QuantileSketch | None = None
    delay_sketch: QuantileSketch | None = None
    contribution_sketch: QuantileSketch | None = None
    contribution_sc_sketch: QuantileSketch | None = None
    contribution_r_sketch: QuantileSketch | None = None

    @classmethod
    def merge(cls, parts: "list[StreamingState]") -> "StreamingState":
        """Combine per-shard states into one whole-trace state."""
        if not parts:
            raise AnalysisError("cannot merge an empty collection of streaming states")
        modes = {part.exact for part in parts}
        if len(modes) > 1:
            raise AnalysisError("cannot merge exact and sketch streaming states")
        merged = cls(exact=parts[0].exact)
        for part in parts:
            merged.total_conns += part.total_conns
            merged.paired += part.paired
            merged.unique_viable += part.unique_viable
            merged.expired_pairings += part.expired_pairings
            merged.expired_candidates += part.expired_candidates
            merged.class_n += part.class_n
            merged.class_lc += part.class_lc
            merged.class_p += part.class_p
            merged.class_sc += part.class_sc
            merged.class_r += part.class_r
            merged.first_use_below_hits += part.first_use_below_hits
            merged.first_use_below_total += part.first_use_below_total
            merged.first_use_above_hits += part.first_use_above_hits
            merged.first_use_above_total += part.first_use_above_total
            merged.cell_ii += part.cell_ii
            merged.cell_rel += part.cell_rel
            merged.cell_abs += part.cell_abs
            merged.cell_sig += part.cell_sig
            merged.blocked_conns += part.blocked_conns
            merged.dns_records += part.dns_records
            merged.failed_lookups += part.failed_lookups
            merged.unused_lookups += part.unused_lookups
            merged.peak_live_records = max(merged.peak_live_records, part.peak_live_records)
            merged.observer.merge_from(part.observer)
            merged.gaps.extend(part.gaps)
            merged.blocked_resolvers.extend(part.blocked_resolvers)
            merged.blocked_rtts_s.extend(part.blocked_rtts_s)
            merged.blocked_contributions.extend(part.blocked_contributions)
        if not merged.exact:
            for name in (
                "gap_sketch",
                "delay_sketch",
                "contribution_sketch",
                "contribution_sc_sketch",
                "contribution_r_sketch",
            ):
                sketches = [
                    getattr(part, name) for part in parts if getattr(part, name) is not None
                ]
                if sketches:
                    setattr(merged, name, QuantileSketch.merge(sketches))
        return merged


class StreamMerger:
    """The snapshottable event-time merge behind :func:`stream_trace`.

    Holds exactly the merge frontier — the pending-completion heap, the
    tie-break sequence counter, the ordering guards, and the one-record
    lookahead into each input — as explicit state so a checkpoint can
    capture it (:meth:`snapshot`) and a resumed process can rebuild it
    against re-opened inputs (:meth:`restore`). The input iterators
    themselves are *not* part of the snapshot; the checkpoint layer
    records how many records each one has yielded instead.
    """

    __slots__ = (
        "_dns_iter",
        "_conn_iter",
        "_pending",
        "_seq",
        "_last_dns_ts_s",
        "_last_conn_ts_s",
        "_next_dns",
        "_next_conn",
    )

    def __init__(
        self, dns_records: Iterable[DnsRecord], conns: Iterable[ConnRecord]
    ) -> None:
        self._dns_iter = iter(dns_records)
        self._conn_iter = iter(conns)
        self._pending: list[tuple[float, int, DnsRecord]] = []
        self._seq = 0
        self._last_dns_ts_s = -math.inf
        self._last_conn_ts_s = -math.inf
        self._next_dns = next(self._dns_iter, None)
        self._next_conn = next(self._conn_iter, None)

    def snapshot(
        self,
    ) -> tuple[
        list[tuple[float, int, DnsRecord]],
        int,
        float,
        float,
        DnsRecord | None,
        ConnRecord | None,
    ]:
        """The merge frontier as a picklable tuple (inputs excluded)."""
        return (
            list(self._pending),
            self._seq,
            self._last_dns_ts_s,
            self._last_conn_ts_s,
            self._next_dns,
            self._next_conn,
        )

    @classmethod
    def restore(
        cls,
        dns_records: Iterable[DnsRecord],
        conns: Iterable[ConnRecord],
        frontier: tuple[
            list[tuple[float, int, DnsRecord]],
            int,
            float,
            float,
            DnsRecord | None,
            ConnRecord | None,
        ],
    ) -> "StreamMerger":
        """Rebuild a merger from :meth:`snapshot` state plus re-opened
        inputs positioned just past the records already consumed."""
        merger = cls.__new__(cls)
        merger._dns_iter = iter(dns_records)
        merger._conn_iter = iter(conns)
        pending, seq, last_dns_ts_s, last_conn_ts_s, next_dns, next_conn = frontier
        merger._pending = list(pending)
        merger._seq = seq
        merger._last_dns_ts_s = last_dns_ts_s
        merger._last_conn_ts_s = last_conn_ts_s
        merger._next_dns = next_dns
        merger._next_conn = next_conn
        return merger

    def __iter__(self) -> "StreamMerger":
        return self

    def __next__(self) -> tuple[str, DnsRecord | ConnRecord]:
        pending = self._pending
        while pending or self._next_dns is not None or self._next_conn is not None:
            next_dns = self._next_dns
            next_conn = self._next_conn
            conn_ts = next_conn.ts if next_conn is not None else math.inf
            dns_ts = next_dns.ts if next_dns is not None else math.inf
            if pending and pending[0][0] <= conn_ts and pending[0][0] <= dns_ts:
                return "dns", heapq.heappop(pending)[2]
            if next_dns is not None and dns_ts <= conn_ts:
                if dns_ts < self._last_dns_ts_s:
                    raise AnalysisError(
                        f"DNS log is not time-ordered: {dns_ts} after {self._last_dns_ts_s}"
                    )
                self._last_dns_ts_s = dns_ts
                heapq.heappush(pending, (next_dns.completed_at, self._seq, next_dns))
                self._seq += 1
                self._next_dns = next(self._dns_iter, None)
                continue
            assert next_conn is not None
            if conn_ts < self._last_conn_ts_s:
                raise AnalysisError(
                    f"connection log is not time-ordered: {conn_ts} after {self._last_conn_ts_s}"
                )
            self._last_conn_ts_s = conn_ts
            self._next_conn = next(self._conn_iter, None)
            return "conn", next_conn
        raise StopIteration


def stream_trace(
    dns_records: Iterable[DnsRecord], conns: Iterable[ConnRecord]
) -> Iterator[tuple[str, DnsRecord | ConnRecord]]:
    """Merge ``ts``-ordered logs into one event-time stream.

    Yields ``("dns", record)`` and ``("conn", record)`` pairs ordered
    by event time — a DNS record's event time is its *completion*
    (``ts + rtt``), a connection's its start — with DNS sorting first
    on ties, matching the reference index's ``completed_at <= conn.ts``
    visibility rule. A lookup is only in flight between its start and
    completion, so a min-heap of pending completions (bounded by the
    number of concurrently outstanding lookups) suffices to reorder;
    both inputs must be ``ts``-nondecreasing, as Zeek logs are.

    Thin wrapper over :class:`StreamMerger`, which exposes the same
    merge with a snapshottable frontier for checkpointing.
    """
    return iter(StreamMerger(dns_records, conns))


def reorder_records(
    records: "Iterable[DnsRecord | ConnRecord]", window_s: float
) -> "Iterator[DnsRecord | ConnRecord]":
    """Bounded reorder buffer for near-``ts``-ordered live streams.

    A log tailed while it is being written can interleave writers and
    arrive slightly out of order; :class:`StreamMerger` however requires
    ``ts``-nondecreasing inputs. This operator holds records in a
    min-heap and only releases one once the maximum timestamp seen is at
    least ``window_s`` ahead of it, so any record at most ``window_s``
    late is re-sorted into place. Records later than that raise
    :class:`AnalysisError` — silently reordering them would break the
    merge contract. Ties preserve arrival order. ``window_s=0`` is a
    pass-through that merely verifies ordering.
    """
    if window_s < 0:
        raise AnalysisError(f"reorder window must be nonnegative, got {window_s}")
    heap: list[tuple[float, int, DnsRecord | ConnRecord]] = []
    seq = 0
    max_ts_s = -math.inf
    emitted_ts_s = -math.inf
    for record in records:
        ts = record.ts
        if ts < emitted_ts_s:
            raise AnalysisError(
                f"record at ts={ts} arrived more than {window_s}s late "
                f"(stream frontier already at {emitted_ts_s})"
            )
        if ts > max_ts_s:
            max_ts_s = ts
        heapq.heappush(heap, (ts, seq, record))
        seq += 1
        horizon_s = max_ts_s - window_s
        while heap and heap[0][0] <= horizon_s:
            emitted_ts_s = heap[0][0]
            yield heapq.heappop(heap)[2]
    while heap:
        yield heapq.heappop(heap)[2]


class StreamingAnalyzer:
    """The one-pass operator graph over an event-time record stream.

    Feed it :func:`stream_trace` events (or call :meth:`offer_dns` /
    :meth:`offer_conn` directly under the same ordering contract), then
    :meth:`finish` it and hand :attr:`state` to
    :func:`finalize_result` (exact mode) or :func:`finalize_summary`.
    """

    def __init__(self, config: StreamingConfig | None = None) -> None:
        self.config = config if config is not None else StreamingConfig()
        options = self.config.options
        self.pairer = Pairer(
            policy=options.pairing_policy,
            seed=options.pairing_seed,
            retain_records=False,
        )
        self._blocking_threshold = options.classifier.blocking_threshold
        self.state = StreamingState(exact=self.config.exact)
        if not self.config.exact:
            epsilon = self.config.epsilon
            self.state.gap_sketch = QuantileSketch(epsilon)
            self.state.delay_sketch = QuantileSketch(epsilon)
            self.state.contribution_sketch = QuantileSketch(epsilon)
            self.state.contribution_sc_sketch = QuantileSketch(epsilon)
            self.state.contribution_r_sketch = QuantileSketch(epsilon)
        self._next_drain_s = math.inf
        self._finished = False

    def consume(self, events: Iterable[tuple[str, DnsRecord | ConnRecord]]) -> None:
        """Feed a :func:`stream_trace`-shaped event stream."""
        for kind, record in events:
            if kind == "dns":
                assert isinstance(record, DnsRecord)
                self.offer_dns(record)
            else:
                assert isinstance(record, ConnRecord)
                self.offer_conn(record)

    def _maybe_drain(self, now_s: float) -> None:
        """Evict TTL-dead index state on the configured cadence."""
        if self._next_drain_s is math.inf:
            self._next_drain_s = now_s + self.config.drain_interval_s
            return
        if now_s < self._next_drain_s:
            return
        self.state.unused_lookups += len(
            self.pairer.drain_expired(now_s, window_s=self.config.window_s)
        )
        while self._next_drain_s <= now_s:
            self._next_drain_s += self.config.drain_interval_s

    def offer_dns(self, record: DnsRecord) -> None:
        """Fold one DNS transaction in (nondecreasing ``completed_at``)."""
        self._maybe_drain(record.completed_at)
        self.state.dns_records += 1
        if record.failed:
            self.state.failed_lookups += 1
        elif not record.addresses():
            # Answered, but with no A/AAAA mapping: it can never pair,
            # so it is unused the moment it completes (§5.2).
            self.state.unused_lookups += 1
        self.state.observer.observe(record)
        self.pairer.offer_dns(record)
        self.state.peak_live_records = max(
            self.state.peak_live_records, self.pairer.index.live_records
        )

    def offer_conn(self, conn: ConnRecord) -> None:
        """Pair and analyse one connection (nondecreasing ``ts``)."""
        self._maybe_drain(conn.ts)
        result = self.pairer.offer(conn)
        state = self.state
        state.total_conns += 1
        if result.dns is None:
            state.class_n += 1
            return
        state.paired += 1
        if result.candidates <= 1:
            state.unique_viable += 1
        if result.expired_pairing:
            state.expired_pairings += 1
        state.expired_candidates += result.expired_candidates
        gap = result.gap
        assert gap is not None
        # Figure 1: clamped gap sample plus first-use validation counters.
        clamped_gap = max(0.0, gap)
        if state.exact:
            state.gaps.append(clamped_gap)
        else:
            assert state.gap_sketch is not None
            state.gap_sketch.offer(clamped_gap)
        if clamped_gap <= self.config.knee_reference:
            state.first_use_below_total += 1
            state.first_use_below_hits += 1 if result.first_use else 0
        else:
            state.first_use_above_total += 1
            state.first_use_above_hits += 1 if result.first_use else 0
        # Table 2 / §6: the raw gap decides blocked-ness, exactly as the
        # per-connection classifier reads ``pairing.gap``.
        if gap > self._blocking_threshold:
            if result.first_use:
                state.class_p += 1
            else:
                state.class_lc += 1
            return
        state.blocked_conns += 1
        rtt = result.dns.rtt
        contribution = self._contribution_percent(rtt, conn.duration)
        absolute_bad = rtt > self.config.abs_threshold
        relative_bad = contribution > self.config.rel_threshold
        if absolute_bad and relative_bad:
            state.cell_sig += 1
        elif absolute_bad:
            state.cell_abs += 1
        elif relative_bad:
            state.cell_rel += 1
        else:
            state.cell_ii += 1
        if state.exact:
            # Intern the resolver: every parsed record carries its own
            # copy of the address string, and retaining one per blocked
            # connection pins allocator arenas across the whole stream
            # (the handful of distinct resolvers should be the only
            # long-lived strings).
            state.blocked_resolvers.append(sys.intern(result.dns.resp_h))
            state.blocked_rtts_s.append(rtt)
            state.blocked_contributions.append(contribution)
            return
        assert state.delay_sketch is not None
        assert state.contribution_sketch is not None
        state.delay_sketch.offer(rtt)
        state.contribution_sketch.offer(contribution)
        # Online SC/R split against the *running* threshold — the one
        # deliberate approximation of sketch mode (exact mode defers the
        # split to the final thresholds instead).
        threshold = self.state.observer.threshold_for(
            result.dns.resp_h, self.config.options.classifier.threshold_policy
        )
        if rtt <= threshold:
            state.class_sc += 1
            assert state.contribution_sc_sketch is not None
            state.contribution_sc_sketch.offer(contribution)
        else:
            state.class_r += 1
            assert state.contribution_r_sketch is not None
            state.contribution_r_sketch.offer(contribution)

    @staticmethod
    def _contribution_percent(rtt_s: float, conn_duration_s: float) -> float:
        """``100·D/(D+A)`` with the per-connection path's 0/0 = 0 convention."""
        if rtt_s <= 0:
            return 0.0
        return 100.0 * rtt_s / (rtt_s + conn_duration_s)

    def finish(self) -> StreamingState:
        """Close the stream: retire all remaining index state.

        Every still-indexed lookup is drained (an infinite horizon
        drops even the expired-fallback tails), so the §5.2 unused-
        lookup accounting covers the full stream. Idempotent; returns
        :attr:`state` for convenience.
        """
        if not self._finished:
            self._finished = True
            self.state.unused_lookups += len(
                self.pairer.drain_expired(math.inf, window_s=0.0)
            )
        return self.state


def finalize_result(
    state: StreamingState, config: StreamingConfig
) -> "PipelineResult":
    """Assemble the exact §4–§6 aggregates from a finished state.

    Only valid for exact-mode states: every statistic below is either a
    plain counter, an order-invariant function of a buffered sample, or
    derived from the final merged thresholds the way the per-connection
    classifier derives it — which is why the result is byte-identical
    to :meth:`repro.core.context.ContextStudy.pipeline_result` on the
    same records.
    """
    if not state.exact:
        raise AnalysisError("exact results need exact=True; use finalize_summary instead")
    if not state.total_conns:
        raise AnalysisError("the trace has no connections to analyse")
    policy = config.options.classifier.threshold_policy
    thresholds = thresholds_from_stats(state.observer.duration_stats(), policy)
    # Table 2: split the deferred blocked sample at the final thresholds.
    delays: list[float] = []
    contributions: list[float] = []
    contributions_sc: list[float] = []
    contributions_r: list[float] = []
    class_sc = 0
    class_r = 0
    for resolver, rtt, contribution in zip(
        state.blocked_resolvers, state.blocked_rtts_s, state.blocked_contributions
    ):
        delays.append(rtt)
        contributions.append(contribution)
        if rtt <= thresholds.get(resolver, policy.default_threshold):
            class_sc += 1
            contributions_sc.append(contribution)
        else:
            class_r += 1
            contributions_r.append(contribution)
    counts: dict[ConnClass, int] = {}
    for conn_class, count in (
        (ConnClass.NO_DNS, state.class_n),
        (ConnClass.LOCAL_CACHE, state.class_lc),
        (ConnClass.PREFETCHED, state.class_p),
        (ConnClass.SHARED_CACHE, class_sc),
        (ConnClass.RESOLUTION, class_r),
    ):
        if count:
            counts[conn_class] = count
    if not state.gaps:
        raise AnalysisError("no paired connections: cannot analyse gaps")
    knee, excluded = find_gap_knee(state.gaps, config.knee_reference)
    gap_analysis = GapAnalysis(
        cdf=Cdf.from_values(state.gaps),
        knee=knee,
        first_use_below_knee=(
            state.first_use_below_hits / state.first_use_below_total
            if state.first_use_below_total
            else 0.0
        ),
        first_use_above_knee=(
            state.first_use_above_hits / state.first_use_above_total
            if state.first_use_above_total
            else 0.0
        ),
        blocking_threshold=config.options.classifier.blocking_threshold,
        knee_excluded_samples=excluded,
        first_use_below_hits=state.first_use_below_hits,
        first_use_below_total=state.first_use_below_total,
        first_use_above_hits=state.first_use_above_hits,
        first_use_above_total=state.first_use_above_total,
    )
    if not delays:
        raise AnalysisError("no blocked connections: cannot analyse lookup delays")
    lookup_delays = LookupDelayAnalysis(
        cdf=Cdf.from_values(delays),
        median=percentile(delays, 50),
        p75=percentile(delays, 75),
        over_100ms_fraction=fraction_above(delays, 0.100),
    )
    contribution_analysis = ContributionAnalysis(
        all_cdf=Cdf.from_values(contributions),
        sc_cdf=Cdf.from_values(contributions_sc) if contributions_sc else None,
        r_cdf=Cdf.from_values(contributions_r) if contributions_r else None,
        over_1pct_all=fraction_above(contributions, REL_INSIGNIFICANT),
        over_10pct_all=fraction_above(contributions, 10.0),
        over_1pct_r=(
            fraction_above(contributions_r, REL_INSIGNIFICANT)
            if contributions_r
            else 0.0
        ),
    )
    quadrant = quadrant_from_cells(
        {
            "ii": state.cell_ii,
            "rel": state.cell_rel,
            "abs": state.cell_abs,
            "sig": state.cell_sig,
        },
        state.blocked_conns,
        state.total_conns,
    )
    return PipelineResult(
        census=_census(state),
        breakdown=ClassBreakdown(counts=counts),
        gap_analysis=gap_analysis,
        lookup_delays=lookup_delays,
        contribution=contribution_analysis,
        quadrant=quadrant,
        thresholds=thresholds,
        failure_stats=state.observer.failure_stats(),
        peak_live_records=state.peak_live_records,
        unused_lookups=state.unused_lookups,
    )


def _census(state: StreamingState) -> PairingCensus:
    """The §4 census from the state's online counters."""
    return PairingCensus(
        conns=state.total_conns,
        paired=state.paired,
        unique_viable=state.unique_viable,
        expired_pairings=state.expired_pairings,
        expired_candidates=state.expired_candidates,
    )


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """The §4–§6 results of one analysis run.

    The exact streaming engine (:func:`finalize_result`) and the
    per-connection reference
    (:meth:`~repro.core.context.ContextStudy.pipeline_result`) both
    build it, and the parity tests compare the two with ``==``. The two
    telemetry fields are the streaming engine's own (zero for the
    reference) and deliberately do not participate in equality.
    """

    census: PairingCensus
    breakdown: ClassBreakdown
    gap_analysis: GapAnalysis
    lookup_delays: LookupDelayAnalysis
    contribution: ContributionAnalysis
    quadrant: SignificanceQuadrant
    thresholds: dict[str, float]
    failure_stats: dict[str, ResolverFailureStats]
    peak_live_records: int = field(default=0, compare=False)
    unused_lookups: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class StreamingSummary:
    """Sketch-mode output: bounded-memory estimates with error bounds.

    Counters (census, Table 2, quadrant, first-use splits, §5.2 unused
    lookups) are exact — they were never sampled. Distribution shapes
    (gap, lookup delay, contribution) come from quantile sketches whose
    worst-case rank error is certified by
    :attr:`QuantileSketch.rank_error_bound`. The SC/R split used
    running thresholds and is therefore approximate; the reported
    ``thresholds`` are the final ones.
    """

    census: PairingCensus
    breakdown: ClassBreakdown
    quadrant: SignificanceQuadrant | None
    thresholds: dict[str, float]
    failure_stats: dict[str, ResolverFailureStats]
    gap_sketch: QuantileSketch
    delay_sketch: QuantileSketch
    contribution_sketch: QuantileSketch
    contribution_sc_sketch: QuantileSketch
    contribution_r_sketch: QuantileSketch
    first_use_below_knee: float
    first_use_above_knee: float
    dns_records: int
    failed_lookups: int
    unused_lookups: int
    peak_live_records: int
    window_s: float | None
    epsilon: float

    @property
    def answered_lookups(self) -> int:
        """DNS transactions that produced an answer."""
        return self.dns_records - self.failed_lookups

    @property
    def unused_lookup_fraction(self) -> float:
        """§5.2: the share of answered lookups never paired (exact)."""
        if not self.answered_lookups:
            return 0.0
        return self.unused_lookups / self.answered_lookups

    @property
    def rank_error_bound(self) -> float:
        """The worst certified rank error across the three sketches."""
        return max(
            self.gap_sketch.rank_error_bound,
            self.delay_sketch.rank_error_bound,
            self.contribution_sketch.rank_error_bound,
        )


def finalize_summary(state: StreamingState, config: StreamingConfig) -> StreamingSummary:
    """Assemble the sketch-mode summary from a finished state."""
    if state.exact:
        raise AnalysisError("summaries need exact=False; use finalize_result instead")
    if not state.total_conns:
        raise AnalysisError("the trace has no connections to analyse")
    counts: dict[ConnClass, int] = {}
    for conn_class, count in (
        (ConnClass.NO_DNS, state.class_n),
        (ConnClass.LOCAL_CACHE, state.class_lc),
        (ConnClass.PREFETCHED, state.class_p),
        (ConnClass.SHARED_CACHE, state.class_sc),
        (ConnClass.RESOLUTION, state.class_r),
    ):
        if count:
            counts[conn_class] = count
    quadrant = None
    if state.blocked_conns:
        quadrant = quadrant_from_cells(
            {
                "ii": state.cell_ii,
                "rel": state.cell_rel,
                "abs": state.cell_abs,
                "sig": state.cell_sig,
            },
            state.blocked_conns,
            state.total_conns,
        )
    policy = config.options.classifier.threshold_policy
    assert state.gap_sketch is not None
    assert state.delay_sketch is not None
    assert state.contribution_sketch is not None
    assert state.contribution_sc_sketch is not None
    assert state.contribution_r_sketch is not None
    return StreamingSummary(
        census=_census(state),
        breakdown=ClassBreakdown(counts=counts),
        quadrant=quadrant,
        thresholds=thresholds_from_stats(state.observer.duration_stats(), policy),
        failure_stats=state.observer.failure_stats(),
        gap_sketch=state.gap_sketch,
        delay_sketch=state.delay_sketch,
        contribution_sketch=state.contribution_sketch,
        contribution_sc_sketch=state.contribution_sc_sketch,
        contribution_r_sketch=state.contribution_r_sketch,
        first_use_below_knee=(
            state.first_use_below_hits / state.first_use_below_total
            if state.first_use_below_total
            else 0.0
        ),
        first_use_above_knee=(
            state.first_use_above_hits / state.first_use_above_total
            if state.first_use_above_total
            else 0.0
        ),
        dns_records=state.dns_records,
        failed_lookups=state.failed_lookups,
        unused_lookups=state.unused_lookups,
        peak_live_records=state.peak_live_records,
        window_s=config.window_s,
        epsilon=config.epsilon,
    )


def analyze_stream(
    dns_records: Iterable[DnsRecord],
    conns: Iterable[ConnRecord],
    config: StreamingConfig | None = None,
) -> StreamingState:
    """One-pass both logs through a fresh analyzer; return its state.

    The single-process convenience entry: merge the logs in event time,
    stream them through the operator graph, and close the stream. For
    sharded execution see :func:`repro.core.parallel.run_streaming_pipeline`.
    """
    analyzer = StreamingAnalyzer(config)
    analyzer.consume(stream_trace(dns_records, conns))
    return analyzer.finish()
