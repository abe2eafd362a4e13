"""Household sharding and the fork fan-out behind the §4–§6 entry points.

The paper's §4–§6 analyses run on one engine, the one-pass streaming
analyzer (:mod:`repro.core.streaming`). This module holds its entry
points and the process fan-out they share with scenario sweeps and
sharded trace generation:

* :func:`run_streaming_pipeline` and :func:`run_streaming_summary`
  one-pass record iterables (exact statistics / quantile sketches);
  :func:`run_pipeline` is the in-memory entry: the exact pass over a
  ``ts``-sorted copy of a :class:`~repro.monitor.capture.Trace`.
* With ``workers>1`` the logs are split by household
  (:func:`shard_by_household`) — pairing only consults same-house
  lookups — and each shard streams in its own process;
  :meth:`~repro.core.streaming.StreamingState.merge` combines the shard
  states into exactly the single-stream state.
* :func:`run_scenarios` is the one fan-out: fork-started processes
  under :func:`repro.supervise.supervise` (heartbeats, bounded
  restarts, a serial retry in the parent). Fork is the only parallel
  start method; without it, as on a 1-CPU host or inside another
  fan-out, the fan-out runs its serial loop.

**Determinism contract**: exact results are byte-identical for any
worker count (the sketch summary's running-threshold SC/R split and
its peak live count depend on the shard count). Every merged statistic
is an integer count, an order-invariant statistic over a concatenated
sample, or derived from one of those; the random pairing policy draws
from per-house seeded streams (``derive_seed(seed, "pairing") ->
house``), so no draw depends on which shard — or which other
households — a house is processed with. Workers never read the wall
clock or global RNG state.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointTelemetry,
    run_checkpointed_stream,
)
from repro.core.context import StudyOptions
from repro.core.streaming import (
    PipelineResult,
    StreamingConfig,
    StreamingState,
    StreamingSummary,
    analyze_stream,
    finalize_result,
    finalize_summary,
)
from repro.errors import AnalysisError
from repro.monitor.capture import Trace
from repro.monitor.records import ConnRecord, DnsRecord
from repro.supervise import supervise

DEFAULT_SHARDS_PER_WORKER = 4
"""Shards per worker: small enough to amortise task overhead, large
enough that one slow household cannot stall the fan-out's tail."""


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware, >= 1).

    A module-level seam on purpose: tests on constrained hosts
    monkeypatch it to exercise the fork paths, and
    :func:`effective_worker_count` reads it so a 1-CPU container
    degrades to the serial path instead of paying fork-and-pickle
    overhead for a slower-than-serial "parallel" run.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def effective_worker_count(workers: int, jobs: int | None = None) -> int:
    """The worker count a fan-out will actually use.

    Clamps *workers* to the CPUs available to this process (oversubscribed
    workers on a smaller host are strictly slower than serial for
    CPU-bound scenario generation) and, when *jobs* is given, to the
    number of jobs (idle workers would only cost fork time). Benchmarks
    record this next to the requested count so a recorded "speedup" is
    attributed to the fan-out that actually ran.
    """
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    effective = min(workers, _available_cpus())
    if jobs is not None and jobs >= 1:
        effective = min(effective, jobs)
    return max(1, effective)


@dataclass(frozen=True, slots=True)
class PressureStats:
    """Cache/connection-budget pressure counters from one scenario.

    Every field is a plain additive counter, so per-scenario (or
    per-house) tallies merge by addition into exactly the
    whole-population tally — the same contract as the failure stats the
    pipeline already merges. ``stub_*`` covers the device-side caches
    and fd budgets; ``resolver_*`` the shared recursive platforms.
    """

    stub_lookups: int = 0
    stub_hits: int = 0
    stub_evictions: int = 0
    stub_stale_serves: int = 0
    stub_stale_expirations: int = 0
    stub_admitted: int = 0
    stub_queued: int = 0
    stub_shed: int = 0
    resolver_lookups: int = 0
    resolver_hits: int = 0
    resolver_evictions: int = 0
    resolver_stale_serves: int = 0
    resolver_stale_expirations: int = 0
    resolver_admitted: int = 0
    resolver_queued: int = 0
    resolver_refused: int = 0

    @property
    def stub_hit_rate(self) -> float:
        """Local-cache hit share of all stub probes (0 when unused)."""
        if not self.stub_lookups:
            return 0.0
        return self.stub_hits / self.stub_lookups

    @property
    def resolver_hit_rate(self) -> float:
        """Shared-cache hit share of all resolver probes (0 when unused)."""
        if not self.resolver_lookups:
            return 0.0
        return self.resolver_hits / self.resolver_lookups

    @property
    def blocked_connection_share(self) -> float:
        """Share of admission decisions that queued or shed a connection."""
        arrivals = (
            self.stub_admitted
            + self.stub_queued
            + self.stub_shed
            + self.resolver_admitted
            + self.resolver_queued
            + self.resolver_refused
        )
        if not arrivals:
            return 0.0
        blocked = self.stub_queued + self.stub_shed + self.resolver_queued + self.resolver_refused
        return blocked / arrivals

    def merged_with(self, other: "PressureStats") -> "PressureStats":
        """The counter tally over both samples."""
        return PressureStats(
            stub_lookups=self.stub_lookups + other.stub_lookups,
            stub_hits=self.stub_hits + other.stub_hits,
            stub_evictions=self.stub_evictions + other.stub_evictions,
            stub_stale_serves=self.stub_stale_serves + other.stub_stale_serves,
            stub_stale_expirations=self.stub_stale_expirations + other.stub_stale_expirations,
            stub_admitted=self.stub_admitted + other.stub_admitted,
            stub_queued=self.stub_queued + other.stub_queued,
            stub_shed=self.stub_shed + other.stub_shed,
            resolver_lookups=self.resolver_lookups + other.resolver_lookups,
            resolver_hits=self.resolver_hits + other.resolver_hits,
            resolver_evictions=self.resolver_evictions + other.resolver_evictions,
            resolver_stale_serves=self.resolver_stale_serves + other.resolver_stale_serves,
            resolver_stale_expirations=(
                self.resolver_stale_expirations + other.resolver_stale_expirations
            ),
            resolver_admitted=self.resolver_admitted + other.resolver_admitted,
            resolver_queued=self.resolver_queued + other.resolver_queued,
            resolver_refused=self.resolver_refused + other.resolver_refused,
        )


def merge_pressure_stats(parts: Sequence[PressureStats]) -> PressureStats:
    """Merge many pressure tallies (addition: associative, commutative)."""
    merged = PressureStats()
    for part in parts:
        merged = merged.merged_with(part)
    return merged


def shard_by_household(
    dns_records: Sequence[DnsRecord],
    conns: Sequence[ConnRecord],
    shards: int,
) -> list[tuple[list[DnsRecord], list[ConnRecord]]]:
    """Partition a trace into *shards* household-disjoint sub-traces.

    Houses are assigned round-robin over the sorted house addresses, so
    the partition is deterministic. Both logs keep their input order
    within each shard, so ``ts``-ordered logs give ``ts``-ordered shards.
    """
    if shards < 1:
        raise AnalysisError(f"shard count must be positive, got {shards}")
    houses = sorted(
        {record.orig_h for record in dns_records} | {conn.orig_h for conn in conns}
    )
    assignment = {house: index % shards for index, house in enumerate(houses)}
    parts: list[tuple[list[DnsRecord], list[ConnRecord]]] = [
        ([], []) for _ in range(shards)
    ]
    for record in dns_records:
        parts[assignment[record.orig_h]][0].append(record)
    for conn in conns:
        parts[assignment[conn.orig_h]][1].append(conn)
    return parts


#: Is this process running a :func:`run_scenarios` fan-out? True in
#: the parent while its fan-out is live and in every forked worker,
#: which inherits it, so a nested call (a sweep task that generates
#: or analyses with workers) runs its serial loop instead of starting
#: processes from a daemonic worker or a second supervisor over the
#: same CPUs.
_FANNING_OUT = False  # repro-lint: fork-shared(a bool set in the parent before fork and reset in run_scenarios' finally; workers only read the inherited copy)


def run_scenarios(configs: Sequence, task: Callable, workers: int = 1) -> list:
    """Map *task* over *configs* in fork-started workers, results in config order.

    Sweeps, calibration runs, generation shards and streaming shards
    all fan out here. Each call of *task* is a pure function of its
    config (every random draw comes from streams derived from a seed;
    the library never reads the wall clock), so fanning the configs out
    over processes is byte-identical to the serial loop —
    ``run_scenarios(configs, task, workers=n) == [task(c) for c in
    configs]`` for every ``n``.

    ``task`` receives one element of *configs* and must return a
    picklable value; keep returns small (summaries, digests) — a full
    week-scale :class:`~repro.monitor.capture.Trace` round-trips through
    pickle and erodes the speedup. The configs and the callable reach
    the workers through copy-on-write memory, so closures work. Each
    worker runs under :func:`repro.supervise.supervise`: a scenario
    whose worker dies is restarted, then retried serially in the parent.

    The serial loop runs whenever the call cannot fan out: one
    effective worker (:func:`effective_worker_count`; one line on
    stderr records a CPU clamp), at most one config, no fork start
    method, or a fan-out already live in this process — the one rule
    for a fan-out inside a fan-out. The results are the same either way.
    """
    global _FANNING_OUT
    configs = list(configs)
    effective = effective_worker_count(workers)
    if effective < workers:
        print(
            f"run_scenarios: reducing workers {workers} -> {effective} "
            f"({effective} CPU(s) available)",
            file=sys.stderr,
        )
    if (
        effective == 1
        or len(configs) <= 1
        or _FANNING_OUT
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [task(config) for config in configs]
    try:
        _FANNING_OUT = True
        gc.freeze()
        return supervise(configs, task, effective)
    finally:
        gc.unfreeze()
        _FANNING_OUT = False


@dataclass(frozen=True, slots=True)
class StreamingShardTask:
    """One household shard of a streaming run (a `run_scenarios` config)."""

    shard_id: int
    dns_records: list[DnsRecord]
    conns: list[ConnRecord]
    config: StreamingConfig


def _stream_shard(task: StreamingShardTask) -> StreamingState:
    """One-pass a single household shard."""
    return analyze_stream(task.dns_records, task.conns, task.config)


def _run_streaming(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    config: StreamingConfig,
    workers: int,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
) -> StreamingState:
    """Shared driver of the streaming entry points.

    ``workers=1`` consumes the record iterables lazily — this is the
    memory-bounded path, and the only one that accepts true streams.
    ``workers>1`` must materialize both logs to shard them by household
    (use it when the logs are already in memory and wall-time matters);
    the shard states merge into exactly the single-stream state, so both
    paths finalize identically. *checkpoint* makes the single-stream
    path crash-safe (:func:`repro.core.checkpoint.run_checkpointed_stream`);
    checkpointing a sharded run is rejected — one checkpoint file cannot
    describe many independent stream frontiers.
    """
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    if checkpoint is not None and workers != 1:
        raise AnalysisError(
            "checkpointing requires workers=1 (a sharded streaming run has "
            "no single resumable frontier)"
        )
    if checkpoint is not None:
        return run_checkpointed_stream(
            dns_records,
            conns,
            config,
            checkpoint=checkpoint,
            resume=resume,
            telemetry=checkpoint_telemetry,
        )
    if workers == 1:
        return analyze_stream(dns_records, conns, config)
    dns_list = list(dns_records)
    conn_list = list(conns)
    houses = {conn.orig_h for conn in conn_list} | {record.orig_h for record in dns_list}
    shard_count = max(1, min(workers * DEFAULT_SHARDS_PER_WORKER, len(houses)))
    parts = shard_by_household(dns_list, conn_list, shard_count)
    tasks = [
        StreamingShardTask(shard_id, dns_part, conn_part, config)
        for shard_id, (dns_part, conn_part) in enumerate(parts)
    ]
    return StreamingState.merge(run_scenarios(tasks, _stream_shard, workers))


def run_pipeline(
    trace: Trace,
    options: StudyOptions | None = None,
    workers: int = 1,
) -> PipelineResult:
    """Run the §4–§6 analyses over an in-memory trace.

    The in-memory entry to :func:`run_streaming_pipeline`. Both logs are
    stably sorted by ``ts`` first: a trace built in memory may hold its
    records in any order, while the event-time merge rejects a log that
    goes back in time. ``workers>1`` streams household shards in
    parallel. The result equals the per-connection reference,
    ``ContextStudy(trace, options).pipeline_result()``, field for field.
    """
    by_ts = attrgetter("ts")
    return run_streaming_pipeline(
        sorted(trace.dns, key=by_ts),
        sorted(trace.conns, key=by_ts),
        options,
        workers,
    )


def run_streaming_pipeline(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    options: StudyOptions | None = None,
    workers: int = 1,
    window_s: float | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
) -> PipelineResult:
    """One-pass ``ts``-ordered logs with exact statistics.

    The result equals the per-connection reference
    (:meth:`~repro.core.context.ContextStudy.pipeline_result`)
    bit-for-bit — the differential harness pins this across seeds and
    fault mixes — but is computed in one pass with the DNS index
    TTL-drained as the stream advances, so ``workers=1`` accepts lazy
    record iterators and never holds the full record population.
    ``window_s`` additionally bounds expired-fallback tails; parity then
    holds for traces whose pairing gaps fit in the window.
    """
    config = StreamingConfig(
        options=options if options is not None else StudyOptions(),
        exact=True,
        window_s=window_s,
    )
    state = _run_streaming(
        dns_records, conns, config, workers, checkpoint, resume, checkpoint_telemetry
    )
    return finalize_result(state, config)


def run_streaming_summary(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    options: StudyOptions | None = None,
    workers: int = 1,
    window_s: float | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
) -> StreamingSummary:
    """One-pass the logs with sketched statistics; return the summary.

    The O(window)-memory mode: distribution shapes live in mergeable
    quantile sketches with a certified rank-error budget
    (:data:`~repro.core.streaming.DEFAULT_SKETCH_EPSILON`), and every
    count (census, class breakdown up to the running-threshold SC/R
    split, quadrant, unused lookups) stays exact. See
    :class:`repro.core.streaming.StreamingSummary` for what is exact
    versus certified-approximate.
    """
    config = StreamingConfig(
        options=options if options is not None else StudyOptions(),
        exact=False,
        window_s=window_s,
    )
    state = _run_streaming(
        dns_records, conns, config, workers, checkpoint, resume, checkpoint_telemetry
    )
    return finalize_summary(state, config)
