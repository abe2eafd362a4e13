"""Spans around calls into the program's public functions, from outside it.

The benchmark never edits the program. A :class:`Tracer` replaces named
public functions and methods with timing wrappers in the running
process, and every module-level alias of a wrapped function (a
``from x import f`` binding) is re-pointed at the wrapper too. Spans
nest: a span's *self* time is its duration minus the time its child
spans cover, so self times add up without double counting.

A trace point whose module, class or function no longer exists raises
:class:`TracePointError` at install time. A renamed function therefore
fails the traced run loudly instead of reading as zero.
"""

from __future__ import annotations

import functools
import os
import sys
from importlib import import_module
from statistics import fmean
from time import perf_counter


class TracePointError(RuntimeError):
    """A wrapped public function is gone (renamed, moved or deleted)."""


def vmhwm_kb() -> int:
    """This process's peak resident set size (``VmHWM``) in KiB."""
    with open("/proc/self/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


class Span:
    """Accumulated statistics of every call under one span name."""

    __slots__ = ("self_s", "calls", "durations", "observed")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.durations: list[float] = []
        self.observed: list = []


class Tracer:
    """Span bookkeeping for one process (one traced job or probe)."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # One child-time accumulator per open span; the first entry is
        # the root, which collects the time of top-level spans.
        self._stack = [0.0]
        self.hwm_kb: dict[str, int] = {}

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    @property
    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return self._stack[0]

    def note_hwm(self, layer: str) -> None:
        self.hwm_kb[layer] = max(self.hwm_kb.get(layer, 0), vmhwm_kb())

    def wrap(self, target: str, name: str, *, observe=None, iterator: bool = False,
             hwm: bool = True, durations: bool = False) -> None:
        """Time every call of *target* (``"module:Qualified.name"``) as *name*.

        *observe(args, kwargs, result)* runs after the span closes and its
        return value is kept on the span. With *iterator*, the target
        returns an iterator and each ``next`` is timed instead of the call.
        With *hwm*, ``VmHWM`` is read when a call ends (skip it for spans
        entered once per record).
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner = import_module(module_name)
            *parents, attr = qualname.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as error:
            raise TracePointError(
                f"trace point {target} is gone ({error}); update perfbench/tracer.py"
            ) from None
        if not callable(original):
            raise TracePointError(f"trace point {target} is not a function")
        span = self.span(name)
        layer = name.partition(".")[0]
        stack = self._stack
        tracer = self

        if iterator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if observe is not None:
                    span.observed.append(observe(args, kwargs, result))
                return _TimedIterator(iter(result), span, stack, tracer, layer)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except StopIteration:
                    _close(span, stack, perf_counter() - start, durations, count=False)
                    raise
                except BaseException:
                    _close(span, stack, perf_counter() - start, durations)
                    raise
                # The first container allocated after the call runs the cyclic
                # collection the call's own allocations made due; after a
                # function that suspends the collector (generation does) that
                # pass walks everything it built. Allocate one inside the span
                # (a set: tuples and lists may come from a free list, which
                # skips the collector), so the pass is timed there and not as
                # the caller's glue.
                set()
                _close(span, stack, perf_counter() - start, durations)
                if observe is not None:
                    span.observed.append(observe(args, kwargs, result))
                if hwm:
                    tracer.note_hwm(layer)
                return result

        setattr(owner, attr, wrapper)
        for module_key, module in list(sys.modules.items()):
            if module_key == "repro" or module_key.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _close(span: Span, stack: list[float], elapsed: float, durations: bool,
           count: bool = True) -> None:
    child = stack.pop()
    stack[-1] += elapsed
    span.self_s += elapsed - child
    if count:
        span.calls += 1
    if durations:
        span.durations.append(elapsed)


class _TimedIterator:
    """Times each ``next`` of a wrapped iterator."""

    __slots__ = ("_inner", "_span", "_stack", "_tracer", "_layer")

    def __init__(self, inner, span: Span, stack: list[float], tracer: Tracer, layer: str):
        self._inner = inner
        self._span = span
        self._stack = stack
        self._tracer = tracer
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            item = next(self._inner)
        except StopIteration:
            _close(self._span, stack, perf_counter() - start, False, count=False)
            self._tracer.note_hwm(self._layer)
            raise
        except BaseException:
            _close(self._span, stack, perf_counter() - start, False)
            raise
        _close(self._span, stack, perf_counter() - start, False, count=False)
        return item


# -- the trace points ---------------------------------------------------------


def _path_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _loaded(args, kwargs, result) -> tuple[int, int]:
    return len(result), os.path.getsize(args[0])


def _merged(args, kwargs, result) -> tuple[int, int]:
    failed = sum(1 for record in result.dns if record.failed)
    return len(result.dns) + len(result.conns), failed


def _pair_all(args, kwargs, result) -> tuple[int, int, int]:
    paired = sum(1 for item in result if item.dns is not None)
    candidates = sum(item.candidates for item in result)
    return len(result), paired, candidates


def _finalized(args, kwargs, result) -> tuple[int, int, int]:
    state = args[0]
    return result.census.conns, result.census.paired, state.peak_live_records


def install(tracer: Tracer) -> Tracer:
    """Wrap every public function the per-layer metrics are read from.

    Only functions some workload calls are wrapped: a trace point on a
    path no workload runs would measure nothing. The parallel fan-out
    (``TrafficGenerator.run_shard``), lenient and lazy TSV ingest, batch
    analysis of RBLG logs and the exact streaming result stay unwrapped
    until a workload runs them.
    """
    # Imported lazily by the program; import it now so it can be wrapped.
    import_module("repro.core.population")
    wrap = tracer.wrap
    wrap("repro.workload.generate:TrafficGenerator.__init__", "workload.setup")
    for function in ("generate_trace", "generate_trace_with_pressure"):
        wrap(f"repro.workload.generate:{function}", "workload.simulate")
    wrap("repro.workload.generate:TrafficGenerator.run", "workload.simulate",
         observe=lambda args, kwargs, result: args[0].pressure_stats())
    wrap("repro.simulation.engine:SimulationEngine.run", "workload.house", durations=True)
    wrap("repro.monitor.capture:merge_traces", "workload.merge", observe=_merged)

    for kind in ("dns", "conn"):
        wrap(f"repro.monitor.logs:load_{kind}_log", "monitor.parse_tsv", observe=_loaded)
        wrap(f"repro.monitor.binlog:iter_{kind}_binlog", "monitor.decode_rblg",
             observe=_path_bytes, iterator=True)
        wrap(f"repro.monitor.binlog:save_{kind}_binlog", "monitor.encode_rblg",
             observe=_path_bytes)
    wrap("repro.monitor.capture:Trace.sort", "monitor.sort")

    wrap("repro.core.streaming:StreamMerger.__next__", "streaming.merge", hwm=False)
    wrap("repro.core.streaming:analyze_stream", "streaming.operators")
    wrap("repro.core.checkpoint:run_checkpointed_stream", "streaming.operators")
    wrap("repro.core.streaming:finalize_summary", "streaming.finalize", observe=_finalized)

    wrap("repro.core.pairing:DnsIndex.__init__", "pairing.index")
    wrap("repro.core.pairing:Pairer.pair_all", "pairing.match", observe=_pair_all)
    wrap("repro.core.pairing:DnsIndex.drain_expired", "pairing.drain", hwm=False,
         observe=lambda args, kwargs, result: len(result))

    wrap("repro.core.classify:Classifier.__init__", "classify.thresholds")
    wrap("repro.core.classify:Classifier.classify_all", "classify.classify")
    for target in (
        "repro.core.classify:class_breakdown",
        "repro.core.classify:collect_failure_stats",
        "repro.core.blocking:analyze_gaps",
        "repro.core.performance:lookup_delay_analysis",
        "repro.core.performance:significance_quadrant",
        "repro.core.resolvers:hit_rate_by_platform",
    ):
        wrap(target, "stats.aggregate")

    wrap("repro.core.population:characterize", "population.characterize")
    wrap("repro.core.resolvers:resolver_usage_table", "resolvers.usage")
    wrap("repro.core.improvements:whole_house_cache_analysis", "improvements.whole_house")
    for method in ("__init__", "compare"):
        wrap(f"repro.core.improvements:RefreshSimulator.{method}", "improvements.refresh")

    wrap("repro.core.checkpoint:write_checkpoint", "checkpoint.write",
         observe=lambda args, kwargs, result: result)

    for function in (
        "render_table1",
        "render_table2",
        "render_table3",
        "render_pressure",
        "render_streaming_summary",
    ):
        wrap(f"repro.report.tables:{function}", "report.render")
    wrap("repro.monitor.capture:Trace.summary", "report.render")
    wrap("repro.core.population:PopulationStats.summary", "report.render")
    return tracer


HWM_LAYERS = (
    "workload", "monitor", "streaming", "pairing", "classify", "stats",
    "population", "resolvers", "improvements", "checkpoint", "report",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, keyed as in ``BENCHMARK.json``."""
    spans = tracer.spans

    def self_s(name: str) -> float:
        return spans[name].self_s if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    def observed(name: str) -> list:
        return spans[name].observed if name in spans else []

    metrics: dict[str, float] = {
        "workload.setup_s": self_s("workload.setup"),
        "workload.simulate_s": self_s("workload.simulate") + self_s("workload.house"),
        "workload.houses": calls("workload.house"),
        "workload.merge_s": self_s("workload.merge"),
    }
    houses = spans["workload.house"].durations if "workload.house" in spans else []
    metrics["workload.house_skew"] = max(houses) / fmean(houses) if houses else 0.0
    merged = observed("workload.merge")
    metrics["workload.records"] = sum(records for records, _ in merged)

    pressures = observed("workload.simulate")
    stub_lookups = sum(p.stub_lookups for p in pressures)
    resolver_lookups = sum(p.resolver_lookups for p in pressures)
    metrics.update({
        "dns.stub_lookups": stub_lookups,
        "dns.stub_hit_ratio": sum(p.stub_hits for p in pressures) / stub_lookups
        if stub_lookups else 0.0,
        "dns.stub_evictions": sum(p.stub_evictions for p in pressures),
        "dns.stub_stale_serves": sum(p.stub_stale_serves for p in pressures),
        "dns.stub_queued": sum(p.stub_queued for p in pressures),
        "dns.stub_shed": sum(p.stub_shed for p in pressures),
        "dns.resolver_lookups": resolver_lookups,
        "dns.resolver_hit_ratio": sum(p.resolver_hits for p in pressures) / resolver_lookups
        if resolver_lookups else 0.0,
        "dns.resolver_evictions": sum(p.resolver_evictions for p in pressures),
        "dns.resolver_refused": sum(p.resolver_refused for p in pressures),
        "dns.failed_lookups": sum(failed for _, failed in merged),
    })

    parsed = observed("monitor.parse_tsv")
    parse_s = self_s("monitor.parse_tsv")
    parsed_records = sum(records for records, _ in parsed)
    metrics.update({
        "monitor.parse_tsv_s": parse_s,
        "monitor.parse_tsv_records_per_s": parsed_records / parse_s if parse_s else 0.0,
        "monitor.bytes_read": sum(size for _, size in parsed)
        + sum(observed("monitor.decode_rblg")),
        "monitor.sort_s": self_s("monitor.sort"),
        "monitor.decode_rblg_s": self_s("monitor.decode_rblg"),
        "monitor.encode_rblg_s": self_s("monitor.encode_rblg"),
        "monitor.bytes_written": sum(observed("monitor.encode_rblg")),
        "streaming.merge_s": self_s("streaming.merge"),
        "streaming.events": calls("streaming.merge"),
        "streaming.operators_s": self_s("streaming.operators"),
        "streaming.finalize_s": self_s("streaming.finalize"),
    })

    matched = observed("pairing.match")
    finalized = observed("streaming.finalize")
    conns = sum(item[0] for item in matched) or sum(item[0] for item in finalized)
    paired = sum(item[1] for item in matched) or sum(item[1] for item in finalized)
    metrics.update({
        "pairing.index_s": self_s("pairing.index"),
        "pairing.match_s": self_s("pairing.match"),
        "pairing.candidates_per_conn": sum(item[2] for item in matched)
        / sum(item[0] for item in matched) if matched else 0.0,
        "pairing.paired_ratio": paired / conns if conns else 0.0,
        "pairing.drain_s": self_s("pairing.drain"),
        "pairing.drain_calls": calls("pairing.drain"),
        "pairing.retired": sum(observed("pairing.drain")),
        "pairing.peak_live_records": max((item[2] for item in finalized), default=0),
        "classify.thresholds_s": self_s("classify.thresholds"),
        "classify.classify_s": self_s("classify.classify"),
        "stats.aggregate_s": self_s("stats.aggregate"),
        "population.characterize_s": self_s("population.characterize"),
        "resolvers.usage_s": self_s("resolvers.usage"),
        "improvements.whole_house_s": self_s("improvements.whole_house"),
        "improvements.refresh_s": self_s("improvements.refresh"),
    })

    snapshots = observed("checkpoint.write")
    metrics.update({
        "checkpoint.snapshots": len(snapshots),
        "checkpoint.bytes_per_snapshot": fmean(snapshots) if snapshots else 0.0,
        "checkpoint.write_s": self_s("checkpoint.write"),
        "report.render_s": self_s("report.render"),
    })
    for layer in HWM_LAYERS:
        metrics[f"{layer}.hwm_mb"] = tracer.hwm_kb.get(layer, 0) / 1024
    return metrics
