"""Line-coverage floor for :mod:`repro.core.streaming`.

The tier-1 gate requires >=90% of the streaming engine's function-body
lines to execute under a representative workload. No coverage tooling
is assumed: a :func:`sys.settrace` hook records line events for the
module while the workload runs, and the executable-line universe is
recovered from the compiled code objects (functions only — import-time
definition lines are excluded, since the module is already imported).
"""

import dis
import inspect
import sys

import pytest

import repro.core.streaming as streaming_module
from repro.core.classify import ClassifierConfig
from repro.core.context import StudyOptions
from repro.core.streaming import (
    StreamingAnalyzer,
    StreamingConfig,
    StreamingState,
    StreamMerger,
    analyze_stream,
    finalize_result,
    finalize_summary,
    reorder_records,
    stream_trace,
)
from repro.errors import AnalysisError
from repro.workload.generate import generate_trace
from repro.workload.scenario import FaultConfig, ScenarioConfig

COVERAGE_FLOOR = 0.90

CO_OPTIMIZED = inspect.CO_OPTIMIZED


def _function_lines(path: str) -> set[int]:
    """Line numbers belonging to function bodies in *path*.

    Walks the compiled module's code objects; only CO_OPTIMIZED code
    (real function/generator bodies) counts — module-level statements
    and dataclass class bodies run at import time and cannot be
    re-observed by a late settrace hook.
    """
    with open(path, encoding="utf-8") as stream:
        top = compile(stream.read(), path, "exec")
    lines: set[int] = set()
    stack = [top]
    while stack:
        code = stack.pop()
        if code.co_flags & CO_OPTIMIZED:
            lines.update(
                lineno for _, lineno in dis.findlinestarts(code) if lineno
            )
        stack.extend(
            const for const in code.co_consts if isinstance(const, type(top))
        )
    return lines


def _descending(records):
    """Two records in strictly decreasing ts order — an invalid log."""
    first = records[0]
    later = next(record for record in records if record.ts > first.ts)
    return [later, first]


def _exercise_engine(monkeypatch) -> None:
    """A workload touching every engine surface, happy and unhappy."""
    trace = generate_trace(
        ScenarioConfig(
            seed=5,
            houses=2,
            duration=2 * 3600.0,
            faults=FaultConfig(
                timeout_probability=0.05,
                servfail_probability=0.03,
                nxdomain_probability=0.03,
            ),
        )
    )

    # Exact pass, windowed and drained every two stream minutes, then
    # finalize the full result.
    exact = StreamingConfig(window_s=900.0)
    with monkeypatch.context() as patch:
        patch.setattr(streaming_module, "DEFAULT_DRAIN_INTERVAL_S", 120.0)
        state = analyze_stream(trace.dns, trace.conns, exact)
    finalize_result(state, exact)

    # Sketch pass + summary finalize, plus a two-way merge of both.
    sketch = StreamingConfig(exact=False)
    houses = sorted({record.orig_h for record in trace.conns})
    parts = []
    for house in houses:
        part_dns = [r for r in trace.dns if r.orig_h == house]
        part_conns = [c for c in trace.conns if c.orig_h == house]
        parts.append(analyze_stream(part_dns, part_conns, sketch))
    merged = StreamingState.merge(parts)
    finalize_summary(merged, sketch)

    # Incremental driving of the analyzer, finish() idempotence.
    analyzer = StreamingAnalyzer(exact)
    analyzer.consume(stream_trace(trace.dns[:200], trace.conns[:200]))
    analyzer.finish()
    analyzer.finish()

    # Snapshot/restore of the merge frontier mid-stream: the restored
    # merger (fed the same, still-positioned input iterators) must
    # replay exactly the event suffix the original would have.
    reference = list(stream_trace(trace.dns[:300], trace.conns[:300]))
    dns_iter = iter(trace.dns[:300])
    conn_iter = iter(trace.conns[:300])
    merger = StreamMerger(dns_iter, conn_iter)
    prefix = [next(merger) for _ in range(100)]
    resumed = StreamMerger.restore(dns_iter, conn_iter, merger.snapshot())
    assert prefix + list(resumed) == reference

    # Bounded reorder buffering: a pairwise-shuffled tail re-sorts
    # inside the window; a record later than the window raises.
    records = trace.conns[:40]
    shuffled = [
        record
        for pair in zip(records[1::2], records[0::2])
        for record in pair
    ]
    window_s = max(b.ts - a.ts for a, b in zip(records, records[1:])) + 1.0
    ordered = list(reorder_records(shuffled, window_s))
    assert [r.ts for r in ordered] == sorted(r.ts for r in shuffled)
    later = next(record for record in records if record.ts > records[0].ts)
    far_apart = [later, records[-1], records[0]]
    for bad_reorder in (
        lambda: list(reorder_records(far_apart, 0.001)),
        lambda: list(reorder_records(records, -1.0)),
    ):
        with pytest.raises(AnalysisError):
            bad_reorder()

    # Unhappy paths: validation, mode mismatches, degenerate streams.
    for bad in (
        lambda: StreamingConfig(window_s=-5.0),
        lambda: StreamingConfig(
            options=StudyOptions(classifier=ClassifierConfig(blocking_threshold=-1.0))
        ),
        lambda: StreamingState.merge([]),
        lambda: StreamingState.merge(
            [StreamingState(exact=True), StreamingState(exact=False)]
        ),
        lambda: finalize_summary(state, exact),
        lambda: finalize_result(merged, sketch),
        lambda: finalize_result(analyze_stream([], [], exact), exact),
        lambda: list(stream_trace(_descending(trace.dns), [])),
        lambda: list(stream_trace([], _descending(trace.conns))),
    ):
        with pytest.raises(AnalysisError):
            bad()
    # Empty streams are a silent no-op for the merge generator.
    assert list(stream_trace([], [])) == []


@pytest.mark.slow
def test_streaming_module_line_coverage_floor(monkeypatch):
    path = streaming_module.__file__
    executable = _function_lines(path)
    assert executable, "no function lines found in streaming module"

    hit: set[int] = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == path:
            if event == "line":
                hit.add(frame.f_lineno)
            return tracer
        # Keep tracing down the stack: engine frames may be entered
        # from generator resumption inside other modules.
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        _exercise_engine(monkeypatch)
    finally:
        sys.settrace(old)

    covered = hit & executable
    coverage = len(covered) / len(executable)
    missed = sorted(executable - hit)
    assert coverage >= COVERAGE_FLOOR, (
        f"repro.core.streaming line coverage {coverage:.1%} is below the "
        f"{COVERAGE_FLOOR:.0%} floor; missed lines: {missed}"
    )
