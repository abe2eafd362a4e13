"""perfbench's trace points exist, and the CLI's analysis runs inside them.

The benchmark's tracer (``perfbench/tracer.py``) wraps named public
functions of the program to split a job's time over its layers, and
refuses to install when one of them is gone. Installing it here makes a
renamed or moved trace point fail the tier-1 suite, not only the traced
benchmark run. The tracer runs in a fresh interpreter with ``src`` and
``perfbench`` on the path; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Installs the tracer, runs ``repro.cli.main`` on the arguments (if
#: any) with stdout swallowed, and prints the call count of every span.
_TRACED = """
import contextlib, io, json, sys
import tracer
spans = tracer.install(tracer.Tracer()).spans
if len(sys.argv) > 1:
    import repro.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(sys.argv[1:]) == 0
print(json.dumps({name: span.calls for name, span in spans.items()}))
"""

#: Runs ``repro.cli.main`` on the arguments under the tracer and prints
#: the call count of every span plus the benchmark's per-layer metrics.
_TRACED_METRICS = """
import contextlib, io, json, sys
import tracer
traced = tracer.install(tracer.Tracer())
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(sys.argv[1:]) == 0
calls = {name: span.calls for name, span in traced.spans.items()}
print(json.dumps({"calls": calls, "metrics": tracer.layer_metrics(traced)}))
"""


def _traced(*argv: str) -> dict[str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"))
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", _TRACED, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def logs(tmp_path_factory) -> tuple[str, str]:
    out = str(tmp_path_factory.mktemp("traced"))
    assert main(["generate", "--houses", "2", "--hours", "1", "--seed", "3", "--out", out]) == 0
    return os.path.join(out, "dns.log"), os.path.join(out, "conn.log")


def test_every_trace_point_installs():
    calls = _traced()
    assert "stats.aggregate" in calls and "streaming.finalize" in calls
    assert not any(calls.values())


def test_batch_analysis_runs_inside_its_spans(logs):
    dns_path, conn_path = logs
    calls = _traced("analyze", "--dns", dns_path, "--conn", conn_path)
    # class_breakdown, analyze_gaps, lookup_delay_analysis,
    # significance_quadrant, hit_rate_by_platform; the failure block
    # reads the observer the classifier filled.
    assert calls["stats.aggregate"] == 5
    assert calls["classify.thresholds"] == 1
    for span in ("monitor.parse_tsv", "pairing.match", "classify.classify", "report.render"):
        assert calls[span] > 0, span


def test_sketch_streaming_runs_inside_its_spans(logs):
    dns_path, conn_path = logs
    calls = _traced("analyze", "--streaming", "--dns", dns_path, "--conn", conn_path)
    assert calls["streaming.finalize"] == 1
    for span in ("streaming.merge", "streaming.operators", "report.render"):
        assert calls[span] > 0, span


@pytest.mark.parametrize("fanout", [(), ("--shards", "2")], ids=["serial", "sharded"])
def test_generation_runs_inside_its_spans(fanout):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"))
    )
    argv = ("report", "--houses", "3", "--hours", "1", "--seed", "3", *fanout)
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_METRICS, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout)
    # One simulated house per house, one merge, and the lookup tally
    # that TrafficGenerator.run's observer reads.
    assert traced["metrics"]["workload.houses"] == 3
    assert traced["calls"]["workload.merge"] == 1
    assert traced["metrics"]["dns.stub_lookups"] > 0
