"""Tests of the benchmark itself, on a tiny scenario.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs end to end with and without tracing and must emit
every metric ``BENCHMARK.json`` declares, with its unit. A corrupted
reference must show up as failed jobs, and a directory without the
program must make the benchmark exit non-zero without a result. The set-up
child's references must match the repo's pinned digests at the pinned
scenario.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--hours", "0.5", "--seconds", "0"]
COVERED_SHARE = 0.95
"""Share of a traced job's time its spans, set-up and teardown must cover."""


def bench(monkeypatch, capsys, workload: str, trace: int, *extra: str) -> dict:
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--trace", str(trace), *TINY, *extra]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_workloads_are_the_benchmarks():
    assert [item["name"] for item in BENCHMARK["workloads"]] == list(spec.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, workload, trace):
    result = bench(monkeypatch, capsys, workload, trace)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= run.MIN_JOBS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        item["name"]: {"value": result["metrics"][item["name"]]["value"], "unit": item["unit"]}
        for item in declared
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        assert values["failed_share"] == 0
        assert 0.5 < values["trace.attributed_share"] < 2
    else:
        assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_spans_cover_the_traced_job(monkeypatch, capsys, workload):
    # Six hours, so that the program's work, not its set-up, fills the job.
    result = bench(monkeypatch, capsys, workload, 1, "--hours", "6")
    assert result["correct"] is True
    assert result["metrics"]["trace.covered_share"]["value"] >= COVERED_SHARE


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("report-default", lambda reference: reference["table2"].update(SC=-1)),
        ("stream-rblg", lambda reference: reference.update(peak_live=-1)),
        ("generate-pressure", lambda reference: reference.update(log_digest="0" * 64)),
    ],
)
def test_corrupted_reference_fails_every_job(monkeypatch, capsys, workload, corrupt):
    load_reference = run.Bench.load_reference

    def corrupted(self):
        reference = load_reference(self)
        corrupt(reference)
        return reference

    monkeypatch.setattr(run.Bench, "load_reference", corrupted)
    result = bench(monkeypatch, capsys, workload, 1)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_share"]["value"] == 1.0


def test_references_match_the_repo_pins(tmp_path):
    seed, _, hours = spec.PINNED_SCENARIO
    done = subprocess.run(
        [sys.executable, "perfbench/inputs.py", "setup", "analyze-tsv", repr(hours), str(seed),
         str(tmp_path)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "pinned trace digest matches" in done.stderr
    assert "pinned report sha256 matches" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
