"""The sharded streaming pipeline must reproduce the per-connection reference."""

import os
import random

import pytest

from repro.core.classify import ClassifierConfig
from repro.core.context import ContextStudy, StudyOptions
from repro.core.pairing import PairingPolicy
from repro.core.parallel import (
    effective_worker_count,
    run_pipeline,
    run_scenarios,
    run_streaming_pipeline,
    shard_by_household,
)
from repro.core.streaming import PipelineResult
from repro.cli import main
from repro.errors import AnalysisError, WorkloadError
from repro.monitor.capture import Trace, trace_digest
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig

_PARENT_PID = os.getpid()


def _square(value: int) -> int:
    return value * value


def _fail_in_worker(value: int) -> int:
    """Succeeds in the parent, raises in any forked worker process."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return value + 1


def _tiny_scenario_digest(config: ScenarioConfig) -> str:
    return trace_digest(generate_trace(config))


def _unclamp_cpus(monkeypatch):
    """Pretend the host has CPUs to spare so the fork paths run.

    The CPU clamp would otherwise degrade these tests to the serial path
    on constrained CI hosts, silently un-exercising the fork machinery
    they exist to cover.
    """
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 8)


def _forbid_supervise(monkeypatch):
    """Make any fork fan-out fail the test."""
    from repro.core import parallel as parallel_mod

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("the fan-out must run its serial loop")

    monkeypatch.setattr(parallel_mod, "supervise", forbidden)


@pytest.fixture(scope="module")
def trace() -> Trace:
    return generate_trace(ScenarioConfig(seed=11, houses=8, duration=2 * 3600.0))


@pytest.fixture(scope="module")
def reference(trace):
    return ContextStudy(trace).pipeline_result()


def test_sharding_partitions_households(trace):
    parts = shard_by_household(trace.dns, trace.conns, 3)
    assert len(parts) == 3
    houses_per_shard = [
        {r.orig_h for r in dns} | {c.orig_h for c in conns}
        for dns, conns in parts
    ]
    for i, left in enumerate(houses_per_shard):
        for right in houses_per_shard[i + 1 :]:
            assert not (left & right)
    assert sum(len(conns) for _, conns in parts) == len(trace.conns)
    assert sum(len(dns) for dns, _ in parts) == len(trace.dns)


def test_sharding_rejects_nonpositive_count(trace):
    with pytest.raises(AnalysisError):
        shard_by_household(trace.dns, trace.conns, 0)


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize("keyword", ["workers", "shards"])
def test_generation_rejects_nonpositive_count(keyword, count):
    config = ScenarioConfig(seed=11, houses=2, duration=60.0)
    with pytest.raises(WorkloadError, match=f"{keyword[:-1]} count must be positive"):
        generate_trace(config, **{keyword: count})


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("generate", "--workers"),
        ("generate", "--shards"),
        ("report", "--workers"),
        ("report", "--shards"),
        ("analyze", "--workers"),
    ],
)
def test_cli_rejects_nonpositive_count(tmp_path, capsys, command, flag, count):
    argv = {
        "generate": ["generate", "--houses", "1", "--hours", "0.1", "--out", str(tmp_path)],
        "report": ["report", "--houses", "1", "--hours", "0.1"],
        "analyze": [
            "analyze", "--streaming",
            "--dns", str(tmp_path / "dns.log"), "--conn", str(tmp_path / "conn.log"),
        ],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, f"{flag}={count}"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 1, got {count}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_equals_serial(trace, reference, workers, monkeypatch):
    _unclamp_cpus(monkeypatch)
    assert run_pipeline(trace, workers=1) == reference
    parallel = run_pipeline(trace, workers=workers)
    assert parallel == reference
    assert parallel.thresholds == reference.thresholds


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_equals_serial_random_policy(trace, workers, monkeypatch):
    _unclamp_cpus(monkeypatch)
    options = StudyOptions(
        pairing_policy=PairingPolicy.RANDOM_NON_EXPIRED, pairing_seed=7
    )
    reference = ContextStudy(trace, options).pipeline_result()
    assert run_pipeline(trace, options, workers=1) == reference
    assert run_pipeline(trace, options, workers=workers) == reference


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_equals_serial_blocking_threshold(trace, reference, workers, monkeypatch):
    _unclamp_cpus(monkeypatch)
    options = StudyOptions(classifier=ClassifierConfig(blocking_threshold=0.02))
    expected = ContextStudy(trace, options).pipeline_result()
    # The option must move Table 2 here, or ignoring it would go unseen.
    assert expected.breakdown != reference.breakdown
    result = run_pipeline(trace, options, workers=workers)
    assert result == expected
    assert result.gap_analysis.blocking_threshold == 0.02


def test_windowed_results_equal_for_every_worker_count(trace, monkeypatch):
    # Each household shard drains on its own clock; the window must
    # still admit the same expired fallbacks as the single stream.
    _unclamp_cpus(monkeypatch)
    serial, *sharded = [
        run_streaming_pipeline(trace.dns, trace.conns, workers=workers, window_s=600.0)
        for workers in (1, 2, 3)
    ]
    assert sharded == [serial, serial]
    assert serial != run_streaming_pipeline(trace.dns, trace.conns)


def test_pipeline_matches_context_study(trace):
    result = run_pipeline(trace)
    study = ContextStudy(trace)
    assert result.breakdown == study.breakdown
    assert result.census == study.pairing_census()
    assert result.gap_analysis == study.gap_analysis()
    assert result.lookup_delays == study.lookup_delays()
    assert result.contribution == study.contribution()
    assert result.quadrant == study.significance_quadrant()
    assert result.thresholds == study.classifier.thresholds
    assert result.failure_stats == study.failure_stats()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_pipeline_sorts_an_unsorted_trace(trace, reference, workers, monkeypatch):
    _unclamp_cpus(monkeypatch)
    rng = random.Random(5)
    dns = list(trace.dns)
    conns = list(trace.conns)
    rng.shuffle(dns)
    rng.shuffle(conns)
    # The event-time merge itself refuses the shuffled logs ...
    with pytest.raises(AnalysisError, match="not time-ordered"):
        run_streaming_pipeline(dns, conns)
    # ... so run_pipeline must sort an in-memory trace before streaming it.
    assert run_pipeline(Trace(dns=dns, conns=conns), workers=workers) == reference


def test_run_pipeline_rejects_bad_workers(trace):
    with pytest.raises(AnalysisError):
        run_pipeline(trace, workers=0)


def test_run_pipeline_rejects_empty_trace():
    with pytest.raises(AnalysisError):
        run_pipeline(Trace(dns=[], conns=[]), workers=2)


# -- run_scenarios: multi-scenario fan-out ----------------------------------


def test_run_scenarios_preserves_config_order(monkeypatch):
    _unclamp_cpus(monkeypatch)
    values = list(range(8))
    assert run_scenarios(values, _square, workers=3) == [v * v for v in values]


def test_run_scenarios_serial_path():
    assert run_scenarios([3, 1, 2], _square, workers=1) == [9, 1, 4]


def test_run_scenarios_empty_configs():
    assert run_scenarios([], _square, workers=4) == []


def test_run_scenarios_rejects_bad_workers():
    with pytest.raises(AnalysisError, match="worker count"):
        run_scenarios([1], _square, workers=0)


def test_nested_fanout_runs_serially(monkeypatch):
    # Inside a fan-out (in its parent, or in a forked worker, which
    # inherits the flag) a multi-worker call runs its serial loop.
    from repro.core import parallel as parallel_mod

    _unclamp_cpus(monkeypatch)
    monkeypatch.setattr(parallel_mod, "_FANNING_OUT", True)
    _forbid_supervise(monkeypatch)
    assert run_scenarios([1, 2, 3], _square, workers=2) == [1, 4, 9]


def _sweep_task(seed: int) -> tuple[str, PipelineResult]:
    """A sweep task that itself generates and analyses with workers."""
    trace = generate_trace(ScenarioConfig(seed=seed, houses=3, duration=1800.0), workers=2)
    return trace_digest(trace), run_pipeline(trace, workers=2)


def test_sweep_task_with_workers_matches_serial(monkeypatch):
    _unclamp_cpus(monkeypatch)
    serial = run_scenarios([5, 6], _sweep_task, workers=1)
    assert run_scenarios([5, 6], _sweep_task, workers=2) == serial


def test_run_scenarios_recovers_crashed_workers(monkeypatch):
    # Every forked worker raises; the serial retry in the parent succeeds,
    # so results still arrive complete and in order.
    _unclamp_cpus(monkeypatch)
    assert run_scenarios([1, 2, 3], _fail_in_worker, workers=2) == [2, 3, 4]


def test_run_scenarios_generation_matches_serial(monkeypatch):
    _unclamp_cpus(monkeypatch)
    configs = [
        ScenarioConfig(seed=seed, houses=2, duration=1800.0) for seed in (5, 6, 7)
    ]
    serial_digests = [_tiny_scenario_digest(config) for config in configs]
    parallel_digests = run_scenarios(configs, _tiny_scenario_digest, workers=3)
    assert parallel_digests == serial_digests


def test_run_scenarios_clamps_workers_to_cpus(monkeypatch, capsys):
    # On a host with a single available CPU the fan-out degrades to the
    # serial path (results identical) and says so, once, on stderr.
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 1)
    _forbid_supervise(monkeypatch)
    assert run_scenarios([1, 2, 3], _square, workers=4) == [1, 4, 9]
    err = capsys.readouterr().err
    assert "reducing workers 4 -> 1" in err


def test_run_scenarios_without_fork_runs_serially(monkeypatch):
    # Fork is the only parallel start method: without it the fan-out
    # runs its serial loop, with the serial loop's results.
    from repro.core import parallel as parallel_mod

    _unclamp_cpus(monkeypatch)
    monkeypatch.setattr(
        parallel_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    _forbid_supervise(monkeypatch)
    configs = list(range(6))
    assert run_scenarios(configs, _square, workers=3) == [_square(c) for c in configs]


def test_effective_worker_count(monkeypatch):
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 4)
    assert effective_worker_count(8) == 4
    assert effective_worker_count(2) == 2
    assert effective_worker_count(8, jobs=3) == 3
    assert effective_worker_count(1, jobs=0) == 1
    with pytest.raises(AnalysisError, match="worker count"):
        effective_worker_count(0)
