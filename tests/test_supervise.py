"""Tests for the fork-process supervisor behind the parallel fan-outs.

Covers the full failure taxonomy: clean runs, crash-then-restart,
poison-task quarantine, genuine ``ReproError`` propagation, heartbeat
stall kills and deterministic seeded backoff.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import supervise as supervise_mod
from repro.errors import AnalysisError, SupervisionError, WorkloadError
from repro.supervise import backoff_delay_s, supervise

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervisor requires a fork-capable platform",
)


@pytest.fixture(autouse=True)
def fast_timings(monkeypatch):
    """Tight heartbeats and near-zero backoff; forked workers inherit them."""
    monkeypatch.setattr(supervise_mod, "HEARTBEAT_INTERVAL_S", 0.05)
    monkeypatch.setattr(supervise_mod, "HEARTBEAT_TIMEOUT_S", 5.0)
    monkeypatch.setattr(supervise_mod, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(supervise_mod, "BACKOFF_CAP_S", 0.02)
    monkeypatch.setattr(supervise_mod, "POLL_INTERVAL_S", 0.01)


_PARENT_PID = os.getpid()


def _square(value):
    """A well-behaved task."""
    return value * value


def _crash_always(value):
    """A poison task: dies in every worker, and in the parent too."""
    raise RuntimeError(f"poison {value}")


def _crash_in_workers_only(value):
    """Crashes in forked children; succeeds on the parent's serial retry."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("worker-only crash")
    return value + 100


def _workload_error(value):
    """A genuine library error: identical everywhere, never retried."""
    raise WorkloadError(f"bad input {value}")


def _crash_once_marker(task):
    """Crashes on the first attempt per task (flag file), then reports
    its result and the process that computed it."""
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w", encoding="ascii") as stream:
            stream.write("attempted")
        os._exit(17)
    return value * 10, os.getpid()


def _stop_self(value):
    """SIGSTOPs its own process: alive but making no progress at all.

    The heartbeat thread freezes with the rest of the process, so only
    the parent's staleness check can notice.
    """
    os.kill(os.getpid(), signal.SIGSTOP)
    return value


def test_results_in_task_order():
    assert supervise(list(range(7)), _square, workers=3) == [0, 1, 4, 9, 16, 25, 36]


def test_empty_task_list():
    assert supervise([], _square, workers=2) == []


def test_worker_count_must_be_positive():
    with pytest.raises(AnalysisError, match="positive"):
        supervise([1], _square, workers=0)


def test_crash_then_restart_succeeds(tmp_path):
    tasks = [(str(tmp_path / f"marker{i}"), i) for i in range(3)]
    results = supervise(tasks, _crash_once_marker, workers=2)
    assert [value for value, _ in results] == [0, 10, 20]
    # The restart ran in a new worker, not in the parent's serial retry.
    assert all(pid != _PARENT_PID for _, pid in results)


def test_worker_only_crash_falls_back_to_parent_retry():
    # MAX_RESTARTS=1: two worker attempts each, then the serial rescue,
    # whose results only the parent computes.
    assert supervise([1, 2], _crash_in_workers_only, workers=2) == [101, 102]


def test_poison_task_is_quarantined():
    with pytest.raises(SupervisionError, match="task 1 quarantined"):
        supervise([1, 99, 2], lambda v: _crash_always(v) if v == 99 else v, workers=1)


def test_repro_error_propagates_without_restart():
    with pytest.raises(WorkloadError, match="bad input 5"):
        supervise([5], _workload_error, workers=1)


def test_stalled_heartbeat_is_detected_and_killed(monkeypatch):
    monkeypatch.setattr(supervise_mod, "MAX_RESTARTS", 0)
    monkeypatch.setattr(supervise_mod, "HEARTBEAT_TIMEOUT_S", 0.5)
    start = time.monotonic()
    with pytest.raises(
        SupervisionError, match="heartbeat stale.*not retried serially"
    ):
        supervise([1], _stop_self, workers=1)
    # The quarantine comes from the staleness check, not from a retry
    # in the parent (which would stop the test process itself).
    assert time.monotonic() - start < 30.0


def test_backoff_is_deterministic_and_bounded():
    delays = [backoff_delay_s(index, attempt)
              for index in range(4) for attempt in range(1, 5)]
    again = [backoff_delay_s(index, attempt)
             for index in range(4) for attempt in range(1, 5)]
    assert delays == again
    for delay in delays:
        assert 0.0 < delay <= supervise_mod.BACKOFF_CAP_S
    # Different tasks and attempts jitter differently.
    assert backoff_delay_s(0, 1) != backoff_delay_s(1, 1)
    assert len(set(delays)) == len(delays)
