"""The process supervisor behind the fork fan-out.

:func:`repro.core.parallel.run_scenarios` — the one fan-out, used by
sweeps, sharded generation and sharded streaming analysis — runs its
workers here. A bare retry-on-crash pool misses the two uglier
production failure modes: a worker that *hangs* (stuck syscall,
livelock) stalls the fan-out forever, and a poison task that kills
every worker it lands on is retried without bound. The supervisor
handles both:

* **One process per attempt.** Each task attempt runs in a fresh
  fork-started process; arguments travel through copy-on-write memory
  (closures work), results come back over a per-attempt pipe.
* **Heartbeats.** A daemon thread in each worker stamps a shared
  monotonic heartbeat every :data:`HEARTBEAT_INTERVAL_S`; the parent
  kills a worker whose heartbeat is older than
  :data:`HEARTBEAT_TIMEOUT_S` (hang detection even when the main
  thread is stuck in C).
* **Bounded restarts with seeded backoff.** A failed attempt is retried
  in a new process at most :data:`MAX_RESTARTS` times, after a backoff
  whose jitter comes from :func:`~repro.simulation.random.derive_seed`
  — deterministic per (task, attempt), like every other random draw in
  this repo.
* **Quarantine, not hangs.** A task that exhausts its budget on
  crash-type failures gets one final *serial* attempt in the parent
  (the exact ``workers=1`` code path, so results stay byte-identical).
  A task that exhausts its budget on *hang*-type failures is never
  retried in the parent — that would hang the parent too — and is
  quarantined by raising :class:`~repro.errors.SupervisionError`
  naming the task. A worker that died with a genuine
  :class:`~repro.errors.ReproError` (bad inputs fail identically
  everywhere) skips restarts entirely and re-raises the real error
  from the parent attempt.

The timings are module constants, not arguments: no caller tunes them,
and tests monkeypatch them (a forked worker inherits the patched
values).

This module deliberately lives *outside* ``repro.core``: supervision is
wall-clock business (timeouts, backoff sleeps), and the repo invariant
checked by repro-lint keeps wall-clock reads out of the deterministic
simulation/analysis packages.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

import pickle

from repro.errors import AnalysisError, ReproError, SupervisionError
from repro.simulation.random import derive_seed

MAX_RESTARTS = 1
"""Worker attempts after a task's first before it is quarantined."""

HEARTBEAT_INTERVAL_S = 0.5
"""How often a worker's heartbeat thread stamps the shared clock."""

HEARTBEAT_TIMEOUT_S = 30.0
"""A worker whose heartbeat is older than this is killed as hung."""

BACKOFF_BASE_S = 0.05
"""Backoff before a task's first restart; doubles per attempt."""

BACKOFF_CAP_S = 1.0
"""Longest backoff before any restart."""

POLL_INTERVAL_S = 0.02
"""How long the parent sleeps when no worker made progress."""

#: Failures a worker reports over its pipe (everything a task or the
#: result pickling plausibly raises). Anything more exotic simply kills
#: the process, and the supervisor's exitcode backstop treats the death
#: as a crash — same outcome, one less message.
_REPORTABLE_FAILURES = (
    ReproError,
    RuntimeError,
    OSError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ArithmeticError,
    MemoryError,
    pickle.PickleError,
)


def backoff_delay_s(index: int, attempt: int) -> float:
    """Exponential backoff with deterministic per-(task, attempt) jitter."""
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    rng = random.Random(derive_seed(0, "supervisor-backoff", index, attempt))
    return base * (0.5 + rng.random() / 2)


def _send(conn: Any, message: tuple) -> None:
    """Best-effort send to the parent; a dead parent is not our problem."""
    try:
        conn.send(message)
    except _REPORTABLE_FAILURES as exc:
        try:
            conn.send(("error", False, f"worker result could not be sent: {exc}"))
        except (OSError, ValueError, pickle.PickleError):
            pass


def _child_main(run: Callable[[Any], Any], task: Any, conn: Any, heartbeat: Any) -> None:
    """Worker process body: heartbeat thread + one task attempt.

    Failures in :data:`_REPORTABLE_FAILURES` are reported over the pipe
    (so the supervisor can distinguish genuine :class:`ReproError`
    failures from crashes); anything more exotic propagates, kills the
    process, and is handled by the supervisor's exitcode backstop.
    """
    gc.disable()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_INTERVAL_S)

    threading.Thread(target=_beat, daemon=True, name="supervise-heartbeat").start()
    try:
        result = run(task)
    except _REPORTABLE_FAILURES as exc:
        stop.set()
        _send(conn, ("error", isinstance(exc, ReproError), f"{type(exc).__name__}: {exc}"))
        return
    stop.set()
    _send(conn, ("ok", result))


@dataclass(slots=True)
class _Attempt:
    """One live worker process and its monitoring handles."""

    index: int
    attempt: int
    process: Any
    conn: Any
    heartbeat: Any
    started_s: float


class _Quarantine(Exception):
    """Internal: carries the quarantine message out of the failure handler."""


def supervise(tasks: Sequence[Any], run: Callable[[Any], Any], workers: int) -> list[Any]:
    """Run *run* over *tasks* in supervised fork-started processes.

    Returns the results in task order. Requires a fork-capable
    platform; :func:`~repro.core.parallel.run_scenarios` runs its
    serial loop instead where fork is missing. The parent's serial
    retry calls *run* too.

    Raises :class:`SupervisionError` when a task is quarantined (see the
    module docstring for the failure taxonomy); a worker that failed
    with a :class:`ReproError` has the genuine error re-raised by the
    parent attempt instead.
    """
    task_list = list(tasks)
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    count = len(task_list)
    if not count:
        return []
    context = multiprocessing.get_context("fork")
    results: list[Any] = [None] * count
    done = [False] * count
    attempts = [0] * count
    ready: list[int] = list(range(count))
    waiting: list[tuple[float, int]] = []  # (ready-at monotonic time, index)
    running: list[_Attempt] = []

    def _launch(index: int) -> None:
        attempts[index] += 1
        parent_conn, child_conn = context.Pipe(duplex=False)
        heartbeat = context.Value("d", 0.0, lock=False)
        process = context.Process(
            target=_child_main,
            args=(run, task_list[index], child_conn, heartbeat),
            daemon=True,
        )
        process.start()
        child_conn.close()
        running.append(
            _Attempt(index, attempts[index], process, parent_conn, heartbeat, time.monotonic())
        )

    def _reap(attempt: _Attempt) -> None:
        running.remove(attempt)
        attempt.conn.close()
        attempt.process.join()

    def _kill(attempt: _Attempt) -> None:
        running.remove(attempt)
        attempt.process.kill()
        attempt.process.join()
        attempt.conn.close()

    def _parent_retry(index: int) -> None:
        # The final serial attempt: the exact code path a workers=1 run
        # takes. A ReproError here is the task's genuine failure and
        # propagates as itself; anything else means the task also poisons
        # the parent and is quarantined.
        try:
            results[index] = run(task_list[index])
        except ReproError:
            raise
        except _REPORTABLE_FAILURES as exc:
            raise SupervisionError(
                f"task {index} quarantined after {attempts[index]} worker "
                f"attempt(s) and a failed serial retry: {type(exc).__name__}: {exc}"
            ) from exc
        done[index] = True

    def _handle_failure(attempt: _Attempt, reason: str, kind: str) -> None:
        # kind: "repro" (genuine library error), "crash" (death /
        # unexpected exception), "hang" (stale heartbeat).
        if kind == "repro":
            _parent_retry(attempt.index)
            return
        if attempt.attempt <= MAX_RESTARTS:
            delay = backoff_delay_s(attempt.index, attempt.attempt)
            heappush(waiting, (time.monotonic() + delay, attempt.index))
            return
        if kind == "hang":
            raise _Quarantine(
                f"task {attempt.index} quarantined after "
                f"{attempt.attempt} attempt(s); last failure: {reason} "
                "(hung tasks are not retried serially)"
            )
        _parent_retry(attempt.index)

    try:
        while ready or waiting or running:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                ready.append(heappop(waiting)[1])
            while ready and len(running) < workers:
                _launch(ready.pop(0))
            if not running:
                if waiting:
                    time.sleep(min(POLL_INTERVAL_S, max(0.0, waiting[0][0] - now)))
                continue
            progressed = False
            for attempt in list(running):
                alive = attempt.process.is_alive()
                if attempt.conn.poll(0):
                    try:
                        message = attempt.conn.recv()
                    except (EOFError, OSError):
                        message = None
                    _reap(attempt)
                    progressed = True
                    if message is not None and message[0] == "ok":
                        results[attempt.index] = message[1]
                        done[attempt.index] = True
                    elif message is not None and message[0] == "error":
                        _, is_repro, text = message
                        _handle_failure(attempt, text, "repro" if is_repro else "crash")
                    else:
                        _handle_failure(attempt, "worker pipe closed mid-message", "crash")
                    continue
                if not alive:
                    attempt.process.join()
                    # The exit may have raced our poll: check once more
                    # for a fully buffered final message.
                    if attempt.conn.poll(0):
                        continue
                    code = attempt.process.exitcode
                    _reap(attempt)
                    _handle_failure(
                        attempt, f"worker exited with code {code} before reporting", "crash"
                    )
                    progressed = True
                    continue
                beat = attempt.heartbeat.value
                stale_since = beat if beat else attempt.started_s
                if time.monotonic() - stale_since > HEARTBEAT_TIMEOUT_S:
                    _kill(attempt)
                    _handle_failure(
                        attempt, f"heartbeat stale for over {HEARTBEAT_TIMEOUT_S}s", "hang"
                    )
                    progressed = True
            if not progressed:
                time.sleep(POLL_INTERVAL_S)
    except _Quarantine as exc:
        raise SupervisionError(str(exc)) from None
    finally:
        for attempt in list(running):
            _kill(attempt)
    assert all(done)
    return results
