"""A deterministic discrete-event simulation engine.

The engine is a binary heap of ``(time, sequence, callback)`` tuples.
Events scheduled at the same timestamp fire in insertion order: a
monotonically increasing sequence number breaks ties, so the callback is
never compared, and whole-trace generation stays bit-for-bit
reproducible for a given seed. Each callback is handed its own
scheduled time. Nothing cancels an event, so there are no handles, no
dead entries and no compaction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError

EventCallback = Callable[[float], None]


class SimulationEngine:
    """Single-threaded discrete-event loop with simulated time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, EventCallback]] = []
        self._next_sequence = 0
        self._running = False

    def schedule_at(self, when: float, callback: EventCallback) -> None:
        """Schedule ``callback(when)`` at absolute simulated time *when*."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when:.6f}, current time is {self._now:.6f}"
            )
        heappush(self._queue, (when, self._next_sequence, callback))
        self._next_sequence += 1

    def run(self, until: float | None = None) -> int:
        """Fire events in ``(time, sequence)`` order; return how many fired.

        Stops when the queue empties or when the next event would pass
        *until*. Time then advances to *until*, and the later events
        wait for the next call.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from an event callback")
        self._running = True
        fired = 0
        queue = self._queue
        try:
            while queue and (until is None or queue[0][0] <= until):
                when, _, callback = heappop(queue)
                self._now = when
                callback(when)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return fired
