"""Deterministic fault injection for the simulated resolution path.

The paper's Zeek data is messy by nature: lookups time out, resolvers
return SERVFAIL, and the heavy tail of lookup durations comes largely
from retransmissions and authoritative chasing (§3–§4). This module
makes those failure modes first-class — and *reproducible*:

* :class:`FaultConfig` — scenario-level fault knobs (per-query
  SERVFAIL/NXDOMAIN/timeout/truncation probabilities, resolver outage
  windows, and the client's retry policy).
* :class:`FaultPlan` — a seeded, stateless schedule of faults. Every
  decision is derived from ``(seed, platform, qname, time)`` via
  :func:`repro.simulation.random.derive_seed`, so it does not depend on
  the order queries are issued in — the same discipline that keeps the
  parallel analysis pipeline shard-invariant.
* :class:`RetryPolicy` — the client side: a *bounded* UDP retransmit
  schedule with exponential backoff and failover to the device's other
  configured resolvers. Lookup-duration tails come from this explicit
  schedule, and transactions can genuinely fail once it is exhausted.
* :class:`ConnectionBudget` — a resolver's bounded concurrent-connection
  (file-descriptor) budget: arrivals beyond capacity queue until a slot
  frees and are shed once the projected wait exceeds the configured
  bound, modelling how production resolvers degrade when they run out
  of file descriptors under a query storm.

With the default (all-zero) :class:`FaultConfig` the simulation is
byte-identical to a fault-free run: no decision consumes a draw from
any model stream.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import heapq
import random
from dataclasses import dataclass, field
from math import inf

from repro.errors import SimulationError
from repro.simulation.random import derive_seed, poisson_arrivals


class FaultKind(enum.Enum):
    """What, if anything, goes wrong with one query."""

    NONE = "none"
    TIMEOUT = "timeout"
    SERVFAIL = "servfail"
    NXDOMAIN = "nxdomain"
    TRUNCATION = "truncation"


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """A stub resolver's bounded retransmit/backoff/failover schedule.

    Attempt ``i`` waits ``initial_timeout_s * backoff_factor**i`` before
    declaring the query lost; after ``1 + max_retries`` attempts the
    client fails over to the next configured upstream (at most
    ``max_failovers`` of them), repeating the same schedule there. The
    total give-up budget is therefore bounded and explicit — unlike an
    unbounded retransmit loop.
    """

    initial_timeout_s: float = 1.0
    max_retries: int = 2
    backoff_factor: float = 2.0
    max_failovers: int = 1

    def __post_init__(self) -> None:
        if self.initial_timeout_s <= 0:
            raise SimulationError(
                f"initial_timeout_s must be positive, got {self.initial_timeout_s}"
            )
        if self.max_retries < 0:
            raise SimulationError(f"max_retries cannot be negative, got {self.max_retries}")
        if self.backoff_factor < 1.0:
            raise SimulationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_failovers < 0:
            raise SimulationError(f"max_failovers cannot be negative, got {self.max_failovers}")

    def schedule(self) -> tuple[float, ...]:
        """Per-attempt timeouts in seconds for one upstream."""
        return tuple(
            self.initial_timeout_s * self.backoff_factor**attempt
            for attempt in range(1 + self.max_retries)
        )

    @property
    def budget_s(self) -> float:
        """Worst-case wait against a single unresponsive upstream."""
        return sum(self.schedule())


class ConnectionBudget:
    """A bounded concurrent-connection (file-descriptor) budget.

    Up to ``capacity`` resolutions may be in flight at once; an arrival
    beyond that **queues** until a slot frees, and is **shed** once the
    projected wait exceeds ``max_queue_wait_s`` — the queue-then-shed
    discipline production resolvers fall into when they run out of file
    descriptors. Shed connections surface as REFUSED /
    ``RESOURCE_EXHAUSTED`` outcomes so the client's retry/failover
    machinery sees a real, immediate failure rather than a timeout.

    Deterministic by construction: occupancy is a heap of in-flight
    end-times, so the projected wait for an arrival at ``now`` is a pure
    function of the resolutions already recorded — no clock, no
    randomness, and therefore the same verdicts in serial and forked
    runs. A queued arrival reserves its slot from the moment it is
    recorded (not from when its wait elapses), which keeps admission a
    single-pass online decision.
    """

    def __init__(self, capacity: int, max_queue_wait_s: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError(
                f"connection capacity must be positive, got {capacity}"
            )
        if max_queue_wait_s < 0:
            raise SimulationError(
                f"max_queue_wait_s cannot be negative, got {max_queue_wait_s}"
            )
        self.capacity = capacity
        self.max_queue_wait_s = max_queue_wait_s
        self._ends_s: list[float] = []
        self.admitted = 0
        self.queued = 0
        self.shed = 0

    @property
    def active(self) -> int:
        """Slots occupied as of the last :meth:`admit` call."""
        return len(self._ends_s)

    @property
    def arrivals(self) -> int:
        """Total admission decisions taken."""
        return self.admitted + self.queued + self.shed

    def _release_until(self, now: float) -> None:
        """Free the slots of connections already finished by *now*."""
        ends_s = self._ends_s
        while ends_s and ends_s[0] <= now:
            heapq.heappop(ends_s)

    def admit(self, now: float) -> float | None:
        """Admission verdict for an arrival at *now*.

        Returns ``0.0`` when a slot is free, the queueing delay in
        seconds when the arrival must wait for one (bounded by
        ``max_queue_wait_s``), or ``None`` when even the earliest slot
        frees too late and the connection is shed. ``admit`` only
        decides — the caller records the resolution it actually
        performed via :meth:`occupy`.
        """
        self._release_until(now)
        ends_s = self._ends_s
        if len(ends_s) < self.capacity:
            self.admitted += 1
            return 0.0
        # All slots busy (including reservations): this arrival gets the
        # k-th slot to free, where k-1 reservations are already queued
        # ahead of it.
        k = len(ends_s) - self.capacity + 1
        wait_s = heapq.nsmallest(k, ends_s)[-1] - now
        if wait_s > self.max_queue_wait_s:
            self.shed += 1
            return None
        self.queued += 1
        return wait_s

    def occupy(self, start_s: float, end_s: float) -> None:
        """Record one admitted connection holding a slot until *end_s*."""
        if end_s < start_s:
            raise SimulationError(
                f"connection cannot end before it starts ({end_s} < {start_s})"
            )
        heapq.heappush(self._ends_s, end_s)


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Scenario-level fault model (all probabilities default to zero).

    The four per-query probabilities are mutually exclusive bands of a
    single uniform draw, so they must sum to at most 1. Outages are
    platform-wide unresponsiveness windows arriving as a Poisson process
    of ``outage_rate_per_hour`` with mean length ``outage_duration_s``.
    """

    timeout_probability: float = 0.0
    servfail_probability: float = 0.0
    nxdomain_probability: float = 0.0
    truncation_probability: float = 0.0
    tcp_fallback_penalty_s: float = 0.05
    outage_rate_per_hour: float = 0.0
    outage_duration_s: float = 120.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for label, value in (
            ("timeout_probability", self.timeout_probability),
            ("servfail_probability", self.servfail_probability),
            ("nxdomain_probability", self.nxdomain_probability),
            ("truncation_probability", self.truncation_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{label} must be in [0, 1], got {value}")
        total = (
            self.timeout_probability
            + self.servfail_probability
            + self.nxdomain_probability
            + self.truncation_probability
        )
        if total > 1.0:
            raise SimulationError(f"fault probabilities sum to {total}, must be <= 1")
        # Written so that NaN fails too, as infinity does.
        if not 0 <= self.tcp_fallback_penalty_s < inf:
            raise SimulationError(
                "tcp_fallback_penalty_s must be finite and not negative, "
                f"got {self.tcp_fallback_penalty_s}"
            )
        if not 0 <= self.outage_rate_per_hour < inf:
            raise SimulationError(
                "outage_rate_per_hour must be finite and not negative, "
                f"got {self.outage_rate_per_hour}"
            )
        if not 0 < self.outage_duration_s < inf:
            raise SimulationError(
                f"outage_duration_s must be positive and finite, got {self.outage_duration_s}"
            )

    @property
    def enabled(self) -> bool:
        """Can this configuration ever produce a fault?"""
        return (
            self.timeout_probability > 0
            or self.servfail_probability > 0
            or self.nxdomain_probability > 0
            or self.truncation_probability > 0
            or self.outage_rate_per_hour > 0
        )


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """The plan's verdict for one query to one platform."""

    kind: FaultKind
    during_outage: bool = False

    @property
    def is_timeout(self) -> bool:
        """Does the query go unanswered?"""
        return self.kind is FaultKind.TIMEOUT


_NO_FAULT = FaultDecision(kind=FaultKind.NONE)
_OUTAGE_TIMEOUT = FaultDecision(kind=FaultKind.TIMEOUT, during_outage=True)
_TIMEOUT = FaultDecision(kind=FaultKind.TIMEOUT)
_SERVFAIL = FaultDecision(kind=FaultKind.SERVFAIL)
_NXDOMAIN = FaultDecision(kind=FaultKind.NXDOMAIN)
_TRUNCATION = FaultDecision(kind=FaultKind.TRUNCATION)


class FaultPlan:
    """A seeded, order-invariant schedule of resolver faults.

    Outage windows are drawn once per platform at construction; per-query
    decisions are pure functions of ``(seed, platform, qname, now)`` —
    issuing the same query at the same simulated time always yields the
    same fault, no matter how many other queries ran in between. The
    plan never touches the simulation's model streams.

    A query's draw is the first ``random()`` of
    ``random.Random(derive_seed(seed, "query", platform, qname,
    f"{now:.6f}"))``. The plan computes that seed with one ``sha256``
    over the same bytes ``derive_seed`` hashes, a per-platform prefix
    followed by ``f"{qname}/{now:.6f}"``, and reseeds one generator of
    its own with it: ``seed(int)`` resets the whole state, so the draw
    is the same float without a generator built per query.
    """

    def __init__(
        self,
        config: FaultConfig,
        seed: int,
        platforms: tuple[str, ...] = (),
        horizon_s: float = 0.0,
    ) -> None:
        if horizon_s < 0:
            raise SimulationError(f"horizon_s cannot be negative, got {horizon_s}")
        self.config = config
        self._seed = seed
        # The per-query bands in draw order, each a (width, verdict).
        self._bands = (
            (config.timeout_probability, _TIMEOUT),
            (config.servfail_probability, _SERVFAIL),
            (config.nxdomain_probability, _NXDOMAIN),
            (config.truncation_probability, _TRUNCATION),
        )
        self._query_faults = sum(width for width, _ in self._bands) > 0
        # Reseeded before every draw; bytes, not hash objects, so the
        # plan stays picklable.
        self._rng = random.Random(0)
        self._query_prefixes: dict[str, bytes] = {}
        self._outages: dict[str, list[tuple[float, float]]] = {}
        self._outage_starts: dict[str, list[float]] = {}
        for platform in platforms:
            windows = self._draw_outages(platform, horizon_s)
            self._outages[platform] = windows
            self._outage_starts[platform] = [start for start, _ in windows]

    def _draw_outages(self, platform: str, horizon_s: float) -> list[tuple[float, float]]:
        if self.config.outage_rate_per_hour <= 0 or horizon_s <= 0:
            return []
        rng = random.Random(derive_seed(self._seed, "outage", platform))
        rate_per_second = self.config.outage_rate_per_hour / 3600.0
        windows: list[tuple[float, float]] = []
        for start in poisson_arrivals(rng, rate_per_second, 0.0, horizon_s):
            length = rng.expovariate(1.0 / self.config.outage_duration_s)
            end = min(start + length, horizon_s)
            # Poisson starts with exponential lengths overlap. A window
            # that starts before the previous one ends extends it, so the
            # windows stay disjoint and in_outage's bisect is exact.
            if windows and start < windows[-1][1]:
                windows[-1] = (windows[-1][0], max(end, windows[-1][1]))
            else:
                windows.append((start, end))
        return windows

    def outages_for(self, platform: str) -> tuple[tuple[float, float], ...]:
        """The disjoint (start, end) outage windows of *platform*, in order."""
        return tuple(self._outages.get(platform, ()))

    def in_outage(self, platform: str, now: float) -> bool:
        """Is *platform* inside one of its outage windows at *now*?"""
        starts = self._outage_starts.get(platform)
        if not starts:
            return False
        index = bisect.bisect_right(starts, now) - 1
        if index < 0:
            return False
        start, end = self._outages[platform][index]
        return start <= now < end

    def decide(self, platform: str, qname: str, now: float) -> FaultDecision:
        """The fault (if any) afflicting one query.

        One uniform draw from a query-keyed derived stream is split into
        cumulative probability bands, so enabling one fault class never
        perturbs the draws of another.
        """
        if self.in_outage(platform, now):
            return _OUTAGE_TIMEOUT
        if not self._query_faults:
            return _NO_FAULT
        prefix = self._query_prefixes.get(platform)
        if prefix is None:
            prefix = f"{self._seed}/query/{platform}/".encode("utf-8")
            self._query_prefixes[platform] = prefix
        digest = hashlib.sha256(prefix + f"{qname}/{now:.6f}".encode("utf-8")).digest()
        rng = self._rng
        rng.seed(int.from_bytes(digest[:8], "big"))
        draw = rng.random()
        for width, verdict in self._bands:
            if draw < width:
                return verdict
            draw -= width
        return _NO_FAULT
