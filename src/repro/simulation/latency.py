"""Network latency models.

A :class:`LatencyModel` produces round-trip-time samples with a realistic
shape: a firm base RTT (propagation), a lognormal jitter component
(queueing), and an occasional loss/retransmission penalty that puts mass
in the far tail. The paper's §5.3 heuristic (classifying lookups as
shared-cache hits when their duration sits near the per-resolver minimum)
depends on exactly this structure: a sharp mode at the base RTT plus a
tail from authoritative chasing and retransmissions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simulation.random import lognormal


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Samples round-trip times in seconds.

    Parameters
    ----------
    base_rtt_s:
        The floor of the distribution (propagation + minimal processing).
    jitter_median:
        Median of the additive lognormal jitter component.
    jitter_sigma:
        Shape of the jitter lognormal (larger = heavier tail).
    loss_probability:
        Chance a query is retransmitted; each retransmission adds
        ``retransmit_penalty`` seconds.
    retransmit_penalty:
        Extra delay per retransmission event (UDP timeout).
    max_retransmits:
        Hard cap on retransmission events per sample. A real stub gives
        up after a handful of retries, so the tail is bounded at
        ``max_retransmits * retransmit_penalty`` above the jittered RTT.
    """

    base_rtt_s: float
    jitter_median: float = 0.0005
    jitter_sigma: float = 0.8
    loss_probability: float = 0.0
    retransmit_penalty: float = 0.8
    max_retransmits: int = 6
    #: ``log(jitter_median)`` — the lognormal's mu, hoisted out of
    #: :meth:`sample`, which runs once per simulated query.
    _ln_jitter_median: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.base_rtt_s < 0:
            raise SimulationError(f"base_rtt_s must be non-negative, got {self.base_rtt_s}")
        if self.jitter_median < 0:
            raise SimulationError("jitter_median must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise SimulationError("loss_probability must be in [0, 1)")
        if self.max_retransmits < 0:
            raise SimulationError(f"max_retransmits cannot be negative, got {self.max_retransmits}")
        if self.jitter_median > 0:
            object.__setattr__(self, "_ln_jitter_median", math.log(self.jitter_median))

    def sample(self, rng: random.Random) -> float:
        """One RTT sample in seconds.

        The draw sequence matches the historical unbounded loop exactly
        unless the cap is hit (probability ``loss_probability ** max_retransmits``,
        negligible at calibrated loss rates), so committed calibrations
        keep their numbers.
        """
        rtt = self.base_rtt_s
        if self.jitter_median > 0:
            rtt += lognormal(rng, self._ln_jitter_median, self.jitter_sigma)
        retransmits = 0
        while (
            self.loss_probability
            and retransmits < self.max_retransmits
            and rng.random() < self.loss_probability
        ):
            rtt += self.retransmit_penalty
            retransmits += 1
        return rtt

    def scaled(self, factor: float) -> "LatencyModel":
        """A copy with base RTT and jitter scaled by *factor*."""
        if factor <= 0:
            raise SimulationError(f"scale factor must be positive, got {factor}")
        return LatencyModel(
            base_rtt_s=self.base_rtt_s * factor,
            jitter_median=self.jitter_median * factor,
            jitter_sigma=self.jitter_sigma,
            loss_probability=self.loss_probability,
            retransmit_penalty=self.retransmit_penalty,
            max_retransmits=self.max_retransmits,
        )


def lan_latency() -> LatencyModel:
    """In-home / on-device latency: effectively instantaneous."""
    return LatencyModel(base_rtt_s=0.0002, jitter_median=0.0001, jitter_sigma=0.5)


def metro_latency() -> LatencyModel:
    """House to a resolver inside the ISP (the paper observed ~2 ms)."""
    return LatencyModel(base_rtt_s=0.002, jitter_median=0.0004, jitter_sigma=0.7, loss_probability=0.001)


def regional_latency() -> LatencyModel:
    """House to a nearby anycast platform (Cloudflare-like, ~10 ms)."""
    return LatencyModel(base_rtt_s=0.009, jitter_median=0.001, jitter_sigma=0.7, loss_probability=0.002)


def continental_latency() -> LatencyModel:
    """House to a farther platform (Google/OpenDNS-like, ~17 ms)."""
    return LatencyModel(base_rtt_s=0.016, jitter_median=0.0015, jitter_sigma=0.7, loss_probability=0.003)


def authoritative_latency() -> LatencyModel:
    """Resolver to an arbitrary authoritative server (wide spread)."""
    return LatencyModel(base_rtt_s=0.006, jitter_median=0.008, jitter_sigma=1.25, loss_probability=0.02)
