"""Scenario configuration: every knob of the synthetic workload.

A :class:`ScenarioConfig` fully determines a synthetic trace (together
with its seed): the same config always regenerates the same logs.
Presets provide the paper-shaped default (:func:`default_scenario`) and
a small fast variant for unit tests (:func:`smoke_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf

from repro.dns.cache import EVICTION_POLICIES
from repro.errors import WorkloadError
from repro.simulation.faults import FaultConfig
from repro.workload.apps import BrowsingConfig
from repro.workload.households import HouseholdMixConfig


@dataclass(frozen=True, slots=True)
class PressureConfig:
    """Resolver/cache pressure knobs (all off by default).

    With the defaults nothing changes: caches keep their historical
    capacities and LRU policy, no connection budgets exist, and no flash
    crowds fire — traces are byte-identical to pre-pressure builds.

    ``*_cache_capacity`` bounds the respective cache (``None`` keeps the
    existing default); ``*_cache_policy`` picks one of
    :data:`repro.dns.cache.EVICTION_POLICIES`; ``*_stale_ttl_s`` sets
    the RFC 8767 staleness budget for ``"serve-stale"`` caches (``0``
    selects the RFC default). ``*_fd_budget`` caps concurrent
    connections (``None`` = unbounded), with arrivals queueing up to
    ``*_max_queue_wait_s`` before being shed as REFUSED.

    The ``resolver_*`` capacities and budgets describe the *shared*
    platform. Since the per-house generation decomposition, every house
    simulates against its own view of each platform, so a platform-wide
    limit is split into per-house slices of ``ceil(value / houses)``
    entries/slots (see ``TrafficGenerator._sliced``). The aggregate
    limit is preserved up to ceiling rounding, and the slicing — unlike
    a shared mutable budget — is independent of the shard/worker split,
    which is what keeps pressure scenarios byte-identical across shard
    counts. ``stub_*`` knobs are per device and unaffected.

    Flash crowds model synchronized demand spikes (a game patch, a live
    event): Poisson windows of ``flash_crowd_duration_s`` during which
    every device runs ``flash_crowd_intensity`` extra browsing-session
    arrivals, thrashing caches and connection budgets at once.
    """

    stub_cache_capacity: int | None = None
    stub_cache_policy: str = "lru"
    stub_stale_ttl_s: float = 0.0
    stub_fd_budget: int | None = None
    stub_max_queue_wait_s: float = 0.05
    resolver_cache_capacity: int | None = None
    resolver_cache_policy: str = "lru"
    resolver_stale_ttl_s: float = 0.0
    resolver_fd_budget: int | None = None
    resolver_max_queue_wait_s: float = 0.25
    flash_crowd_rate_per_hour: float = 0.0
    flash_crowd_duration_s: float = 300.0
    flash_crowd_intensity: float = 5.0

    def __post_init__(self) -> None:
        for label, policy in (
            ("stub_cache_policy", self.stub_cache_policy),
            ("resolver_cache_policy", self.resolver_cache_policy),
        ):
            if policy not in EVICTION_POLICIES:
                raise WorkloadError(
                    f"{label} must be one of {EVICTION_POLICIES}, got {policy!r}"
                )
        for label, value in (
            ("stub_cache_capacity", self.stub_cache_capacity),
            ("stub_fd_budget", self.stub_fd_budget),
            ("resolver_cache_capacity", self.resolver_cache_capacity),
            ("resolver_fd_budget", self.resolver_fd_budget),
        ):
            if value is not None and value <= 0:
                raise WorkloadError(f"{label} must be positive, got {value}")
        for label, value in (
            ("stub_stale_ttl_s", self.stub_stale_ttl_s),
            ("stub_max_queue_wait_s", self.stub_max_queue_wait_s),
            ("resolver_stale_ttl_s", self.resolver_stale_ttl_s),
            ("resolver_max_queue_wait_s", self.resolver_max_queue_wait_s),
            ("flash_crowd_rate_per_hour", self.flash_crowd_rate_per_hour),
        ):
            # Written so that NaN fails too, as infinity does.
            if not 0 <= value < inf:
                raise WorkloadError(f"{label} must be finite and not negative, got {value}")
        if not 0 < self.flash_crowd_duration_s < inf:
            raise WorkloadError(
                "flash_crowd_duration_s must be positive and finite, "
                f"got {self.flash_crowd_duration_s}"
            )
        if not 1.0 <= self.flash_crowd_intensity < inf:
            raise WorkloadError(
                f"flash_crowd_intensity must be finite and >= 1, got {self.flash_crowd_intensity}"
            )

    @property
    def enabled(self) -> bool:
        """Does this configuration change anything at all?"""
        return (
            self.stub_cache_capacity is not None
            or self.stub_cache_policy != "lru"
            or self.stub_fd_budget is not None
            or self.resolver_cache_capacity is not None
            or self.resolver_cache_policy != "lru"
            or self.resolver_fd_budget is not None
            or self.flash_crowd_rate_per_hour > 0
        )


@dataclass(frozen=True, slots=True)
class UniverseConfig:
    """Size of the hostname universe."""

    site_count: int = 200
    cdn_host_count: int = 18
    ads_host_count: int = 12
    analytics_host_count: int = 6
    api_host_count: int = 15
    video_host_count: int = 8
    zipf_exponent: float = 0.9


@dataclass(frozen=True, slots=True)
class AppRates:
    """Per-device-kind application activity levels."""

    laptop_browsing_scale: float = 1.0
    android_browsing_scale: float = 0.14
    laptop_video_sessions_per_hour: float = 0.10
    tv_video_sessions_per_hour: float = 0.35
    laptop_api_probability: float = 0.60
    android_api_probability: float = 0.50
    connectivity_check_median_period: float = 450.0
    p2p_bursts_per_hour: float = 11.0
    quic_fraction: float = 0.12


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """A complete synthetic-workload scenario."""

    seed: int = 1
    houses: int = 30
    duration: float = 86400.0
    warmup: float = 0.0
    universe: UniverseConfig = field(default_factory=UniverseConfig)
    mix: HouseholdMixConfig = field(default_factory=HouseholdMixConfig)
    browsing: BrowsingConfig = field(default_factory=BrowsingConfig)
    rates: AppRates = field(default_factory=AppRates)
    # All-zero by default: the fault plan is never consulted and traces
    # are byte-identical to pre-fault-model builds.
    faults: FaultConfig = field(default_factory=FaultConfig)
    # All-off by default: caches stay unpressured and no budgets exist,
    # keeping traces byte-identical to pre-pressure builds.
    pressure: PressureConfig = field(default_factory=PressureConfig)

    def __post_init__(self) -> None:
        if self.houses <= 0:
            raise WorkloadError(f"houses must be positive, got {self.houses}")
        if not 0 < self.duration < inf:
            raise WorkloadError(f"duration must be positive and finite, got {self.duration}")
        if not 0 <= self.warmup < inf:
            raise WorkloadError(f"warmup must be finite and not negative, got {self.warmup}")

    def scaled(self, houses: int | None = None, duration: float | None = None) -> "ScenarioConfig":
        """A copy with a different size (same behaviour knobs)."""
        return replace(
            self,
            houses=houses if houses is not None else self.houses,
            duration=duration if duration is not None else self.duration,
        )


def default_scenario(seed: int = 1) -> ScenarioConfig:
    """The paper-shaped default: 30 houses, one simulated day."""
    return ScenarioConfig(seed=seed)


def smoke_scenario(seed: int = 1) -> ScenarioConfig:
    """A small, fast scenario for unit tests (a few houses, 2 hours)."""
    return ScenarioConfig(
        seed=seed,
        houses=6,
        duration=7200.0,
        universe=UniverseConfig(site_count=40, cdn_host_count=9, ads_host_count=6),
    )


def benchmark_scenario(seed: int = 1) -> ScenarioConfig:
    """The scenario used by the benchmark harness (see benchmarks/)."""
    return ScenarioConfig(seed=seed, houses=24, duration=43200.0)
