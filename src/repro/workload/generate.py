"""End-to-end synthetic trace generation, sharded within a scenario.

:class:`TrafficGenerator` wires the substrates together — hostname
universe and authoritative hierarchy, the four recursive resolver
platforms, sampled houses full of devices, and the application models —
and returns the captured :class:`~repro.monitor.capture.Trace` (the two
Zeek-style datasets the paper's analysis consumes, plus ground-truth
annotations for validation).

**Per-house decomposition.** Each house simulates in its own
discrete-event engine against its own *views* of the four resolver
platforms, so houses are causally independent by construction and a
scenario can be partitioned into house shards that run in parallel and
merge deterministically (:func:`~repro.monitor.capture.merge_traces`):
the trace is byte-identical for every shard count, because every house
is byte-identical in isolation. The coupling the shared resolver caches
used to carry — one house's lookup warming the cache another house then
hits — is folded into the platforms' existing statistical background
model: a house's view sees the platform's external population scaled by
the house count *plus* the other monitored houses as additional
background warmers (see :meth:`TrafficGenerator._view_profile`), which
preserves the calibrated shared-cache hit-rate structure while removing
the cross-house data dependency that forced serial generation.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from dataclasses import dataclass

from repro.core.parallel import (
    PressureStats,
    effective_worker_count,
    in_scenario_fanout,
    merge_pressure_stats,
    run_scenarios,
)
from repro.dns.cache import DnsCache
from repro.dns.resolver import RecursiveResolver, ResolverProfile, build_platform_profiles
from repro.monitor.capture import MonitorCapture, Trace, merge_traces
from repro.monitor.records import ConnRecord, DnsRecord
from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import ConnectionBudget, FaultPlan
from repro.simulation.random import RandomStreams, derive_seed, poisson_arrivals
from repro.workload.apps import (
    ApiPollingModel,
    ConnectivityCheckModel,
    IoTHardcodedModel,
    P2PModel,
    VideoStreamingModel,
    WebBrowsingModel,
)
from repro.workload.devices import Device
from repro.workload.households import House, HouseholdBuilder, HousePlan, plan_houses
from repro.workload.namespace import NameUniverse
from repro.workload.scenario import ScenarioConfig

#: House shards per generation worker when ``shards`` is left automatic:
#: finer than one shard per worker so an unlucky worker that drew the
#: chatty houses does not serialize the tail of the run.
GENERATION_SHARDS_PER_WORKER = 4


@dataclass(slots=True)
class HouseContext:
    """One house plus the per-house infrastructure it simulates against."""

    house: House
    resolvers: dict[str, RecursiveResolver]
    capture: MonitorCapture


@dataclass(frozen=True, slots=True)
class HouseShardResult:
    """What one house-shard run sends back to the merging parent."""

    parts: tuple[Trace, ...]
    pressure: PressureStats


class TrafficGenerator:
    """Builds and runs one synthetic scenario."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # Built once and shared by the fault plan and the resolvers; the
        # profiles are frozen dataclasses, so sharing is safe.
        self.profiles = build_platform_profiles()
        self.streams = RandomStreams(config.seed)
        self.universe = NameUniverse(
            rng=self.streams.stream("universe"),
            site_count=config.universe.site_count,
            cdn_host_count=config.universe.cdn_host_count,
            ads_host_count=config.universe.ads_host_count,
            analytics_host_count=config.universe.analytics_host_count,
            api_host_count=config.universe.api_host_count,
            video_host_count=config.universe.video_host_count,
            zipf_exponent=config.universe.zipf_exponent,
        )
        self.fault_plan = self._build_fault_plan()
        self.house_plans: list[HousePlan] = plan_houses(
            config.mix, self.streams.stream("houses"), config.houses
        )
        self._contexts: list[HouseContext] | None = None

    @property
    def houses(self) -> list[House]:
        """The scenario's houses (built on first access)."""
        return [context.house for context in self._house_contexts()]

    def _house_contexts(self) -> list[HouseContext]:
        if self._contexts is None:
            self._contexts = [self._build_house_context(plan) for plan in self.house_plans]
        return self._contexts

    def _build_fault_plan(self) -> FaultPlan | None:
        """The scenario's fault plan, or None when faults are disabled.

        The plan gets its own derived seed namespace so enabling faults
        never perturbs the workload's model streams, and a fault-free
        config builds no plan at all — resolvers take the legacy path.
        Decisions are a pure function of ``(platform, qname, time)``, so
        one plan is safely shared by every house view in a process and
        rebuilt identically in every shard worker.
        """
        config = self.config
        if not config.faults.enabled:
            return None
        return FaultPlan(
            config.faults,
            seed=derive_seed(config.seed, "faults"),
            platforms=tuple(sorted(self.profiles)),
            horizon_s=config.warmup + config.duration,
        )

    # -- per-house infrastructure -------------------------------------------

    def _view_profile(self, profile: ResolverProfile) -> ResolverProfile:
        """The per-house view of a shared platform profile.

        A house's view owns a private cache, so the warming that other
        *monitored* houses physically provided through the shared cache
        must be modelled statistically, exactly like the platform's
        unmonitored clients already are. With ``H`` houses the old
        shared-cache warm probability used the platform-wide demand —
        ``H`` times one house's rate — scaled by ``background_scale``;
        the view therefore multiplies ``background_scale`` by ``H`` to
        restore the external population, and adds ``H - 1`` to fold in
        the other monitored houses as unit-rate background warmers.
        Both terms pass through the same frontend-sharding visibility
        factor (``cache_effectiveness``) a physical cross-house hit
        always paid.
        """
        houses = self.config.houses
        if houses <= 1 or profile.background_scale <= 0:
            return profile
        return dataclasses.replace(
            profile,
            background_scale=profile.background_scale * houses + (houses - 1),
        )

    def _sliced(self, capacity: int | None) -> int | None:
        """A platform-wide entry/slot budget divided among house views.

        Ceiling division so tiny budgets stay usable; the aggregate
        across views rounds up by at most ``houses - 1`` entries.
        """
        if capacity is None:
            return None
        return max(1, -(-capacity // self.config.houses))

    def _build_house_resolvers(self, index: int) -> dict[str, RecursiveResolver]:
        """This house's private views of the four resolver platforms.

        Pressure-config capacities and fd budgets describe the *shared*
        platform, so each view gets a per-house slice (documented in
        :class:`~repro.workload.scenario.PressureConfig`).
        """
        pressure = self.config.pressure
        resolvers = {}
        for name, profile in self.profiles.items():
            view = self._view_profile(profile)
            cache = None
            if (
                pressure.resolver_cache_capacity is not None
                or pressure.resolver_cache_policy != "lru"
            ):
                cache = DnsCache(
                    capacity=self._sliced(pressure.resolver_cache_capacity)
                    if pressure.resolver_cache_capacity is not None
                    else profile.cache_capacity,
                    policy=pressure.resolver_cache_policy,
                    stale_ttl_s=pressure.resolver_stale_ttl_s,
                )
            budget = (
                ConnectionBudget(
                    self._sliced(pressure.resolver_fd_budget),
                    pressure.resolver_max_queue_wait_s,
                )
                if pressure.resolver_fd_budget is not None
                else None
            )
            resolvers[name] = RecursiveResolver(
                view,
                self.universe.hierarchy,
                rng=random.Random(derive_seed(self.config.seed, "resolver", name, index)),
                faults=self.fault_plan,
                cache=cache,
                connection_budget=budget,
            )
        return resolvers

    def _build_house_context(self, plan: HousePlan) -> HouseContext:
        """Build one house with its own capture sink and resolver views.

        The uid namespace is the zero-padded house index, so uids stay
        globally unique across independently simulated houses and the
        canonical ``(ts, uid)`` merge order is house-then-capture order.
        """
        pressure = self.config.pressure
        capture = MonitorCapture(uid_namespace=f"{plan.index:04x}")
        resolvers = self._build_house_resolvers(plan.index)
        builder = HouseholdBuilder(
            mix=self.config.mix,
            resolvers=resolvers,
            universe=self.universe,
            capture=capture,
            rng=random.Random(plan.seed),
            retry=self.config.faults.retry,
            stub_cache_capacity=pressure.stub_cache_capacity,
            stub_cache_policy=pressure.stub_cache_policy,
            stub_stale_ttl_s=pressure.stub_stale_ttl_s,
            stub_fd_budget=pressure.stub_fd_budget,
            stub_max_queue_wait_s=pressure.stub_max_queue_wait_s,
        )
        house = builder.build_house_from_plan(plan)
        return HouseContext(house=house, resolvers=resolvers, capture=capture)

    # -- app attachment ------------------------------------------------------

    def _attach_apps(
        self, device: Device, engine: SimulationEngine, start: float, end: float
    ) -> None:
        rates = self.config.rates
        rng = device.rng
        if device.kind == "laptop":
            WebBrowsingModel(
                self.universe, self.config.browsing, rate_scale=rates.laptop_browsing_scale
            ).schedule(device, engine, start, end)
            VideoStreamingModel(
                self.universe, sessions_per_hour=rates.laptop_video_sessions_per_hour
            ).schedule(device, engine, start, end)
            if rng.random() < rates.laptop_api_probability:
                ApiPollingModel(self.universe).schedule(device, engine, start, end)
        elif device.kind == "android":
            WebBrowsingModel(
                self.universe, self.config.browsing, rate_scale=rates.android_browsing_scale
            ).schedule(device, engine, start, end)
            ConnectivityCheckModel(
                self.universe, period_median=rates.connectivity_check_median_period
            ).schedule(device, engine, start, end)
            if rng.random() < rates.android_api_probability:
                ApiPollingModel(self.universe).schedule(device, engine, start, end)
        elif device.kind == "tv":
            VideoStreamingModel(
                self.universe, sessions_per_hour=rates.tv_video_sessions_per_hour
            ).schedule(device, engine, start, end)
            ApiPollingModel(self.universe, period_min=300.0, period_max=1200.0).schedule(
                device, engine, start, end
            )
        elif device.kind == "iot":
            ApiPollingModel(self.universe, period_min=120.0, period_max=900.0).schedule(
                device, engine, start, end
            )
            flavor_draw = rng.random()
            if flavor_draw < 0.40:
                IoTHardcodedModel("tplink").schedule(device, engine, start, end)
            elif flavor_draw < 0.60:
                IoTHardcodedModel("ooma").schedule(device, engine, start, end)
            elif flavor_draw < 0.80:
                IoTHardcodedModel("alarmnet").schedule(device, engine, start, end)
        elif device.kind == "p2p":
            P2PModel(bursts_per_hour=rates.p2p_bursts_per_hour).schedule(
                device, engine, start, end
            )

    # -- flash crowds --------------------------------------------------------

    def _flash_crowd_windows(self, horizon: float) -> list[tuple[float, float]]:
        """Poisson (start, end) windows of synchronized demand spikes.

        Drawn from a derived seed namespace of their own, so enabling
        flash crowds never perturbs the workload's model streams — and
        an all-default pressure config draws nothing at all. The windows
        depend only on the config, so every shard worker recomputes the
        identical schedule.
        """
        pressure = self.config.pressure
        if pressure.flash_crowd_rate_per_hour <= 0:
            return []
        rng = random.Random(derive_seed(self.config.seed, "flash-crowd"))
        rate_per_second = pressure.flash_crowd_rate_per_hour / 3600.0
        return [
            (start, min(start + pressure.flash_crowd_duration_s, horizon))
            for start in poisson_arrivals(rng, rate_per_second, 0.0, horizon)
        ]

    def _attach_flash_crowds(
        self,
        house: House,
        engine: SimulationEngine,
        windows: list[tuple[float, float]],
    ) -> None:
        """Schedule one house's extra browsing bursts for each window.

        Every browsing-capable device gets an extra session-arrival
        process at ``flash_crowd_intensity`` times its base rate for the
        window's duration, with no diurnal thinning (the crowd is
        event-driven). Arrival streams derive from ``(seed,
        "flash-crowd", window, device)``, so the schedule is independent
        of device iteration order — and of house sharding.
        """
        config = self.config
        pressure = config.pressure
        scales = {
            "laptop": config.rates.laptop_browsing_scale,
            "android": config.rates.android_browsing_scale,
        }
        for index, (start, end) in enumerate(windows):
            for device in house.devices:
                scale = scales.get(device.kind)
                if scale is None:
                    continue
                rng = random.Random(
                    derive_seed(config.seed, "flash-crowd", str(index), device.name)
                )
                WebBrowsingModel(
                    self.universe,
                    config.browsing,
                    rate_scale=scale * pressure.flash_crowd_intensity,
                ).schedule(device, engine, start, end, rng=rng, diurnal=False)

    # -- run -------------------------------------------------------------------

    def _run_house(
        self,
        context: HouseContext,
        horizon: float,
        windows: list[tuple[float, float]],
    ) -> Trace:
        """Simulate one house to *horizon*; returns its clipped part."""
        config = self.config
        engine = SimulationEngine()
        for device in context.house.devices:
            device.quic_fraction = config.rates.quic_fraction
            self._attach_apps(device, engine, 0.0, horizon)
        self._attach_flash_crowds(context.house, engine, windows)
        engine.run(until=horizon)
        part = context.capture.finish(duration=horizon, houses=1)
        if config.warmup > 0:
            part = _clip_warmup(part, config.warmup)
        return part

    def run(self) -> Trace:
        """Run the scenario serially and return the captured trace."""
        config = self.config
        horizon = config.warmup + config.duration
        windows = self._flash_crowd_windows(horizon)
        parts = [
            self._run_house(context, horizon, windows)
            for context in self._house_contexts()
        ]
        return merge_traces(
            parts, duration_s=horizon - config.warmup, houses=config.houses
        )

    def run_shard(self, indices: list[int]) -> HouseShardResult:
        """Simulate the houses named by *indices* (one shard's work).

        Builds only those houses' contexts — in a forked worker the
        parent's universe and plans arrive through copy-on-write memory,
        so per-shard setup stays proportional to the shard. Pressure
        counters are tallied per house and merged here, letting each
        house context (devices, caches, resolver views) die as soon as
        its part is captured.
        """
        config = self.config
        horizon = config.warmup + config.duration
        windows = self._flash_crowd_windows(horizon)
        parts = []
        pressure = PressureStats()
        for index in indices:
            context = self._build_house_context(self.house_plans[index])
            parts.append(self._run_house(context, horizon, windows))
            pressure = pressure.merged_with(_house_pressure_stats(context))
        return HouseShardResult(parts=tuple(parts), pressure=pressure)

    def pressure_stats(self) -> PressureStats:
        """Aggregate cache/budget pressure counters after a run.

        Sums the additive counters of every stub cache/fd budget and
        every per-house resolver view into one mergeable
        :class:`~repro.core.parallel.PressureStats` tally.
        """
        return merge_pressure_stats(
            [_house_pressure_stats(context) for context in self._house_contexts()]
        )


def _house_pressure_stats(context: HouseContext) -> PressureStats:
    """One house's additive pressure tally (stubs plus resolver views)."""
    stats = PressureStats()
    for device in context.house.devices:
        stub = device.stub
        cache_stats = stub.cache.stats
        budget = stub._budget  # noqa: SLF001 - generator-side accounting
        stats = stats.merged_with(
            PressureStats(
                stub_lookups=cache_stats.lookups,
                stub_hits=cache_stats.hits,
                stub_evictions=cache_stats.evictions,
                stub_stale_serves=cache_stats.stale_serves,
                stub_stale_expirations=cache_stats.stale_expirations,
                stub_admitted=budget.admitted if budget is not None else 0,
                stub_queued=budget.queued if budget is not None else 0,
                stub_shed=budget.shed if budget is not None else 0,
            )
        )
    for resolver in context.resolvers.values():
        cache_stats = resolver.cache.stats
        budget = resolver._budget  # noqa: SLF001 - generator-side accounting
        stats = stats.merged_with(
            PressureStats(
                resolver_lookups=cache_stats.lookups,
                resolver_hits=cache_stats.hits,
                resolver_evictions=cache_stats.evictions,
                resolver_stale_serves=cache_stats.stale_serves,
                resolver_stale_expirations=cache_stats.stale_expirations,
                resolver_admitted=budget.admitted if budget is not None else 0,
                resolver_queued=budget.queued if budget is not None else 0,
                resolver_refused=resolver.connections_refused,
            )
        )
    return stats


def _clip_warmup(trace: Trace, warmup: float) -> Trace:
    """Shift timestamps so the measurement window starts at zero.

    Connections inside the warmup window are dropped; DNS transactions
    are kept (shifted, possibly to negative timestamps) because later
    connections may pair with pre-window lookups — exactly as the
    paper's week-long capture pairs early connections with whatever
    lookups preceded them.

    The shifted copies are built with direct positional construction
    rather than :func:`dataclasses.replace`: ``replace`` rebuilds a
    field-name kwargs dict per record, which at week-scale (hundreds of
    thousands of records) is an allocation storm worth avoiding. The
    resulting records are field-for-field identical.
    """
    clipped = Trace(duration=trace.duration - warmup, houses=trace.houses)
    clipped.dns = [
        DnsRecord(
            record.ts - warmup,
            record.uid,
            record.orig_h,
            record.orig_p,
            record.resp_h,
            record.resp_p,
            record.query,
            record.qtype,
            record.rcode,
            record.rtt,
            record.answers,
            record.proto,
        )
        for record in trace.dns
    ]
    clipped.conns = [
        ConnRecord(
            record.ts - warmup,
            record.uid,
            record.orig_h,
            record.orig_p,
            record.resp_h,
            record.resp_p,
            record.proto,
            record.duration,
            record.orig_bytes,
            record.resp_bytes,
            record.service,
            record.conn_state,
        )
        for record in trace.conns
        if record.ts >= warmup
    ]
    kept_uids = {record.uid for record in clipped.conns}
    clipped.truth = {uid: truth for uid, truth in trace.truth.items() if uid in kept_uids}
    clipped.sort()
    return clipped


def _resolve_fanout(config: ScenarioConfig, shards: int | None, workers: int) -> tuple[int, int]:
    """The (shards, workers) a generation run will actually use.

    Workers degrade to 1 when this process is already inside a scenario
    fan-out (nested fan-outs are rejected by
    :func:`~repro.core.parallel.run_scenarios`; a serial shard loop is
    byte-identical anyway). Automatic sharding gives each
    effective worker :data:`GENERATION_SHARDS_PER_WORKER` shards,
    bounded by the house count; explicit ``shards`` is honoured as-is
    (bounded by houses) so parity tests can pin any shard count.
    """
    if workers < 1:
        workers = 1
    if workers > 1 and in_scenario_fanout():
        workers = 1
    if shards is None:
        effective = effective_worker_count(workers, jobs=config.houses)
        shards = 1 if effective <= 1 else min(
            config.houses, effective * GENERATION_SHARDS_PER_WORKER
        )
    shards = max(1, min(shards, config.houses))
    return shards, workers


def _generate(
    config: ScenarioConfig, shards: int | None, workers: int
) -> tuple[Trace, PressureStats]:
    """Generate *config*'s trace, sharded and fanned out as requested."""
    generator = TrafficGenerator(config)
    shard_count, workers = _resolve_fanout(config, shards, workers)
    if shard_count <= 1:
        trace = generator.run()
        return trace, generator.pressure_stats()
    horizon = config.warmup + config.duration
    # Round-robin partition: shard s owns houses s, s+S, s+2S, ... —
    # house index decides the shard, so membership is independent of
    # worker count, and the canonical merge is independent of shards.
    partitions = [
        list(range(shard, config.houses, shard_count)) for shard in range(shard_count)
    ]
    results: list[HouseShardResult] = run_scenarios(
        partitions, generator.run_shard, workers=workers
    )
    parts = [part for result in results for part in result.parts]
    trace = merge_traces(parts, duration_s=horizon - config.warmup, houses=config.houses)
    return trace, merge_pressure_stats([result.pressure for result in results])


def generate_trace(
    config: ScenarioConfig, shards: int | None = None, workers: int = 1
) -> Trace:
    """Generate the trace for *config* (convenience wrapper).

    ``shards``/``workers`` fan the scenario's houses out over fork
    workers; the result is byte-identical for every combination (the
    golden parity tests pin this). Generation allocates millions of
    short-lived, acyclic objects; the cyclic collector only adds
    pauses, so it is suspended for the run (and restored even on
    failure). Reference counting still frees everything promptly.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        trace, _ = _generate(config, shards, workers)
        return trace
    finally:
        if gc_was_enabled:
            gc.enable()


def generate_trace_with_pressure(
    config: ScenarioConfig, shards: int | None = None, workers: int = 1
) -> tuple[Trace, PressureStats]:
    """Generate the trace for *config* and its pressure tally.

    Same gc discipline and fan-out contract as :func:`generate_trace`;
    use this variant when the cache/budget counters matter (pressure
    sweeps, benchmarks). The tally is summed per house and merged, so
    it too is independent of the shard/worker split.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _generate(config, shards, workers)
    finally:
        if gc_was_enabled:
            gc.enable()
