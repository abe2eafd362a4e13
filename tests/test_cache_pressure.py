"""Resolver-cache realism under pressure.

Covers the pluggable eviction policies (LRU / ttl-aware / RFC 8767
serve-stale), the expiry boundary every lookup reads from the stored
deadlines, connection/fd budgets with queue-then-shed degradation, the
REFUSED → immediate-failover path in the stub, and the pressure
configuration/statistics plumbing through scenario generation.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.core.parallel import PressureStats, merge_pressure_stats
from repro.dns.cache import (
    EVICTION_POLICIES,
    RFC8767_DEFAULT_STALE_TTL_S,
    DnsCache,
    cache_key,
)
from repro.dns.resolver import RecursiveResolver, ResolverProfile, StubResolver
from repro.dns.rr import a_record
from repro.dns.zone import DnsHierarchy
from repro.errors import DnsError, SimulationError, WorkloadError
from repro.simulation.faults import ConnectionBudget, RetryPolicy
from repro.simulation.latency import LatencyModel
from repro.workload.generate import generate_trace_with_pressure
from repro.workload.scenario import PressureConfig, ScenarioConfig, UniverseConfig


def records_for(name: str, ttl: int = 60):
    return (a_record(name, "10.0.0.1", ttl),)


KEY = cache_key("www.example.com")


class TestExpiryBoundary:
    """Every lookup compares ``now`` with the deadlines ``put`` stored."""

    def test_purge_and_get_agree_exactly_at_boundary(self):
        # Entry servable until exactly 70.0 (ttl 60 + overstay 10): at
        # the boundary instant a lookup misses AND purges the entry.
        cache = DnsCache(overstay=10.0)
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        assert not cache.get(KEY, now=70.0).hit
        assert KEY not in cache

    def test_purge_keeps_entries_a_lookup_would_serve(self):
        cache = DnsCache(overstay=10.0)
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        assert cache.get(KEY, now=69.5).hit
        assert KEY in cache

    def test_lookup_reads_the_stored_float_deadline(self):
        # In floats (0.1 + 0.2) + 0.3 > 0.6 == 0.1 + (0.2 + 0.3): put
        # stores the deadline associated left to right, so at 0.6 the
        # entry is still served stale, and one ulp later it is gone.
        def cache():
            fresh = DnsCache(policy="serve-stale", overstay=0.2, stale_ttl_s=0.3)
            fresh.put(KEY, records_for("www.example.com", ttl=0), now=0.1)
            return fresh

        assert cache().get(KEY, now=0.6).stale
        assert not cache().get(KEY, now=math.nextafter(0.6, 1.0)).hit


class TestServeStale:
    def test_serves_stale_inside_budget(self):
        cache = DnsCache(policy="serve-stale", stale_ttl_s=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        lookup = cache.get(KEY, now=120.0)
        assert lookup.hit and lookup.expired and lookup.stale
        assert lookup.addresses() == ("10.0.0.1",)
        assert cache.stats.stale_serves == 1

    def test_miss_once_budget_lapses(self):
        cache = DnsCache(policy="serve-stale", stale_ttl_s=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        # Servable while now < 60 + 100; gone at the boundary.
        assert cache.get(KEY, now=159.9).hit
        assert not cache.get(KEY, now=160.0).hit
        assert cache.stats.stale_expirations == 1
        assert KEY not in cache

    def test_default_budget_is_rfc8767(self):
        cache = DnsCache(policy="serve-stale")
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        edge = 60.0 + RFC8767_DEFAULT_STALE_TTL_S
        assert cache.get(KEY, now=edge - 1.0).stale
        assert not cache.get(KEY, now=edge).hit

    def test_overstay_window_precedes_staleness(self):
        cache = DnsCache(policy="serve-stale", overstay=10.0, stale_ttl_s=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        inside_overstay = cache.get(KEY, now=65.0)
        assert inside_overstay.hit and inside_overstay.expired
        assert not inside_overstay.stale
        past_overstay = cache.get(KEY, now=75.0)
        assert past_overstay.stale
        assert cache.stats.stale_serves == 1

    def test_other_policies_never_serve_stale(self):
        for policy in ("lru", "ttl-aware"):
            cache = DnsCache(policy=policy, stale_ttl_s=100.0)
            cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
            assert not cache.get(KEY, now=61.0).hit

    def test_probe_matches_get(self):
        cache = DnsCache(policy="serve-stale", stale_ttl_s=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        assert cache.probe(KEY, now=120.0) == (True, True)
        assert cache.stats.stale_serves == 1
        assert cache.probe(KEY, now=160.0) == (False, False)
        assert cache.stats.stale_expirations == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(DnsError):
            DnsCache(policy="mru")


class TestEvictionPolicies:
    def _filled(self, policy: str, **kwargs) -> DnsCache:
        cache = DnsCache(capacity=2, policy=policy, **kwargs)
        cache.put(cache_key("long.example.com"), records_for("long.example.com", ttl=300), now=0.0)
        cache.put(cache_key("short.example.com"), records_for("short.example.com", ttl=30), now=0.0)
        return cache

    def test_lru_evicts_least_recently_used(self):
        cache = self._filled("lru")
        cache.get(cache_key("long.example.com"), now=1.0)  # refresh LRU position
        cache.put(cache_key("new.example.com"), records_for("new.example.com"), now=2.0)
        assert cache_key("short.example.com") not in cache
        assert cache_key("long.example.com") in cache
        assert cache.stats.evictions == 1

    def test_ttl_aware_evicts_soonest_expiry(self):
        cache = self._filled("ttl-aware")
        # LRU would evict long (least recent); ttl-aware picks short.
        cache.put(cache_key("new.example.com"), records_for("new.example.com"), now=2.0)
        assert cache_key("short.example.com") not in cache
        assert cache_key("long.example.com") in cache

    def test_serve_stale_evicts_dead_first(self):
        cache = self._filled("serve-stale", stale_ttl_s=50.0)
        # At 100, short (30 + 50 = 80) is fully dead; long is fresh.
        cache.get(cache_key("short.example.com"), now=1.0)  # make short most recent
        cache.put(cache_key("new.example.com"), records_for("new.example.com"), now=100.0)
        assert cache_key("short.example.com") not in cache
        assert cache_key("long.example.com") in cache

    def test_serve_stale_evicts_stale_before_fresh(self):
        cache = self._filled("serve-stale", stale_ttl_s=1000.0)
        # At 100, short (dead only at 1030) is merely stale; long fresh.
        cache.get(cache_key("short.example.com"), now=1.0)
        cache.put(cache_key("new.example.com"), records_for("new.example.com"), now=100.0)
        assert cache_key("short.example.com") not in cache

    def test_serve_stale_falls_back_to_lru(self):
        cache = self._filled("serve-stale", stale_ttl_s=1000.0)
        # At 1.0 both entries are fresh: plain LRU picks the head.
        cache.put(cache_key("new.example.com"), records_for("new.example.com"), now=1.0)
        assert cache_key("long.example.com") not in cache
        assert cache_key("short.example.com") in cache


class TestConnectionBudget:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ConnectionBudget(0)
        with pytest.raises(SimulationError):
            ConnectionBudget(1, max_queue_wait_s=-1.0)
        budget = ConnectionBudget(1)
        with pytest.raises(SimulationError):
            budget.occupy(2.0, 1.0)

    def test_free_slot_admits_immediately(self):
        budget = ConnectionBudget(2)
        assert budget.admit(0.0) == 0.0
        assert budget.admitted == 1 and budget.active == 0

    def test_queues_until_a_slot_frees(self):
        budget = ConnectionBudget(1, max_queue_wait_s=5.0)
        assert budget.admit(0.0) == 0.0
        budget.occupy(0.0, 3.0)
        assert budget.admit(1.0) == pytest.approx(2.0)
        assert budget.queued == 1

    def test_sheds_past_max_queue_wait(self):
        budget = ConnectionBudget(1, max_queue_wait_s=0.0)
        budget.admit(0.0)
        budget.occupy(0.0, 3.0)
        assert budget.admit(1.0) is None
        assert budget.shed == 1
        assert budget.arrivals == 2

    def test_finished_connections_release_slots(self):
        budget = ConnectionBudget(1)
        budget.admit(0.0)
        budget.occupy(0.0, 3.0)
        assert budget.admit(3.0) == 0.0

    def test_queued_reservations_stack(self):
        budget = ConnectionBudget(1, max_queue_wait_s=10.0)
        budget.admit(0.0)
        budget.occupy(0.0, 3.0)
        assert budget.admit(1.0) == pytest.approx(2.0)
        budget.occupy(3.0, 5.0)  # the queued arrival holds the slot next
        # A third arrival waits behind both recorded resolutions.
        assert budget.admit(1.0) == pytest.approx(4.0)


def quiet_latency(base: float) -> LatencyModel:
    return LatencyModel(base_rtt_s=base, jitter_median=0.0001, jitter_sigma=0.1)


def make_profile(**overrides) -> ResolverProfile:
    defaults = dict(
        platform="test",
        address="192.0.2.1",
        client_latency_model=quiet_latency(0.002),
        auth_latency_model=quiet_latency(0.020),
        cache_effectiveness=1.0,
        background_scale=0.0,
    )
    defaults.update(overrides)
    return ResolverProfile(**defaults)


@pytest.fixture()
def hierarchy():
    h = DnsHierarchy()
    h.add_address("www.cnn.com", "151.101.1.67", ttl=120)
    return h


class TestResolverBudget:
    def test_shed_query_is_refused(self, hierarchy):
        budget = ConnectionBudget(1, max_queue_wait_s=0.0)
        resolver = RecursiveResolver(
            make_profile(), hierarchy, rng=random.Random(1), connection_budget=budget
        )
        first = resolver.resolve("www.cnn.com", now=0.0)
        assert not first.failed
        refused = resolver.resolve("www.cnn.com", now=0.0)
        assert refused.resource_exhausted and refused.failed
        assert refused.rcode_name == "REFUSED"
        assert refused.records == ()
        assert refused.duration_s > 0.0  # the refusal itself costs an RTT
        assert budget.shed == 1

    def test_queued_query_pays_the_wait(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            connection_budget=ConnectionBudget(1, max_queue_wait_s=10.0),
        )
        first = resolver.resolve("www.cnn.com", now=0.0)
        queued = resolver.resolve("www.cnn.com", now=0.0)
        assert not queued.failed
        assert queued.duration_s >= first.duration_s
        assert resolver._budget.queued == 1  # noqa: SLF001 - test introspection

    def test_unbudgeted_resolver_never_refuses(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        for _ in range(5):
            outcome = resolver.resolve("www.cnn.com", now=0.0)
            assert not outcome.failed and not outcome.resource_exhausted


class TestStubUnderPressure:
    def _saturated_budget(self) -> ConnectionBudget:
        budget = ConnectionBudget(1, max_queue_wait_s=0.0)
        budget.admit(0.0)
        budget.occupy(0.0, 1000.0)
        return budget

    def test_local_shed_never_reaches_the_wire(self, hierarchy):
        upstream = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        budget = self._saturated_budget()
        stub = StubResolver([(upstream, 1.0)], rng=random.Random(2), connection_budget=budget)
        lookup = stub.lookup("www.cnn.com", now=1.0)
        assert lookup.outcome is not None and lookup.outcome.resource_exhausted
        assert not lookup.network_transaction
        assert lookup.duration_s == 0.0
        assert budget.shed == 1
        assert lookup.resolver_address is None and lookup.resolver_platform is None

    def test_refused_fails_over_immediately(self, hierarchy):
        primary_budget = self._saturated_budget()
        primary = RecursiveResolver(
            make_profile(platform="primary", address="192.0.2.1"),
            hierarchy,
            rng=random.Random(1),
            connection_budget=primary_budget,
        )
        secondary = RecursiveResolver(
            make_profile(platform="secondary", address="192.0.2.2"),
            hierarchy,
            rng=random.Random(2),
        )
        stub = StubResolver(
            [(primary, 1.0), (secondary, 0.0)],
            rng=random.Random(3),
            retry=RetryPolicy(max_failovers=1),
        )
        lookup = stub.lookup("www.cnn.com", now=1.0)
        assert lookup.outcome is not None and not lookup.outcome.failed
        assert lookup.resolver_platform == "secondary"
        assert lookup.addresses() == ("151.101.1.67",)
        assert primary_budget.shed == 1
        # The refusal's cost is charged to the total lookup duration.
        assert lookup.duration_s > lookup.outcome.duration_s

    def test_every_upstream_refusing_fails_the_lookup(self, hierarchy):
        upstreams = [
            RecursiveResolver(
                make_profile(platform=f"p{i}", address=f"192.0.2.{i + 1}"),
                hierarchy,
                rng=random.Random(i),
                connection_budget=self._saturated_budget(),
            )
            for i in range(2)
        ]
        stub = StubResolver(
            [(upstreams[0], 1.0), (upstreams[1], 0.0)],
            rng=random.Random(3),
            retry=RetryPolicy(max_failovers=1),
        )
        lookup = stub.lookup("www.cnn.com", now=1.0)
        assert lookup.outcome is not None and lookup.outcome.resource_exhausted
        assert lookup.records == ()


class TestPressureConfig:
    def test_defaults_are_inert(self):
        assert not PressureConfig().enabled

    def test_any_knob_enables(self):
        assert PressureConfig(stub_cache_capacity=64).enabled
        assert PressureConfig(stub_cache_policy="serve-stale").enabled
        assert PressureConfig(resolver_fd_budget=128).enabled
        assert PressureConfig(flash_crowd_rate_per_hour=0.5).enabled

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PressureConfig(stub_cache_policy="mru")
        with pytest.raises(WorkloadError):
            PressureConfig(resolver_cache_capacity=0)
        with pytest.raises(WorkloadError):
            PressureConfig(stub_fd_budget=-1)
        with pytest.raises(WorkloadError):
            PressureConfig(stub_max_queue_wait_s=-0.1)
        with pytest.raises(WorkloadError):
            PressureConfig(flash_crowd_duration_s=0.0)
        with pytest.raises(WorkloadError):
            PressureConfig(flash_crowd_intensity=0.5)

    def test_policies_exported(self):
        assert set(EVICTION_POLICIES) == {"lru", "ttl-aware", "serve-stale"}


class TestPressureStats:
    def test_merge_is_fieldwise_addition(self):
        a = PressureStats(stub_lookups=10, stub_hits=4, resolver_refused=1)
        b = PressureStats(stub_lookups=6, stub_hits=2, stub_shed=3)
        merged = merge_pressure_stats([a, b])
        assert merged.stub_lookups == 16 and merged.stub_hits == 6
        assert merged.stub_shed == 3 and merged.resolver_refused == 1
        assert merge_pressure_stats([]) == PressureStats()

    def test_rates(self):
        stats = PressureStats(
            stub_lookups=10,
            stub_hits=4,
            stub_admitted=6,
            stub_queued=2,
            stub_shed=2,
            resolver_lookups=5,
            resolver_hits=5,
        )
        assert stats.stub_hit_rate == pytest.approx(0.4)
        assert stats.resolver_hit_rate == pytest.approx(1.0)
        assert stats.blocked_connection_share == pytest.approx(0.4)
        assert PressureStats().blocked_connection_share == 0.0


def _tiny_scenario(**pressure_kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        seed=11,
        houses=3,
        duration=1800.0,
        universe=UniverseConfig(site_count=25, cdn_host_count=6, ads_host_count=4),
        pressure=PressureConfig(**pressure_kwargs),
    )


class TestGeneratorPressure:
    def test_pressure_counters_surface(self):
        trace, stats = generate_trace_with_pressure(
            _tiny_scenario(
                stub_cache_capacity=1,
                stub_cache_policy="serve-stale",
                stub_stale_ttl_s=300.0,
                stub_fd_budget=2,
            )
        )
        assert trace.dns
        assert stats.stub_lookups > 0
        assert stats.stub_evictions > 0
        assert stats.stub_admitted > 0
        assert 0.0 <= stats.stub_hit_rate <= 1.0

    def test_flash_crowd_adds_traffic_deterministically(self):
        calm_trace, _ = generate_trace_with_pressure(_tiny_scenario())
        config = _tiny_scenario(
            flash_crowd_rate_per_hour=12.0,
            flash_crowd_duration_s=300.0,
            flash_crowd_intensity=8.0,
        )
        crowd_trace, crowd_stats = generate_trace_with_pressure(config)
        assert len(crowd_trace.dns) > len(calm_trace.dns)
        again, again_stats = generate_trace_with_pressure(config)
        assert len(again.dns) == len(crowd_trace.dns)
        assert again_stats == crowd_stats

    def test_default_pressure_changes_nothing(self):
        config = _tiny_scenario()
        baseline, stats = generate_trace_with_pressure(config)
        assert not config.pressure.enabled
        assert stats.stub_shed == 0 and stats.resolver_refused == 0
        assert stats.stub_stale_serves == 0
        pressured, _ = generate_trace_with_pressure(
            replace(config, pressure=PressureConfig(stub_max_queue_wait_s=0.5))
        )
        # A lone queue-wait knob builds no budget: identical traffic.
        assert len(pressured.dns) == len(baseline.dns)
