"""Tests for repro.dns.resolver: recursive and stub resolver behaviour."""

import random

import pytest

from repro.dns.cache import DnsCache, cache_key
from repro.dns.name import DomainName
from repro.dns.resolver import (
    RecursiveResolver,
    ResolverProfile,
    StubResolver,
    build_platform_profiles,
)
from repro.dns.zone import DnsHierarchy
from repro.errors import ResolutionError
from repro.simulation.latency import LatencyModel, metro_latency


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
    h.add_address("api.cnn.com", "151.101.1.68", ttl=60)
    h.add_address("www.other.org", "93.184.216.34", ttl=300)
    return h


class TestRecursiveResolver:
    def test_cold_resolution_walks_hierarchy(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        outcome = resolver.resolve("www.cnn.com", now=0.0)
        assert not outcome.cache_hit
        assert outcome.auth_queries == 3  # root, .com, cnn.com
        assert outcome.addresses() == ("151.101.1.67",)
        # Three authoritative RTTs dominate the duration.
        assert outcome.duration_s > 0.06

    def test_cache_hit_is_fast(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        resolver.resolve("www.cnn.com", now=0.0)
        outcome = resolver.resolve("www.cnn.com", now=1.0)
        assert outcome.cache_hit
        assert outcome.auth_queries == 0
        assert outcome.duration_s < 0.01

    def test_delegation_cache_skips_upper_tree(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        resolver.resolve("www.cnn.com", now=0.0)
        outcome = resolver.resolve("api.cnn.com", now=1.0)
        assert not outcome.cache_hit
        assert outcome.auth_queries == 1  # straight to ns1.cnn.com

    def test_cache_expires_with_ttl(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        resolver.resolve("api.cnn.com", now=0.0)  # ttl=60
        outcome = resolver.resolve("api.cnn.com", now=100.0)
        assert not outcome.cache_hit

    def test_cached_answers_are_aged(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        resolver.resolve("www.cnn.com", now=0.0)  # ttl=120
        outcome = resolver.resolve("www.cnn.com", now=50.0)
        assert outcome.cache_hit
        assert outcome.records[0].ttl <= 70

    def test_nxdomain(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        outcome = resolver.resolve("missing.cnn.com", now=0.0)
        assert outcome.nxdomain
        assert outcome.records == ()

    def test_zero_effectiveness_never_hits(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(cache_effectiveness=0.0), hierarchy, rng=random.Random(1)
        )
        resolver.resolve("www.cnn.com", now=0.0)
        outcome = resolver.resolve("www.cnn.com", now=1.0)
        assert not outcome.cache_hit

    def test_background_warming_revives_expired_entries(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(background_scale=1e6), hierarchy, rng=random.Random(1)
        )
        # The first query establishes demand and a known TTL. By t=400
        # the cached entry (TTL 120) has expired, but the (huge) external
        # population has kept the platform's cache warm.
        resolver.resolve("www.cnn.com", now=0.0)
        outcome = resolver.resolve("www.cnn.com", now=400.0)
        assert outcome.cache_hit and outcome.auth_queries == 0

    def test_first_ever_query_cannot_background_hit(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(background_scale=1e6), hierarchy, rng=random.Random(1)
        )
        outcome = resolver.resolve("www.other.org", now=0.0)
        assert not outcome.cache_hit

    def test_effectiveness_bounds(self):
        with pytest.raises(ResolutionError):
            make_profile(cache_effectiveness=1.5)
        with pytest.raises(ResolutionError):
            make_profile(background_scale=-1.0)


class TestStubResolver:
    def _stub(self, hierarchy, overstay=0.0):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(2))
        cache = DnsCache(overstay=overstay)
        return StubResolver([(resolver, 1.0)], cache=cache, rng=random.Random(3))

    def test_first_lookup_goes_to_network(self, hierarchy):
        stub = self._stub(hierarchy)
        lookup = stub.lookup("www.cnn.com", now=0.0)
        assert lookup.network_transaction
        assert lookup.resolver_address == "192.0.2.1"
        assert lookup.addresses() == ("151.101.1.67",)

    def test_repeat_lookup_served_locally(self, hierarchy):
        stub = self._stub(hierarchy)
        stub.lookup("www.cnn.com", now=0.0)
        lookup = stub.lookup("www.cnn.com", now=10.0)
        assert not lookup.network_transaction
        assert lookup.duration_s == 0.0

    def test_expired_entry_requeried(self, hierarchy):
        stub = self._stub(hierarchy)
        stub.lookup("api.cnn.com", now=0.0)  # ttl 60
        lookup = stub.lookup("api.cnn.com", now=120.0)
        assert lookup.network_transaction

    def test_overstay_serves_expired(self, hierarchy):
        stub = self._stub(hierarchy, overstay=600.0)
        stub.lookup("api.cnn.com", now=0.0)
        lookup = stub.lookup("api.cnn.com", now=120.0)
        assert not lookup.network_transaction
        assert lookup.used_expired_record

    def test_bypass_cache(self, hierarchy):
        stub = self._stub(hierarchy)
        stub.lookup("www.cnn.com", now=0.0)
        lookup = stub.lookup("www.cnn.com", now=1.0, bypass_cache=True)
        assert lookup.network_transaction

    def test_weighted_upstream_selection(self, hierarchy):
        fast = RecursiveResolver(make_profile(address="192.0.2.1"), hierarchy, rng=random.Random(4))
        slow = RecursiveResolver(make_profile(address="192.0.2.2"), hierarchy, rng=random.Random(5))
        stub = StubResolver([(fast, 0.9), (slow, 0.1)], rng=random.Random(6))
        picks = [stub.pick_upstream().address for _ in range(500)]
        share_fast = picks.count("192.0.2.1") / len(picks)
        assert 0.82 < share_fast < 0.97

    def test_requires_upstreams(self):
        with pytest.raises(ResolutionError):
            StubResolver([])

    def test_rejects_zero_weights(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy)
        with pytest.raises(ResolutionError):
            StubResolver([(resolver, 0.0)])


class TestPlatformProfiles:
    def test_all_platforms_present(self):
        profiles = build_platform_profiles()
        assert set(profiles) == {"local", "google", "opendns", "cloudflare"}

    def test_rtt_ordering_matches_paper(self):
        profiles = build_platform_profiles()
        assert (
            profiles["local"].client_latency_model.base_rtt_s
            < profiles["cloudflare"].client_latency_model.base_rtt_s
            < profiles["google"].client_latency_model.base_rtt_s
        )

    def test_google_has_lowest_cache_effectiveness(self):
        profiles = build_platform_profiles()
        google = profiles["google"].cache_effectiveness
        assert all(
            google < profile.cache_effectiveness
            for name, profile in profiles.items()
            if name != "google"
        )


class TestNegativeCaching:
    """RFC 2308: the resolver caches non-answers too."""

    def test_repeat_nxdomain_served_from_cache(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(9))
        first = resolver.resolve("missing.cnn.com", now=0.0)
        assert first.nxdomain and not first.cache_hit
        second = resolver.resolve("missing.cnn.com", now=10.0)
        assert second.nxdomain and second.cache_hit
        assert second.auth_queries == 0
        assert second.duration_s < 0.01

    def test_negative_entry_expires(self, hierarchy):
        resolver = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(9))
        resolver.resolve("missing.cnn.com", now=0.0)
        later = resolver.resolve("missing.cnn.com", now=1000.0)
        assert later.nxdomain and not later.cache_hit

    def test_negative_cache_respects_effectiveness(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(cache_effectiveness=0.0), hierarchy, rng=random.Random(9)
        )
        resolver.resolve("missing.cnn.com", now=0.0)
        second = resolver.resolve("missing.cnn.com", now=10.0)
        assert not second.cache_hit
