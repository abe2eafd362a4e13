"""Tests for repro.dns.cache: TTL expiry, LRU eviction, overstay, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.cache import CacheLookup, CacheStats, DnsCache, cache_key
from repro.dns.rr import RRType, a_record
from repro.errors import DnsError


def records_for(name: str, ttl: int = 60):
    return (a_record(name, "10.0.0.1", ttl),)


KEY = cache_key("www.example.com")


class TestBasics:
    def test_miss_on_empty(self):
        cache = DnsCache()
        assert not cache.get(KEY, now=0.0).hit

    def test_hit_within_ttl(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        lookup = cache.get(KEY, now=30.0)
        assert lookup.hit and not lookup.expired
        assert lookup.addresses() == ("10.0.0.1",)

    def test_miss_after_ttl(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        assert not cache.get(KEY, now=61.0).hit

    def test_hit_exactly_at_expiry_is_expired(self):
        cache = DnsCache(overstay=10.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        lookup = cache.get(KEY, now=60.0)
        assert lookup.hit and lookup.expired

    def test_key_is_case_insensitive(self):
        cache = DnsCache()
        cache.put(cache_key("WWW.Example.COM"), records_for("www.example.com"), now=0.0)
        assert cache.get(cache_key("www.example.com"), now=1.0).hit

    def test_empty_rrset_rejected(self):
        cache = DnsCache()
        with pytest.raises(DnsError):
            cache.put(KEY, (), now=0.0)

    def test_aged_records_decrement_ttl(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com", ttl=100), now=0.0)
        lookup = cache.get(KEY, now=40.0)
        assert lookup.records[0].ttl == 60

    def test_aged_records_never_negative(self):
        cache = DnsCache(overstay=1000.0)
        cache.put(KEY, records_for("www.example.com", ttl=10), now=0.0)
        lookup = cache.get(KEY, now=500.0)
        assert lookup.expired
        assert all(rr.ttl >= 0 for rr in lookup.records)


class TestFirstUse:
    def test_first_use_flag(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        assert cache.get(KEY, now=1.0).first_use
        assert not cache.get(KEY, now=2.0).first_use

    def test_put_resets_usage(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        cache.get(KEY, now=1.0)
        cache.put(KEY, records_for("www.example.com"), now=2.0)
        assert cache.get(KEY, now=3.0).first_use

    def test_mark_used_makes_the_next_hit_a_reuse(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        cache.mark_used(KEY)
        cache.mark_used(cache_key("missing.example.com"))
        assert cache.stats == CacheStats()
        lookup = cache.get(KEY, now=1.0)
        assert lookup.hit and not lookup.first_use


class TestOverstay:
    def test_constant_overstay_serves_expired(self):
        cache = DnsCache(overstay=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        lookup = cache.get(KEY, now=120.0)
        assert lookup.hit and lookup.expired

    def test_overstay_exhausted_becomes_miss(self):
        cache = DnsCache(overstay=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        assert not cache.get(KEY, now=161.0).hit

    def test_callable_overstay(self):
        cache = DnsCache(overstay=lambda key: 500.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        assert cache.get(KEY, now=400.0).expired

    def test_strict_cache_never_serves_expired(self):
        cache = DnsCache(overstay=0.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        assert not cache.get(KEY, now=60.0).hit

    def test_expired_hits_counted(self):
        cache = DnsCache(overstay=100.0)
        cache.put(KEY, records_for("www.example.com", ttl=60), now=0.0)
        cache.get(KEY, now=70.0)
        assert cache.stats.expired_hits == 1


class TestEviction:
    def test_capacity_evicts_lru(self):
        cache = DnsCache(capacity=2)
        keys = [cache_key(f"h{i}.example.com") for i in range(3)]
        cache.put(keys[0], records_for("h0.example.com"), now=0.0)
        cache.put(keys[1], records_for("h1.example.com"), now=1.0)
        cache.get(keys[0], now=2.0)  # refresh key 0's recency
        cache.put(keys[2], records_for("h2.example.com"), now=3.0)
        assert cache.get(keys[0], now=4.0).hit
        assert not cache.get(keys[1], now=4.0).hit
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(DnsError):
            DnsCache(capacity=0)

    def test_purge_expired(self):
        # A lookup purges the dead entry it misses and no other.
        cache = DnsCache()
        cache.put(cache_key("a.com"), records_for("a.com", ttl=10), now=0.0)
        cache.put(cache_key("b.com"), records_for("b.com", ttl=1000), now=0.0)
        assert not cache.get(cache_key("a.com"), now=100.0).hit
        assert len(cache) == 1
        assert cache.get(cache_key("b.com"), now=100.0).hit


class TestStats:
    def test_hit_rate(self):
        cache = DnsCache()
        cache.put(KEY, records_for("www.example.com"), now=0.0)
        cache.get(KEY, now=1.0)
        cache.get(cache_key("missing.example.com"), now=1.0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert DnsCache().stats.hit_rate == 0.0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),  # which name
            st.floats(min_value=0.0, max_value=1e4),  # timestamp
            st.booleans(),  # put or get
        ),
        max_size=60,
    )
)
@settings(max_examples=50)
def test_cache_invariants(operations):
    """Capacity bound and stats consistency hold under arbitrary use."""
    cache = DnsCache(capacity=4)
    operations.sort(key=lambda op: op[1])
    for which, when, is_put in operations:
        key = cache_key(f"name{which}.example.com")
        if is_put:
            cache.put(key, records_for(f"name{which}.example.com", ttl=50), now=when)
        else:
            cache.get(key, now=when)
    assert len(cache) <= 4
    assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
    assert cache.stats.expired_hits <= cache.stats.hits
