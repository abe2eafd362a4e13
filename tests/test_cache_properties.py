"""Property-based tests for :class:`repro.dns.cache.DnsCache` time arithmetic.

Three invariants hold for every policy, TTL, overstay, and staleness
budget:

* **Visibility is monotone in time**: once a probe at ``t`` misses, a
  probe at any ``t' >= t`` also misses (each on a fresh cache, since a
  probe can mutate state by dropping the entry).
* **Accounting closes**: every probe is exactly one hit or one miss, so
  ``hits + misses == lookups`` equals the number of probes issued.
* **Serve-stale is bounded**: a stale answer is only ever served inside
  ``[ttl + overstay, ttl + overstay + stale_budget)``, and a fresh
  (non-expired) hit only inside ``[0, ttl)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import seconds

pytestmark = pytest.mark.property

from repro.dns.cache import EVICTION_POLICIES, DnsCache, cache_key
from repro.dns.rr import a_record

KEY = cache_key("prop.example.com")

policies = st.sampled_from(EVICTION_POLICIES)
#: Whole seconds, as a record carries its TTL.
ttls = st.integers(min_value=1, max_value=100_000)
windows = seconds
times = st.floats(min_value=0.0, max_value=5e5, allow_nan=False, allow_infinity=False)


def _fresh_cache(policy: str, overstay: float, stale_ttl_s: float, ttl: int) -> DnsCache:
    """A one-entry cache stored at t=0 with the given windows."""
    cache = DnsCache(policy=policy, overstay=overstay, stale_ttl_s=stale_ttl_s)
    cache.put(KEY, (a_record("prop.example.com", "10.0.0.1", ttl),), now=0.0)
    return cache


@settings(max_examples=60, deadline=None)
@given(policy=policies, ttl=ttls, overstay=windows, stale=windows, t1=times, t2=times)
def test_visibility_is_monotone_in_now(policy, ttl, overstay, stale, t1, t2):
    earlier, later = min(t1, t2), max(t1, t2)
    hit_earlier = _fresh_cache(policy, overstay, stale, ttl).get(KEY, now=earlier).hit
    hit_later = _fresh_cache(policy, overstay, stale, ttl).get(KEY, now=later).hit
    if not hit_earlier:
        assert not hit_later


@settings(max_examples=60, deadline=None)
@given(
    policy=policies,
    ttl=ttls,
    overstay=windows,
    stale=windows,
    probes=st.lists(times, min_size=1, max_size=20),
)
def test_every_probe_is_one_hit_or_one_miss(policy, ttl, overstay, stale, probes):
    cache = _fresh_cache(policy, overstay, stale, ttl)
    for now in sorted(probes):
        cache.get(KEY, now=now)
    stats = cache.stats
    assert stats.hits + stats.misses == stats.lookups == len(probes)
    assert stats.stale_serves <= stats.expired_hits <= stats.hits


@settings(max_examples=60, deadline=None)
@given(ttl=ttls, overstay=windows, stale=windows, now=times)
def test_serve_stale_never_exceeds_its_budget(ttl, overstay, stale, now):
    cache = _fresh_cache("serve-stale", overstay, stale, ttl)
    budget = cache.peek(KEY).stale_budget  # includes the RFC default
    lookup = cache.get(KEY, now=now)
    if lookup.stale:
        assert ttl + overstay <= now < ttl + overstay + budget
    if lookup.hit and not lookup.expired:
        assert now < ttl
    if not lookup.hit:
        assert now >= ttl + overstay + budget


@settings(max_examples=60, deadline=None)
@given(policy=policies, ttl=ttls, overstay=windows, stale=windows, now=times)
def test_purge_agrees_with_get_at_every_instant(policy, ttl, overstay, stale, now):
    # A lookup purges the entry exactly when it does not serve it.
    cache = _fresh_cache(policy, overstay, stale, ttl)
    hit = cache.get(KEY, now=now).hit
    assert (KEY not in cache) == (not hit)
