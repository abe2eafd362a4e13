"""Property-based tests: wire-codec roundtrips over arbitrary messages,
and model-based testing of the DNS cache against a reference model."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dns.cache import EVICTION_POLICIES, CacheStats, DnsCache, cache_key
from repro.dns.message import Flags, Message, Opcode, Question, Rcode
from repro.dns.name import DomainName
from repro.dns.rr import (
    MXRecordData,
    NameRecordData,
    ResourceRecord,
    RRClass,
    RRType,
    SRVRecordData,
    TXTRecordData,
    a_record,
    aaaa_record,
)
from repro.dns.wire import decode_message, encode_message

LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"

labels = st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=12)
names = st.lists(labels, min_size=1, max_size=4).map(DomainName.from_labels)
ttls = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def address_records(draw):
    name = draw(names)
    ttl = draw(ttls)
    if draw(st.booleans()):
        octets = draw(st.tuples(*[st.integers(0, 255)] * 4))
        return a_record(name, ".".join(map(str, octets)), ttl)
    pieces = draw(st.tuples(*[st.integers(0, 0xFFFF)] * 8))
    return aaaa_record(name, ":".join(f"{p:x}" for p in pieces), ttl)


@st.composite
def name_records(draw):
    rtype = draw(st.sampled_from([RRType.CNAME, RRType.NS, RRType.PTR]))
    return ResourceRecord(draw(names), rtype, NameRecordData(draw(names)), draw(ttls))


@st.composite
def mx_records(draw):
    return ResourceRecord(
        draw(names),
        RRType.MX,
        MXRecordData(draw(st.integers(0, 0xFFFF)), draw(names)),
        draw(ttls),
    )


@st.composite
def txt_records(draw):
    strings = draw(st.lists(st.binary(min_size=0, max_size=60), min_size=1, max_size=3))
    return ResourceRecord(draw(names), RRType.TXT, TXTRecordData(tuple(strings)), draw(ttls))


@st.composite
def srv_records(draw):
    return ResourceRecord(
        draw(names),
        RRType.SRV,
        SRVRecordData(
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(names),
        ),
        draw(ttls),
    )


records = st.one_of(address_records(), name_records(), mx_records(), txt_records(), srv_records())


@st.composite
def messages(draw):
    flags = Flags(
        qr=draw(st.booleans()),
        opcode=draw(st.sampled_from(list(Opcode))),
        aa=draw(st.booleans()),
        tc=draw(st.booleans()),
        rd=draw(st.booleans()),
        ra=draw(st.booleans()),
        rcode=draw(st.sampled_from(list(Rcode))),
    )
    questions = tuple(
        Question(draw(names), draw(st.sampled_from([RRType.A, RRType.AAAA, RRType.ANY])))
        for _ in range(draw(st.integers(0, 2)))
    )
    return Message(
        msg_id=draw(st.integers(0, 0xFFFF)),
        flags=flags,
        questions=questions,
        answers=tuple(draw(st.lists(records, max_size=4))),
        authorities=tuple(draw(st.lists(records, max_size=2))),
        additionals=tuple(draw(st.lists(records, max_size=2))),
    )


@given(messages())
@settings(max_examples=120)
def test_wire_roundtrip_arbitrary_messages(message):
    """encode -> decode is the identity (names fold case on compare)."""
    back = decode_message(encode_message(message))
    assert back.msg_id == message.msg_id
    assert back.flags == message.flags
    assert back.questions == message.questions
    assert back.answers == message.answers
    assert back.authorities == message.authorities
    assert back.additionals == message.additionals


@given(messages())
@settings(max_examples=60)
def test_wire_encoding_is_deterministic(message):
    assert encode_message(message) == encode_message(message)


@given(messages())
@settings(max_examples=60)
def test_compressed_never_longer_than_naive(message):
    """Compression only ever helps: each name costs at most its full form."""
    wire = encode_message(message)
    naive = 12
    for question in message.questions:
        naive += question.qname.wire_length() + 4
    for section in (message.answers, message.authorities, message.additionals):
        for rr in section:
            # owner + fixed header + generous uncompressed-RDATA bound
            naive += rr.name.wire_length() + 10
            naive += 512
    assert len(wire) <= naive


CACHE_CAPACITY = 4
CACHE_NAMES = [f"name{i}.example.com" for i in range(10)]
CACHE_KEYS = [cache_key(name) for name in CACHE_NAMES]
cache_windows = st.lists(
    st.floats(min_value=0, max_value=60), min_size=len(CACHE_KEYS), max_size=len(CACHE_KEYS)
)


class CacheModel(RuleBasedStateMachine):
    """Model-based test: DnsCache against a reference that evicts.

    Every step drives one cache per policy in :data:`EVICTION_POLICIES`,
    all with the same per-name overstays and staleness budgets. More
    names than capacity keep them evicting. Per policy, the reference
    holds each entry's deadlines, derived in the documented association,
    in LRU order and applies the policy's victim rule itself, walking
    every entry on every eviction, so it predicts membership, LRU order,
    every lookup's outcome and every counter exactly. It keeps none of
    the cache's eviction bounds, so a bound that stopped being a lower
    bound would pick a different victim.
    """

    @initialize(overstays=cache_windows, budgets=cache_windows)
    def build(self, overstays, budgets):
        self.overstays = dict(zip(CACHE_KEYS, overstays))
        self.budgets = dict(zip(CACHE_KEYS, budgets))
        self.caches = {
            policy: DnsCache(
                capacity=CACHE_CAPACITY,
                overstay=self.overstays.__getitem__,
                policy=policy,
                stale_ttl_s=self.budgets.__getitem__,
            )
            for policy in EVICTION_POLICIES
        }
        #: Per policy: key -> (expires_at, servable_until, dead_at), least
        #: recent first.
        self.references = {policy: {} for policy in EVICTION_POLICIES}
        #: Per policy: the keys whose entry was used since it was stored.
        self.used = {policy: set() for policy in EVICTION_POLICIES}
        self.expected = {policy: CacheStats() for policy in EVICTION_POLICIES}
        self.clock = 0.0

    def _budget(self, policy, key) -> float:
        return self.budgets[key] if policy == "serve-stale" else 0.0

    def _victim(self, policy, now):
        """The victim at *now*, found by walking every entry each time."""
        order = self.references[policy]
        if policy == "ttl-aware":
            return min(order, key=lambda key: order[key][0])
        if policy == "serve-stale":
            for key, (_, _, dead_at) in order.items():
                if now >= dead_at:
                    return key
            for key, (_, servable_until, _) in order.items():
                if now >= servable_until:
                    return key
        return next(iter(order))

    def _drop_dead(self, policy, key) -> None:
        del self.references[policy][key]
        if self._budget(policy, key) > 0.0:
            self.expected[policy].stale_expirations += 1

    def _lookup(self, policy, key) -> tuple[bool, bool, bool, bool]:
        """The reference's ``(hit, expired, stale, first_use)`` for a lookup now."""
        order = self.references[policy]
        expected = self.expected[policy]
        deadlines = order.get(key)
        if deadlines is not None and self.clock >= deadlines[2]:
            self._drop_dead(policy, key)
            deadlines = None
        if deadlines is None:
            expected.misses += 1
            return (False, False, False, False)
        order[key] = order.pop(key)  # now the most recently used
        expires_at, servable_until, _ = deadlines
        expired = self.clock >= expires_at
        stale = self.clock >= servable_until
        expected.hits += 1
        expected.expired_hits += expired
        expected.stale_serves += stale
        first_use = key not in self.used[policy]
        self.used[policy].add(key)
        return (True, expired, stale, first_use)

    # A put may be stamped earlier than the clock, as the stub stores an
    # answer at its completion time, which can be later than lookups
    # that follow it: the victim rule then applies at the stamp.
    @rule(
        which=st.integers(0, len(CACHE_KEYS) - 1),
        ttl=st.integers(1, 100),
        advance=st.floats(0, 50),
        lag=st.just(0.0) | st.floats(0, 50),
    )
    def put(self, which, ttl, advance, lag):
        self.clock += advance
        stamp = self.clock - lag
        key = CACHE_KEYS[which]
        rrset = (a_record(CACHE_NAMES[which], "10.0.0.1", ttl),)
        expires_at = stamp + float(ttl)
        servable_until = expires_at + self.overstays[key]
        for policy, cache in self.caches.items():
            cache.put(key, rrset, stamp)
            order = self.references[policy]
            order.pop(key, None)
            self.used[policy].discard(key)
            order[key] = (
                expires_at,
                servable_until,
                servable_until + self._budget(policy, key),
            )
            while len(order) > CACHE_CAPACITY:
                del order[self._victim(policy, stamp)]
                self.expected[policy].evictions += 1

    # One rule for every use of an entry: the two views of the lookup
    # step, and mark_used, which sets the first-use flag alone.
    @rule(
        which=st.integers(0, len(CACHE_KEYS) - 1),
        advance=st.floats(0, 50),
        accessor=st.sampled_from(("get", "probe", "mark_used")),
    )
    def observe(self, which, advance, accessor):
        self.clock += advance
        key = CACHE_KEYS[which]
        for policy, cache in self.caches.items():
            if accessor == "mark_used":
                cache.mark_used(key)
                if key in self.references[policy]:
                    self.used[policy].add(key)
            elif accessor == "probe":
                assert cache.probe(key, self.clock) == self._lookup(policy, key)[:2]
            else:
                found = cache.get(key, self.clock)
                looked_up = (found.hit, found.expired, found.stale, found.first_use)
                assert looked_up == self._lookup(policy, key)

    @invariant()
    def lru_order_matches(self):
        for policy, cache in self.caches.items():
            assert [entry.key for entry in cache.entries()] == list(self.references[policy])

    @invariant()
    def stats_match(self):
        for policy, cache in self.caches.items():
            assert cache.stats == self.expected[policy]


TestCacheModel = CacheModel.TestCase
TestCacheModel.settings = settings(max_examples=60, stateful_step_count=30)
