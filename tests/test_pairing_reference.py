"""Differential test: the indexed DN-Hunter pairer against a brute-force
reference implementation, over hypothesis-generated traces.

The production :class:`~repro.core.pairing.Pairer` uses per-(house,
address) indexes and binary search; the reference below is a direct
O(n·m) transcription of §4's prose. They must agree on every input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairing import Pairer
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

HOUSES = ("10.77.0.10", "10.77.0.11")
ADDRESSES = ("1.2.3.4", "5.6.7.8", "9.9.9.9")


def reference_pair(dns_records, conn):
    """Most recent non-expired lookup by conn.orig_h containing conn.resp_h;
    if all candidates are expired, the most recent one."""
    candidates = [
        record
        for record in dns_records
        if record.orig_h == conn.orig_h
        and conn.resp_h in record.addresses()
        and record.completed_at <= conn.ts
    ]
    if not candidates:
        return None
    non_expired = [
        record
        for record in candidates
        if record.expires_at is None or record.expires_at > conn.ts
    ]
    pool = non_expired if non_expired else candidates
    return max(pool, key=lambda record: (record.completed_at, pool.index(record)))


@st.composite
def answers(draw):
    """An A record from the small address pool (so one lookup may repeat
    an address), or a CNAME that only shortens the RRset's expiry."""
    ttl = draw(st.floats(min_value=0, max_value=500))
    if draw(st.integers(0, 3)) == 0:
        return DnsAnswer("edge.example.net", ttl, "CNAME")
    return DnsAnswer(draw(st.sampled_from(ADDRESSES)), ttl, "A")


@st.composite
def traces(draw):
    dns_records = []
    for i in range(draw(st.integers(0, 12))):
        ts = draw(st.floats(min_value=0, max_value=1000))
        dns_records.append(
            DnsRecord(
                ts=ts,
                uid=f"D{i}",
                orig_h=draw(st.sampled_from(HOUSES)),
                orig_p=40000,
                resp_h="8.8.8.8",
                resp_p=53,
                query=f"name{draw(st.integers(0, 3))}.example.com",
                rtt=draw(st.floats(min_value=0, max_value=0.5)),
                answers=tuple(draw(st.lists(answers(), min_size=1, max_size=3))),
            )
        )
    conns = []
    for i in range(draw(st.integers(1, 12))):
        conns.append(
            ConnRecord(
                ts=draw(st.floats(min_value=0, max_value=1500)),
                uid=f"C{i}",
                orig_h=draw(st.sampled_from(HOUSES)),
                orig_p=50000,
                resp_h=draw(st.sampled_from(ADDRESSES)),
                resp_p=443,
                proto=Proto.TCP,
                duration=1.0,
                orig_bytes=10,
                resp_bytes=100,
            )
        )
    return dns_records, conns


@given(traces())
@settings(max_examples=150)
def test_pairer_matches_brute_force(data):
    dns_records, conns = data
    paired = Pairer(dns_records).pair_all(conns)
    for item in paired:
        expected = reference_pair(dns_records, item.conn)
        if expected is None:
            assert item.dns is None
        else:
            assert item.dns is not None
            # Agreement on the chosen transaction's completion time and
            # expiry status (ties on completion time may pick either).
            assert item.dns.completed_at == expected.completed_at
            expected_expired = (
                expected.expires_at is not None and expected.expires_at <= item.conn.ts
            )
            assert item.expired_pairing == expected_expired


@given(traces())
@settings(max_examples=80)
def test_first_use_is_globally_consistent(data):
    """Exactly one connection is 'first' per used DNS transaction."""
    dns_records, conns = data
    paired = Pairer(dns_records).pair_all(conns)
    firsts = {}
    for item in paired:
        if item.dns is None:
            continue
        if item.first_use:
            assert item.dns.uid not in firsts, "two first-users of one lookup"
            firsts[item.dns.uid] = item.conn.uid
    # Every used lookup has exactly one first user.
    used = {item.dns.uid for item in paired if item.dns is not None}
    assert set(firsts) == used
