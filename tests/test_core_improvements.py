"""Tests for repro.core.improvements: §8's whole-house and refresh sims."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import Classifier, ClassifiedConnection, ConnClass
from repro.core.improvements import (
    RefreshSimulator,
    WholeHouseCacheAnalysis,
    whole_house_cache_analysis,
)
from repro.core.pairing import PairedConnection, pair_trace
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

HOUSE_A = "10.77.0.10"
HOUSE_B = "10.77.0.11"
LOCAL = "192.168.200.10"


def dns(uid, ts, address, house=HOUSE_A, rtt=0.002, ttl=300.0, query="h.example.com"):
    return DnsRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=40000, resp_h=LOCAL, resp_p=53,
        query=query, rtt=rtt, answers=(DnsAnswer(address, ttl, "A"),),
    )


def conn(uid, ts, address, house=HOUSE_A, duration=1.0):
    return ConnRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=50000, resp_h=address, resp_p=443,
        proto=Proto.TCP, duration=duration, orig_bytes=100, resp_bytes=1000,
    )


def classify(dns_records, conns):
    paired = pair_trace(dns_records, conns)
    return Classifier(dns_records).classify_all(paired)


class TestWholeHouseCache:
    def test_repeat_lookup_within_ttl_benefits(self):
        # Two devices in the same house look up the same name 60 s apart
        # (TTL 300): a whole-house cache would have served the second.
        records = [
            dns("D1", 0.0, "1.2.3.4", query="shared.example.com"),
            dns("D2", 60.0, "1.2.3.4", query="shared.example.com"),
        ]
        conns = [
            conn("C1", 0.005, "1.2.3.4"),
            conn("C2", 60.005, "1.2.3.4"),
        ]
        analysis = whole_house_cache_analysis(records, classify(records, conns))
        assert analysis.moved_conns == 1
        assert analysis.moved_fraction_of_all == pytest.approx(0.5)

    def test_repeat_after_ttl_does_not_benefit(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=30.0, query="shared.example.com"),
            dns("D2", 100.0, "1.2.3.4", ttl=30.0, query="shared.example.com"),
        ]
        conns = [conn("C1", 0.005, "1.2.3.4"), conn("C2", 100.005, "1.2.3.4")]
        analysis = whole_house_cache_analysis(records, classify(records, conns))
        assert analysis.moved_conns == 0

    def test_cross_house_lookups_do_not_benefit(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", house=HOUSE_A, query="shared.example.com"),
            dns("D2", 60.0, "1.2.3.4", house=HOUSE_B, query="shared.example.com"),
        ]
        conns = [
            conn("C1", 0.005, "1.2.3.4", house=HOUSE_A),
            conn("C2", 60.005, "1.2.3.4", house=HOUSE_B),
        ]
        analysis = whole_house_cache_analysis(records, classify(records, conns))
        assert analysis.moved_conns == 0

    def test_sc_and_r_tracked_separately(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", rtt=0.002, query="fast.example.com"),
            dns("D2", 60.0, "1.2.3.4", rtt=0.002, query="fast.example.com"),   # SC repeat
            dns("D3", 0.0, "5.6.7.8", rtt=0.2, query="slow.example.com"),
            dns("D4", 60.0, "5.6.7.8", rtt=0.2, query="slow.example.com"),     # R repeat
        ]
        conns = [
            conn("C1", 0.005, "1.2.3.4"),
            conn("C2", 60.005, "1.2.3.4"),
            conn("C3", 0.21, "5.6.7.8"),
            conn("C4", 60.21, "5.6.7.8"),
        ]
        analysis = whole_house_cache_analysis(records, classify(records, conns))
        assert analysis.sc_moved == 1
        assert analysis.r_moved == 1
        assert analysis.sc_moved_fraction == pytest.approx(0.5)
        assert analysis.r_moved_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize("age_s, moved", [(172800.0, 1), (172801.0, 0)])
    def test_scan_back_stops_after_the_first_lookup_past_48_h(self, age_s, moved):
        # D1 is still live when D3 is sent. D2, expired by then, is
        # scanned first: exactly 48 h old it does not stop the scan, and
        # older it does.
        records = [
            dns("D1", 0.0, "1.2.3.4", rtt=0.0, ttl=500000.0),
            dns("D2", 100.0, "1.2.3.4", rtt=0.0, ttl=30.0),
            dns("D3", 100.0 + age_s, "1.2.3.4", rtt=0.0),
        ]
        conns = [conn("C3", 100.005 + age_s, "1.2.3.4")]
        analysis = whole_house_cache_analysis(records, classify(records, conns))
        assert analysis.moved_conns == moved


@st.composite
def whole_house_traces(draw):
    """Shuffled lookups and the classified connections paired to them.

    Lookups tie on completion (``ts + rtt`` from different parts), some
    have no answers, names differ only in case, and TTLs reach past the
    48 h scan-back bound; connections of every class share the trace.
    """
    names = st.sampled_from(("a.example.com", "A.Example.COM", "b.example.com"))
    ttls = st.lists(st.sampled_from((0.0, 30.0, 600.0, 172800.0, 500000.0)), max_size=2)
    halves = st.sampled_from((0.0, 0.5))
    records = []
    # Bursts of lookups from one house at one base time, so that
    # completions often tie.
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        base = draw(st.sampled_from((0.0, 600.0, 172800.0, 180000.0)))
        house = draw(st.sampled_from((HOUSE_A, HOUSE_B)))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            records.append(DnsRecord(
                ts=base + draw(halves), uid=f"D{len(records)}", orig_h=house, orig_p=40000,
                resp_h=LOCAL, resp_p=53, query=draw(names), rtt=draw(halves),
                answers=tuple(DnsAnswer("1.2.3.4", ttl) for ttl in draw(ttls)),
            ))
    records = draw(st.permutations(records))
    classified = []
    for index, record in enumerate(records):
        conn_class = draw(st.sampled_from((None, *ConnClass)))
        if conn_class is None:
            continue
        lookup = None if conn_class == ConnClass.NO_DNS else record
        pairing = PairedConnection(
            conn(f"C{index}", record.completed_at + 0.01, "1.2.3.4", house=record.orig_h),
            lookup, candidates=1, expired_pairing=False, first_use=True,
        )
        platform = None if lookup is None else "local"
        classified.append(ClassifiedConnection(pairing, conn_class, platform))
    return records, classified


def _whole_house_by_brute_force(records, classified):
    """§8's rule with no index: a blocked connection moves when a lookup
    of its lookup's house and folded name that completed before its
    lookup was sent is still live then, scanning those lookups newest
    first (completion ties in input order) and stopping after the first
    one more than 48 h old."""
    counts = {ConnClass.SHARED_CACHE: [0, 0], ConnClass.RESOLUTION: [0, 0]}
    for item in classified:
        if item.conn_class not in counts:
            continue
        lookup, hit = item.dns, False
        earlier = sorted(
            (
                record for record in records
                if record.orig_h == lookup.orig_h
                and record.query.lower() == lookup.query.lower()
                and record.completed_at < lookup.ts
            ),
            key=lambda record: record.completed_at,
        )
        for record in reversed(earlier):
            if record.answers and record.completed_at + record.min_ttl() > lookup.ts:
                hit = True
                break
            if lookup.ts - record.completed_at > 48 * 3600:
                break
        counts[item.conn_class][0] += 1
        counts[item.conn_class][1] += hit
    (sc_conns, sc_moved), (r_conns, r_moved) = counts.values()
    return WholeHouseCacheAnalysis(
        total_conns=len(classified), moved_conns=sc_moved + r_moved, sc_conns=sc_conns,
        sc_moved=sc_moved, r_conns=r_conns, r_moved=r_moved,
    )


@settings(max_examples=300, deadline=None)
@given(whole_house_traces())
def test_whole_house_matches_its_rule_by_brute_force(trace):
    records, classified = trace
    assert whole_house_cache_analysis(records, classified) == (
        _whole_house_by_brute_force(records, classified)
    )


class TestRefreshSimulator:
    def _simulator(self, ttl=100.0, polls=10, period=150.0, ttl_floor=10.0):
        """One name polled repeatedly; period > ttl means every poll misses."""
        records = [dns("D0", 0.0, "1.2.3.4", ttl=ttl, query="api.example.com")]
        conns = [conn("C0", 0.005, "1.2.3.4")]
        for i in range(1, polls):
            ts = period * i
            records.append(dns(f"D{i}", ts, "1.2.3.4", ttl=ttl, query="api.example.com"))
            conns.append(conn(f"C{i}", ts + 0.005, "1.2.3.4"))
        classified = classify(records, conns)
        return RefreshSimulator(records, classified, ttl_floor_s=ttl_floor, houses=1)

    def test_standard_cache_misses_when_period_exceeds_ttl(self):
        simulator = self._simulator(ttl=100.0, period=150.0, polls=10)
        result = simulator.run_standard()
        assert result.conns == 10
        assert result.hit_rate == 0.0
        assert result.lookups == 10

    def test_standard_cache_hits_within_ttl(self):
        simulator = self._simulator(ttl=1000.0, period=150.0, polls=10)
        result = simulator.run_standard()
        # First use misses, the rest fit inside one TTL window... the
        # window covers events up to t=1000, i.e. polls 1..6.
        assert result.lookups == 2
        assert result.hit_rate == pytest.approx(8 / 10)

    def test_refresh_all_hits_everything_after_first(self):
        simulator = self._simulator(ttl=100.0, period=150.0, polls=10)
        result = simulator.run_refresh_all()
        assert result.hit_rate == pytest.approx(9 / 10)
        # One initial fetch plus one refresh per TTL until the horizon:
        # horizon = 1350.005, ttl = 100 -> 13 refreshes.
        assert result.lookups == 1 + 13

    def test_refresh_respects_ttl_floor(self):
        simulator = self._simulator(ttl=5.0, period=150.0, polls=10, ttl_floor=10.0)
        refresh = simulator.run_refresh_all()
        standard = simulator.run_standard()
        # TTL below the floor: never refreshed, behaves like standard.
        assert refresh.lookups == standard.lookups
        assert refresh.hit_rate == standard.hit_rate

    def test_comparison_blowup(self):
        simulator = self._simulator(ttl=100.0, period=150.0, polls=10)
        comparison = simulator.compare()
        assert comparison.refresh_all.hit_rate > comparison.standard.hit_rate
        assert comparison.lookup_blowup == pytest.approx(14 / 10)

    def test_lookups_per_second_per_house(self):
        simulator = self._simulator(ttl=100.0, period=150.0, polls=10)
        result = simulator.run_standard()
        duration = 150.0 * 9
        assert result.lookups_per_second_per_house == pytest.approx(10 / duration, rel=0.01)

    def test_n_class_excluded(self):
        records = [dns("D0", 0.0, "1.2.3.4")]
        conns = [conn("C0", 0.005, "1.2.3.4"), conn("CN", 10.0, "99.99.99.99")]
        classified = classify(records, conns)
        simulator = RefreshSimulator(records, classified, houses=1)
        assert simulator.run_standard().conns == 1

    def test_negative_floor_rejected(self):
        with pytest.raises(AnalysisError):
            RefreshSimulator([], [], ttl_floor_s=-1.0)

    def test_auth_ttl_is_max_observed(self):
        records = [
            dns("D0", 0.0, "1.2.3.4", ttl=50.0, query="api.example.com"),
            dns("D1", 200.0, "1.2.3.4", ttl=500.0, query="api.example.com"),
        ]
        conns = [conn("C0", 0.005, "1.2.3.4"), conn("C1", 200.005, "1.2.3.4")]
        simulator = RefreshSimulator(records, classify(records, conns), houses=1)
        assert simulator.auth_ttl["api.example.com"] == 500.0
