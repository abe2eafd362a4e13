"""Tests for repro.core.blocking and repro.core.classify."""

import pytest

from repro.core.blocking import analyze_gaps, is_blocked
from repro.core.classify import (
    ClassifierConfig,
    Classifier,
    ConnClass,
    ThresholdPolicy,
    class_breakdown,
)
from repro.core.pairing import pair_trace
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

HOUSE = "10.77.0.10"
LOCAL_RESOLVER = "192.168.200.10"


def dns(uid, ts, address, rtt=0.002, resolver=LOCAL_RESOLVER, ttl=300.0, query="h.example.com"):
    return DnsRecord(
        ts=ts, uid=uid, orig_h=HOUSE, orig_p=40000, resp_h=resolver, resp_p=53,
        query=query, rtt=rtt, answers=(DnsAnswer(address, ttl, "A"),),
    )


def conn(uid, ts, address, duration=1.0):
    return ConnRecord(
        ts=ts, uid=uid, orig_h=HOUSE, orig_p=50000, resp_h=address, resp_p=443,
        proto=Proto.TCP, duration=duration, orig_bytes=100, resp_bytes=1000,
    )


def classify(dns_records, conns, config=None):
    paired = pair_trace(dns_records, conns)
    return Classifier(dns_records, config).classify_all(paired)


class TestThresholds:
    def test_derive_rounds_up_to_grid(self):
        policy = ThresholdPolicy(multiplier=1.5, grid=0.005)
        # The paper's example: ~2 ms minimum RTT -> 5 ms threshold.
        assert policy.derive(0.002) == pytest.approx(0.005)
        assert policy.derive(0.009) == pytest.approx(0.015)
        assert policy.derive(0.019) == pytest.approx(0.030)

    def test_derive_floor_is_grid(self):
        assert ThresholdPolicy().derive(0.0001) == pytest.approx(0.005)

    def test_negative_duration_rejected(self):
        with pytest.raises(AnalysisError):
            ThresholdPolicy().derive(-0.1)

    def test_per_resolver_thresholds(self):
        records = [dns(f"D{i}", float(i), "1.2.3.4", rtt=0.002 + 0.0001 * i) for i in range(250)]
        records += [dns(f"E{i}", float(i), "5.6.7.8", rtt=0.02, resolver="8.8.8.8") for i in range(250)]
        config = ClassifierConfig(threshold_policy=ThresholdPolicy(min_lookups=200))
        thresholds = Classifier(records, config).thresholds
        assert thresholds[LOCAL_RESOLVER] == pytest.approx(0.005)
        assert thresholds["8.8.8.8"] == pytest.approx(0.030)

    def test_sparse_resolver_gets_default(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.05, resolver="9.9.9.9")]
        config = ClassifierConfig(threshold_policy=ThresholdPolicy())
        thresholds = Classifier(records, config).thresholds
        assert thresholds["9.9.9.9"] == pytest.approx(0.005)


class TestClassification:
    def test_no_dns_class(self):
        classified = classify([dns("D1", 0.0, "9.9.9.9")], [conn("C1", 10.0, "1.2.3.4")])
        assert classified[0].conn_class == ConnClass.NO_DNS
        assert classified[0].resolver_platform is None
        assert classified[0].lookup_duration is None

    def test_blocked_fast_lookup_is_shared_cache(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.002)]
        classified = classify(records, [conn("C1", 0.005, "1.2.3.4")])
        assert classified[0].conn_class == ConnClass.SHARED_CACHE
        assert classified[0].is_blocked

    def test_blocked_slow_lookup_requires_resolution(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.080)]
        classified = classify(records, [conn("C1", 0.085, "1.2.3.4")])
        assert classified[0].conn_class == ConnClass.RESOLUTION

    def test_first_use_late_start_is_prefetched(self):
        records = [dns("D1", 0.0, "1.2.3.4")]
        classified = classify(records, [conn("C1", 60.0, "1.2.3.4")])
        assert classified[0].conn_class == ConnClass.PREFETCHED
        assert not classified[0].is_blocked

    def test_reuse_late_start_is_local_cache(self):
        records = [dns("D1", 0.0, "1.2.3.4")]
        conns = [conn("C1", 0.005, "1.2.3.4"), conn("C2", 60.0, "1.2.3.4")]
        classified = classify(records, conns)
        assert classified[1].conn_class == ConnClass.LOCAL_CACHE

    def test_blocking_threshold_boundary(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.0)]
        conns = [conn("C1", 0.100, "1.2.3.4"), conn("C2", 0.101, "1.2.3.4")]
        classified = classify(records, conns)
        assert classified[0].is_blocked  # exactly at 100 ms counts as blocked
        assert not classified[1].is_blocked

    def test_expired_pairing_flag_propagates(self):
        records = [dns("D1", 0.0, "1.2.3.4", ttl=10.0)]
        classified = classify(records, [conn("C1", 500.0, "1.2.3.4")])
        assert classified[0].used_expired_record
        assert classified[0].conn_class == ConnClass.PREFETCHED

    def test_platform_resolution(self):
        records = [dns("D1", 0.0, "1.2.3.4", resolver="1.1.1.1")]
        classified = classify(records, [conn("C1", 0.01, "1.2.3.4")])
        assert classified[0].resolver_platform == "cloudflare"

    def test_unknown_resolver_platform_is_other(self):
        records = [dns("D1", 0.0, "1.2.3.4", resolver="203.0.113.53")]
        classified = classify(records, [conn("C1", 0.01, "1.2.3.4")])
        assert classified[0].resolver_platform == "other"

    def test_custom_resolver_names(self):
        config = ClassifierConfig(resolver_names={"203.0.113.53": "campus"})
        records = [dns("D1", 0.0, "1.2.3.4", resolver="203.0.113.53")]
        classified = classify(records, [conn("C1", 0.01, "1.2.3.4")], config)
        assert classified[0].resolver_platform == "campus"


class TestBreakdown:
    def test_breakdown_counts_and_shares(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.002)]
        conns = [
            conn("C1", 0.005, "1.2.3.4"),   # SC
            conn("C2", 60.0, "1.2.3.4"),    # LC
            conn("C3", 70.0, "9.9.9.9"),    # N
        ]
        breakdown = class_breakdown(classify(records, conns))
        assert breakdown.total == 3
        assert breakdown.share(ConnClass.SHARED_CACHE) == pytest.approx(1 / 3)
        assert breakdown.blocked_fraction() == pytest.approx(1 / 3)
        assert breakdown.shared_cache_hit_rate() == pytest.approx(1.0)

    def test_breakdown_rows_in_table2_order(self):
        breakdown = class_breakdown([])
        rows = breakdown.as_rows()
        assert [row[0] for row in rows] == ["N", "LC", "P", "SC", "R"]

    def test_empty_breakdown(self):
        breakdown = class_breakdown([])
        assert breakdown.total == 0
        assert breakdown.share(ConnClass.NO_DNS) == 0.0
        assert breakdown.shared_cache_hit_rate() == 0.0


class TestGapAnalysis:
    def _paired(self):
        records = [dns(f"D{i}", 10.0 * i, "1.2.3.4", ttl=1e6) for i in range(40)]
        conns = []
        # Blocked population: starts ~2 ms after each lookup.
        for i in range(40):
            conns.append(conn(f"B{i}", 10.0 * i + 0.002 + 0.002, "1.2.3.4"))
        # Unblocked population: starts seconds later.
        for i in range(40):
            conns.append(conn(f"U{i}", 10.0 * i + 5.0, "1.2.3.4"))
        return pair_trace(records, conns)

    def test_gap_analysis_shape(self):
        analysis = analyze_gaps(self._paired())
        assert 0.0005 < analysis.knee < 1.0
        assert 0.0 <= analysis.blocked_fraction() <= 1.0
        # Roughly half the connections are blocked in this construction.
        assert analysis.blocked_fraction() == pytest.approx(0.5, abs=0.1)

    def test_first_use_separation(self):
        analysis = analyze_gaps(self._paired())
        assert analysis.first_use_below_knee > analysis.first_use_above_knee

    def test_series_is_monotone(self):
        analysis = analyze_gaps(self._paired())
        series = analysis.series(50)
        ys = [y for _, y in series]
        assert ys == sorted(ys)

    def test_is_blocked_helper(self):
        paired = self._paired()
        blocked = [p for p in paired if is_blocked(p)]
        assert 30 <= len(blocked) <= 50

    def test_requires_pairs(self):
        with pytest.raises(AnalysisError):
            analyze_gaps([])

    def test_invalid_threshold(self):
        with pytest.raises(AnalysisError):
            analyze_gaps(self._paired(), blocking_threshold=0.0)
