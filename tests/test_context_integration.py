"""Integration tests: the full pipeline over a synthetic scenario.

These run the complete path the benchmarks rely on — generate a (small)
trace, run every analysis, and check structural invariants plus loose
shape properties. Tight paper-value comparisons live in benchmarks/.
"""

import io

import pytest

from repro.core.classify import ConnClass
from repro.core.context import ContextStudy, StudyOptions
from repro.core.pairing import PairingPolicy
from repro.errors import AnalysisError
from repro.monitor.capture import Trace
from repro.monitor.logs import parse_lines, write_conn_log, write_dns_log
from repro.workload.scenario import smoke_scenario


@pytest.fixture(scope="module")
def study():
    return ContextStudy.from_scenario(smoke_scenario(seed=42))


class TestPipeline:
    def test_every_connection_classified(self, study):
        assert len(study.classified) == len(study.trace.conns)

    def test_breakdown_shares_sum_to_one(self, study):
        total = sum(study.breakdown.share(cls) for cls in ConnClass)
        assert total == pytest.approx(1.0)

    def test_all_classes_occur(self, study):
        for cls in ConnClass:
            assert study.breakdown.counts.get(cls, 0) > 0, f"class {cls} absent"

    def test_blocked_conns_have_small_gaps(self, study):
        for item in study.classified:
            if item.is_blocked:
                assert item.gap is not None and item.gap <= 0.1

    def test_unblocked_paired_conns_have_large_gaps(self, study):
        for item in study.classified:
            if item.conn_class in (ConnClass.LOCAL_CACHE, ConnClass.PREFETCHED):
                assert item.gap is not None and item.gap > 0.1

    def test_sc_faster_than_r(self, study):
        sc = [i.lookup_duration for i in study.classified if i.conn_class == ConnClass.SHARED_CACHE]
        r = [i.lookup_duration for i in study.classified if i.conn_class == ConnClass.RESOLUTION]
        assert sorted(sc)[len(sc) // 2] < sorted(r)[len(r) // 2]

    def test_gap_analysis(self, study):
        analysis = study.gap_analysis()
        assert analysis.first_use_below_knee > analysis.first_use_above_knee
        assert 0.2 < analysis.blocked_fraction() < 0.7

    def test_lookup_delays_positive(self, study):
        delays = study.lookup_delays()
        assert 0.0 < delays.median < 0.2

    def test_quadrant_consistency(self, study):
        quadrant = study.significance_quadrant()
        cells = (
            quadrant.insignificant_both
            + quadrant.relative_only
            + quadrant.absolute_only
            + quadrant.significant_both
        )
        assert cells == pytest.approx(1.0)
        assert quadrant.significant_of_all <= quadrant.significant_both

    def test_resolver_usage_fractions(self, study):
        rows = study.resolver_usage()
        assert rows
        assert sum(row.lookup_fraction for row in rows) <= 1.0 + 1e-9
        for row in rows:
            assert 0.0 <= row.house_fraction <= 1.0

    def test_hit_rates_in_range(self, study):
        for platform, rate in study.hit_rates().items():
            assert 0.0 <= rate <= 1.0, platform

    def test_throughput_positive(self, study):
        throughput = study.throughput()
        for platform, cdf in throughput.cdfs.items():
            assert cdf.median > 0, platform

    def test_whole_house_bounds(self, study):
        analysis = study.whole_house()
        assert 0.0 <= analysis.moved_fraction_of_all <= 1.0
        assert analysis.moved_conns <= analysis.sc_conns + analysis.r_conns

    def test_refresh_improves_hit_rate(self, study):
        comparison = study.refresh()
        assert comparison.refresh_all.hit_rate > comparison.standard.hit_rate
        assert comparison.refresh_all.lookups > comparison.standard.lookups

    def test_validation_against_truth(self, study):
        result = study.validate_against_truth()
        # The heuristics should agree with simulated truth most of the time
        # (the paper itself estimates ~91%/79% separability).
        assert result["agreement"] > 0.75
        assert result["total"] == len(study.trace.conns)

    def test_summary_renders(self, study):
        text = study.summary()
        assert "Local Cache" in text
        assert "significant DNS cost" in text

    def test_classification_table_contains_all_rows(self, study):
        table = study.classification_table()
        for label in ("N", "LC", "P", "SC", "R"):
            assert label in table


class TestAlternatePolicies:
    def test_random_pairing_policy_close_to_default(self, study):
        options = StudyOptions(pairing_policy=PairingPolicy.RANDOM_NON_EXPIRED, pairing_seed=3)
        alternate = ContextStudy(study.trace, options)
        default_breakdown = study.breakdown
        random_breakdown = alternate.breakdown
        # §4: the random-candidate robustness check should shift class
        # shares only slightly.
        for cls in ConnClass:
            assert abs(default_breakdown.share(cls) - random_breakdown.share(cls)) < 0.05

    def test_threshold_sweep_monotone(self, study):
        # A larger blocking threshold can only move connections into the
        # blocked classes (footnote 5 of the paper).
        small = study.gap_analysis(blocking_threshold=0.02).blocked_fraction()
        large = study.gap_analysis(blocking_threshold=0.5).blocked_fraction()
        assert small <= large


class TestLogRoundtrip:
    def test_study_from_logs_matches_in_memory(self, study, tmp_path):
        dns_buffer = io.StringIO()
        conn_buffer = io.StringIO()
        write_dns_log(dns_buffer, study.trace.dns)
        write_conn_log(conn_buffer, study.trace.conns)
        dns_buffer.seek(0)
        conn_buffer.seek(0)
        trace = Trace(
            dns=list(parse_lines(dns_buffer, "dns")),
            conns=list(parse_lines(conn_buffer, "conn")),
        )
        trace.sort()
        reloaded = ContextStudy(trace)
        for cls in ConnClass:
            assert reloaded.breakdown.counts.get(cls, 0) == study.breakdown.counts.get(cls, 0)

    def test_from_logs_files(self, study, tmp_path):
        from repro.monitor.logs import save_conn_log, save_dns_log

        dns_path = str(tmp_path / "dns.log")
        conn_path = str(tmp_path / "conn.log")
        save_dns_log(dns_path, study.trace.dns)
        save_conn_log(conn_path, study.trace.conns)
        loaded = ContextStudy.from_logs(dns_path, conn_path)
        assert len(loaded.trace.conns) == len(study.trace.conns)


class TestErrors:
    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            ContextStudy(Trace())

    def test_truth_validation_requires_annotations(self, study, tmp_path):
        trace = Trace(dns=list(study.trace.dns), conns=list(study.trace.conns))
        bare = ContextStudy(trace)
        with pytest.raises(AnalysisError):
            bare.validate_against_truth()


class TestJsonLogPath:
    def test_from_json_logs(self, study, tmp_path):
        from repro.monitor.json_logs import write_conn_json, write_dns_json

        dns_path = str(tmp_path / "dns.json.log")
        conn_path = str(tmp_path / "conn.json.log")
        with open(dns_path, "w", encoding="utf-8") as stream:
            write_dns_json(stream, study.trace.dns)
        with open(conn_path, "w", encoding="utf-8") as stream:
            write_conn_json(stream, study.trace.conns)
        loaded = ContextStudy.from_logs(dns_path, conn_path)
        for cls in ConnClass:
            assert loaded.breakdown.counts.get(cls, 0) == study.breakdown.counts.get(cls, 0)

    def test_population_summary(self, study):
        stats = study.population()
        assert stats.conns == len(study.trace.conns)
        assert stats.houses == 6
        assert "DNS transactions" in stats.summary()
