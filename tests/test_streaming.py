"""Unit tests for the one-pass streaming engine.

Covers the event-time merge (:func:`stream_trace`), the analyzer's
drain/finalize lifecycle, the mergeable-state algebra, and — the
regression satellite — agreement between the incremental
``offer()/drain_expired()`` pairing API and the batch ``pair_all``
wrapper on expired-pairing ambiguity cases, where eviction compaction
must preserve the batch fallback choice.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import trace_streams

from repro.core.classify import ClassifierConfig
from repro.core.context import ContextStudy, StudyOptions
from repro.core.pairing import DnsIndex, Pairer, PairingPolicy, pair_trace
from repro.core.parallel import run_streaming_summary
from repro.core.streaming import (
    StreamingAnalyzer,
    StreamingConfig,
    StreamingState,
    analyze_stream,
    finalize_result,
    finalize_summary,
    stream_trace,
)
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto
from repro.report.tables import render_streaming_summary
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig


def dns(ts, uid, house="10.0.0.1", server="93.184.216.34", rtt=0.01, ttl=60.0, rcode="NOERROR"):
    answers = (DnsAnswer(data=server, ttl=ttl),) if rcode == "NOERROR" else ()
    return DnsRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=40000, resp_h="8.8.8.8", resp_p=53,
        query=f"{uid}.example.com", rcode=rcode, rtt=rtt, answers=answers,
    )


def conn(ts, uid, house="10.0.0.1", server="93.184.216.34", duration=1.0):
    return ConnRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=50000, resp_h=server, resp_p=443,
        proto=Proto.TCP, duration=duration,
    )


class TestStreamTrace:
    def test_orders_by_event_time_dns_first_on_ties(self):
        # DNS completes at 10.0 + 0.5 = 10.5; conn starts at 10.5 too.
        records = [dns(10.0, "d1", rtt=0.5)]
        conns = [conn(10.5, "c1")]
        events = list(stream_trace(records, conns))
        assert [kind for kind, _ in events] == ["dns", "conn"]

    def test_reorders_in_flight_completions(self):
        # d1 starts first but completes after d2: completion order wins.
        records = [dns(1.0, "d1", rtt=5.0), dns(2.0, "d2", rtt=0.1)]
        events = list(stream_trace(records, []))
        assert [record.uid for _, record in events] == ["d2", "d1"]

    def test_conn_between_completions(self):
        records = [dns(1.0, "d1", rtt=5.0), dns(2.0, "d2", rtt=0.1)]
        conns = [conn(3.0, "c1")]
        kinds = [
            (kind, record.uid) for kind, record in stream_trace(records, conns)
        ]
        assert kinds == [("dns", "d2"), ("conn", "c1"), ("dns", "d1")]

    def test_rejects_unsorted_dns(self):
        records = [dns(5.0, "d1"), dns(1.0, "d2")]
        with pytest.raises(AnalysisError, match="not time-ordered"):
            list(stream_trace(records, []))

    def test_rejects_unsorted_conns(self):
        conns = [conn(5.0, "c1"), conn(1.0, "c2")]
        with pytest.raises(AnalysisError, match="not time-ordered"):
            list(stream_trace([], conns))

    def test_empty_streams(self):
        assert list(stream_trace([], [])) == []


class TestConfigValidation:
    def test_rejects_nonpositive_drain_interval(self):
        with pytest.raises(AnalysisError):
            StreamingConfig(drain_interval_s=0.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(AnalysisError):
            StreamingConfig(window_s=-1.0)

    def test_rejects_nonpositive_blocking_threshold(self):
        with pytest.raises(AnalysisError):
            StreamingConfig(
                options=StudyOptions(classifier=ClassifierConfig(blocking_threshold=0.0))
            )


class TestFinalizeContracts:
    def test_exact_state_rejects_summary_finalize(self):
        state = analyze_stream([], [conn(1.0, "c1")], StreamingConfig(exact=True))
        with pytest.raises(AnalysisError, match="exact=False"):
            finalize_summary(state, StreamingConfig(exact=True))

    def test_sketch_state_rejects_exact_finalize(self):
        config = StreamingConfig(exact=False)
        state = analyze_stream([], [conn(1.0, "c1")], config)
        with pytest.raises(AnalysisError, match="exact=True"):
            finalize_result(state, config)

    def test_empty_stream_has_nothing_to_analyse(self):
        config = StreamingConfig()
        with pytest.raises(AnalysisError, match="no connections"):
            finalize_result(analyze_stream([], [], config), config)

    def test_unpaired_only_stream_cannot_analyse_gaps(self):
        config = StreamingConfig()
        state = analyze_stream([], [conn(1.0, "c1")], config)
        with pytest.raises(AnalysisError, match="cannot analyse gaps"):
            finalize_result(state, config)

    def test_finish_is_idempotent(self):
        analyzer = StreamingAnalyzer(StreamingConfig())
        analyzer.offer_dns(dns(1.0, "d1"))
        first = analyzer.finish().unused_lookups
        assert analyzer.finish().unused_lookups == first == 1


class TestStateMerge:
    def test_merge_rejects_empty(self):
        with pytest.raises(AnalysisError):
            StreamingState.merge([])

    def test_merge_rejects_mixed_modes(self):
        with pytest.raises(AnalysisError, match="exact and sketch"):
            StreamingState.merge([StreamingState(exact=True), StreamingState(exact=False)])

    def test_merge_adds_counters_and_concatenates_buffers(self):
        config = StreamingConfig()
        left = analyze_stream(
            [dns(1.0, "d1")], [conn(2.0, "c1")], config
        )
        right = analyze_stream(
            [dns(1.0, "d2", house="10.0.0.2")],
            [conn(2.0, "c2", house="10.0.0.2")],
            config,
        )
        merged = StreamingState.merge([left, right])
        assert merged.total_conns == left.total_conns + right.total_conns
        assert merged.gaps == left.gaps + right.gaps
        assert merged.unused_lookups == left.unused_lookups + right.unused_lookups
        assert merged.peak_live_records == max(
            left.peak_live_records, right.peak_live_records
        )


class TestIncrementalPairingRegression:
    """offer()/drain_expired() must agree with pair_all — including on
    the ambiguity cases eviction compaction could plausibly corrupt."""

    def expired_ambiguity_records(self):
        # Two candidates for the same key, both expired by conn time;
        # batch falls back to the most recent (d2). A third, different
        # key's candidate also expires to exercise unrelated eviction.
        return [
            dns(0.0, "d1", ttl=10.0),
            dns(5.0, "d2", ttl=10.0),
            dns(6.0, "d3", server="198.51.100.7", ttl=5.0),
        ]

    def test_expired_fallback_survives_eviction(self):
        records = self.expired_ambiguity_records()
        late = conn(100.0, "c1")
        batch = pair_trace(records, [late])

        pairer = Pairer()
        for record in sorted(records, key=lambda r: r.completed_at):
            pairer.offer_dns(record)
        # Drain well past every TTL: candidates are evicted to the
        # compact (count + tail) representation before the connection.
        unpaired = pairer.drain_expired(60.0)
        incremental = [pairer.offer(late)]
        assert incremental == batch
        assert incremental[0].expired_pairing
        assert incremental[0].dns is not None and incremental[0].dns.uid == "d2"
        # d1 retires (superseded by d2 as its key's expired tail); d2
        # and d3 stay reachable as the per-key fallback tails.
        assert [record.uid for record in unpaired] == ["d1"]

    def test_windowed_drain_drops_the_tail(self):
        records = self.expired_ambiguity_records()
        pairer = Pairer()
        for record in sorted(records, key=lambda r: r.completed_at):
            pairer.offer_dns(record)
        unpaired = pairer.drain_expired(60.0, window_s=10.0)
        # The horizon (60 - 10) postdates every completion: every
        # record retires, and a later connection finds nothing.
        assert sorted(record.uid for record in unpaired) == ["d1", "d2", "d3"]
        assert pairer.index.live_records == 0
        assert not pairer.offer(conn(100.0, "c1")).paired

    def test_used_records_are_not_reported_unused(self):
        records = [dns(0.0, "d1", ttl=10.0)]
        pairer = Pairer()
        for record in records:
            pairer.offer_dns(record)
        assert pairer.offer(conn(1.0, "c1")).paired
        assert pairer.drain_expired(1000.0, window_s=0.0) == []

    def test_drain_rejects_time_regression(self):
        pairer = Pairer()
        pairer.drain_expired(100.0)
        with pytest.raises(AnalysisError):
            pairer.offer(conn(50.0, "c1"))

    def test_pair_all_matches_incremental_on_golden_trace(self):
        trace = generate_trace(ScenarioConfig(seed=3, houses=2, duration=4 * 3600.0))
        for policy in (PairingPolicy.MOST_RECENT, PairingPolicy.RANDOM_NON_EXPIRED):
            batch = pair_trace(trace.dns, trace.conns, policy=policy)
            pairer = Pairer(policy=policy)
            results = []
            events = stream_trace(trace.dns, trace.conns)
            next_drain = 600.0
            for kind, record in events:
                when = record.completed_at if kind == "dns" else record.ts
                if when >= next_drain:
                    pairer.drain_expired(next_drain)
                    next_drain += 600.0
                if kind == "dns":
                    pairer.offer_dns(record)
                else:
                    results.append(pairer.offer(record))
            assert results == batch

    @pytest.mark.property
    @given(streams=trace_streams(), drain_interval=st.sampled_from((30.0, 300.0, 1e9)))
    @settings(max_examples=30, deadline=None)
    def test_incremental_equals_batch_on_generated_streams(self, streams, drain_interval):
        dns_records, conns = streams
        if not conns:
            return
        batch = pair_trace(dns_records, conns)
        pairer = Pairer()
        results = []
        next_drain = drain_interval
        for kind, record in stream_trace(dns_records, conns):
            when = record.completed_at if kind == "dns" else record.ts
            while when >= next_drain:
                pairer.drain_expired(next_drain)
                next_drain += drain_interval
            if kind == "dns":
                pairer.offer_dns(record)
            else:
                results.append(pairer.offer(record))
        assert results == batch


class TestAnalyzerBehaviour:
    def test_drain_schedule_is_result_invariant(self):
        trace = generate_trace(ScenarioConfig(seed=2, houses=2, duration=2 * 3600.0))
        fast = StreamingConfig(drain_interval_s=15.0)
        slow = StreamingConfig(drain_interval_s=3600.0)
        fast_result = finalize_result(analyze_stream(trace.dns, trace.conns, fast), fast)
        slow_result = finalize_result(analyze_stream(trace.dns, trace.conns, slow), slow)
        reference = ContextStudy(trace).pipeline_result()
        assert fast_result.census == slow_result.census == reference.census
        assert fast_result.gap_analysis == slow_result.gap_analysis == reference.gap_analysis
        # Faster draining can only lower the index high-water mark.
        assert fast_result.peak_live_records <= slow_result.peak_live_records

    def test_addressless_answers_count_as_unused(self):
        config = StreamingConfig()
        nxd = dns(1.0, "d1", rcode="NXDOMAIN")
        state = analyze_stream([nxd], [conn(2.0, "c1")], config)
        assert state.dns_records == 1
        assert state.failed_lookups == 0
        assert state.unused_lookups == 1

    def test_failed_lookups_are_excluded_from_unused(self):
        config = StreamingConfig()
        state = analyze_stream(
            [dns(1.0, "d1", rcode="SERVFAIL")], [conn(2.0, "c1")], config
        )
        assert state.failed_lookups == 1
        assert state.unused_lookups == 0

    def test_summary_quadrant_none_without_blocked_conns(self):
        summary = run_streaming_summary([], [conn(1.0, "c1")])
        assert summary.quadrant is None
        assert summary.census.conns == 1
        assert summary.unused_lookup_fraction == 0.0
        text = render_streaming_summary(summary)
        assert "quadrant" not in text

    def test_summary_render_mentions_window_and_bound(self):
        trace = generate_trace(ScenarioConfig(seed=1, houses=2, duration=3600.0))
        summary = run_streaming_summary(trace.dns, trace.conns, window_s=600.0)
        text = render_streaming_summary(summary)
        assert "window: 600 s" in text
        assert "rank error" in text
        assert summary.rank_error_bound <= summary.epsilon

    def test_index_live_records_shrinks_after_drain(self):
        index = DnsIndex()
        index.offer(dns(0.0, "d1", ttl=5.0))
        index.offer(dns(1.0, "d2", ttl=5.0, server="198.51.100.7"))
        assert index.live_records == 2
        index.drain_expired(1000.0, window_s=0.0)
        assert index.live_records == 0

    def test_viable_candidates_rejects_pre_drain_queries(self):
        index = DnsIndex()
        index.offer(dns(0.0, "d1", ttl=5.0))
        index.drain_expired(100.0)
        with pytest.raises(AnalysisError):
            index.viable_candidates("10.0.0.1", "93.184.216.34", 50.0)

    def test_consume_rejects_infinite_regress(self):
        analyzer = StreamingAnalyzer()
        analyzer.consume(stream_trace([dns(1.0, "d1")], [conn(2.0, "c1")]))
        state = analyzer.finish()
        assert state.total_conns == 1
        assert state.paired == 1
        assert math.isfinite(state.gaps[0])
