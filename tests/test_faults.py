"""Fault injection, failure propagation, and graceful degradation.

Covers the deterministic fault plan (seeded, order-invariant decisions
and outage windows), the client retry/backoff/failover model, failed
transactions flowing through generation, logs, pairing, classification,
and the sharded pipeline, plus the lenient-ingest and worker-crash
recovery paths.
"""

import io
import os
import random

import pytest

from repro.cli import EXIT_DATA, EXIT_NOINPUT, EXIT_SOFTWARE, main
from repro.core import parallel as parallel_mod
from repro.core.classify import (
    ResolverObserver,
    collect_failure_stats,
    collect_resolver_stats,
    thresholds_from_stats,
)
from repro.core.context import ContextStudy
from repro.core.pairing import DnsIndex, unused_lookup_fraction
from repro.core.parallel import run_pipeline
from repro.dns.cache import DnsCache, cache_key
from repro.dns.resolver import RecursiveResolver, ResolverProfile, StubResolver
from repro.dns.zone import DnsHierarchy
from repro.errors import LogFormatError, SimulationError
from repro.monitor.capture import MonitorCapture
from repro.monitor.logs import (
    IngestReport,
    parse_lines,
    save_conn_log,
    save_dns_log,
    write_conn_log,
    write_dns_log,
)
from repro.monitor.records import FAILURE_RCODES, DnsAnswer, DnsRecord, TruthClass
from repro.simulation.faults import (
    FaultConfig,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.simulation.latency import LatencyModel
from repro.workload.devices import Device
from repro.workload.generate import generate_trace
from repro.workload.households import House
from repro.workload.namespace import NameUniverse
from repro.workload.scenario import ScenarioConfig


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
    h.add_address("www.other.org", "93.184.216.34", ttl=300)
    return h


def plan_for(platform: str = "test", horizon_s: float = 0.0, **config_overrides) -> FaultPlan:
    return FaultPlan(
        FaultConfig(**config_overrides),
        seed=12345,
        platforms=(platform,),
        horizon_s=horizon_s,
    )


class TestRetryPolicy:
    def test_schedule_backs_off_exponentially(self):
        policy = RetryPolicy(initial_timeout_s=1.0, max_retries=2, backoff_factor=2.0)
        assert policy.schedule() == (1.0, 2.0, 4.0)
        assert policy.budget_s == 7.0

    def test_no_retries_is_a_single_attempt(self):
        policy = RetryPolicy(initial_timeout_s=0.5, max_retries=0)
        assert policy.schedule() == (0.5,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_timeout_s=0.0),
            dict(initial_timeout_s=-1.0),
            dict(max_retries=-1),
            dict(backoff_factor=0.5),
            dict(max_failovers=-1),
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            RetryPolicy(**kwargs)


class TestFaultConfig:
    def test_default_config_is_disabled(self):
        assert not FaultConfig().enabled

    def test_any_positive_probability_enables(self):
        assert FaultConfig(servfail_probability=0.01).enabled
        assert FaultConfig(outage_rate_per_hour=0.1).enabled

    def test_probabilities_must_sum_to_at_most_one(self):
        with pytest.raises(SimulationError):
            FaultConfig(timeout_probability=0.6, servfail_probability=0.6)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(SimulationError):
            FaultConfig(nxdomain_probability=1.5)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        first = plan_for(servfail_probability=0.3)
        second = plan_for(servfail_probability=0.3)
        queries = [("test", f"host{i}.example.com", float(i)) for i in range(200)]
        assert [first.decide(*q) for q in queries] == [second.decide(*q) for q in queries]

    def test_decisions_are_order_invariant(self):
        plan = plan_for(servfail_probability=0.3, timeout_probability=0.1)
        queries = [("test", f"host{i}.example.com", float(i)) for i in range(100)]
        forward = {q: plan.decide(*q) for q in queries}
        backward = {q: plan.decide(*q) for q in reversed(queries)}
        assert forward == backward

    def test_zero_probabilities_never_fault(self):
        plan = plan_for()
        assert all(
            plan.decide("test", f"h{i}.com", float(i)).kind is FaultKind.NONE
            for i in range(50)
        )

    @pytest.mark.parametrize(
        "config_key,kind",
        [
            ("timeout_probability", FaultKind.TIMEOUT),
            ("servfail_probability", FaultKind.SERVFAIL),
            ("nxdomain_probability", FaultKind.NXDOMAIN),
            ("truncation_probability", FaultKind.TRUNCATION),
        ],
    )
    def test_certain_probability_always_yields_its_kind(self, config_key, kind):
        plan = plan_for(**{config_key: 1.0})
        assert plan.decide("test", "www.cnn.com", 42.0).kind is kind

    def test_outage_windows_are_seed_deterministic(self):
        one = plan_for(horizon_s=36000.0, outage_rate_per_hour=1.0)
        two = plan_for(horizon_s=36000.0, outage_rate_per_hour=1.0)
        assert one.outages_for("test") == two.outages_for("test")
        assert one.outages_for("test")  # ~10 expected over the horizon

    def test_in_outage_matches_windows(self):
        plan = plan_for(horizon_s=36000.0, outage_rate_per_hour=1.0)
        windows = plan.outages_for("test")
        start, end = windows[0]
        middle = (start + end) / 2
        assert plan.in_outage("test", middle)
        assert not plan.in_outage("test", start - 1.0)
        decision = plan.decide("test", "www.cnn.com", middle)
        assert decision.is_timeout and decision.during_outage

    def test_unknown_platform_has_no_outages(self):
        plan = plan_for(horizon_s=36000.0, outage_rate_per_hour=1.0)
        assert plan.outages_for("elsewhere") == ()
        assert not plan.in_outage("elsewhere", 100.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(FaultConfig(), seed=1, platforms=("test",), horizon_s=-1.0)


class TestBoundedRetransmits:
    def test_retransmissions_are_capped(self):
        model = LatencyModel(
            base_rtt_s=0.010,
            jitter_median=0.001,
            jitter_sigma=0.1,
            loss_probability=0.99,
            retransmit_penalty=1.0,
            max_retransmits=3,
        )
        rng = random.Random(7)
        samples = [model.sample(rng) for _ in range(200)]
        # With p=0.99 an unbounded loop would routinely exceed 3 penalties.
        assert max(samples) < 3.0 + 1.0
        assert max(samples) > 3.0  # the cap itself is reachable

    def test_negative_cap_rejected(self):
        with pytest.raises(SimulationError):
            LatencyModel(base_rtt_s=0.01, jitter_median=0.001, max_retransmits=-1)

    def test_scaled_preserves_cap(self):
        model = LatencyModel(base_rtt_s=0.01, jitter_median=0.001, max_retransmits=2)
        assert model.scaled(0.5).max_retransmits == 2


class TestResolverFaults:
    def test_injected_servfail(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(servfail_probability=1.0),
        )
        outcome = resolver.resolve("www.cnn.com", now=5.0)
        assert outcome.servfail and outcome.failed
        assert outcome.rcode_name == "SERVFAIL"
        assert outcome.records == ()
        assert resolver.fault_servfails == 1

    def test_injected_timeout_has_no_duration(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(timeout_probability=1.0),
        )
        outcome = resolver.resolve("www.cnn.com", now=5.0)
        assert outcome.timed_out and outcome.failed
        assert outcome.rcode_name == "-"
        assert outcome.duration_s == 0.0
        assert resolver.fault_timeouts == 1

    def test_injected_nxdomain_is_not_a_failure(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(nxdomain_probability=1.0),
        )
        outcome = resolver.resolve("www.cnn.com", now=5.0)
        assert outcome.nxdomain and not outcome.failed
        assert outcome.rcode_name == "NXDOMAIN"

    def test_truncation_answers_with_tcp_penalty(self, hierarchy):
        faulted = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(truncation_probability=1.0),
        )
        clean = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        truncated = faulted.resolve("www.cnn.com", now=5.0)
        reference = clean.resolve("www.cnn.com", now=5.0)
        assert truncated.truncated and not truncated.failed
        assert truncated.addresses() == reference.addresses()
        assert truncated.duration_s > reference.duration_s + 0.05 - 1e-9

    def test_fault_free_plan_matches_no_plan(self, hierarchy):
        with_plan = RecursiveResolver(
            make_profile(), hierarchy, rng=random.Random(1), faults=plan_for()
        )
        without = RecursiveResolver(make_profile(), hierarchy, rng=random.Random(1))
        assert (
            with_plan.resolve("www.cnn.com", now=5.0)
            == without.resolve("www.cnn.com", now=5.0)
        )


class TestStubRetry:
    def test_all_attempts_exhausted_fails_with_full_budget(self, hierarchy):
        resolver = RecursiveResolver(
            make_profile(),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(timeout_probability=1.0),
        )
        policy = RetryPolicy(initial_timeout_s=1.0, max_retries=2, backoff_factor=2.0)
        stub = StubResolver([(resolver, 1.0)], rng=random.Random(2), retry=policy)
        lookup = stub.lookup("www.cnn.com", now=0.0)
        assert lookup.outcome is not None and lookup.outcome.timed_out
        assert lookup.duration_s == pytest.approx(policy.budget_s)
        assert lookup.records == ()

    def test_failover_to_healthy_upstream_succeeds(self, hierarchy):
        broken = RecursiveResolver(
            make_profile(platform="broken", address="192.0.2.1"),
            hierarchy,
            rng=random.Random(1),
            faults=plan_for(platform="broken", timeout_probability=1.0),
        )
        healthy = RecursiveResolver(
            make_profile(platform="healthy", address="192.0.2.2"),
            hierarchy,
            rng=random.Random(1),
        )
        policy = RetryPolicy(initial_timeout_s=1.0, max_retries=0, max_failovers=1)
        stub = StubResolver(
            [(broken, 1000.0), (healthy, 0.001)], rng=random.Random(2), retry=policy
        )
        lookup = stub.lookup("www.cnn.com", now=0.0)
        assert lookup.outcome is not None and not lookup.outcome.timed_out
        assert lookup.resolver_platform == "healthy"
        assert lookup.duration_s >= 1.0  # waited out the first attempt
        assert lookup.addresses() == ("151.101.1.67",)


class TestStaleFallback:
    def test_hard_failure_falls_back_to_expired_cache_entry(self):
        universe = NameUniverse(
            random.Random(5), site_count=12, cdn_host_count=4, ads_host_count=3
        )
        profile = make_profile(platform="local", address="192.168.200.10")
        resolver = RecursiveResolver(profile, universe.hierarchy, rng=random.Random(6))
        capture = MonitorCapture()
        house = House(0, "10.77.0.10", capture, universe, random.Random(7))
        stub = StubResolver(
            [(resolver, 1.0)],
            cache=DnsCache(),
            rng=random.Random(8),
            retry=RetryPolicy(initial_timeout_s=1.0, max_retries=0, max_failovers=0),
        )
        device = Device("d0", house, stub, random.Random(9), kind="laptop")
        house.devices.append(device)
        hostname = universe.sites[0].primary.hostname

        first = device.resolve(hostname, now=10.0)
        assert first.addresses
        # Every later query to this platform times out.
        resolver._faults = plan_for(platform="local", timeout_probability=1.0)

        # Far past any TTL: the cache entry is expired, the wire lookup
        # hard-fails, and the device connects by the cached address.
        fallback = device.resolve(hostname, now=1_000_000.0)
        assert fallback.hard_failure
        assert fallback.addresses == first.addresses
        assert fallback.truth_class is TruthClass.LOCAL_CACHE
        assert fallback.used_expired_record

    def test_hard_failure_without_cache_entry_stays_failed(self):
        universe = NameUniverse(
            random.Random(5), site_count=12, cdn_host_count=4, ads_host_count=3
        )
        profile = make_profile(platform="local", address="192.168.200.10")
        resolver = RecursiveResolver(
            profile,
            universe.hierarchy,
            rng=random.Random(6),
            faults=plan_for(platform="local", timeout_probability=1.0),
        )
        capture = MonitorCapture()
        house = House(0, "10.77.0.10", capture, universe, random.Random(7))
        stub = StubResolver(
            [(resolver, 1.0)],
            cache=DnsCache(),
            rng=random.Random(8),
            retry=RetryPolicy(initial_timeout_s=1.0, max_retries=0, max_failovers=0),
        )
        device = Device("d0", house, stub, random.Random(9), kind="laptop")
        house.devices.append(device)
        resolution = device.resolve(universe.sites[0].primary.hostname, now=10.0)
        assert resolution.hard_failure and resolution.failed
        assert resolution.addresses == ()


def failed_record(uid: str, resolver: str = "8.8.8.8", rcode: str = "SERVFAIL", **overrides):
    defaults = dict(
        ts=100.0,
        uid=uid,
        orig_h="10.77.0.10",
        orig_p=40000,
        resp_h=resolver,
        resp_p=53,
        query="www.example.com",
        rcode=rcode,
        rtt=0.02 if rcode != "-" else 0.0,
        answers=(),
    )
    defaults.update(overrides)
    return DnsRecord(**defaults)


def answered_record(uid: str, resolver: str = "8.8.8.8", **overrides):
    defaults = dict(
        ts=100.0,
        uid=uid,
        orig_h="10.77.0.10",
        orig_p=40000,
        resp_h=resolver,
        resp_p=53,
        query="www.example.com",
        rcode="NOERROR",
        rtt=0.02,
        answers=(DnsAnswer("93.184.216.34", 300.0, "A"),),
    )
    defaults.update(overrides)
    return DnsRecord(**defaults)


class TestFailedRecordSemantics:
    def test_failure_rcodes_exclude_nxdomain(self):
        assert "SERVFAIL" in FAILURE_RCODES and "-" in FAILURE_RCODES
        assert "NXDOMAIN" not in FAILURE_RCODES
        assert failed_record("D1").failed
        assert failed_record("D2", rcode="-").is_timeout
        assert not answered_record("D3").failed
        assert not failed_record("D4", rcode="NXDOMAIN").failed

    def test_failed_records_never_become_pairing_candidates(self):
        # Even a malformed failed record carrying stray answers must not
        # enter the index.
        stray = failed_record(
            "D1", answers=(DnsAnswer("93.184.216.34", 300.0, "A"),)
        )
        index = DnsIndex([stray, answered_record("D2")])
        assert index.failed_records == 1
        candidates = index.candidates_before("10.77.0.10", "93.184.216.34", 200.0)
        assert [c.record.uid for c in candidates] == ["D2"]

    def test_unused_fraction_ignores_failed_lookups(self):
        records = [answered_record("D1"), failed_record("D2"), failed_record("D3")]
        # No pairings at all: 1 answered, 1 unused.
        assert unused_lookup_fraction(records, []) == 1.0

    def test_resolver_stats_split_answered_and_failed(self):
        records = [
            answered_record("D1", rtt=0.010),
            answered_record("D2", rtt=0.030),
            failed_record("D3", rcode="-"),
        ]
        stats = collect_resolver_stats(records)["8.8.8.8"]
        assert stats.lookups == 2
        assert stats.failed_lookups == 1
        assert stats.min_rtt_s == pytest.approx(0.010)

    def test_all_failed_resolver_gets_default_threshold(self):
        stats = collect_resolver_stats([failed_record("D1"), failed_record("D2")])
        thresholds = thresholds_from_stats(stats)
        assert thresholds["8.8.8.8"] > 0

    def test_failure_stats_count_and_merge(self):
        records = [
            answered_record("D1"),
            failed_record("D2", rcode="SERVFAIL"),
            failed_record("D3", rcode="-"),
            failed_record("D4", rcode="NXDOMAIN"),
        ]
        whole = collect_failure_stats(records)
        left, right = ResolverObserver(), ResolverObserver()
        for record in records[:2]:
            left.observe(record)
        for record in records[2:]:
            right.observe(record)
        left.merge_from(right)
        assert left.failure_stats() == whole
        stats = whole["8.8.8.8"]
        assert stats.queries == 4
        assert stats.servfails == 1 and stats.timeouts == 1 and stats.nxdomains == 1
        assert stats.failures == 2
        assert stats.failure_rate == pytest.approx(0.5)


FAULTED_CONFIG = ScenarioConfig(
    seed=33,
    houses=6,
    duration=3600.0,
    faults=FaultConfig(
        timeout_probability=0.01,
        servfail_probability=0.02,
        truncation_probability=0.01,
        outage_rate_per_hour=0.5,
    ),
)


@pytest.fixture(scope="module")
def faulted_trace():
    return generate_trace(FAULTED_CONFIG)


class TestFaultedEndToEnd:
    def test_trace_contains_real_failures(self, faulted_trace):
        rcodes = {record.rcode for record in faulted_trace.dns}
        assert "SERVFAIL" in rcodes
        assert any(record.failed for record in faulted_trace.dns)

    def test_faulted_generation_is_reproducible(self):
        again = generate_trace(FAULTED_CONFIG)
        reference = generate_trace(FAULTED_CONFIG)
        assert again.dns == reference.dns
        assert again.conns == reference.conns

    def test_failed_records_survive_log_roundtrip(self, faulted_trace):
        dns_stream = io.StringIO()
        conn_stream = io.StringIO()
        write_dns_log(dns_stream, faulted_trace.dns)
        write_conn_log(conn_stream, faulted_trace.conns)
        dns_stream.seek(0)
        conn_stream.seek(0)
        dns_back = list(parse_lines(dns_stream, "dns"))
        conn_back = list(parse_lines(conn_stream, "conn"))
        assert [(r.uid, r.rcode, r.failed) for r in dns_back] == [
            (r.uid, r.rcode, r.failed) for r in faulted_trace.dns
        ]
        assert len(conn_back) == len(faulted_trace.conns)
        assert sum(1 for r in dns_back if r.failed) > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_on_faulted_trace(self, faulted_trace, workers):
        reference = ContextStudy(faulted_trace).pipeline_result()
        assert run_pipeline(faulted_trace, workers=1) == reference
        parallel = run_pipeline(faulted_trace, workers=workers)
        assert parallel == reference
        assert parallel.failure_stats == reference.failure_stats

    def test_study_surfaces_failure_stats(self, faulted_trace):
        study = ContextStudy(faulted_trace)
        stats = study.failure_stats()
        assert sum(s.failures for s in stats.values()) > 0
        # Classification still runs with failed lookups in the stream.
        assert study.breakdown.total == len(faulted_trace.conns)


def _crash_shards_in_workers(monkeypatch, shard_ids) -> set[int]:
    """Make the named household shards raise in any forked worker.

    The parent's serial retry runs the same function in the parent
    process, where it succeeds — the recovery the supervisor promises.
    Returns the set the parent fills with the shard ids it retried.
    """
    stream_shard = parallel_mod._stream_shard
    parent_pid = os.getpid()
    retried: set[int] = set()

    def crashing(task):
        if os.getpid() == parent_pid:
            retried.add(task.shard_id)
        elif task.shard_id in shard_ids:
            raise RuntimeError(f"injected crash for shard {task.shard_id}")
        return stream_shard(task)

    monkeypatch.setattr(parallel_mod, "_stream_shard", crashing)
    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 4)
    return retried


class TestCrashRecovery:
    def test_crashed_shard_is_recovered_serially(self, faulted_trace, monkeypatch):
        reference = ContextStudy(faulted_trace).pipeline_result()
        retried = _crash_shards_in_workers(monkeypatch, {0})
        assert run_pipeline(faulted_trace, workers=2) == reference
        assert retried == {0}

    def test_every_shard_crashing_still_completes(self, faulted_trace, monkeypatch):
        reference = ContextStudy(faulted_trace).pipeline_result()
        # Two workers cut min(8, houses) shards: one per household here.
        every_shard = set(range(FAULTED_CONFIG.houses))
        retried = _crash_shards_in_workers(monkeypatch, every_shard)
        assert run_pipeline(faulted_trace, workers=2) == reference
        assert retried == every_shard


DNS_HEADER_AND_ROW = (
    "#separator \\x09\n"
    "#path\tdns\n"
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tquery\t"
    "qtype_name\trcode_name\trtt\tanswers\tTTLs\tanswer_types\n"
    "100.000000\tD1\t10.77.0.10\t40000\t8.8.8.8\t53\tudp\twww.example.com\tA\t"
    "NOERROR\t0.020000\t93.184.216.34\t300.000000\tA\n"
)


class TestLenientIngest:
    def test_strict_read_raises_on_garbage(self):
        stream = io.StringIO(DNS_HEADER_AND_ROW + "garbage line\n")
        with pytest.raises(LogFormatError):
            list(parse_lines(stream, "dns"))

    def test_lenient_read_quarantines_with_line_numbers(self):
        stream = io.StringIO(
            DNS_HEADER_AND_ROW
            + "garbage line\n"
            + "not-a-ts\tD2\t10.77.0.10\t40000\t8.8.8.8\t53\tudp\tx.com\tA\t"
            "NOERROR\t0.020000\t-\t-\t-\n"
        )
        report = IngestReport("dns")
        records = list(parse_lines(stream, "dns", report))
        assert [r.uid for r in records] == ["D1"]
        assert report.parsed == 1
        assert len(report.quarantined) == 2
        assert [q.line_number for q in report.quarantined] == [5, 6]
        assert not report.ok
        assert report.quarantine_fraction == pytest.approx(2 / 3)
        assert "quarantined" in report.summary()

    def test_lenient_read_quarantines_data_before_header(self):
        stream = io.StringIO("stray data first\n" + DNS_HEADER_AND_ROW)
        report = IngestReport("dns")
        records = list(parse_lines(stream, "dns", report))
        assert len(records) == 1
        assert report.quarantined[0].reason == "data before #fields header"

    def test_lenient_conn_read(self):
        stream = io.StringIO(
            "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\t"
            "service\tduration\torig_bytes\tresp_bytes\tconn_state\n"
            "100.000000\tC1\t10.77.0.10\t40000\t151.101.1.67\t443\ttcp\tssl\t"
            "1.000000\t100\t200\tSF\n"
            "bad\tline\n"
        )
        report = IngestReport("conn")
        records = list(parse_lines(stream, "conn", report))
        assert [r.uid for r in records] == ["C1"]
        assert report.path_label == "conn"
        assert len(report.quarantined) == 1

    def test_from_logs_lenient_stores_reports(self, tmp_path, faulted_trace):
        dns_path = tmp_path / "dns.log"
        conn_path = tmp_path / "conn.log"
        save_dns_log(str(dns_path), faulted_trace.dns)
        save_conn_log(str(conn_path), faulted_trace.conns)
        with open(dns_path, "a", encoding="utf-8") as stream:
            stream.write("corrupted trailing line\n")

        with pytest.raises(LogFormatError):
            ContextStudy.from_logs(str(dns_path), str(conn_path))

        reports = (IngestReport("dns"), IngestReport("conn"))
        study = ContextStudy.from_logs(str(dns_path), str(conn_path), reports=reports)
        labels = {report.path_label: report for report in reports}
        assert len(labels["dns"].quarantined) == 1
        assert labels["conn"].ok
        assert len(study.trace.dns) == len(faulted_trace.dns)


class TestCliExitCodes:
    @pytest.fixture(scope="class")
    def log_dir(self, tmp_path_factory, faulted_trace):
        directory = tmp_path_factory.mktemp("faulted-logs")
        save_dns_log(str(directory / "dns.log"), faulted_trace.dns)
        save_conn_log(str(directory / "conn.log"), faulted_trace.conns)
        with open(directory / "dns.log", "a", encoding="utf-8") as stream:
            stream.write("corrupted trailing line\n")
        return directory

    def test_missing_input_maps_to_noinput(self, capsys):
        code = main(["analyze", "--dns", "/nonexistent/dns.log", "--conn", "/nonexistent/conn.log"])
        assert code == EXIT_NOINPUT
        assert "error" in capsys.readouterr().err

    def test_corrupt_log_maps_to_data_error(self, log_dir, capsys):
        code = main(
            ["analyze", "--dns", str(log_dir / "dns.log"), "--conn", str(log_dir / "conn.log")]
        )
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_lenient_flag_analyzes_corrupt_log(self, log_dir, capsys):
        code = main(
            [
                "analyze",
                "--lenient",
                "--dns",
                str(log_dir / "dns.log"),
                "--conn",
                str(log_dir / "conn.log"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "quarantined" in captured.err
        assert "Table 2" in captured.out

    def test_debug_flag_reraises(self, capsys):
        with pytest.raises(OSError):
            main(
                [
                    "--debug",
                    "analyze",
                    "--dns",
                    "/nonexistent/dns.log",
                    "--conn",
                    "/nonexistent/conn.log",
                ]
            )

    def test_invalid_fault_rate_maps_to_software_error(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--houses",
                "2",
                "--hours",
                "0.1",
                "--servfail-rate",
                "2.0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_SOFTWARE
        assert "error" in capsys.readouterr().err
