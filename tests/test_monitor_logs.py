"""Tests for repro.monitor: record schemas and Zeek-style TSV logs."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.monitor.capture import MonitorCapture
from repro.monitor.logs import parse_lines, write_conn_log, write_dns_log
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto


def sample_dns(**overrides) -> DnsRecord:
    defaults = dict(
        ts=100.5,
        uid="D0000001",
        orig_h="10.77.0.10",
        orig_p=33333,
        resp_h="8.8.8.8",
        resp_p=53,
        query="www.example.com",
        rtt=0.0123,
        answers=(
            DnsAnswer("93.184.216.34", 300.0, "A"),
            DnsAnswer("www2.example.com", 300.0, "CNAME"),
        ),
    )
    defaults.update(overrides)
    return DnsRecord(**defaults)


def sample_conn(**overrides) -> ConnRecord:
    defaults = dict(
        ts=101.0,
        uid="C0000001",
        orig_h="10.77.0.10",
        orig_p=44444,
        resp_h="93.184.216.34",
        resp_p=443,
        proto=Proto.TCP,
        duration=3.25,
        orig_bytes=512,
        resp_bytes=20480,
        service="ssl",
    )
    defaults.update(overrides)
    return ConnRecord(**defaults)


class TestRecords:
    def test_dns_completed_at(self):
        record = sample_dns(ts=10.0, rtt=0.5)
        assert record.completed_at == 10.5

    def test_dns_addresses_skip_cnames(self):
        assert sample_dns().addresses() == ("93.184.216.34",)

    def test_dns_expiry(self):
        record = sample_dns(ts=0.0, rtt=0.0)
        assert record.expires_at == 300.0

    def test_dns_no_answers_no_expiry(self):
        record = sample_dns(answers=())
        assert record.min_ttl() is None
        assert record.expires_at is None

    def test_dns_negative_rtt_rejected_at_parse(self):
        # Records are plain NamedTuples; negative-value validation
        # lives at the ingest boundary, not in the constructor.
        buffer = io.StringIO()
        write_dns_log(buffer, [sample_dns(rtt=0.5)])
        tampered = buffer.getvalue().replace("0.500000", "-1.000000")
        with pytest.raises(LogFormatError):
            list(parse_lines(io.StringIO(tampered), "dns"))

    def test_conn_throughput(self):
        conn = sample_conn(duration=2.0, orig_bytes=1000, resp_bytes=3000)
        assert conn.throughput == 2000.0

    def test_conn_zero_duration_throughput(self):
        assert sample_conn(duration=0.0).throughput == 0.0

    def test_conn_port_classification(self):
        assert sample_conn(resp_p=443).uses_reserved_port()
        assert sample_conn(orig_p=50000, resp_p=51000).is_high_port_pair()

    def test_conn_validation_at_parse(self):
        buffer = io.StringIO()
        write_conn_log(buffer, [sample_conn(duration=7.25, orig_bytes=4321)])
        clean = buffer.getvalue()
        with pytest.raises(LogFormatError):
            list(parse_lines(io.StringIO(clean.replace("7.250000", "-7.250000")), "conn"))
        with pytest.raises(LogFormatError):
            list(parse_lines(io.StringIO(clean.replace("\t4321\t", "\t-4321\t")), "conn"))

    def test_proto_parse(self):
        assert Proto.parse("TCP") == Proto.TCP
        with pytest.raises(LogFormatError):
            Proto.parse("sctp")


class TestLogRoundtrip:
    def test_dns_log_roundtrip(self):
        records = [sample_dns(), sample_dns(uid="D0000002", answers=())]
        buffer = io.StringIO()
        assert write_dns_log(buffer, records) == 2
        buffer.seek(0)
        loaded = list(parse_lines(buffer, "dns"))
        assert len(loaded) == 2
        assert loaded[0].uid == "D0000001"
        assert loaded[0].addresses() == ("93.184.216.34",)
        assert loaded[0].answers[1].rtype == "CNAME"
        assert loaded[0].rtt == pytest.approx(0.0123)
        assert loaded[1].answers == ()

    def test_conn_log_roundtrip(self):
        records = [sample_conn(), sample_conn(uid="C0000002", proto=Proto.UDP, service="-")]
        buffer = io.StringIO()
        assert write_conn_log(buffer, records) == 2
        buffer.seek(0)
        loaded = list(parse_lines(buffer, "conn"))
        assert loaded[0].total_bytes == 20992
        assert loaded[1].proto == Proto.UDP

    def test_empty_vectors_read_as_no_answers(self):
        # Zeek writes its #empty_field marker (empty) for an empty vector.
        buffer = io.StringIO()
        write_dns_log(buffer, [sample_dns(answers=())])
        text = buffer.getvalue().replace("\t-\t-\t-\n", "\t(empty)\t(empty)\t(empty)\n")
        assert text.count("(empty)") == 3
        (loaded,) = parse_lines(io.StringIO(text), "dns")
        assert loaded == sample_dns(answers=())

    def test_empty_query_reads_back_empty(self):
        buffer = io.StringIO()
        write_dns_log(buffer, [sample_dns(query="")])
        assert "\t(empty)\t" in buffer.getvalue()
        (loaded,) = parse_lines(io.StringIO(buffer.getvalue()), "dns")
        assert loaded.query == ""

    def test_reader_tolerates_field_reordering(self):
        buffer = io.StringIO()
        buffer.write("#separator \\x09\n")
        buffer.write("#fields\tuid\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\t"
                     "proto\tservice\tduration\torig_bytes\tresp_bytes\tconn_state\n")
        buffer.write("C1\t5.0\t10.0.0.1\t1000\t2.2.2.2\t80\ttcp\thttp\t1.0\t10\t20\tSF\n")
        buffer.seek(0)
        loaded = list(parse_lines(buffer, "conn"))
        assert loaded[0].uid == "C1" and loaded[0].ts == 5.0

    def test_reader_rejects_data_before_header(self):
        buffer = io.StringIO("C1\t5.0\n")
        with pytest.raises(LogFormatError):
            list(parse_lines(buffer, "conn"))

    def test_reader_rejects_missing_fields(self):
        buffer = io.StringIO("#fields\tts\tuid\n1.0\tC1\n")
        with pytest.raises(LogFormatError):
            list(parse_lines(buffer, "conn"))

    def test_reader_rejects_mismatched_ttl_vector(self):
        buffer = io.StringIO()
        write_dns_log(buffer, [])
        text = buffer.getvalue() + (
            "1.0\tD1\t10.0.0.1\t1\t8.8.8.8\t53\tudp\tq.com\tA\tNOERROR\t0.01\t"
            "1.2.3.4,5.6.7.8\t300.000000\tA,A\n"
        )
        with pytest.raises(LogFormatError):
            list(parse_lines(io.StringIO(text), "dns"))

    def test_file_roundtrip(self, tmp_path):
        from repro.monitor.logs import load_conn_log, load_dns_log, save_conn_log, save_dns_log

        dns_path = str(tmp_path / "dns.log")
        conn_path = str(tmp_path / "conn.log")
        save_dns_log(dns_path, [sample_dns()])
        save_conn_log(conn_path, [sample_conn()])
        assert len(load_dns_log(dns_path)) == 1
        assert len(load_conn_log(conn_path)) == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.integers(min_value=1, max_value=65535),
                st.integers(min_value=0, max_value=10_000_000),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_conn_roundtrip_property(self, rows):
        records = [
            sample_conn(uid=f"C{i}", ts=ts, orig_p=port, resp_bytes=resp)
            for i, (ts, port, resp) in enumerate(rows)
        ]
        buffer = io.StringIO()
        write_conn_log(buffer, records)
        buffer.seek(0)
        loaded = list(parse_lines(buffer, "conn"))
        assert [r.uid for r in loaded] == [r.uid for r in records]
        assert all(a.resp_bytes == b.resp_bytes for a, b in zip(loaded, records))


class TestCapture:
    def test_uids_are_unique_and_prefixed(self):
        capture = MonitorCapture()
        dns = capture.record_dns(1.0, "10.0.0.1", 1, "8.8.8.8", "a.com", 0.01, ())
        conn = capture.record_conn(
            2.0, "10.0.0.1", 2, "1.2.3.4", 443, Proto.TCP, 1.0, 10, 20
        )
        assert dns.uid.startswith("D") and conn.uid.startswith("C")
        second = capture.record_dns(3.0, "10.0.0.1", 1, "8.8.8.8", "b.com", 0.01, ())
        assert second.uid != dns.uid

    def test_finish_sorts_by_time(self):
        capture = MonitorCapture()
        capture.record_conn(5.0, "10.0.0.1", 2, "1.2.3.4", 443, Proto.TCP, 1.0, 1, 1)
        capture.record_conn(1.0, "10.0.0.1", 3, "1.2.3.4", 443, Proto.TCP, 1.0, 1, 1)
        trace = capture.finish(duration=10.0, houses=1)
        assert [c.ts for c in trace.conns] == [1.0, 5.0]
        assert trace.duration == 10.0
        assert "2 connections" in trace.summary()

    def test_truth_keyed_by_assigned_uid(self):
        from repro.monitor.records import GroundTruth, TruthClass

        capture = MonitorCapture()
        truth = GroundTruth(truth_class=TruthClass.NO_DNS)
        conn = capture.record_conn(
            1.0, "10.0.0.1", 2, "1.2.3.4", 443, Proto.TCP, 1.0, 1, 1, truth=truth,
        )
        assert capture.trace.truth[conn.uid].truth_class == TruthClass.NO_DNS
        assert capture.trace.truth[conn.uid] is truth
