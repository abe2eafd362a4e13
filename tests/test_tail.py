"""Tests for the live-tail log readers in :mod:`repro.monitor.logs`.

A background writer thread plays the role of the capture infrastructure:
growing a log, leaving partial trailing lines, rotating (rename and
recreate) and truncating in place. The tail readers must deliver every
complete line exactly once, in order, and keep following across every
one of those events.
"""

import os
import threading
import time

import pytest

from repro.monitor.logs import (
    DNS_FIELDS,
    IngestReport,
    dns_record_to_line,
    open_records,
    tail_lines,
    write_header,
)
from repro.monitor.records import DnsRecord

POLL_S = 0.02
IDLE_S = 0.6


def _dns(ts: float, uid: str) -> DnsRecord:
    return DnsRecord(
        ts=ts,
        uid=uid,
        orig_h="10.0.0.2",
        orig_p=5353,
        resp_h="8.8.8.8",
        resp_p=53,
        query="example.com",
        rtt=0.01,
    )


def _append(path: str, text: str) -> None:
    """Append *text* (possibly a partial line) and flush to disk."""
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(text)


def _writer(actions) -> threading.Thread:
    """Run a list of zero-argument callables with small pauses between."""

    def _run() -> None:
        for action in actions:
            time.sleep(4 * POLL_S)
            action()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread


def test_growing_file_yields_lines_in_order(tmp_path):
    path = str(tmp_path / "grow.log")
    _append(path, "one\n")
    writer = _writer(
        [
            lambda: _append(path, "two\n"),
            lambda: _append(path, "three\nfour\n"),
        ]
    )
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    assert lines == ["one", "two", "three", "four"]


def test_partial_trailing_line_is_buffered_until_complete(tmp_path):
    path = str(tmp_path / "partial.log")
    _append(path, "complete\npart")
    writer = _writer(
        [
            lambda: _append(path, "ial line\n"),
            lambda: _append(path, "last\n"),
        ]
    )
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    assert lines == ["complete", "partial line", "last"]


def test_rotation_is_detected_and_new_file_followed(tmp_path):
    path = str(tmp_path / "rotate.log")
    rotated = str(tmp_path / "rotate.log.1")
    _append(path, "old-1\nold-2\n")

    def _rotate() -> None:
        os.rename(path, rotated)
        _append(path, "new-1\n")

    writer = _writer([_rotate, lambda: _append(path, "new-2\n")])
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    assert lines == ["old-1", "old-2", "new-1", "new-2"]


def test_rotation_flushes_final_partial_line_of_old_file(tmp_path):
    path = str(tmp_path / "rotate-partial.log")
    rotated = str(tmp_path / "rotate-partial.log.1")
    _append(path, "kept\nunterminated")

    def _rotate() -> None:
        os.rename(path, rotated)
        _append(path, "fresh\n")

    writer = _writer([_rotate])
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    # The writer closed the old file by rotating it, so its last line is
    # final even without a newline.
    assert lines == ["kept", "unterminated", "fresh"]


def test_truncation_rewinds_to_start(tmp_path):
    path = str(tmp_path / "trunc.log")
    _append(path, "before-1\nbefore-2\n")

    def _truncate() -> None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("after\n")

    writer = _writer([_truncate])
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    assert lines == ["before-1", "before-2", "after"]


def test_missing_file_waited_out_then_read(tmp_path):
    path = str(tmp_path / "late.log")
    writer = _writer([lambda: _append(path, "finally\n")])
    lines = list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S))
    writer.join()
    assert lines == ["finally"]


def test_missing_file_idle_timeout(tmp_path):
    path = str(tmp_path / "never.log")
    start = time.monotonic()
    assert list(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=0.2)) == []
    assert time.monotonic() - start < 5.0


def test_stop_callable_ends_tail_and_flushes_partial(tmp_path):
    path = str(tmp_path / "stop.log")
    _append(path, "line\ntail-without-newline")
    stopping = threading.Event()
    writer = _writer([stopping.set])
    lines = list(
        tail_lines(path, poll_interval_s=POLL_S, stop=stopping.is_set)
    )
    writer.join()
    assert lines == ["line", "tail-without-newline"]


def test_parameter_validation(tmp_path):
    path = str(tmp_path / "x.log")
    with pytest.raises(ValueError, match="poll_interval_s"):
        next(tail_lines(path, poll_interval_s=0.0))
    with pytest.raises(ValueError, match="idle_timeout_s"):
        next(tail_lines(path, poll_interval_s=POLL_S, idle_timeout_s=-1.0))


def _write_dns_file(path: str, records, mode: str = "w") -> None:
    with open(path, mode, encoding="utf-8") as stream:
        write_header(stream, "dns", DNS_FIELDS)
        for record in records:
            stream.write(dns_record_to_line(record) + "\n")


def test_tail_dns_log_parses_records_across_rotation(tmp_path):
    path = str(tmp_path / "dns.log")
    rotated = str(tmp_path / "dns.log.1")
    _write_dns_file(path, [_dns(1.0, "a"), _dns(2.0, "b")])

    def _rotate() -> None:
        os.rename(path, rotated)
        _write_dns_file(path, [_dns(3.0, "c")])

    writer = _writer([_rotate])
    records = list(
        open_records(
            path, "dns", follow=True, poll_interval_s=POLL_S, idle_timeout_s=IDLE_S
        )
    )
    writer.join()
    assert [record.uid for record in records] == ["a", "b", "c"]
    # The rotated-in file re-sent its header; parsing survived it.
    assert all(record.query == "example.com" for record in records)


def test_tail_dns_log_lenient_quarantines_torn_lines(tmp_path):
    path = str(tmp_path / "torn.log")
    _write_dns_file(path, [_dns(1.0, "a")])
    report = IngestReport("dns")
    writer = _writer(
        [
            lambda: _append(path, "torn\tgarbage\tline\n"),
            lambda: _append(path, dns_record_to_line(_dns(2.0, "b")) + "\n"),
        ]
    )
    records = list(
        open_records(
            path,
            "dns",
            report=report,
            follow=True,
            poll_interval_s=POLL_S,
            idle_timeout_s=IDLE_S,
        )
    )
    writer.join()
    assert [record.uid for record in records] == ["a", "b"]
    assert len(report.quarantined) == 1
    assert "torn" in report.quarantined[0].text


def test_lazy_iterator_lenient_quarantine(tmp_path):
    path = str(tmp_path / "lazy.log")
    _write_dns_file(path, [_dns(1.0, "a")])
    _append(path, "broken\tline\n")
    _append(path, dns_record_to_line(_dns(2.0, "b")) + "\n")
    report = IngestReport("dns")
    records = list(open_records(path, "dns", report=report))
    assert [record.uid for record in records] == ["a", "b"]
    assert len(report.quarantined) == 1
