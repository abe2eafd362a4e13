"""A lookup is its pairing candidate, not its Zeek ``uid``.

Real Zeek writes one ``dns.log`` row per DNS transaction but gives
every transaction on one flow that flow's ``uid`` — glibc, for one,
sends its A and AAAA queries from one socket. The generator gives every
lookup its own uid, so these tests relabel generated records Zeek-style
and require every §4–§6 result, first use and unused-lookup count to
stay exactly what it is under the original, unique uids.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.strategies import trace_streams

from repro.core.context import ContextStudy
from repro.core.pairing import Pairer, pair_trace
from repro.core.parallel import run_pipeline, run_streaming_summary
from repro.core.streaming import stream_trace
from repro.monitor.capture import Trace
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig

SHARED_FLOW_S = 1.0
"""Lookups this close to their house's last uid-keeping lookup share its uid."""


def zeek_relabelled(records):
    """*records* with each house's near-simultaneous lookups on one uid.

    Walking each house's lookups in log order, a lookup that starts less
    than :data:`SHARED_FLOW_S` after the last lookup that kept its own
    uid takes that lookup's uid. Only the ``uid`` field changes.
    """
    anchors = {}
    relabelled = []
    for record in records:
        anchor = anchors.get(record.orig_h)
        if anchor is not None and record.ts - anchor.ts < SHARED_FLOW_S:
            relabelled.append(record._replace(uid=anchor.uid))
        else:
            anchors[record.orig_h] = record
            relabelled.append(record)
    return relabelled


@pytest.fixture(scope="module")
def traces():
    original = generate_trace(ScenarioConfig(seed=7, houses=3, duration=3600.0))
    dns = zeek_relabelled(original.dns)
    shared = sum(1 for before, after in zip(original.dns, dns) if before.uid != after.uid)
    # Most lookups share a uid, so a uid-keyed analysis would move.
    assert shared > len(dns) // 2
    relabelled = Trace(
        dns=dns,
        conns=original.conns,
        truth=original.truth,
        duration=original.duration,
        houses=original.houses,
    )
    return original, relabelled


class TestZeekUidsMoveNoResult:
    def test_run_pipeline(self, traces):
        original, relabelled = traces
        expected = run_pipeline(original)
        result = run_pipeline(relabelled)
        assert result == expected
        assert result.unused_lookups == expected.unused_lookups

    def test_reference_study(self, traces):
        original, relabelled = traces
        expected = ContextStudy(original)
        study = ContextStudy(relabelled)
        assert study.pipeline_result() == expected.pipeline_result()
        assert study.prefetching() == expected.prefetching()

    def test_windowed_streaming_summary(self, traces):
        original, relabelled = traces
        expected = run_streaming_summary(original.dns, original.conns, window_s=600.0)
        summary = run_streaming_summary(relabelled.dns, relabelled.conns, window_s=600.0)
        assert summary.census == expected.census
        assert summary.breakdown == expected.breakdown
        assert summary.unused_lookups == expected.unused_lookups
        assert summary.peak_live_records == expected.peak_live_records


def test_two_transactions_on_one_flow_are_two_lookups():
    # Two transactions on one flow (queries sent from one socket): one
    # uid, two rows, two lookups.
    lookups = [
        DnsRecord(
            ts=ts, uid="Dflow", orig_h="10.0.0.1", orig_p=40000, resp_h="8.8.8.8",
            resp_p=53, query="www.example.com", rtt=0.01,
            answers=(DnsAnswer(data=address, ttl=30.0),),
        )
        for ts, address in ((0.0, "93.184.216.34"), (0.001, "93.184.216.35"))
    ]
    conns = [
        ConnRecord(
            ts=ts, uid=f"C{ts}", orig_h="10.0.0.1", orig_p=50000, resp_h=address,
            resp_p=443, proto=Proto.TCP, duration=1.0,
        )
        for ts, address in ((5.0, "93.184.216.34"), (6.0, "93.184.216.35"))
    ]
    pairer = Pairer(lookups)
    assert [item.first_use for item in pairer.pair_all(conns)] == [True, True]
    assert pairer.drain_expired(math.inf, window_s=0.0) == []
    assert pairer.index.live_records == 0


@pytest.mark.property
@given(
    streams=trace_streams(),
    data=st.data(),
    drain_interval=st.sampled_from((30.0, 300.0, 1e9)),
)
@settings(max_examples=60, deadline=None)
def test_incremental_pairing_ignores_shared_uids(streams, data, drain_interval):
    dns_records, conns = streams
    if not conns:
        return
    # Each DNS record takes one of a few uids of its house.
    relabelled = [
        record._replace(uid=f"{record.orig_h}/{data.draw(st.integers(0, 2))}")
        for record in dns_records
    ]
    position = {id(record): index for index, record in enumerate(relabelled)}

    pairer = Pairer()
    results = []
    unpaired = []
    next_drain = drain_interval
    for kind, record in stream_trace(relabelled, conns):
        when = record.completed_at if kind == "dns" else record.ts
        while when >= next_drain:
            unpaired += pairer.drain_expired(next_drain)
            next_drain += drain_interval
        if kind == "dns":
            pairer.offer_dns(record)
        else:
            results.append(pairer.offer(record))
    unpaired += pairer.drain_expired(math.inf, window_s=0.0)

    # Relabelled records differ from the originals in their uid: map
    # each back to its original by position before comparing.
    batch = pair_trace(dns_records, conns)
    restored = [
        item if item.dns is None else replace(item, dns=dns_records[position[id(item.dns)]])
        for item in results
    ]
    assert restored == batch
    used = {id(item.dns) for item in batch if item.dns is not None}
    never_used = [
        index
        for index, record in enumerate(dns_records)
        if not record.failed and record.addresses() and id(record) not in used
    ]
    assert sorted(position[id(record)] for record in unpaired) == never_used
