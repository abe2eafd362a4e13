"""One resolver observer, one SC/R threshold rule, one pass over the lookups.

:class:`ResolverObserver` is the one per-resolver lookup aggregate: the
classifier fills it once, its thresholds split SC from R, and the batch
report's failure block reads the same observer. The rule
(:meth:`ThresholdPolicy.threshold`) is written out here by hand and
held against both of the observer's readings, and against every split
of the stream merged back with :meth:`ResolverObserver.merge_from`.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.classify import ResolverObserver, ThresholdPolicy
from repro.monitor.records import FAILURE_RCODES, DnsAnswer, DnsRecord

#: Few distinct durations, so resolvers often tie on their fastest lookup.
RTTS_S = (0.0, 0.001, 0.002, 0.002, 0.009, 0.03)
ANSWERED = ("NOERROR", "NXDOMAIN")
FAILED = ("SERVFAIL", "-", "REFUSED")


def _lookup(index: int, resolver: str, rcode: str, rtt_s: float) -> DnsRecord:
    answers = (DnsAnswer("93.184.216.34", 300.0),) if rcode == "NOERROR" else ()
    return DnsRecord(
        ts=float(index), uid=f"D{index}", orig_h="10.0.0.1", orig_p=40000,
        resp_h=resolver, resp_p=53, query="www.example.com", rcode=rcode,
        rtt=0.0 if rcode == "-" else rtt_s, answers=answers,
    )


@st.composite
def streams(draw):
    """A policy and a shuffled lookup stream over four kinds of resolver.

    ``8.8.8.8`` has exactly ``min_lookups`` answered lookups among some
    failed ones, ``9.9.9.9`` only failed ones, and the other two a free
    mix; answers include NXDOMAIN, which is answered, not failed.
    """
    min_lookups = draw(st.integers(min_value=0, max_value=4))
    policy = ThresholdPolicy(min_lookups=min_lookups)
    answered, failed = st.sampled_from(ANSWERED), st.sampled_from(FAILED)
    outcomes = [("8.8.8.8", draw(answered)) for _ in range(min_lookups)]
    outcomes += [("8.8.8.8", draw(failed)) for _ in range(draw(st.integers(0, 2)))]
    outcomes += [("9.9.9.9", draw(failed)) for _ in range(draw(st.integers(1, 3)))]
    outcomes += draw(
        st.lists(
            st.tuples(
                st.sampled_from(("1.1.1.1", "192.168.200.10")),
                st.sampled_from(ANSWERED + FAILED),
            ),
            max_size=20,
        )
    )
    outcomes = draw(st.permutations(outcomes))
    records = [
        _lookup(index, resolver, rcode, draw(st.sampled_from(RTTS_S)))
        for index, (resolver, rcode) in enumerate(outcomes)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=3)))
    return policy, records, cuts


def _written_rule(records: list[DnsRecord], resolver: str, policy: ThresholdPolicy) -> float:
    """§5.3's rule: the default below ``min_lookups`` answered lookups or
    with none answered, else the policy applied to the fastest one."""
    answered = [r.rtt for r in records if r.resp_h == resolver and r.rcode not in FAILURE_RCODES]
    if not answered or len(answered) < policy.min_lookups:
        return policy.default_threshold
    return policy.derive(min(answered))


def _observed(records: list[DnsRecord]) -> ResolverObserver:
    observer = ResolverObserver()
    for record in records:
        observer.observe(record)
    return observer


@settings(max_examples=200, deadline=None)
@given(streams())
def test_one_rule_gives_every_threshold(drawn):
    policy, records, cuts = drawn
    observer = _observed(records)
    thresholds = observer.thresholds(policy)
    resolvers = list(dict.fromkeys(record.resp_h for record in records))
    assert list(thresholds) == resolvers
    assert list(observer.failure_stats()) == resolvers
    for resolver in resolvers:
        expected = _written_rule(records, resolver, policy)
        assert observer.threshold_for(resolver, policy) == thresholds[resolver] == expected
    assert thresholds["9.9.9.9"] == policy.default_threshold

    bounds = [0, *cuts, len(records)]
    merged, *rest = [_observed(records[a:b]) for a, b in zip(bounds, bounds[1:])]
    for part in rest:
        merged.merge_from(part)
    assert list(merged.thresholds(policy).items()) == list(thresholds.items())
    assert list(merged.failure_stats().items()) == list(observer.failure_stats().items())


def test_batch_analyze_observes_each_lookup_once(tmp_path, monkeypatch, capsys):
    # Faulted, so the report prints the failure block the observer feeds.
    out = str(tmp_path)
    argv = ["generate", "--houses", "2", "--hours", "1", "--seed", "3", "--out", out]
    assert main([*argv, "--servfail-rate", "0.05"]) == 0
    dns_path = os.path.join(out, "dns.log")
    with open(dns_path) as stream:
        lookups = sum(1 for line in stream if not line.startswith("#"))
    calls = []
    observe = ResolverObserver.observe

    def counting(self, record):
        calls.append(record)
        observe(self, record)

    monkeypatch.setattr(ResolverObserver, "observe", counting)
    capsys.readouterr()
    assert main(["analyze", "--dns", dns_path, "--conn", os.path.join(out, "conn.log")]) == 0
    assert "Resolver failure rates:" in capsys.readouterr().out
    assert lookups > 0
    assert len(calls) == lookups
