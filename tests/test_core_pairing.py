"""Tests for repro.core.pairing: the DN-Hunter implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairing import (
    Pairer,
    PairingCensus,
    PairingPolicy,
    ambiguity_fraction,
    pair_trace,
    unused_lookup_fraction,
)
from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

HOUSE = "10.77.0.10"
OTHER_HOUSE = "10.77.0.11"


def dns(uid, ts, address, query="host.example.com", ttl=300.0, rtt=0.01, house=HOUSE):
    return DnsRecord(
        ts=ts,
        uid=uid,
        orig_h=house,
        orig_p=40000,
        resp_h="8.8.8.8",
        resp_p=53,
        query=query,
        rtt=rtt,
        answers=(DnsAnswer(address, ttl, "A"),),
    )


def conn(uid, ts, address, house=HOUSE):
    return ConnRecord(
        ts=ts,
        uid=uid,
        orig_h=house,
        orig_p=50000,
        resp_h=address,
        resp_p=443,
        proto=Proto.TCP,
        duration=1.0,
        orig_bytes=100,
        resp_bytes=1000,
    )


class TestBasicPairing:
    def test_pairs_most_recent_candidate(self):
        records = [
            dns("D1", 0.0, "1.2.3.4"),
            dns("D2", 100.0, "1.2.3.4"),
        ]
        paired = pair_trace(records, [conn("C1", 150.0, "1.2.3.4")])
        assert paired[0].dns.uid == "D2"
        assert paired[0].candidates == 2

    def test_unpaired_when_no_candidate(self):
        paired = pair_trace([dns("D1", 0.0, "9.9.9.9")], [conn("C1", 10.0, "1.2.3.4")])
        assert not paired[0].paired
        assert paired[0].gap is None

    def test_lookup_must_precede_connection(self):
        paired = pair_trace([dns("D1", 100.0, "1.2.3.4")], [conn("C1", 50.0, "1.2.3.4")])
        assert not paired[0].paired

    def test_pairing_is_per_house(self):
        records = [dns("D1", 0.0, "1.2.3.4", house=OTHER_HOUSE)]
        paired = pair_trace(records, [conn("C1", 10.0, "1.2.3.4", house=HOUSE)])
        assert not paired[0].paired

    def test_gap_measured_from_completion(self):
        records = [dns("D1", 0.0, "1.2.3.4", rtt=0.5)]
        paired = pair_trace(records, [conn("C1", 1.0, "1.2.3.4")])
        assert paired[0].gap == pytest.approx(0.5)

    def test_expired_fallback(self):
        records = [dns("D1", 0.0, "1.2.3.4", ttl=10.0)]
        paired = pair_trace(records, [conn("C1", 1000.0, "1.2.3.4")])
        assert paired[0].paired
        assert paired[0].expired_pairing

    def test_non_expired_preferred_over_newer_expired(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10000.0),
            dns("D2", 500.0, "1.2.3.4", ttl=1.0),  # newer but expired
        ]
        paired = pair_trace(records, [conn("C1", 600.0, "1.2.3.4")])
        assert paired[0].dns.uid == "D1"
        assert not paired[0].expired_pairing

    def test_empty_conn_log_rejected(self):
        with pytest.raises(AnalysisError):
            pair_trace([dns("D1", 0.0, "1.2.3.4")], [])


class TestFirstUse:
    def test_first_use_tracking(self):
        records = [dns("D1", 0.0, "1.2.3.4")]
        conns = [conn("C1", 10.0, "1.2.3.4"), conn("C2", 20.0, "1.2.3.4")]
        paired = pair_trace(records, conns)
        assert paired[0].first_use
        assert not paired[1].first_use

    def test_first_use_processed_chronologically(self):
        records = [dns("D1", 0.0, "1.2.3.4")]
        # Deliberately out-of-order input.
        conns = [conn("C2", 20.0, "1.2.3.4"), conn("C1", 10.0, "1.2.3.4")]
        paired = pair_trace(records, conns)
        by_uid = {item.conn.uid: item for item in paired}
        assert by_uid["C1"].first_use
        assert not by_uid["C2"].first_use

    def test_new_lookup_resets_first_use(self):
        records = [dns("D1", 0.0, "1.2.3.4"), dns("D2", 100.0, "1.2.3.4")]
        conns = [conn("C1", 10.0, "1.2.3.4"), conn("C2", 110.0, "1.2.3.4")]
        paired = pair_trace(records, conns)
        assert all(item.first_use for item in paired)


class TestRandomPolicy:
    def test_random_policy_chooses_among_candidates(self):
        records = [dns(f"D{i}", float(i), "1.2.3.4", ttl=10000.0) for i in range(10)]
        conns = [conn(f"C{i}", 100.0 + i, "1.2.3.4") for i in range(50)]
        paired = pair_trace(records, conns, policy=PairingPolicy.RANDOM_NON_EXPIRED, seed=5)
        chosen = {item.dns.uid for item in paired}
        assert len(chosen) > 3  # spread across candidates

    def test_most_recent_policy_is_deterministic(self):
        records = [dns(f"D{i}", float(i), "1.2.3.4", ttl=10000.0) for i in range(5)]
        conns = [conn("C1", 100.0, "1.2.3.4")]
        a = pair_trace(records, conns)[0].dns.uid
        b = pair_trace(records, conns)[0].dns.uid
        assert a == b == "D4"


class TestAggregates:
    def test_ambiguity_fraction(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10000.0),
            dns("D2", 1.0, "1.2.3.4", ttl=10000.0),
            dns("D3", 2.0, "5.6.7.8", ttl=10000.0),
        ]
        conns = [conn("C1", 10.0, "1.2.3.4"), conn("C2", 10.0, "5.6.7.8")]
        paired = pair_trace(records, conns)
        assert ambiguity_fraction(paired) == pytest.approx(0.5)

    def test_unused_lookup_fraction(self):
        records = [dns("D1", 0.0, "1.2.3.4"), dns("D2", 0.0, "9.9.9.9")]
        paired = pair_trace(records, [conn("C1", 10.0, "1.2.3.4")])
        assert unused_lookup_fraction(records, paired) == pytest.approx(0.5)

    def test_unused_empty_records(self):
        assert unused_lookup_fraction([], []) == 0.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=20),
    st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=20),
)
@settings(max_examples=40)
def test_pairing_invariants(dns_times, conn_times):
    """The paired lookup always completes before the connection starts
    (modulo the expired-fallback, which still requires completion first)."""
    records = [dns(f"D{i}", ts, "1.2.3.4", ttl=50.0) for i, ts in enumerate(sorted(dns_times))]
    conns = [conn(f"C{i}", ts, "1.2.3.4") for i, ts in enumerate(sorted(conn_times))]
    paired = pair_trace(records, conns)
    for item in paired:
        if item.paired:
            assert item.dns.completed_at <= item.conn.ts
            assert item.gap is not None and item.gap >= 0.0


class TestExpiredCandidateAccounting:
    def _expired_only(self):
        # Three candidates for the address, all expired by conn time.
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10.0),
            dns("D2", 5.0, "1.2.3.4", ttl=10.0),
            dns("D3", 9.0, "1.2.3.4", ttl=10.0),
        ]
        return pair_trace(records, [conn("C1", 100.0, "1.2.3.4")])

    def test_expired_pairing_reports_zero_viable_candidates(self):
        # Regression: the pre-fix code reported candidates=3 here,
        # conflating expired candidates with viable ones.
        item = self._expired_only()[0]
        assert item.expired_pairing
        assert item.candidates == 0
        assert item.expired_candidates == 3
        assert item.dns.uid == "D3"

    def test_expired_only_counts_as_unambiguous(self):
        assert ambiguity_fraction(self._expired_only()) == pytest.approx(1.0)

    def test_mixed_candidates_split_by_expiry(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10.0),  # expired at conn time
            dns("D2", 95.0, "1.2.3.4", ttl=300.0),
            dns("D3", 98.0, "1.2.3.4", ttl=300.0),
        ]
        item = pair_trace(records, [conn("C1", 100.0, "1.2.3.4")])[0]
        assert not item.expired_pairing
        assert item.candidates == 2
        assert item.expired_candidates == 1


class TestPairingCensus:
    def _paired(self):
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10.0),
            dns("D2", 1.0, "5.6.7.8", ttl=10000.0),
            dns("D3", 2.0, "5.6.7.8", ttl=10000.0),
        ]
        conns = [
            conn("C1", 100.0, "1.2.3.4"),   # expired fallback
            conn("C2", 100.0, "5.6.7.8"),   # two viable candidates
            conn("C3", 100.0, "9.9.9.9"),   # unpaired
        ]
        return pair_trace(records, conns)

    def test_from_paired_counts(self):
        census = PairingCensus.from_paired(self._paired())
        assert census.conns == 3
        assert census.paired == 2
        assert census.unique_viable == 1
        assert census.expired_pairings == 1
        assert census.expired_candidates == 1
        assert census.ambiguity_fraction == pytest.approx(0.5)
        assert census.expired_pairing_fraction == pytest.approx(0.5)

    def test_empty_census_fractions(self):
        census = PairingCensus.from_paired([])
        assert census.ambiguity_fraction == 0.0
        assert census.expired_pairing_fraction == 0.0


class TestPerHouseRandomStreams:
    def test_seeded_pairing_is_house_local(self):
        # A house's random pairings must not depend on which other
        # houses share the trace (the shard-invariance contract).
        records = [
            dns("D1", 0.0, "1.2.3.4", ttl=10000.0),
            dns("D2", 1.0, "1.2.3.4", ttl=10000.0),
            dns("D3", 2.0, "1.2.3.4", ttl=10000.0),
        ]
        other = [
            dns(f"E{i}", float(i) / 10.0, "5.6.7.8", ttl=10000.0, house=OTHER_HOUSE)
            for i in range(5)
        ]
        conns = [conn(f"C{i}", 10.0 + i, "1.2.3.4") for i in range(6)]
        noise = [conn(f"N{i}", 10.5 + i, "5.6.7.8", house=OTHER_HOUSE) for i in range(6)]
        alone = pair_trace(records, conns, policy=PairingPolicy.RANDOM_NON_EXPIRED, seed=3)
        mixed = pair_trace(
            records + other,
            conns + noise,
            policy=PairingPolicy.RANDOM_NON_EXPIRED,
            seed=3,
        )
        chosen_alone = [item.dns.uid for item in alone]
        chosen_mixed = [item.dns.uid for item in mixed if item.conn.orig_h == HOUSE]
        assert chosen_alone == chosen_mixed

    def test_same_seed_reproduces(self):
        records = [dns(f"D{i}", float(i), "1.2.3.4", ttl=10000.0) for i in range(4)]
        conns = [conn(f"C{i}", 10.0 + i, "1.2.3.4") for i in range(8)]
        first = pair_trace(records, conns, policy=PairingPolicy.RANDOM_NON_EXPIRED, seed=9)
        second = pair_trace(records, conns, policy=PairingPolicy.RANDOM_NON_EXPIRED, seed=9)
        assert [item.dns.uid for item in first] == [item.dns.uid for item in second]
