"""The passive monitor at the ISP aggregation point.

:class:`MonitorCapture` is the sink the simulated network feeds: every
on-the-wire DNS transaction and every connection crossing the
aggregation point is recorded here, at house granularity (the houses NAT
their devices, so the monitor sees one IP per house — exactly the
paper's vantage point). The result is a :class:`Trace`: the two datasets
the paper's analysis runs on, plus optional ground-truth annotations the
validation tests use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter

from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, GroundTruth, Proto


@dataclass
class Trace:
    """A captured dataset: DNS transactions plus connection summaries."""

    dns: list[DnsRecord] = field(default_factory=list)
    conns: list[ConnRecord] = field(default_factory=list)
    truth: dict[str, GroundTruth] = field(default_factory=dict)
    duration: float = 0.0
    houses: int = 0

    def sort(self) -> None:
        """Order both logs by timestamp (stable), as Zeek logs are."""
        # attrgetter extracts the key in C — at week scale these lists
        # run to hundreds of thousands of records.
        self.dns.sort(key=attrgetter("ts"))
        self.conns.sort(key=attrgetter("ts"))

    def sort_canonical(self) -> None:
        """Order both logs by ``(ts, uid)`` — a *total* order.

        Plain ``sort()`` breaks timestamp ties by insertion order, which
        is exactly what a merge of independently generated parts cannot
        reproduce: the concatenation order depends on how the parts were
        partitioned. Generator uids are zero-padded fixed-width hex with
        the house index leading, so the lexicographic uid tiebreak is
        simultaneously deterministic, partition-independent, and equal to
        house-then-capture order — any shard count sorts to the same
        byte sequence.
        """
        key = attrgetter("ts", "uid")
        self.dns.sort(key=key)
        self.conns.sort(key=key)

    def house_addresses(self) -> set[str]:
        """Distinct originating (house) IPs across both logs."""
        addresses = {record.orig_h for record in self.dns}
        addresses |= {record.orig_h for record in self.conns}
        return addresses

    def summary(self) -> str:
        """A one-line description of the trace."""
        return (
            f"Trace({len(self.dns)} DNS transactions, {len(self.conns)} connections, "
            f"{self.houses or len(self.house_addresses())} houses, "
            f"{self.duration:.0f}s)"
        )


def trace_digest(trace: Trace) -> str:
    """SHA-256 over a canonical serialization of every field of *trace*.

    The digest covers both logs (in their stored order), the ground-truth
    annotations (keyed order), and the trace metadata. Floats are
    serialized with ``repr`` so every bit of the value participates:
    two traces share a digest if and only if they are byte-identical.
    The golden-hash regression tests pin these digests to prove that
    performance work on the generator never perturbs its output.
    """
    hasher = hashlib.sha256()
    update = hasher.update
    update(f"trace|houses={trace.houses}|duration={trace.duration!r}\n".encode())
    for record in trace.dns:
        answers = ";".join(
            f"{answer.data},{answer.ttl!r},{answer.rtype}" for answer in record.answers
        )
        update(
            (
                f"D|{record.ts!r}|{record.uid}|{record.orig_h}|{record.orig_p}"
                f"|{record.resp_h}|{record.resp_p}|{record.query}|{record.qtype}"
                f"|{record.rcode}|{record.rtt!r}|{record.proto.value}|{answers}\n"
            ).encode()
        )
    for conn in trace.conns:
        update(
            (
                f"C|{conn.ts!r}|{conn.uid}|{conn.orig_h}|{conn.orig_p}"
                f"|{conn.resp_h}|{conn.resp_p}|{conn.proto.value}|{conn.duration!r}"
                f"|{conn.orig_bytes}|{conn.resp_bytes}|{conn.service}|{conn.conn_state}\n"
            ).encode()
        )
    for uid in sorted(trace.truth):
        truth = trace.truth[uid]
        update(
            (
                f"T|{uid}|{truth.truth_class.value}|{truth.hostname}"
                f"|{truth.dns_uid}|{truth.used_expired_record}|{truth.resolver_platform}\n"
            ).encode()
        )
    return hasher.hexdigest()


def merge_traces(parts: list[Trace], duration_s: float, houses: int) -> Trace:
    """Combine independently captured trace *parts* into one trace.

    The deterministic timeline reduce behind intra-scenario sharding:
    records are concatenated and re-ordered by the canonical ``(ts,
    uid)`` total order (see :meth:`Trace.sort_canonical`), truth
    annotations are united (uids are namespaced per part, so keys never
    collide). The result is byte-identical for every partition of the
    houses into parts — including the trivial one-part partition the
    serial path uses.
    """
    merged = Trace(duration=duration_s, houses=houses)
    for part in parts:
        merged.dns.extend(part.dns)
        merged.conns.extend(part.conns)
        merged.truth.update(part.truth)
    merged.sort_canonical()
    return merged


class MonitorCapture:
    """Collects monitor observations during a simulation run.

    ``uid_namespace`` prefixes every minted uid (between the ``D``/``C``
    kind letter and the fixed-width counter). Per-house captures pass
    the zero-padded house index so uids stay globally unique across
    independently simulated houses and sort in house-then-capture order.

    ``warmup_s`` shifts every ``ts`` so the measurement window starts at
    zero. Warm-up DNS transactions are kept (negative ``ts``), as the
    paper's week-long capture pairs early connections with the lookups
    before it; a warm-up connection takes its uid but is not stored.
    """

    def __init__(self, uid_namespace: str = "", warmup_s: float = 0.0) -> None:
        self.trace = Trace()
        self._warmup_s = warmup_s
        # Plain counters (formatted on use) rather than generator uid
        # streams: next()-ing a generator is measurable at week scale.
        self._dns_count = 0
        self._conn_count = 0
        self._dns_prefix = "D" + uid_namespace
        self._conn_prefix = "C" + uid_namespace
        self._append_dns = self.trace.dns.append
        self._append_conn = self.trace.conns.append

    def record_dns(
        self,
        ts: float,
        orig_h: str,
        orig_p: int,
        resp_h: str,
        query: str,
        rtt: float,
        answers: tuple[DnsAnswer, ...],
        qtype: str = "A",
        rcode: str = "NOERROR",
    ) -> DnsRecord:
        """Record one wire-visible DNS transaction; returns the record."""
        self._dns_count += 1
        # Positional construction (field order per records.py): these two
        # record factories run once per wire event, week-scale millions.
        record = DnsRecord(
            ts - self._warmup_s,
            f"{self._dns_prefix}{self._dns_count:08x}",
            orig_h,
            orig_p,
            resp_h,
            53,
            query,
            qtype,
            rcode,
            rtt,
            answers,
            Proto.UDP,
        )
        self._append_dns(record)
        return record

    def record_conn(
        self,
        ts: float,
        orig_h: str,
        orig_p: int,
        resp_h: str,
        resp_p: int,
        proto: Proto,
        duration: float,
        orig_bytes: int,
        resp_bytes: int,
        service: str = "-",
        conn_state: str = "SF",
        truth: GroundTruth | None = None,
    ) -> ConnRecord | None:
        """Record one connection summary; returns the record.

        When *truth* is given it is keyed under the freshly assigned uid.
        A connection from the warm-up returns None.
        """
        self._conn_count += 1
        if ts < self._warmup_s:
            return None
        record = ConnRecord(
            ts - self._warmup_s,
            f"{self._conn_prefix}{self._conn_count:08x}",
            orig_h,
            orig_p,
            resp_h,
            resp_p,
            proto,
            duration,
            orig_bytes,
            resp_bytes,
            service,
            conn_state,
        )
        self._append_conn(record)
        if truth is not None:
            self.trace.truth[record.uid] = truth
        return record

    def finish(self, duration: float, houses: int) -> Trace:
        """Finalise and return the trace (sorted by time)."""
        self.trace.duration = duration
        self.trace.houses = houses
        self.trace.sort()
        return self.trace
