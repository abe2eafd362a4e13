"""Shared hypothesis strategies for synthetic DNS/conn record streams.

One vocabulary of generators for every property-based suite: plain
float samples for the statistics kernels, and correlated DNS/connection
record streams — time-ordered, with a controllable share of
connections actually answering a prior lookup — for the pairing,
streaming, and cache suites. Keeping them here means a test that needs
"a plausible little trace" composes these rather than hand-rolling
records, and tightening the generators improves every suite at once.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

#: Bounded, finite floats for the statistics kernels (CDFs, sketches).
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: Nonempty samples for distribution estimators.
float_samples = st.lists(finite_floats, min_size=1, max_size=200)

#: Nonnegative second quantities (durations, overstays, gaps).
seconds = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)

#: Strictly positive second quantities (TTLs, windows, intervals).
positive_seconds = st.floats(min_value=1.0, max_value=1e5, allow_nan=False, allow_infinity=False)

HOUSES = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
SERVERS = ("93.184.216.34", "93.184.216.35", "198.51.100.7", "203.0.113.9")
RESOLVERS = ("8.8.8.8", "1.1.1.1")
RCODES = ("NOERROR", "NOERROR", "NOERROR", "NXDOMAIN", "SERVFAIL", "-")


@st.composite
def dns_answers(draw, max_ttl_s: float = 600.0):
    """One answer record: mostly an A record from :data:`SERVERS`, else a CNAME."""
    ttl = draw(st.floats(min_value=1.0, max_value=max_ttl_s))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return DnsAnswer(data="edge.cdn.example.net", ttl=ttl, rtype="CNAME")
    return DnsAnswer(data=draw(st.sampled_from(SERVERS)), ttl=ttl)


@st.composite
def dns_record_streams(
    draw,
    min_size: int = 0,
    max_size: int = 25,
    max_gap_s: float = 120.0,
    max_rtt_s: float = 0.3,
    max_ttl_s: float = 600.0,
):
    """A ``ts``-ordered list of DNS transactions from a few households.

    Timestamps advance by bounded nonnegative deltas (ties allowed),
    successful answers carry one to three records — A records for
    servers from a small shared pool (so connection streams drawn
    against the same pool can pair; one lookup may repeat an address),
    or a CNAME, whose TTL still bounds the RRset's expiry — and rcodes
    mix successes with NXDOMAIN/SERVFAIL/timeout outcomes.
    """
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    records: list[DnsRecord] = []
    now_s = 0.0
    for index in range(count):
        now_s += draw(st.floats(min_value=0.0, max_value=max_gap_s))
        rcode = draw(st.sampled_from(RCODES))
        answers: tuple[DnsAnswer, ...] = ()
        if rcode == "NOERROR":
            answers = tuple(
                draw(dns_answers(max_ttl_s))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))
            )
        records.append(
            DnsRecord(
                ts=now_s,
                uid=f"D{index}",
                orig_h=draw(st.sampled_from(HOUSES)),
                orig_p=40000 + index,
                resp_h=draw(st.sampled_from(RESOLVERS)),
                resp_p=53,
                query=f"name{index}.example.com",
                rcode=rcode,
                rtt=0.0 if rcode == "-" else draw(st.floats(min_value=0.0, max_value=max_rtt_s)),
                answers=answers,
            )
        )
    return records


@st.composite
def conn_record_streams(
    draw,
    dns_records: list[DnsRecord],
    min_size: int = 1,
    max_size: int = 30,
    max_gap_s: float = 90.0,
    max_duration_s: float = 30.0,
):
    """A ``ts``-ordered connection list correlated with *dns_records*.

    Each connection either follows up a previously completed lookup
    from the same house (same server address, started at a bounded lag
    after completion — the pairable population) or goes to an arbitrary
    server (the NO-DNS population). Pass the output of
    :func:`dns_record_streams` to keep both streams on one address pool.
    """
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    conns: list[ConnRecord] = []
    now_s = 0.0
    for index in range(count):
        now_s += draw(st.floats(min_value=0.0, max_value=max_gap_s))
        completed = [
            record
            for record in dns_records
            if record.completed_at <= now_s and record.addresses()
        ]
        source = None
        if completed and draw(st.booleans()):
            source = draw(st.sampled_from(completed))
        conns.append(
            ConnRecord(
                ts=now_s,
                uid=f"C{index}",
                orig_h=source.orig_h if source is not None else draw(st.sampled_from(HOUSES)),
                orig_p=50000 + index,
                resp_h=draw(
                    st.sampled_from(source.addresses() if source is not None else SERVERS)
                ),
                resp_p=443,
                proto=Proto.TCP,
                duration=draw(st.floats(min_value=0.0, max_value=max_duration_s)),
                orig_bytes=draw(st.integers(min_value=0, max_value=1 << 20)),
                resp_bytes=draw(st.integers(min_value=0, max_value=1 << 20)),
            )
        )
    return conns


#: Text for serialized string fields: any non-surrogate unicode except
#: the TSV framing characters (tab/newline, which the text log escapes
#: lossily). Nonempty and never the literal markers "-" (TSV's unset
#: sentinel) or "(empty)" (its alias for an empty query or vector),
#: because a field *spelling* a marker aliases to the marked meaning on
#: TSV read — the binary format's exactness on those values has its own
#: directed test.
field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=12,
).filter(lambda value: value not in ("-", "(empty)"))

#: Text for vector-element fields (answer data/types): TSV joins answer
#: vectors with ",", so a comma *inside* an element splits it on read —
#: commas are additionally excluded here.
vector_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r,"),
    min_size=1,
    max_size=12,
).filter(lambda value: value not in ("-", "(empty)"))

#: Valid u16 port numbers (the binary format's column width).
ports = st.integers(min_value=0, max_value=65535)

#: Nonnegative timestamps/durations that survive ``%.6f`` text
#: round-trips losslessly enough for byte-stable TSV re-encoding.
_field_seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def full_dns_records(draw, min_size: int = 0, max_size: int = 20):
    """DNS records exercising every serialized field independently.

    Unlike :func:`dns_record_streams` (which builds *plausible* traces
    for the analysis suites), this drives each field across its full
    domain — unicode names, boundary ports, multi-answer sets — for the
    format round-trip suites, where pathological values matter more
    than realism.
    """
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    records: list[DnsRecord] = []
    for index in range(count):
        answers = tuple(
            DnsAnswer(
                data=draw(vector_text),
                ttl=draw(_field_seconds),
                rtype=draw(vector_text),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=4)))
        )
        records.append(
            DnsRecord(
                ts=draw(_field_seconds),
                uid=f"D{index:08x}",
                orig_h=draw(field_text),
                orig_p=draw(ports),
                resp_h=draw(field_text),
                resp_p=draw(ports),
                query=draw(field_text),
                qtype=draw(field_text),
                rcode=draw(field_text),
                rtt=draw(_field_seconds),
                answers=answers,
                proto=draw(st.sampled_from(Proto)),
            )
        )
    return records


@st.composite
def full_conn_records(draw, min_size: int = 0, max_size: int = 20):
    """Connection records exercising every serialized field (see
    :func:`full_dns_records` for why this exists next to the plausible
    stream strategies)."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    records: list[ConnRecord] = []
    for index in range(count):
        records.append(
            ConnRecord(
                ts=draw(_field_seconds),
                uid=f"C{index:08x}",
                orig_h=draw(field_text),
                orig_p=draw(ports),
                resp_h=draw(field_text),
                resp_p=draw(ports),
                proto=draw(st.sampled_from(Proto)),
                duration=draw(_field_seconds),
                orig_bytes=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
                resp_bytes=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
                service=draw(field_text),
                conn_state=draw(field_text),
            )
        )
    return records


@st.composite
def trace_streams(draw, max_lookups: int = 25, max_conns: int = 30):
    """A correlated ``(dns_records, conns)`` pair, both ``ts``-ordered.

    The one-call strategy for whole-pipeline properties: the connection
    stream is drawn against the DNS stream, so a healthy share of
    connections pair, expire, and contend for candidates.
    """
    dns_records = draw(dns_record_streams(max_size=max_lookups))
    conns = draw(conn_record_streams(dns_records, max_size=max_conns))
    return dns_records, conns
