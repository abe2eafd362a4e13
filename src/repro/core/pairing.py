"""DN-Hunter pairing: connect application connections to DNS lookups.

Implements the technique of Bermudez et al. (IMC 2012) as the paper
uses it (§4): a connection from local address L to remote address R is
paired with the most recent *non-expired* DNS lookup by L whose answers
contain R. If every candidate is expired, the most recent expired one is
used (§5.2 measures exactly this population). Connections with no
candidate at all are unpaired — the `N` class.

The module also implements the paper's robustness check: an alternate
policy that pairs a *random* non-expired candidate instead of the most
recent one (§4), exposed through :data:`PairingPolicy`.

Pairing is strictly per-household: a connection only ever consults DNS
lookups made by its own house, and the random policy draws from a
per-house seeded stream (:func:`repro.simulation.random.derive_seed`).
Both properties make the stage shardable by household — the sharded
streaming pipeline (:mod:`repro.core.parallel`) produces byte-identical
pairings for any worker count.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AnalysisError
from repro.monitor.records import ConnRecord, DnsRecord
from repro.simulation.random import RandomStreams, derive_seed


class PairingPolicy(enum.Enum):
    """How to choose among multiple viable DNS candidates."""

    MOST_RECENT = "most-recent"
    RANDOM_NON_EXPIRED = "random-non-expired"


@dataclass(frozen=True, slots=True)
class PairedConnection:
    """One connection with its paired DNS transaction (if any).

    ``candidates`` counts the *viable* (non-expired) candidates the
    pairing chose among; for an expired fallback pairing it is 0.
    ``expired_candidates`` counts the expired candidates that were
    considered and rejected (or, for an expired pairing, fallen back
    on), so the two counters never mix populations.
    """

    conn: ConnRecord
    dns: DnsRecord | None
    candidates: int
    expired_pairing: bool
    first_use: bool
    expired_candidates: int = 0

    @property
    def paired(self) -> bool:
        """True when a DNS transaction was found for the connection."""
        return self.dns is not None

    @property
    def gap(self) -> float | None:
        """Seconds between DNS completion and connection start."""
        if self.dns is None:
            return None
        return self.conn.ts - self.dns.completed_at


@dataclass(slots=True)
class _Candidate:
    completed_at: float
    expires_at: float | None
    record: DnsRecord
    seq: int = 0


@dataclass(slots=True)
class _RecordState:
    """Reference counts keeping one indexed record reachable.

    ``live`` counts the per-address candidates still in the index;
    ``tails`` counts the keys where the record is the retained
    expired-fallback tail. A record retires — and is emitted by
    :meth:`DnsIndex.drain_expired` — when both hit zero, at which point
    no future connection can ever pair with it.
    """

    live: int = 0
    tails: int = 0


class DnsIndex:
    """Index of DNS transactions by (house, answered address).

    Two construction modes share one insertion path:

    * **Batch** — pass *dns_records* and the index holds the full
      history, exactly as :meth:`Pairer.pair_all` expects.
    * **Incremental** — construct empty and :meth:`offer` records in
      nondecreasing ``completed_at`` order; :meth:`drain_expired` then
      evicts TTL-expired candidates as stream time advances, keeping
      memory proportional to the live window instead of the trace.

    Eviction is exact with respect to batch pairing: an evicted
    candidate is, by construction, expired for every future connection,
    so only its *count* (for the expired-candidate census) and the
    single most recent expired candidate per key (the §4 expired
    fallback) need to survive. Both are retained — as an integer and a
    one-candidate tail — so incremental pairing after any number of
    drains matches :class:`Pairer` over the full history bit-for-bit.
    """

    def __init__(
        self, dns_records: Sequence[DnsRecord] = (), retain_records: bool = True
    ) -> None:
        self._by_house_address: dict[tuple[str, str], list[_Candidate]] = defaultdict(list)
        self._keys: dict[tuple[str, str], list[float]] = {}
        self.retain_records = retain_records
        self.records: list[DnsRecord] = []
        self.failed_records = 0
        self._seq = 0
        self._last_completed_s = -math.inf
        self._drained_to_s = -math.inf
        # Eviction state: a heap of pending expirations, per-key counts
        # of already-evicted candidates, per-key expired-fallback tails
        # (plus a heap to locate old tails for window trimming), and
        # per-record reachability refcounts.
        self._expiry_heap: list[
            tuple[float, int, DnsRecord, list[tuple[tuple[str, str], _Candidate]]]
        ] = []
        self._evicted: dict[tuple[str, str], int] = {}
        self._tails: dict[tuple[str, str], _Candidate] = {}
        self._tail_heap: list[tuple[float, int, tuple[str, str], _Candidate]] = []
        self._states: dict[str, _RecordState] = {}
        for record in sorted(dns_records, key=lambda record: record.completed_at):
            self.offer(record)

    def offer(self, record: DnsRecord) -> None:
        """Insert one DNS transaction (``completed_at`` must not regress).

        The incremental half of batch construction: the constructor
        sorts and feeds records through this same method.
        """
        if record.completed_at < self._last_completed_s:
            raise AnalysisError(
                f"DNS records must be offered in completed-time order: "
                f"{record.completed_at} after {self._last_completed_s}"
            )
        self._last_completed_s = record.completed_at
        if self.retain_records:
            self.records.append(record)
        if record.failed:
            # A timed-out or SERVFAIL transaction delivered no
            # mapping: it must never become a pairing candidate,
            # even if a malformed log line carries stray answers.
            self.failed_records += 1
            return
        self._seq += 1
        placements: list[tuple[tuple[str, str], _Candidate]] = []
        for address in record.addresses():
            key = (record.orig_h, address)
            candidate = _Candidate(
                completed_at=record.completed_at,
                expires_at=record.expires_at,
                record=record,
                seq=self._seq,
            )
            self._by_house_address[key].append(candidate)
            self._keys.setdefault(key, []).append(record.completed_at)
            placements.append((key, candidate))
        if not placements:
            return
        state = self._states.setdefault(record.uid, _RecordState())
        state.live += len(placements)
        if record.expires_at is not None:
            heapq.heappush(
                self._expiry_heap, (record.expires_at, self._seq, record, placements)
            )

    @property
    def live_records(self) -> int:
        """DNS records currently held live by the index.

        Counts records reachable through at least one candidate bucket
        or expired-fallback tail — the population TTL drains shrink.
        The streaming engine samples this as its peak-memory telemetry.
        """
        return len(self._states)

    def __getstate__(self) -> dict:
        """Pickle without the tail-locator heap; rebuilt on unpickle.

        ``_tail_heap`` only locates old tails for window trimming and
        already tolerates stale entries (pops verify against
        ``_tails`` and skip losers), so it is fully reconstructible
        from ``_tails``. Dropping it removes the biggest single
        component of a streaming checkpoint snapshot — the heap plus
        every stale entry it has accumulated. Trimming behaviour is
        unchanged: entries sort by their unique ``(completed_at,
        seq)`` prefix, so the rebuilt heap pops live tails in the
        same order the original would have, minus the skipped stales.
        ``_keys`` is likewise derivable: insertions and evictions
        mutate it in lockstep with ``_by_house_address``, so each
        entry is exactly its bucket's ``completed_at`` column.
        """
        state = self.__dict__.copy()
        del state["_tail_heap"]
        del state["_keys"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tail_heap = [
            (candidate.completed_at, candidate.seq, key, candidate)
            for key, candidate in self._tails.items()
        ]
        heapq.heapify(self._tail_heap)
        self._keys = {
            key: [candidate.completed_at for candidate in bucket]
            for key, bucket in self._by_house_address.items()
        }

    def candidates_before(self, house: str, address: str, when: float) -> list[_Candidate]:
        """Candidates for (house, address) completed at or before *when*."""
        candidates = self._by_house_address.get((house, address))
        if not candidates:
            return []
        times = self._keys[(house, address)]
        cut = bisect.bisect_right(times, when)
        return candidates[:cut]

    def viable_candidates(
        self, house: str, address: str, when: float
    ) -> tuple[list[_Candidate], int, _Candidate | None]:
        """Pairing inputs for a connection from *house* to *address* at *when*.

        Returns ``(non_expired, expired_count, fallback)``: the viable
        candidates in completed-time order, the number of expired
        candidates considered (evicted ones included), and — only when
        no candidate is viable — the most recent expired candidate, or
        None when the connection is unpairable.
        """
        if when < self._drained_to_s:
            raise AnalysisError(
                f"cannot pair at {when}: index already drained to {self._drained_to_s}"
            )
        key = (house, address)
        cut_candidates = self.candidates_before(house, address, when)
        evicted = self._evicted.get(key, 0)
        non_expired = [
            candidate
            for candidate in cut_candidates
            if candidate.expires_at is None or candidate.expires_at > when
        ]
        expired_count = evicted + len(cut_candidates) - len(non_expired)
        if non_expired:
            return non_expired, expired_count, None
        fallback = cut_candidates[-1] if cut_candidates else None
        tail = self._tails.get(key)
        if tail is not None and (
            fallback is None
            or (tail.completed_at, tail.seq) > (fallback.completed_at, fallback.seq)
        ):
            fallback = tail
        return [], expired_count, fallback

    def drain_expired(self, now_s: float, window_s: float | None = None) -> list[DnsRecord]:
        """Evict candidates expired at *now_s*; return fully retired records.

        Evicted candidates leave only an integer count and a per-key
        most-recent-expired tail behind (see the class docstring). With
        *window_s*, tails whose lookups completed more than a window ago
        are dropped too — bounding memory strictly, at the cost of exact
        batch parity for expired-fallback pairings with gaps beyond the
        window. A record with no remaining candidacy anywhere is
        *retired*: it is returned exactly once, and can never pair with
        any future connection.
        """
        if now_s < self._drained_to_s:
            raise AnalysisError(
                f"drain time must not regress: {now_s} before {self._drained_to_s}"
            )
        self._drained_to_s = now_s
        retired: list[DnsRecord] = []
        while self._expiry_heap and self._expiry_heap[0][0] <= now_s:
            _, _, record, placements = heapq.heappop(self._expiry_heap)
            state = self._states[record.uid]
            for key, candidate in placements:
                self._evict_candidate(key, candidate, retired)
                state.live -= 1
            if state.live == 0 and state.tails == 0:
                del self._states[record.uid]
                retired.append(record)
        if window_s is not None:
            horizon_s = now_s - window_s
            while self._tail_heap and self._tail_heap[0][0] < horizon_s:
                _, _, key, candidate = heapq.heappop(self._tail_heap)
                if self._tails.get(key) is candidate:
                    del self._tails[key]
                    self._release_tail(candidate, retired)
        return retired

    def _evict_candidate(
        self,
        key: tuple[str, str],
        candidate: _Candidate,
        retired: list[DnsRecord],
    ) -> None:
        """Remove one expired candidate, updating the per-key tail."""
        bucket = self._by_house_address[key]
        times = self._keys[key]
        index = bisect.bisect_left(times, candidate.completed_at)
        while bucket[index] is not candidate:
            index += 1
        del bucket[index]
        del times[index]
        if not bucket:
            del self._by_house_address[key]
            del self._keys[key]
        self._evicted[key] = self._evicted.get(key, 0) + 1
        tail = self._tails.get(key)
        if tail is None or (candidate.completed_at, candidate.seq) > (
            tail.completed_at,
            tail.seq,
        ):
            self._tails[key] = candidate
            self._states[candidate.record.uid].tails += 1
            heapq.heappush(
                self._tail_heap, (candidate.completed_at, candidate.seq, key, candidate)
            )
            if tail is not None:
                self._release_tail(tail, retired)

    def _release_tail(self, candidate: _Candidate, retired: list[DnsRecord]) -> None:
        """Drop one tail reference; retire its record if unreachable."""
        record = candidate.record
        state = self._states[record.uid]
        state.tails -= 1
        if state.live == 0 and state.tails == 0:
            del self._states[record.uid]
            retired.append(record)


class Pairer:
    """Pairs a connection log against a DNS transaction log.

    The random policy draws from per-house streams derived from *seed*,
    so a house's pairings do not depend on which other houses share the
    trace (the shard-invariance contract of household sharding). An
    explicitly supplied *rng* instead shares one stream across all
    houses in chronological order — kept for ablations that want the
    legacy behaviour, but not shard-invariant.
    """

    def __init__(
        self,
        dns_records: Sequence[DnsRecord] = (),
        policy: PairingPolicy = PairingPolicy.MOST_RECENT,
        rng: random.Random | None = None,
        seed: int = 0,
        retain_records: bool = True,
    ) -> None:
        self.index = DnsIndex(dns_records, retain_records=retain_records)
        self.policy = policy
        self._rng = rng
        self._streams: RandomStreams | None = None
        if policy == PairingPolicy.RANDOM_NON_EXPIRED and rng is None:
            self._streams = RandomStreams(derive_seed(seed, "pairing"))
        self._used_uids: set[str] = set()
        self._last_conn_ts_s = -math.inf

    def _rng_for(self, house: str) -> random.Random:
        """The random stream used for *house* (shared when rng injected)."""
        if self._rng is not None:
            return self._rng
        assert self._streams is not None
        return self._streams.stream(house)

    def offer_dns(self, record: DnsRecord) -> None:
        """Index one DNS transaction (nondecreasing ``completed_at``)."""
        self.index.offer(record)

    def offer(self, conn: ConnRecord) -> PairedConnection:
        """Pair one connection incrementally.

        Connections must arrive in timestamp order, after every DNS
        record completing at or before their start has been offered —
        the contract the streaming engine's event-time merge provides.
        First-use bookkeeping persists across calls (unlike
        :meth:`pair_all`, which starts a fresh pass).
        """
        if conn.ts < self._last_conn_ts_s:
            raise AnalysisError(
                f"connections must be offered in timestamp order: "
                f"{conn.ts} after {self._last_conn_ts_s}"
            )
        self._last_conn_ts_s = conn.ts
        result = self._pair_one(conn, self._used_uids)
        if result.dns is not None:
            self._used_uids.add(result.dns.uid)
        return result

    def drain_expired(self, now_s: float, window_s: float | None = None) -> list[DnsRecord]:
        """Evict candidates expired at *now_s*; return retired, never-paired records.

        Thin wrapper over :meth:`DnsIndex.drain_expired` that also
        settles first-use bookkeeping: a retired record's used-flag is
        final, so its uid leaves the used set (keeping it bounded) and
        only the never-paired records — the §5.2 "fetched but unused"
        population — are passed through.
        """
        unpaired: list[DnsRecord] = []
        for record in self.index.drain_expired(now_s, window_s=window_s):
            if record.uid in self._used_uids:
                self._used_uids.discard(record.uid)
            else:
                unpaired.append(record)
        return unpaired

    def pair_all(self, conns: list[ConnRecord]) -> list[PairedConnection]:
        """Pair every connection, in timestamp order.

        First-use accounting (is this connection the first to use its
        paired lookup?) requires processing connections chronologically;
        the input is sorted internally, and results are returned in that
        chronological order. A thin wrapper over :meth:`offer`: each
        call starts a fresh first-use pass (random-policy streams, by
        contrast, persist across calls).
        """
        ordered = sorted(conns, key=lambda conn: conn.ts)
        self._used_uids = set()
        self._last_conn_ts_s = -math.inf
        return [self.offer(conn) for conn in ordered]

    def _pair_one(self, conn: ConnRecord, used_uids: set[str]) -> PairedConnection:
        non_expired, expired_count, fallback = self.index.viable_candidates(
            conn.orig_h, conn.resp_h, conn.ts
        )
        if non_expired:
            if self.policy == PairingPolicy.RANDOM_NON_EXPIRED:
                chosen = self._rng_for(conn.orig_h).choice(non_expired)
            else:
                chosen = non_expired[-1]
            expired_pairing = False
        elif fallback is not None:
            # All candidates are expired: use the most recent one (§4).
            chosen = fallback
            expired_pairing = True
        else:
            return PairedConnection(
                conn=conn, dns=None, candidates=0, expired_pairing=False, first_use=False
            )
        return PairedConnection(
            conn=conn,
            dns=chosen.record,
            candidates=len(non_expired),
            expired_pairing=expired_pairing,
            first_use=chosen.record.uid not in used_uids,
            expired_candidates=expired_count,
        )


def pair_trace(
    dns_records: list[DnsRecord],
    conns: list[ConnRecord],
    policy: PairingPolicy = PairingPolicy.MOST_RECENT,
    rng: random.Random | None = None,
    seed: int = 0,
) -> list[PairedConnection]:
    """Pair a full trace (convenience wrapper around :class:`Pairer`)."""
    if not conns:
        raise AnalysisError("cannot pair an empty connection log")
    return Pairer(dns_records, policy=policy, rng=rng, seed=seed).pair_all(conns)


@dataclass(frozen=True, slots=True)
class PairingCensus:
    """§4 pairing counts.

    All fields are plain counters, which the streaming engine keeps
    online and :meth:`from_paired` counts from paired connections.
    ``unique_viable`` counts paired connections with at most one
    non-expired candidate — the paper's "82% have exactly one viable
    candidate" statistic — and deliberately excludes expired candidates
    from the ambiguity measure.
    """

    conns: int
    paired: int
    unique_viable: int
    expired_pairings: int
    expired_candidates: int

    @classmethod
    def from_paired(cls, paired: Sequence[PairedConnection]) -> "PairingCensus":
        """Count the pairing outcomes of *paired*."""
        with_pair = [item for item in paired if item.paired]
        return cls(
            conns=len(paired),
            paired=len(with_pair),
            unique_viable=sum(1 for item in with_pair if item.candidates <= 1),
            expired_pairings=sum(1 for item in with_pair if item.expired_pairing),
            expired_candidates=sum(item.expired_candidates for item in with_pair),
        )

    @property
    def ambiguity_fraction(self) -> float:
        """Share of paired connections with <=1 viable candidate."""
        if not self.paired:
            return 0.0
        return self.unique_viable / self.paired

    @property
    def expired_pairing_fraction(self) -> float:
        """Share of paired connections that fell back to an expired lookup."""
        if not self.paired:
            return 0.0
        return self.expired_pairings / self.paired


def ambiguity_fraction(paired: list[PairedConnection]) -> float:
    """Fraction of paired connections with a single viable candidate.

    The paper reports 82% of application transactions have exactly one
    non-expired candidate (§4). Expired candidates do not count toward
    ambiguity: a connection whose only candidates were expired has zero
    viable candidates and is therefore unambiguous.
    """
    return PairingCensus.from_paired(paired).ambiguity_fraction


def unused_lookup_fraction(dns_records: list[DnsRecord], paired: list[PairedConnection]) -> float:
    """Fraction of DNS transactions never paired with any connection (§5.2).

    Failed transactions are excluded from both numerator and denominator:
    they *cannot* pair by construction, so counting them would inflate
    the unused-lookup statistic with a population the paper's §5.2
    question (answers fetched but never used) is not about.
    """
    answered = [record for record in dns_records if not record.failed]
    if not answered:
        return 0.0
    used = {p.dns.uid for p in paired if p.dns is not None}
    unused = sum(1 for record in answered if record.uid not in used)
    return unused / len(answered)
