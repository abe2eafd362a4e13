"""Crash-safe checkpoint/resume for the one-pass streaming engine.

A long streaming run (a week-scale trace, or a live tail that never
ends) is itself a failure domain: the process can be OOM-killed,
preempted, or power-cycled mid-pass. This module makes that survivable
by periodically snapshotting the *entire* resumable state of a run —
the :class:`~repro.core.streaming.StreamingAnalyzer` (pairing index,
observer, accumulated :class:`StreamingState`) plus the
:class:`~repro.core.streaming.StreamMerger` frontier (pending
completions, lookahead records, ordering guards) — so a restarted
process continues exactly where the dead one stopped and produces a
report byte-identical to an uninterrupted run.

**File format.** One self-describing ASCII JSON header line followed by
a pickle payload::

    {"magic": "repro-stream-ckpt", "version": 2, "config": <sha256>,
     "event_ts": T, "dns_consumed": N, "dns_chain": <sha256>,
     "conn_consumed": M, "conn_chain": <sha256>,
     "payload_bytes": B, "payload_sha256": <sha256>}\n
    <pickle of (StreamingAnalyzer, merger frontier)>

``config`` digests the full :class:`StreamingConfig` (plus the format
version), so resuming under different analysis knobs is rejected
outright rather than silently merged. ``dns_chain``/``conn_chain`` are
running hash chains over the ``(uid, ts)`` of every input record
consumed so far; on resume the skipped prefix of the re-opened logs
must reproduce the chains exactly, so resuming against a *different*
trace (or a rewritten log) is also rejected. ``payload_sha256`` guards
against torn tails: a checkpoint that fails any header or payload check
raises :class:`~repro.errors.CheckpointError` — never a partial load.

**Atomicity.** Every write goes through :func:`atomic_write_bytes`:
write to ``path + ".tmp"``, ``fsync`` the file, ``os.replace`` onto the
destination, then ``fsync`` the directory. A crash at any instant
leaves either the previous checkpoint or the new one — never a torn
file — and a stale ``.tmp`` from a killed writer is inert (the next
snapshot truncates it). repro-lint rule CKPT001 enforces that no other
code path opens a checkpoint file for writing.

**Cadence.** Snapshot timing is driven by *stream time* (the event
clock of the records themselves), not the wall clock — the analysis
layer is deterministic and wall-clock-free by repo invariant, and a
stream-time cadence makes the snapshot points (and therefore the whole
crash/resume state machine) reproducible for the chaos harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.core.streaming import (
    StreamingAnalyzer,
    StreamingConfig,
    StreamingState,
    StreamMerger,
)
from repro.errors import CheckpointError
from repro.monitor.records import ConnRecord, DnsRecord

CHECKPOINT_MAGIC = "repro-stream-ckpt"
"""First header field of every checkpoint file."""

CHECKPOINT_VERSION = 6
"""Bumped on any incompatible change to the header or payload layout.

Version 2: pairing-index expiry entries hold one shared candidate per
lookup and its keys, not per-address (key, candidate) pairs.
Version 3: each candidate carries its own reachability counts and
first-use flag; the uid-keyed record states and used-uid set are gone.
Version 4: ``StreamingConfig``, pickled with the analyzer and digested
into the header, lost its sketch-epsilon and drain-interval fields; the
engine reads ``DEFAULT_SKETCH_EPSILON`` and ``DEFAULT_DRAIN_INTERVAL_S``.
Version 5: the resolver observer lost its per-resolver failed-lookup
tally (the failure stats count failures by outcome).
Version 6: the pairing index holds the analysis window, which decides
at pairing time which expired fallbacks a connection may use.
"""

DEFAULT_CHECKPOINT_INTERVAL_S = 172800.0
"""Default snapshot cadence in *stream* seconds (48 h of trace time).

Chosen so the bench-measured overhead on a week-scale trace stays
under the 5% budget: each snapshot pickles the full pairing frontier
(and in exact mode the deferred sample buffers, which grow with the
trace), so a coarse cadence keeps the serialization volume small
relative to analysis work. Replay after a crash is bounded by two
stream-*days*, which the engine recomputes in a few wall-seconds —
snapshots exist to bound replay, and replay is cheap, so the cadence
errs toward cheap steady-state. Dense cadences remain available for
tests and short live tails via ``--checkpoint-interval-s``.
"""

_CHAIN_SEED = b"repro-record-chain"
"""Initial bytes folded into every record hash chain."""

_CHAIN_FLUSH_RECORDS = 4096
"""Fold the deferred record buffers into the hashers at this many
records. Beyond bounding buffer memory, a short deferral window keeps
the retained uid strings short-lived: when the input is parsed
straight off disk those strings would otherwise die with their
record, and pinning tens of thousands of them degrades allocator
locality for the analysis running in between. Join-and-hash still
amortizes to well under 0.1 µs per record at this size."""

_CADENCE_STRIDE = 256
"""Consult stream time for the snapshot cadence only every this many
events. The per-event hot path then pays one integer decrement instead
of computing an event timestamp and comparing it against the next
snapshot boundary; the snapshot point shifts by at most a couple
hundred events past the exact interval crossing, which is noise
against a multi-hour interval and irrelevant to resume correctness
(the chain and count are still exact per record)."""


def config_digest(config: StreamingConfig) -> str:
    """Digest the full streaming configuration (plus format version).

    ``StreamingConfig`` is a tree of frozen dataclasses and enums, so
    its ``repr`` is a deterministic, complete rendering of every knob —
    any change to any analysis parameter changes the digest and makes
    old checkpoints non-resumable under the new configuration.
    """
    text = f"v{CHECKPOINT_VERSION}:{config!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class HashingReader:
    """Wrap a record iterable, counting and hash-chaining what it yields.

    The chain digests the ``(uid, ts)`` of every record consumed so
    far, but the per-record hot path only appends two references — the
    uid string into a list and the timestamp into an ``array('d')`` —
    and all encoding and sha256 work happens in bulk at :attr:`chain`
    reads (snapshot and resume time) and at a coarse size bound, as
    one big ``update`` per buffer. Each buffer feeds its own running
    hasher (uids newline-joined, timestamps as packed float64s), so
    the digest depends only on the record sequence, never on where the
    flush boundaries fell — a resumed reader replaying the prefix
    through :meth:`skip_to` reproduces the writer's chain exactly or
    refuses to continue.
    """

    __slots__ = (
        "_uid_buffer",
        "_ts_buffer",
        "_uid_hasher",
        "_ts_hasher",
        "_hashed_count",
        "_generator",
        "label",
    )

    def __init__(
        self,
        records: Iterable[DnsRecord] | Iterable[ConnRecord],
        label: str,
    ) -> None:
        self.label = label
        self._uid_buffer: list[str] = []
        self._ts_buffer = array("d")
        self._uid_hasher = hashlib.sha256(_CHAIN_SEED)
        self._ts_hasher = hashlib.sha256(_CHAIN_SEED)
        self._hashed_count = 0
        self._generator = self._read(iter(records))

    def _read(self, iterator: Iterator[Any]) -> Iterator[Any]:
        # A generator rather than a __next__ method: resuming a
        # suspended frame is several times cheaper than a Python method
        # call, and this runs once per record of a week-scale stream.
        uid_append = self._uid_buffer.append
        ts_append = self._ts_buffer.append
        budget = _CHAIN_FLUSH_RECORDS - len(self._ts_buffer)
        for record in iterator:
            uid_append(record.uid)
            ts_append(record.ts)
            budget -= 1
            if not budget:
                self._flush()
                budget = _CHAIN_FLUSH_RECORDS
            yield record

    def __iter__(self) -> Iterator[Any]:
        return self._generator

    def __next__(self) -> Any:
        return next(self._generator)

    def _flush(self) -> None:
        """Fold the deferred buffers into the running hashers.

        ``_flush`` clears the buffers in place so the bound references
        inside the reading generator stay valid. The uid stream hashes
        as one newline-terminated line per record (log uids never
        contain a newline), matching record-at-a-time framing no
        matter how many records each flush covers.
        """
        self._uid_hasher.update(("\n".join(self._uid_buffer) + "\n").encode("utf-8"))
        self._ts_hasher.update(self._ts_buffer.tobytes())
        self._hashed_count += len(self._ts_buffer)
        del self._uid_buffer[:]
        del self._ts_buffer[:]

    @property
    def count(self) -> int:
        """Records yielded so far."""
        return self._hashed_count + len(self._ts_buffer)

    @property
    def chain(self) -> str:
        """Hash chain over every record yielded so far.

        Combines the uid-stream and timestamp-stream digests: uids are
        newline-terminated (log uids never contain a newline) and
        timestamps fixed-width float64s, so both byte streams — and
        therefore the combined chain — are unambiguous functions of
        the consumed record prefix.
        """
        if self._ts_buffer:
            self._flush()
        combined = hashlib.sha256(_CHAIN_SEED)
        combined.update(self._uid_hasher.digest())
        combined.update(self._ts_hasher.digest())
        return combined.hexdigest()

    def skip_to(self, count: int, chain: str) -> None:
        """Consume the first *count* records, verifying the chain."""
        while self.count < count:
            try:
                next(self)
            except StopIteration:
                raise CheckpointError(
                    f"cannot resume: the {self.label} log has only {self.count} "
                    f"records but the checkpoint consumed {count}"
                ) from None
        if self.chain != chain:
            raise CheckpointError(
                f"cannot resume: the first {count} {self.label} records do not "
                "match the ones the checkpoint consumed (different or "
                "rewritten input trace)"
            )


@dataclass(frozen=True, slots=True)
class CheckpointConfig:
    """Where and how often to snapshot a streaming run."""

    path: str
    interval_s: float = DEFAULT_CHECKPOINT_INTERVAL_S

    def __post_init__(self) -> None:
        if not 0 < self.interval_s < math.inf:
            raise CheckpointError(
                f"checkpoint interval must be positive and finite, got {self.interval_s}"
            )


@dataclass(slots=True)
class CheckpointTelemetry:
    """Mutable side-channel recording what a checkpointed run did."""

    snapshots: int = 0
    bytes_total: int = 0
    last_bytes: int = 0
    resumed: bool = False
    resumed_event_ts: float | None = None

    @property
    def bytes_per_snapshot(self) -> float:
        """Mean serialized size of one snapshot (0.0 when none taken)."""
        if not self.snapshots:
            return 0.0
        return self.bytes_total / self.snapshots


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write *payload* to *path* atomically and durably.

    Temp-file + fsync + rename: a reader (including a post-crash
    resume) only ever observes the old complete file or the new
    complete file. The directory fsync makes the rename itself durable;
    on filesystems that reject directory fsync it degrades to the
    rename's natural durability rather than failing the checkpoint.
    """
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as stream:
        stream.write(payload)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temp_path, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def write_checkpoint(
    checkpoint: CheckpointConfig,
    digest: str,
    analyzer: StreamingAnalyzer,
    merger: StreamMerger,
    dns_reader: HashingReader,
    conn_reader: HashingReader,
    event_ts: float,
    telemetry: CheckpointTelemetry | None = None,
) -> int:
    """Snapshot the full resumable state; returns bytes written."""
    payload = pickle.dumps(
        (analyzer, merger.snapshot()), protocol=pickle.HIGHEST_PROTOCOL
    )
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": digest,
        "event_ts": event_ts,
        "dns_consumed": dns_reader.count,
        "dns_chain": dns_reader.chain,
        "conn_consumed": conn_reader.count,
        "conn_chain": conn_reader.chain,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
    atomic_write_bytes(checkpoint.path, blob)
    if telemetry is not None:
        telemetry.snapshots += 1
        telemetry.bytes_total += len(blob)
        telemetry.last_bytes = len(blob)
    return len(blob)


def load_checkpoint(
    path: str, digest: str
) -> tuple[dict[str, Any], StreamingAnalyzer, Any]:
    """Load and fully validate a checkpoint file.

    Returns ``(header, analyzer, merger_frontier)``. Any structural
    problem — bad magic/version, truncated or corrupt payload — and any
    mismatch against *digest* (the current configuration) raises
    :class:`CheckpointError`; a load never partially succeeds.
    """
    try:
        with open(path, "rb") as stream:
            header_line = stream.readline()
            payload = stream.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} is not a checkpoint file") from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {header.get('version')}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if header.get("config") != digest:
        raise CheckpointError(
            "cannot resume: the checkpoint was written under a different "
            "streaming configuration (config digest mismatch); rerun with "
            "the original settings or start fresh without --resume"
        )
    if header.get("payload_bytes") != len(payload) or (
        header.get("payload_sha256") != hashlib.sha256(payload).hexdigest()
    ):
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt")
    # The sha256 check above already rejects bit-level corruption, so the
    # unpickle only fails on a payload from an incompatible build; the
    # tuple covers what the pickle machinery raises for those.
    try:
        analyzer, frontier = pickle.loads(payload)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        ValueError,
        TypeError,
        UnicodeDecodeError,
        MemoryError,
    ) as exc:
        raise CheckpointError(f"checkpoint {path} payload is corrupt: {exc}") from exc
    if not isinstance(analyzer, StreamingAnalyzer):
        raise CheckpointError(f"checkpoint {path} payload is corrupt")
    return header, analyzer, frontier


def discard_checkpoint(path: str) -> None:
    """Remove a checkpoint (and any stale temp file) if present."""
    for stale in (path, path + ".tmp"):
        try:
            os.remove(stale)
        except FileNotFoundError:
            pass


def run_checkpointed_stream(
    dns_records: Iterable[DnsRecord],
    conns: Iterable[ConnRecord],
    config: StreamingConfig | None = None,
    *,
    checkpoint: CheckpointConfig,
    resume: bool = False,
    telemetry: CheckpointTelemetry | None = None,
) -> StreamingState:
    """:func:`~repro.core.streaming.analyze_stream` with crash safety.

    Streams both logs through one analyzer, snapshotting to
    ``checkpoint.path`` whenever stream time crosses an
    ``interval_s`` boundary (consulted every :data:`_CADENCE_STRIDE`
    events to keep the hot loop cheap, and measured after the crossing
    event is folded in — so a resumed run replays no event twice and
    skips none). With ``resume=True`` an existing, valid
    checkpoint is loaded, the consumed input prefix is skipped and
    chain-verified, and the pass continues; a missing checkpoint file
    simply starts fresh (the crash may have predated the first
    snapshot). The checkpoint file is left in place on completion —
    callers that know the run is final (the CLI) discard it.
    """
    if config is None:
        config = StreamingConfig()
    dns_reader = HashingReader(dns_records, "dns")
    conn_reader = HashingReader(conns, "conn")
    next_snapshot_ts: float | None = None
    digest = config_digest(config)
    if resume and os.path.exists(checkpoint.path):
        header, analyzer, frontier = load_checkpoint(checkpoint.path, digest)
        dns_reader.skip_to(header["dns_consumed"], header["dns_chain"])
        conn_reader.skip_to(header["conn_consumed"], header["conn_chain"])
        merger = StreamMerger.restore(dns_reader, conn_reader, frontier)
        next_snapshot_ts = float(header["event_ts"]) + checkpoint.interval_s
        if telemetry is not None:
            telemetry.resumed = True
            telemetry.resumed_event_ts = float(header["event_ts"])
    else:
        analyzer = StreamingAnalyzer(config)
        merger = StreamMerger(dns_reader, conn_reader)
    offer_dns = analyzer.offer_dns
    offer_conn = analyzer.offer_conn
    interval_s = checkpoint.interval_s
    due = stride = _CADENCE_STRIDE
    for kind, record in merger:
        if kind == "dns":
            offer_dns(record)
        else:
            offer_conn(record)
        due -= 1
        if due:
            continue
        due = stride
        if kind == "dns":
            event_ts = record.ts + record.rtt  # inlined completed_at
        else:
            event_ts = record.ts
        if next_snapshot_ts is None:
            next_snapshot_ts = event_ts + interval_s
        elif event_ts >= next_snapshot_ts:
            write_checkpoint(
                checkpoint,
                digest,
                analyzer,
                merger,
                dns_reader,
                conn_reader,
                event_ts,
                telemetry,
            )
            while next_snapshot_ts <= event_ts:
                next_snapshot_ts += interval_s
    return analyzer.finish()
