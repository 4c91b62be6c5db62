"""Append-only event journal (write-ahead log) for crash recovery.

The journal is the durability half of the recovery story: every event
is appended *before* it is dispatched to any executor, so after a crash
the engine state can be rebuilt as ``latest checkpoint + replay of the
journal suffix``. Because A-Seq checkpoints are tiny (a handful of
counters, see :mod:`repro.core.checkpoint`), the journal only ever
needs to cover the short gap since the last checkpoint — but it is
written unconditionally so *any* crash point is recoverable.

Format: segments of records, each append call writing one record for
the whole batch it was given. A record is one of two kinds, chosen by
the shape of the append — there is no knob:

* a *frame record*, for a columnar
  :class:`~repro.events.batch.EventBatch`
  (:meth:`EventJournal.append_event_batch`)::

      <crc32, 8 hex chars> @<seq> <nbytes>\n<batch.to_wire()>\n

  The CRC covers the ``@<seq> <nbytes>\n`` header and the ``nbytes``
  frame bytes. The frame is read back with
  :meth:`~repro.events.batch.EventBatch.from_wire`, so replay yields
  the batch itself with no ``Event`` in between;
* a *column record*, one JSON line, for a list of events
  (:meth:`EventJournal.append_batch`) and for a batch holding an
  ``object`` column (whose frame would carry a pickle — no pickle is
  ever written to or read from a journal; a frame whose header
  declares an object segment is refused before anything is
  unpickled)::

      <crc32-of-payload, 8 hex chars> <payload JSON>\n

      5debfd2a {"seq":17,"type":["DELL","IPIX"],"ts":[421,425],
                "attrs":[{"price":12.5},null]}

  (one line on disk).

``seq`` is the sequence number of the record's first event; event *i*
of the record holds ``seq + i``, so sequence numbers stay per event —
checkpoints, dead letters and count-skip dedup never see the record
boundary, and a reader starting at a sequence inside a record skips
that record's earlier events. A column record's three columns must be
of equal length; a record whose columns disagree is corruption, never
truncated to the shortest. The per-event shape earlier versions wrote
(``{"seq":17,"type":"DELL","ts":421,"attrs":{...}}``, attrs omitted
when empty) is still read, so a journal written before the batch
record recovers unchanged; a directory may hold every kind, in any
order. Segments rotate at a byte threshold and are named by the
sequence number of their first record (``journal-000000000000.wal``),
so a reader replaying from offset *n* can skip whole segments without
parsing them.

Torn writes: a crash mid-append leaves a partial or CRC-failing final
record in the *last* segment — a column line without its newline, or a
frame that is short, lacks its trailing newline, fails its CRC or fails
``from_wire``. :func:`iter_records` stops at the first such record; the
readers tolerate exactly that at the end of the last segment, dropping
that record's whole batch, and the next writer truncates it away.
Nothing of it was dispatched: the supervised engine journals a batch
completely before any executor sees its first event, and the sharded
router before any shard does. A bad record anywhere else is real
corruption and raises :class:`~repro.errors.JournalError`.

Checkpoints live beside the segments, and the journal owns them:
:meth:`EventJournal.checkpoint` writes one generation (the newest
:data:`~repro.resilience.checkpointer.RETAIN_CHECKPOINTS` are kept) and
deletes every segment wholly below the *oldest* retained generation's
``journal_seq``, so a fallback over a corrupt newest generation still
finds its whole suffix. The supervised engine's directory, each durable
shard's and the router's follow this one rule; :class:`MemoryShardLog`
is the non-durable twin a shard without a directory keeps. Either holds
the :class:`~repro.events.batch.EventBatch` objects a shard was sent,
one record per batch, and replays them as batches.

Durability policy (``fsync``): ``"never"`` leaves flushing to the OS
(fastest, loses the tail on power failure), ``"interval"`` fsyncs once
``fsync_interval`` events have been appended since the last fsync,
``"always"`` fsyncs per record (slowest, loses nothing). All three
survive a process crash; the policy only matters for whole-machine
failures.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CheckpointError, JournalError, StreamError
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.resilience.checkpointer import (
    RETAIN_CHECKPOINTS,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".wal"
FSYNC_POLICIES = ("never", "interval", "always")

_SEPARATORS = (",", ":")
# json.dumps(..., separators=...) constructs a fresh JSONEncoder per
# call; the journal encodes one record per append, so reuse one.
_encode_json = json.JSONEncoder(separators=_SEPARATORS).encode


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:012d}{SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as error:
        raise JournalError(f"malformed segment name {path.name!r}") from error


def list_segments(directory: str | Path) -> list[Path]:
    """Journal segments in ``directory``, ordered by first sequence."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    segments = [
        path
        for path in directory.iterdir()
        if path.name.startswith(SEGMENT_PREFIX)
        and path.name.endswith(SEGMENT_SUFFIX)
    ]
    return sorted(segments, key=_segment_first_seq)


def _encode_columns(
    first_seq: int, types: Sequence, stamps: Sequence, attrs: Sequence
) -> bytes:
    data = _encode_json({
        "seq": first_seq, "type": types, "ts": stamps, "attrs": attrs,
    }).encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, data)


def _encode_frame(first_seq: int, wire: bytes) -> bytes:
    head = b"@%d %d\n" % (first_seq, len(wire))
    crc = zlib.crc32(wire, zlib.crc32(head)) & 0xFFFFFFFF
    return b"".join((b"%08x " % crc, head, wire, b"\n"))


def encode_record(seq: int, event: Event) -> str:
    """Render one event as a one-row journal line (text)."""
    return _encode_columns(
        seq, [event.event_type], [event.ts], [event.attrs or None]
    ).decode("utf-8")


def _decode_columns(line: str) -> tuple[int, list, list, list]:
    """Parse and CRC-check one journal line into the sequence of its
    first row and its type, ts and attrs columns. Raises JournalError."""
    if len(line) < 10 or line[8] != " ":
        raise JournalError(f"malformed journal record: {line[:40]!r}")
    text = line[9:].rstrip("\n")
    try:
        stored_crc = int(line[:8], 16)
    except ValueError as error:
        raise JournalError(
            f"malformed CRC prefix: {line[:8]!r}"
        ) from error
    if zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF != stored_crc:
        raise JournalError("journal record failed its CRC check")
    try:
        payload = json.loads(text)
        seq = payload["seq"]
        types = payload["type"]
        if isinstance(types, str):  # the per-event shape
            return seq, [types], [payload["ts"]], [payload.get("attrs")]
        stamps = payload["ts"]
        attrs = payload["attrs"]
        if not len(types) == len(stamps) == len(attrs) > 0:
            raise JournalError(
                f"journal record at seq={seq} has columns of "
                f"{len(types)}/{len(stamps)}/{len(attrs)} events"
            )
        return seq, types, stamps, attrs
    except (ValueError, KeyError, TypeError) as error:
        raise JournalError(
            f"journal record payload is invalid: {error!r}"
        ) from error


def decode_record(line: str) -> tuple[int, list[Event]]:
    """Parse and CRC-check one journal line; returns the sequence of
    its first event and its events (one for a per-event record).
    Raises JournalError."""
    seq, types, stamps, attrs = _decode_columns(line)
    return seq, list(map(Event, types, stamps, attrs))


def _decode_frame(
    data: bytes, start: int, newline: int
) -> tuple[int, EventBatch, int]:
    """The frame record whose header line is ``data[start:newline]``:
    its first sequence, its batch and the offset just past it. Raises
    JournalError for a short, unterminated, CRC-failing, undecodable or
    object-carrying frame."""
    head = data[start + 9:newline + 1]
    try:
        stored_crc = int(data[start:start + 8], 16)
        seq_text, size_text = head[1:-1].split(b" ")
        seq, size = int(seq_text), int(size_text)
    except ValueError as error:
        raise JournalError(f"malformed frame header {head!r}") from error
    body = newline + 1
    end = body + size
    if size <= 0 or end >= len(data) or data[end] != 0x0A:
        raise JournalError("frame record is short or unterminated")
    wire = data[body:end]
    if zlib.crc32(wire, zlib.crc32(head)) & 0xFFFFFFFF != stored_crc:
        raise JournalError("frame record failed its CRC check")
    try:
        batch = EventBatch.from_wire(wire, pickled=False)
    except StreamError as error:
        raise JournalError(f"frame record is invalid: {error}") from error
    if not len(batch):
        raise JournalError(f"frame record at seq={seq} holds no rows")
    return seq, batch, end + 1


def iter_records(
    data: bytes,
) -> Iterator[tuple[int, int, EventBatch | list[Event]]]:
    """The one record reader: each record of one segment's bytes as
    ``(end offset, first seq, rows)`` — an :class:`EventBatch` for a
    frame record, a list of events for a column record. Stops silently
    at the first torn or corrupt record, so a last ``end`` short of
    ``len(data)`` marks where the valid prefix ends."""
    start, size = 0, len(data)
    while start < size:
        newline = data.find(b"\n", start)
        if newline < 0:
            return  # torn: a record without its line end
        try:
            if data[start + 8:start + 10] == b" @":
                seq, rows, end = _decode_frame(data, start, newline)
            else:
                end = newline + 1
                seq, types, stamps, attrs = _decode_columns(
                    data[start:end].decode("utf-8")
                )
                rows = list(map(Event, types, stamps, attrs))
        except (JournalError, UnicodeDecodeError):
            return
        yield end, seq, rows
        start = end


class EventJournal:
    """Append-only, segment-rotating write-ahead log, and the owner of
    the checkpoint generations written beside it.

    Opening a directory that already holds segments continues from
    the next sequence number after the last *valid* record (a torn
    final record is truncated away so the new tail is clean). A
    directory holding ``commits/`` — the router WAL's older ingest-lane
    layout — is refused with :class:`~repro.errors.CheckpointError`.

    Every write-ahead log in the system is one of these: the supervised
    engine appends each ingest call as one record — a columnar batch
    as a frame record (:meth:`append_event_batch`), an event list as a
    column record (:meth:`append_batch`); a durable shard appends each
    :class:`~repro.events.batch.EventBatch` it delivered as a frame
    record and re-seeds a restarted worker from :meth:`replay`, which
    yields those batches back straight from their frames; the sharded
    router appends each batch it routes — its pending per-event ingest
    as a column record, one columnar ingest batch as a frame record —
    before any of it reaches a worker, and replays the same records as
    batches at recovery. The journal itself is not thread-safe: every
    writer serializes its own appends.

    Parameters
    ----------
    directory:
        Where segments and checkpoints live; created if missing.
    segment_bytes:
        Rotate to a fresh segment once the current one reaches this
        size (checked before each append).
    fsync:
        ``"never"`` / ``"interval"`` / ``"always"`` — see module doc.
    fsync_interval:
        Events appended between fsyncs under the ``"interval"`` policy.
    registry:
        Optional obs registry (``journal_records_total``,
        ``journal_bytes_total``, ``journal_fsyncs_total``,
        ``journal_backlog_bytes`` gauge).
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: str = "never",
        fsync_interval: int = 256,
        registry: MetricsRegistry | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if fsync_interval <= 0:
            raise ValueError("fsync_interval must be positive")
        self.directory = Path(directory)
        if (self.directory / "commits").is_dir():
            raise CheckpointError(
                f"{self.directory} holds a router WAL in the ingest-lane "
                f"layout (lane-NN/ journals sealed by commits/ markers), "
                f"which this version does not read; recover it with the "
                f"version that wrote it, or start from an empty directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = segment_bytes
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._since_fsync = 0
        registry = resolve_registry(registry)
        self._m_records = registry.counter(
            "journal_records_total", "events appended to the journal"
        )
        self._m_bytes = registry.counter(
            "journal_bytes_total", "bytes appended to the journal"
        )
        self._m_fsyncs = registry.counter(
            "journal_fsyncs_total", "fsync calls issued by the journal"
        )
        self._g_backlog = registry.gauge(
            "journal_backlog_bytes",
            "bytes appended since the last fsync (durability backlog)",
        )
        self._handle = None
        self._segment_size = 0
        self.backlog_bytes = 0
        self.next_seq = 0
        # journal_seq of the retained checkpoint generations, oldest
        # first (a corrupt one can never be fallen back to: skipped).
        self._checkpoint_seqs: deque[int] = deque(
            maxlen=RETAIN_CHECKPOINTS
        )
        for path in list_checkpoints(self.directory):
            try:
                state = load_checkpoint(path)
            except CheckpointError:
                continue
            self._checkpoint_seqs.append(state["journal_seq"])
        self._resume()

    # ----- opening ---------------------------------------------------------

    def _resume(self) -> None:
        segments = list_segments(self.directory)
        if not segments:
            self._open_segment(0)
            return
        last = segments[-1]
        # Find the byte offset of the end of the last valid record so a
        # torn tail from a previous crash is truncated, not appended to.
        data = last.read_bytes()
        valid_end = 0
        last_seq = _segment_first_seq(last) - 1
        for valid_end, seq, rows in iter_records(data):
            last_seq = seq + len(rows) - 1
        if valid_end < len(data):
            with open(last, "r+b") as handle:
                handle.truncate(valid_end)
        self.next_seq = last_seq + 1
        self._segment_size = valid_end
        self._handle = open(last, "ab", buffering=0)

    def _open_segment(self, first_seq: int) -> None:
        if self._handle is not None:
            self._handle.close()
        self._handle = open(
            self.directory / _segment_name(first_seq), "ab", buffering=0
        )
        self._segment_size = 0
        self.next_seq = first_seq

    # ----- appending -------------------------------------------------------

    def append(self, event: Event) -> int:
        """Durably record one event; returns its journal sequence."""
        return self.append_batch([event])

    def append_batch(self, events: list[Event]) -> int:
        """Durably record a micro-batch as one column record in one
        ``write()`` syscall; returns the sequence of the first event
        (event *i* holds sequence ``first + i``).

        Durability policy is applied once per batch: ``"always"`` issues
        one fsync for the whole batch (the batch is the atom being made
        durable before dispatch), ``"interval"`` counts every event
        toward the interval.
        """
        if not events:
            return self.next_seq
        return self._write(len(events), lambda first: _encode_columns(
            first,
            [event.event_type for event in events],
            [event.ts for event in events],
            [event.attrs or None for event in events],
        ))

    def append_event_batch(
        self, batch: EventBatch, wire: bytes | None = None
    ) -> int:
        """:meth:`append_batch` for a columnar batch: one frame record
        holding ``batch.to_wire()`` — ``wire`` when the caller already
        encoded it — or, when a column is ``object``, whose frame
        segment would be a pickle, one column record."""
        if not len(batch):
            return self.next_seq
        if any(column.dtype == object for column in batch.cols.values()):
            return self.append_batch(batch.to_events())
        if wire is None:
            wire = batch.to_wire()
        return self._write(
            len(batch), lambda first: _encode_frame(first, wire)
        )

    def _write(self, count: int, encode: Callable[[int], bytes]) -> int:
        """Append the record ``encode(first sequence)`` of ``count``
        events; returns that first sequence."""
        if self._handle is None:
            raise JournalError("journal is closed")
        if self._segment_size >= self._segment_bytes:
            self._open_segment(self.next_seq)
        first = self.next_seq
        record = encode(first)
        # Unbuffered binary handle: one write() syscall pushes the
        # record to the OS, so a process crash never loses an append
        # (fsync policy only matters for machine failures).
        self._handle.write(record)
        size = len(record)
        self._segment_size += size
        self.backlog_bytes += size
        self.next_seq = first + count
        self._m_records.inc(count)
        self._m_bytes.inc(size)
        if self._fsync == "always":
            self.sync()
        elif self._fsync == "interval":
            self._since_fsync += count
            if self._since_fsync >= self._fsync_interval:
                self.sync()
        else:
            self._g_backlog.set(self.backlog_bytes)
        return first

    # ----- reading ---------------------------------------------------------

    def replay(self, start_seq: int = 0) -> Iterator[tuple[int, EventBatch]]:
        """Yield ``(first_seq, batch)`` per journaled record holding a
        row at or past ``start_seq``, the record holding ``start_seq``
        cut to start there — the shard re-seed read; a frame record's
        batch comes straight from its frame. See :func:`read_journal`
        for what it tolerates and raises."""
        for seq, rows in read_records(self.directory, start_seq):
            yield seq, (
                rows if isinstance(rows, EventBatch)
                else EventBatch.from_events(rows)
            )

    # ----- durability ------------------------------------------------------

    def sync(self) -> None:
        """fsync the current segment."""
        if self._handle is None:
            return
        os.fsync(self._handle.fileno())
        self._since_fsync = 0
        self.backlog_bytes = 0
        self._m_fsyncs.inc()
        self._g_backlog.set(0)

    def checkpoint(self, state: dict[str, Any]) -> Path:
        """Persist one checkpoint generation beside the segments and
        prune the segments no retained generation replays from.

        The journal is made durable up to ``state["journal_seq"]`` first
        (the caller builds the state from this journal's position with
        no append in between), or replay-from-checkpoint could miss
        events after a machine failure. Returns the checkpoint's path.
        """
        self.sync()
        path = write_checkpoint(self.directory, state)
        self._checkpoint_seqs.append(state["journal_seq"])
        prune_segments(self.directory, self._checkpoint_seqs[0])
        return path

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryShardLog:
    """The non-durable twin of :class:`EventJournal` for a shard without
    a journal directory: the same ``next_seq`` / :meth:`append_event_batch`
    / :meth:`replay` / :meth:`checkpoint` / :meth:`close` surface, over
    the batches delivered since the last checkpoint, kept as sent.

    :meth:`checkpoint` forgets the whole batches that checkpoint has made
    redundant, so memory stays bounded as long as checkpoints are taken;
    the worker handle holds only the newest checkpoint, so nothing older
    needs the prefix.
    """

    def __init__(self) -> None:
        #: Sequence of the first row of ``_batches[0]``.
        self._base = 0
        self._batches: deque[EventBatch] = deque()
        self.next_seq = 0

    def append_event_batch(
        self, batch: EventBatch, wire: bytes | None = None
    ) -> None:
        """Keep ``batch`` itself (``wire`` is not needed)."""
        self._batches.append(batch)
        self.next_seq += len(batch)

    def replay(self, start_seq: int = 0) -> Iterator[tuple[int, EventBatch]]:
        """:meth:`EventJournal.replay` over the kept batches."""
        seq = self._base
        for batch in list(self._batches):
            skip = max(0, start_seq - seq)
            if skip < len(batch):
                yield seq + skip, batch.islice(skip, len(batch))
            seq += len(batch)

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Forget the batches wholly below the checkpoint's
        ``journal_seq``."""
        batches, upto = self._batches, state["journal_seq"]
        while batches and self._base + len(batches[0]) <= upto:
            self._base += len(batches.popleft())

    def close(self) -> None:
        self._batches.clear()


def prune_segments(directory: str | Path, upto_seq: int) -> list[Path]:
    """Delete whole segments fully covered by ``seq < upto_seq``.

    A segment is prunable when the *next* segment starts at or below
    ``upto_seq`` — every record it holds is then older than the cutoff.
    The active (last) segment is never deleted. Returns the removed
    paths.
    """
    segments = list_segments(directory)
    removed: list[Path] = []
    for index, segment in enumerate(segments):
        if index + 1 >= len(segments):
            break  # never prune the active tail segment
        if _segment_first_seq(segments[index + 1]) <= upto_seq:
            try:
                segment.unlink()
            except FileNotFoundError:
                continue
            removed.append(segment)
    return removed


def read_journal(
    directory: str | Path, start_seq: int = 0
) -> Iterator[tuple[int, Event]]:
    """Replay journaled events with ``seq >= start_seq``, in order, as
    ``(seq, event)`` pairs; ``start_seq`` may fall inside a record.

    Tolerates a torn final record (partial line or failing CRC) in the
    *last* segment only; corruption anywhere else raises
    :class:`~repro.errors.JournalError`. Sequence gaps or regressions
    also raise — they mean a segment went missing — and so does a
    first record that starts after ``start_seq``: the segments holding
    the requested start were pruned or lost, and replaying from later
    would skip events silently.
    """
    for seq, rows in read_records(directory, start_seq):
        if isinstance(rows, EventBatch):
            rows = rows.to_events()
        yield from enumerate(rows, seq)


def read_records(
    directory: str | Path, start_seq: int
) -> Iterator[tuple[int, EventBatch | list[Event]]]:
    """Each record from the one holding ``start_seq`` on, as ``(seq,
    rows)`` with the rows below ``start_seq`` cut off (so ``seq`` is
    its first kept row)."""
    segments = list_segments(directory)
    # Skip whole segments that end before start_seq: a segment can be
    # skipped when the *next* segment starts at or below start_seq.
    keep: list[Path] = []
    for index, segment in enumerate(segments):
        next_first = (
            _segment_first_seq(segments[index + 1])
            if index + 1 < len(segments)
            else None
        )
        if next_first is not None and next_first <= start_seq:
            continue
        keep.append(segment)
    expected = None
    for index, segment in enumerate(keep):
        data = segment.read_bytes()
        valid_end = 0
        for valid_end, seq, rows in iter_records(data):
            if expected is None and seq > start_seq:
                raise JournalError(
                    f"journal starts at seq {seq} in {segment.name}, "
                    f"after the requested start {start_seq}"
                )
            if expected is not None and seq != expected:
                raise JournalError(
                    f"journal sequence jumped from {expected - 1} "
                    f"to {seq} in {segment.name}"
                )
            expected = seq + len(rows)
            if expected > start_seq:
                skip = max(0, start_seq - seq)
                if skip:
                    rows = (
                        rows.islice(skip, len(rows))
                        if isinstance(rows, EventBatch)
                        else rows[skip:]
                    )
                yield seq + skip, rows
        if valid_end < len(data):
            if index == len(keep) - 1:
                return  # tolerated torn tail
            raise JournalError(
                f"corrupt record in non-final segment {segment.name} "
                f"at byte {valid_end}"
            )
