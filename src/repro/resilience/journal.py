"""Append-only event journal (write-ahead log) for crash recovery.

The journal is the durability half of the recovery story: every event
is appended *before* it is dispatched to any executor, so after a crash
the engine state can be rebuilt as ``latest checkpoint + replay of the
journal suffix``. Because A-Seq checkpoints are tiny (a handful of
counters, see :mod:`repro.core.checkpoint`), the journal only ever
needs to cover the short gap since the last checkpoint — but it is
written unconditionally so *any* crash point is recoverable.

Format: JSON-lines segments. Each append call writes one record, one
line, for the whole batch it was given::

    <crc32-of-payload, 8 hex chars> <payload JSON>\\n

    5debfd2a {"seq":17,"type":["DELL","IPIX"],"ts":[421,425],
              "attrs":[{"price":12.5},null]}

(one line on disk). ``seq`` is the sequence number of the record's
first event; event *i* of the record holds ``seq + i``, so sequence
numbers stay per event — checkpoints, dead letters and count-skip
dedup never see the record boundary, and a reader starting at a
sequence inside a record skips that record's earlier events. The three
columns must be of equal length; a record whose columns disagree is
corruption, never truncated to the shortest. The per-event shape
earlier versions wrote (``{"seq":17,"type":"DELL","ts":421,
"attrs":{...}}``, attrs omitted when empty) is still read, so a
journal written before the batch record recovers unchanged; a
directory may hold both shapes. Segments rotate at a byte threshold
and are named by the sequence number of their first record
(``journal-000000000000.wal``), so a reader replaying from offset *n*
can skip whole segments without parsing them.

Torn writes: a crash mid-append leaves a partial or CRC-failing final
line in the *last* segment. The reader tolerates exactly that — it
stops cleanly at the first bad record of the last segment, dropping
that record's whole batch. Nothing of it was dispatched: the
supervised engine journals a batch completely before any executor sees
its first event, and the sharded router before any shard does.
A bad record anywhere else is real corruption and raises
:class:`~repro.errors.JournalError`.

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
from typing import Any, Iterator, Sequence

from repro.errors import CheckpointError, JournalError
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


class EventJournal:
    """Append-only, segment-rotating write-ahead log, and the owner of
    the checkpoint generations written beside it.

    Opening a directory that already holds segments continues from
    the next sequence number after the last *valid* record (a torn
    final record is truncated away so the new tail is clean). A
    directory holding ``commits/`` — the router WAL's older ingest-lane
    layout — is refused with :class:`~repro.errors.CheckpointError`.

    Every write-ahead log in the system is one of these: the supervised
    engine appends each ingest call as one record (:meth:`append_batch`);
    a durable shard appends each :class:`~repro.events.batch.EventBatch`
    it delivered (:meth:`append_event_batch`) and re-seeds a restarted
    worker from :meth:`replay`, which yields those batches back; the
    sharded router appends each batch it routes — its pending
    per-event ingest or one columnar ingest batch — as one record
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
        valid_end = 0
        last_seq = _segment_first_seq(last) - 1
        with open(last, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn: partial final line
                try:
                    seq, types, _, _ = _decode_columns(raw.decode("utf-8"))
                except (JournalError, UnicodeDecodeError):
                    break  # torn: CRC-failing final line
                last_seq = seq + len(types) - 1
                valid_end += len(raw)
        if valid_end < last.stat().st_size:
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
        """Durably record a micro-batch as one record in one ``write()``
        syscall; returns the sequence of the first event (event *i*
        holds sequence ``first + i``).

        Durability policy is applied once per batch: ``"always"`` issues
        one fsync for the whole batch (the batch is the atom being made
        durable before dispatch), ``"interval"`` counts every event
        toward the interval.
        """
        if not events:
            return self.next_seq
        return self._write(
            [event.event_type for event in events],
            [event.ts for event in events],
            [event.attrs or None for event in events],
        )

    def append_event_batch(self, batch: EventBatch) -> int:
        """:meth:`append_batch` for a columnar batch (the same line)."""
        return self.append_batch(batch.to_events())

    def _write(
        self, types: Sequence, stamps: Sequence, attrs: Sequence
    ) -> int:
        if self._handle is None:
            raise JournalError("journal is closed")
        if self._segment_size >= self._segment_bytes:
            self._open_segment(self.next_seq)
        first = self.next_seq
        count = len(types)
        line = _encode_columns(first, types, stamps, attrs)
        # Unbuffered binary handle: one write() syscall pushes the
        # record to the OS, so a process crash never loses an append
        # (fsync policy only matters for machine failures).
        self._handle.write(line)
        size = len(line)
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
        cut to start there — the shard re-seed read; see
        :func:`read_journal` for what it tolerates and raises."""
        for seq, types, stamps, attrs in _read_columns(
            self.directory, start_seq
        ):
            yield seq, EventBatch.from_events(
                list(map(Event, types, stamps, attrs))
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

    def append_event_batch(self, batch: EventBatch) -> None:
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
    for seq, types, stamps, attrs in _read_columns(directory, start_seq):
        yield from enumerate(map(Event, types, stamps, attrs), seq)


def _read_columns(
    directory: str | Path, start_seq: int
) -> Iterator[tuple[int, list, list, list]]:
    """The one journal reader: each record from the one holding
    ``start_seq`` on, as ``(seq, types, stamps, attrs)`` with the rows
    below ``start_seq`` cut off (so ``seq`` is its first kept row)."""
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
        is_last = index == len(keep) - 1
        with open(segment, "rb") as handle:
            for raw in handle:
                torn = not raw.endswith(b"\n")
                if not torn:
                    try:
                        seq, types, stamps, attrs = _decode_columns(
                            raw.decode("utf-8")
                        )
                    except (JournalError, UnicodeDecodeError):
                        torn = True
                if torn:
                    if is_last:
                        return  # tolerated torn tail
                    raise JournalError(
                        f"corrupt record in non-final segment "
                        f"{segment.name}"
                    )
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
                expected = seq + len(types)
                if expected > start_seq:
                    skip = max(0, start_seq - seq)
                    if skip:
                        types = types[skip:]
                        stamps = stamps[skip:]
                        attrs = attrs[skip:]
                    yield seq + skip, types, stamps, attrs
