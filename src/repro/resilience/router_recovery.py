"""Router durability: ingest-lane WAL + exact router recovery.

The sharded engine's last single point of failure was the router
process itself: per-shard journals could rebuild any *worker*, but a
SIGKILL'd router lost its local lane, its merge bookkeeping, and every
in-flight batch. This module closes that hole with the same recipe
the per-shard path uses — write-ahead journal plus periodic
checkpoint — applied one level up:

* :class:`RouterLog` — N independent **ingest lanes**, each an
  :class:`~repro.resilience.journal.EventJournal` under
  ``<dir>/lane-NN``. ``append`` is an in-memory push (cheap enough to
  ride the ingest hot path); :meth:`RouterLog.commit` **group-commits**
  everything pending — one batch record per lane, then one commit
  marker in the ``commits`` journal. The marker is the atomic commit
  point: a SIGKILL mid-commit leaves unmarked lane chunks that replay
  provably skips, because the engine commits *before every batch
  send*, so an unmarked record can never have reached a shard;
* :func:`recover_router` — rebuilds a
  :class:`~repro.engine.sharded.ShardedStreamEngine` after a router
  crash: load the router checkpoint, re-register its query texts,
  restart workers seeded from *their own* checkpoints + journals,
  then replay the lane suffix through the router with per-shard
  **count-skip** — routing is deterministic, so the k-th replayed
  record bound for shard *i* is skipped iff k is below that shard's
  recovered journal tail (the worker already holds it).

Why this is exact (under the ``"block"`` overload policy):

1. the engine calls :meth:`RouterLog.commit` before any batch leaves
   for a shard, and a shard-journal append happens only after a
   successful send — so every shard journal is a strict by-count
   prefix-subset of the marked lane WAL;
2. journals are unbuffered (one ``write()`` per commit group), so a
   SIGKILL loses at most the *final commit group* — records that were
   never sent anywhere. ``flush()`` commits, so it is the durability
   ack: after recovery the source resumes from the recovered engine's
   ``metrics.events``, which can only trail the crash point by records
   ingested after the last flush/send;
3. the router checkpoint flushes all worker buffers first, so its
   per-shard delivered watermarks are honest, and its cadence check
   runs before the next append, so it never covers a half-routed
   event.

``shed_oldest`` deliberately drops records, so replay after recovery
may re-deliver what the crashed run shed (or vice versa) — recovery is
then best-effort, exactly as the live path is.
"""

from __future__ import annotations

import heapq
import threading
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import CheckpointError, JournalError
from repro.events.event import Event
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.resilience.checkpointer import (
    apply_engine_metrics,
    apply_engine_state,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.resilience.journal import (
    EventJournal,
    prune_segments,
    read_journal,
)
from repro.resilience.recovery import replay_detached

_log = get_logger("router_recovery")

#: Event type of a lane-journal record: one commit group's worth of
#: records for that lane — a batch of ``[event_type, ts, attrs, gseq]``
#: entries under the ``"b"`` attribute, ascending by global sequence.
WAL_BATCH_TYPE = "__wal__"

#: Event type of a commit-marker record: ``{"s": first_gseq,
#: "e": next_gseq, "l": {lane: chunk_journal_seq}}``. A lane chunk is
#: part of the durable WAL iff a marker references it.
WAL_COMMIT_TYPE = "__commit__"

_LANE_PREFIX = "lane-"
_COMMITS_DIR = "commits"


def _lane_dir(directory: Path, lane: int) -> Path:
    return directory / f"{_LANE_PREFIX}{lane:02d}"


def discover_lanes(directory: str | Path) -> int:
    """How many ingest lanes a router WAL directory holds (0 if none)."""
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    count = 0
    while _lane_dir(directory, count).is_dir():
        count += 1
    return count


class RouterLog:
    """The router's write-ahead log: partitioned ingest lanes.

    ``lanes=1`` is a single global journal; more lanes spread the
    writes across independent journals (each owning a key range via
    the same hash that picks shards) while the explicit per-record
    ingest sequence keeps total order recoverable. The log resumes its
    global sequence from the last commit marker, so re-opening after a
    crash continues the same numbering.

    ``append`` only stages records in memory; ``commit`` — called by
    the engine ahead of every batch send, and by ``sync``/``close`` —
    writes one batch record per lane plus one commit marker. Group
    commit keeps the WAL off the ingest critical path, and it is safe
    because a record cannot be *delivered* before the commit that
    covers it returns.

    ``shard_attribute`` picks the lane key; the engine late-binds it
    at start when left ``None`` (it is derived from the registered
    queries' GROUP BY). With no attribute the event type is the key.
    """

    def __init__(
        self,
        directory: str | Path,
        lanes: int = 1,
        shard_attribute: str | None = None,
        fsync: str = "never",
        segment_bytes: int = 4 * 1024 * 1024,
        registry: MetricsRegistry | None = None,
    ):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        # Local import: repro.engine.sharded imports this package's
        # siblings at module load; importing it back at *call* time
        # keeps the package initialization acyclic.
        from repro.engine.sharded import shard_of

        self._shard_of = shard_of
        self.directory = Path(directory)
        self.lanes = lanes
        self.shard_attribute = shard_attribute
        registry = resolve_registry(registry)
        self._journals = [
            EventJournal(
                _lane_dir(self.directory, lane),
                fsync=fsync,
                segment_bytes=segment_bytes,
                registry=registry,
            )
            for lane in range(lanes)
        ]
        self._commits = EventJournal(
            self.directory / _COMMITS_DIR,
            fsync=fsync,
            segment_bytes=segment_bytes,
            registry=registry,
        )
        self._m_appends = registry.counter(
            "router_wal_appends_total",
            "events committed to the router's ingest-lane WAL",
        )
        self._g_positions = [
            registry.gauge(
                "ingest_lane_position",
                "next per-lane journal sequence of this ingest lane",
                lane=str(lane),
            )
            for lane in range(lanes)
        ]
        #: Serializes ``append`` vs ``commit`` (the scrape thread may
        #: flush — and therefore commit — concurrently with ingest).
        self._lock = threading.Lock()
        #: Staged-but-uncommitted records, already partitioned by lane
        #: (``append`` does the partitioning so ``commit`` is one
        #: journal write per non-empty lane, no per-record work).
        self._pending: list[list[list]] = [[] for _ in range(lanes)]
        self._pending_count = 0
        self._pending_ts = 0
        #: Key → lane memo (bounded; keys repeat heavily on real
        #: streams, and hashing the key is the hot cost of staging).
        self._lane_cache: dict[Any, int] = {}
        self._ingest_seq = self._resume_ingest_seq()

    def _resume_ingest_seq(self) -> int:
        """Next global sequence = the last commit marker's end."""
        for lane, journal in enumerate(self._journals):
            self._g_positions[lane].set(float(journal.next_seq))
        if self._commits.next_seq == 0:
            if any(journal.next_seq for journal in self._journals):
                raise JournalError(
                    f"{self.directory} holds lane records but no "
                    f"commit markers; not a recoverable router WAL"
                )
            return 0
        ingest = 0
        for _, marker in read_journal(
            self.directory / _COMMITS_DIR,
            start_seq=self._commits.next_seq - 1,
        ):
            attrs = marker.attrs or {}
            if marker.event_type != WAL_COMMIT_TYPE or "e" not in attrs:
                raise JournalError(
                    f"malformed commit marker in {self.directory}; "
                    f"not a router WAL"
                )
            ingest = max(ingest, int(attrs["e"]))
        return ingest

    @property
    def ingest_seq(self) -> int:
        """The next global ingest sequence (== events ever appended,
        committed or still pending)."""
        return self._ingest_seq

    @property
    def commit_seq(self) -> int:
        """The commit-marker journal position (for checkpoints)."""
        return self._commits.next_seq

    def lane_of(self, event_type: str, attrs: dict | None) -> int:
        key: Any = None
        if self.shard_attribute is not None and attrs is not None:
            key = attrs.get(self.shard_attribute)
        if key is None:
            key = event_type
        cache = self._lane_cache
        try:
            lane = cache.get(key)
        except TypeError:  # unhashable key: hash its repr directly
            return self._shard_of(key, self.lanes)
        if lane is None:
            lane = self._shard_of(key, self.lanes)
            if len(cache) < 8192:  # unbounded keys must not leak
                cache[key] = lane
        return lane

    def append(self, event: Event) -> int:
        """Stage one event for the WAL; returns its global ingest
        sequence. Durable only after the next :meth:`commit`.

        This is the per-event hot path (everything else is per commit
        group), so the lane lookup is inlined against the memo rather
        than calling :meth:`lane_of`.
        """
        event_type = event.event_type
        attrs = event.attrs or None
        ts = event.ts
        key = attrs.get(self.shard_attribute) if (
            self.shard_attribute is not None and attrs is not None
        ) else None
        if key is None:
            key = event_type
        try:
            lane = self._lane_cache.get(key)
        except TypeError:  # unhashable key: hash its repr directly
            lane = self._shard_of(key, self.lanes)
        if lane is None:
            lane = self.lane_of(event_type, attrs)
        with self._lock:
            gseq = self._ingest_seq
            self._ingest_seq = gseq + 1
            self._pending[lane].append([event_type, ts, attrs, gseq])
            self._pending_count += 1
            self._pending_ts = ts
        return gseq

    def commit(self) -> None:
        """Write every pending record — one batch record per lane,
        sealed by one commit marker.

        The engine calls this ahead of every batch send (under the
        worker's buffer lock), so anything a shard ever received is
        covered by a marker that predates the send; lane chunks with
        no marker are torn tails and are skipped at replay.
        """
        with self._lock:
            count = self._pending_count
            if not count:
                return
            base = self._ingest_seq - count
            marked: dict[str, int] = {}
            for lane, chunk in enumerate(self._pending):
                if not chunk:
                    continue
                journal = self._journals[lane]
                marked[str(lane)] = journal.append(
                    Event(WAL_BATCH_TYPE, chunk[-1][1], {"b": chunk})
                )
                self._g_positions[lane].set(float(journal.next_seq))
                self._pending[lane] = []
            self._pending_count = 0
            self._commits.append(
                Event(
                    WAL_COMMIT_TYPE,
                    self._pending_ts,
                    {
                        "s": base,
                        "e": base + count,
                        "l": marked,
                    },
                )
            )
            self._m_appends.inc(count)

    def lane_seqs(self) -> list[int]:
        """Per-lane journal positions (the checkpoint's replay starts)."""
        return [journal.next_seq for journal in self._journals]

    def sync(self) -> None:
        self.commit()
        for journal in self._journals:
            journal.sync()
        self._commits.sync()

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Persist a router progress document and prune covered lanes.

        The caller (the engine's ``router_checkpoint``) builds the
        state *from this log's current positions* with no appends in
        between, so every segment fully below the current tails is
        covered by the checkpoint and safe to drop.
        """
        self.sync()
        write_checkpoint(self.directory, state)
        for lane, journal in enumerate(self._journals):
            prune_segments(_lane_dir(self.directory, lane), journal.next_seq)
        prune_segments(
            self.directory / _COMMITS_DIR, self._commits.next_seq
        )

    def replay(
        self,
        lane_starts: Sequence[int] | None = None,
        commit_start: int = 0,
    ) -> Iterator[tuple[int, Event]]:
        """Merge the marked lane suffixes back into global ingest order.

        Yields ``(gseq, event)`` with events bit-identical to what was
        originally ingested. The commit markers say exactly which lane
        records are part of the durable WAL — an unmarked chunk is the
        torn tail of a mid-commit SIGKILL, and its records were
        provably never delivered (sends only happen after the marker
        hits disk), so it is skipped. Over the marked records each
        lane is ascending in gseq, so a k-way heap merge restores
        total order; any gap in the merged sequence means a lane lost
        marked history and raises
        :class:`~repro.errors.JournalError`.
        """
        starts = (
            list(lane_starts)
            if lane_starts is not None
            else [0] * self.lanes
        )
        if len(starts) != self.lanes:
            raise CheckpointError(
                f"checkpoint records {len(starts)} lane positions but "
                f"the WAL has {self.lanes} lanes"
            )
        self.commit()
        for journal in self._journals:
            journal.flush()
        self._commits.flush()

        marked: dict[int, set[int]] = {
            lane: set() for lane in range(self.lanes)
        }
        for _, marker in read_journal(
            self.directory / _COMMITS_DIR, start_seq=commit_start
        ):
            if marker.event_type != WAL_COMMIT_TYPE:
                raise JournalError(
                    f"unexpected record type {marker.event_type!r} in "
                    f"the commit-marker journal of {self.directory}"
                )
            for lane_key, seq in (marker.attrs or {}).get("l", {}).items():
                lane = int(lane_key)
                if lane < self.lanes:
                    marked[lane].add(int(seq))

        def lane_iter(lane: int) -> Iterator[tuple[int, Event]]:
            committed = marked[lane]
            for seq, record in read_journal(
                _lane_dir(self.directory, lane), start_seq=starts[lane]
            ):
                if seq not in committed:
                    continue  # torn mid-commit; never delivered
                batch = (record.attrs or {}).get("b")
                if record.event_type != WAL_BATCH_TYPE or batch is None:
                    raise JournalError(
                        f"lane {lane} record seq={seq} is not a WAL "
                        f"commit group"
                    )
                for event_type, ts, attrs, gseq in batch:
                    yield int(gseq), Event(event_type, ts, attrs or None)

        expected: int | None = None
        merged = heapq.merge(
            *(lane_iter(lane) for lane in range(self.lanes)),
            key=lambda entry: entry[0],
        )
        for gseq, event in merged:
            if expected is not None and gseq != expected:
                raise JournalError(
                    f"router WAL gap: expected ingest seq {expected}, "
                    f"found {gseq}; a lane lost committed history"
                )
            expected = gseq + 1
            yield gseq, event

    def close(self) -> None:
        self.commit()
        for journal in self._journals:
            journal.close()
        self._commits.close()


def recover_router(
    directory: str | Path,
    queries: Sequence[Any] | None = None,
    sinks: Mapping[str, Sequence[Any]] | None = None,
    registry: MetricsRegistry | None = None,
    lanes: int | None = None,
    fsync: str = "never",
    reattach_log: bool = True,
    journal_dir: str | Path | None = None,
    **engine_kwargs: Any,
):
    """Rebuild a sharded engine after a router crash; returns the
    recovered :class:`~repro.engine.sharded.ShardedStreamEngine`,
    mid-stream, ready for the next ``process()`` call.

    ``directory`` is the router WAL directory (lane journals + router
    checkpoints — what ``attach_router_log`` wrote). ``journal_dir``
    is the per-shard journal directory of the crashed engine; it
    defaults to ``<directory>/shards``, the CLI's layout. ``queries``
    is only needed when no router checkpoint survives (from-scratch
    replay); otherwise the checkpoint's query texts are authoritative
    and must re-derive the same sharding plan. Extra keyword arguments
    pass through to the engine constructor (transport, overload
    policy, heartbeat cadence, ``router_checkpoint_every``, ...).

    The recovered engine's ``metrics.events`` is the resume position:
    the source should continue from that offset. It can trail the
    crashed router's ingest count by at most one commit group (records
    staged after the last flush/send), and those records were never
    delivered to any shard or sink.

    Recovery outline (the inverse of ``router_checkpoint``):

    1. workers restart seeded from their own checkpoints + journals
       (``resume_shards=True``); a shard that had degraded into the
       fold lane is resurrected as a live worker from the fold state
       embedded in the router checkpoint;
    2. the local lane restores from the checkpoint document exactly
       like single-process recovery (executors + metrics);
    3. the lane WAL suffix replays through the router with per-shard
       count-skip, so workers receive only the records their journals
       do not already hold — anything redelivered anyway (conservative
       overlap) is dropped by the worker's own dedup cursor.
    """
    from repro.engine.sharded import ShardedStreamEngine

    directory = Path(directory)
    registry = resolve_registry(registry)
    m_recoveries = registry.counter(
        "router_recoveries_total", "successful router recoveries"
    )
    m_replayed = registry.counter(
        "router_replayed_events_total",
        "lane WAL events replayed during router recovery",
    )

    state, state_path = load_latest_checkpoint(directory)
    router: dict[str, Any] | None = None
    if state is not None:
        router = state.get("router")
        if not isinstance(router, dict):
            raise CheckpointError(
                f"{state_path} is not a router checkpoint (no 'router' "
                f"section); point recover() at it instead"
            )

    shards = engine_kwargs.pop(
        "shards", router["shards"] if router else None
    )
    if shards is None:
        raise CheckpointError(
            f"no loadable router checkpoint under {directory}; pass "
            f"shards= (and queries=) for a from-scratch replay"
        )
    # Refused before any worker is spawned: an engine abandoned after
    # _start() keeps its workers (and the interpreter's exit) waiting.
    if router is not None and len(router["shard_delivered"]) != shards:
        raise CheckpointError(
            f"checkpoint records {len(router['shard_delivered'])} shard "
            f"watermarks but the engine has {shards} shards"
        )
    batch_size = engine_kwargs.pop(
        "batch_size", router["batch_size"] if router else 256
    )
    shards_dir = Path(journal_dir) if journal_dir else directory / "shards"
    engine = ShardedStreamEngine(
        shards=shards,
        batch_size=batch_size,
        journal_dir=shards_dir,
        resume_shards=True,
        registry=registry,
        **engine_kwargs,
    )

    sinks = sinks or {}
    if router is not None:
        from repro.query.parser import parse_query

        recorded = [
            (name, text, bool(sharded))
            for name, text, sharded in router["queries"]
        ]
        for name, text, _ in recorded:
            query = parse_query(text, name=name)
            engine.register(query, *sinks.get(name, ()), name=name)
        for name, _, was_sharded in recorded:
            if (name in engine._sharded) != was_sharded:
                raise CheckpointError(
                    f"query {name!r} re-derived a different sharding "
                    f"plan than the checkpoint records; the "
                    f"registration set must match the crashed run"
                )
    elif queries is not None:
        for index, query in enumerate(queries):
            name = getattr(query, "name", None) or f"q{index}"
            engine.register(query, *sinks.get(name, ()), name=name)
    else:
        raise CheckpointError(
            f"no loadable router checkpoint under {directory} and no "
            f"queries supplied for a from-scratch replay"
        )

    if router is not None:
        engine._resume_checkpoints = {
            int(index): fold_state
            for index, fold_state in (router.get("folds") or {}).items()
        }
        # Routing-table versioning (elastic membership): restore prior
        # partition ownership wherever those members are still live —
        # their journals describe that placement — and keep counting
        # routing versions from where the crashed run left off.
        routing = router.get("routing")
        if isinstance(routing, dict):
            engine._resume_routing = routing
    engine._start()

    # Restore the router's own bookkeeping and the local lane.
    delivered = [0] * shards
    lane_starts: Sequence[int] | None = None
    commit_start = 0
    if router is not None:
        delivered = list(router["shard_delivered"])
        lane_starts = router["lane_seqs"]
        commit_start = int(router.get("commit_seq", 0))
        engine.metrics.events = int(router["events"])
        engine._clock_ms = router["clock_ms"]
        engine._route_seq = int(router["route_seq"])
        engine.shed_events = int(router.get("shed_events", 0))
        apply_engine_state(engine._local, state)
        apply_engine_metrics(engine._local, state)

    lane_count = lanes
    if lane_count is None:
        lane_count = router["lanes"] if router else discover_lanes(directory)
    log = RouterLog(
        directory,
        lanes=max(1, lane_count),
        shard_attribute=engine.shard_attribute,
        fsync=fsync,
        registry=registry,
    )

    # The count-skip cursor: how many more records each shard's journal
    # already holds past the checkpoint's delivered watermark. Captured
    # *before* replay: replay appends past-tail records to the shard
    # journals, which must not widen the skip window.
    skip = [
        max(0, worker.log.next_seq - done)
        for worker, done in zip(engine._workers, delivered)
    ]

    # Local-lane sinks stay detached during replay — pre-crash outputs
    # were already delivered (same contract as single-process recover).
    replayed = replay_detached(
        engine._local,
        (event for _, event in log.replay(lane_starts, commit_start)),
        lambda event: engine._route(event, skip),
    )

    engine.events_replayed = replayed
    m_replayed.inc(replayed)
    m_recoveries.inc()
    _log.info(
        "router_recovered",
        message=(
            f"router recovered from "
            f"{state_path.name if state_path else 'no checkpoint'}: "
            f"{replayed} lane events replayed across {log.lanes} "
            f"lane(s), {shards} shard(s) re-seeded"
        ),
        replayed=replayed,
        shards=shards,
    )

    if reattach_log:
        # attach_router_log() refuses an engine that already ingested
        # events — that guard exists precisely for the non-recovery
        # path, so reattach directly here, post-replay.
        engine._router_log = log
        engine._events_since_router_checkpoint = 0
    else:
        log.close()
    return engine
