"""Multi-core execution: hash-partitioned worker engines, supervised.

:class:`ShardedStreamEngine` runs one full :class:`StreamEngine` per
worker *process*, each owning a hash-partition of the stream keyed by a
partition attribute. The legality argument is the paper's own (HPC,
Sec. 3.4): a query with an equivalence chain or GROUP BY evaluates
independently per key, and because a hash assigns every key to exactly
one shard, per-shard results compose exactly —

* COUNT / SUM add across shards;
* AVG folds ``count_and_wsum()`` pairs (counts and weighted sums add;
  dividing once at the end loses nothing);
* MAX / MIN take the extremum of per-shard extrema;
* GROUP BY is a dict union: group values never straddle shards because
  the shard key *is* (or leads) the group key.

Queries that cannot be partitioned on the chosen attribute — no
equivalence chain or GROUP BY, or one on a different attribute — run on
a **local lane**: an in-process routed :class:`StreamEngine` that sees
every event, so their semantics (including per-TRIG sink emissions) are
exactly those of the single-process engine. Sharded queries deliver
their merged result to sinks once per :meth:`run` (per-TRIG emission
order is undefined across processes, so it is not simulated).

The shard hash must agree across processes, so it is
``zlib.crc32(repr(key))`` — Python's builtin ``hash`` is randomized
per process and would route the same key differently in parent and
tests.

Fault tolerance (``supervise=True``, the default) extends PR 2's
single-process guarantees to this path:

* every worker owns a **control pipe** besides its data pipe and
  answers heartbeat pings on it; a
  :class:`~repro.resilience.shard_supervisor.HeartbeatSupervisor`
  thread revives shards that die, wedge, or report a poisoned engine;
* every frame successfully handed to a worker is recorded in that
  shard's journal (in memory by default, on disk under
  ``journal_dir/shard-NN`` — an
  :class:`~repro.resilience.journal.EventJournal`); workers snapshot
  their engine state every ``checkpoint_every_batches`` deliveries, so
  a revive is *exact*: respawn, re-seed from the checkpoint, replay the
  journal suffix. Merged results stay bit-identical to the
  single-process reference even across a ``SIGKILL`` mid-stream;
* data-pipe sends are **timeout-guarded** (a slow shard can no longer
  wedge the router): on a stall the ``overload_policy`` decides —
  ``"block"`` restarts the wedged worker and redelivers (lossless),
  ``"shed_oldest"`` drops the stalled batch and counts it,
  ``"raise"`` raises :class:`~repro.errors.OverloadError` — mirroring
  the DeadLetterQueue policies;
* a shard that exhausts ``restart_limit`` is **degraded**: its
  key-range folds into an in-process lane seeded the same exact way,
  and the engine reports it via ``inspect()``/``shard_health()`` and
  the admin ``/healthz`` (503).

When NOT to shard: workloads dominated by queries without a partition
key (everything lands on the local lane plus IPC overhead), tiny
streams (worker startup costs more than it saves), or single-core
hosts (the workers time-slice one CPU and IPC is pure overhead).

Router durability (PR 7) closes the last single point of failure:

* the wire protocol is extracted behind
  :class:`~repro.engine.transport.ShardTransport` — ``transport="pipe"``
  keeps today's fork+two-pipe workers, ``transport="tcp"`` frames the
  same messages over TCP to ``python -m repro.shard_worker`` processes
  that may live on other hosts (``worker_addresses=``);
* every row reaches the workers through one partition step
  (``_send_partitions``): a columnar ingest batch directly, per-event
  ingest once the router's pending batch flushes (``batch_size``
  events, or ``flush()``), WAL replay record by record. The step
  appends each worker's rows to that worker's frame buffer, sent as
  one frame once it holds as many rows as the batch being routed (or
  when something reads shard state), so a worker's kernel calls are
  as large as the caller's;
* with a router WAL attached (an :class:`~repro.resilience.journal
  .EventJournal`), each of those batches is one WAL record written
  before any of its rows is sent, and the router periodically
  checkpoints its own progress (local-lane state, per-shard delivered
  watermarks, WAL position). After a router SIGKILL,
  :func:`~repro.resilience.router_recovery.recover_router` rebuilds
  the engine, re-seeds every worker from its own checkpoint+journal,
  and replays the WAL suffix with per-shard count-skip so nothing is
  delivered twice — merged results stay bit-identical;
* workers deduplicate redelivered batches themselves: every journaled
  batch carries its base journal sequence, and a worker that was
  already seeded past it skips the overlap;
* a worker whose router vanishes self-terminates: pipe/socket EOF ends
  the session immediately, and ``orphan_timeout_s`` of total silence
  (no data, no heartbeats) ends it even when the transport half-stays
  open.

Elastic membership (PR 10) makes worker *placement* dynamic without
touching the math that makes merges exact:

* the **partition count stays fixed** for the life of the engine —
  ``shard_of`` keeps assigning every key to the same partition — but
  each partition's *owner* is looked up in a versioned routing table
  (``partition index → member id``) fed by a
  :class:`~repro.resilience.membership.WorkerRegistry` (static
  ``--workers-file`` with hot-reload, or worker self-registration);
* joins, graceful leaves, and deaths reported by the registry are
  consumed by :meth:`ShardedStreamEngine.poll_membership` (wired into
  the heartbeat loop) and turn into **live partition migrations**:
  quiesce the partition at a batch boundary, checkpoint the source
  worker, flip the routing entry, spawn on the new owner, re-seed from
  checkpoint + journal suffix (the stock revive recipe, so worker-side
  count-skip dedup keeps exactly-once intact). Merged results stay
  bit-identical across any membership change mid-stream;
* a member that cannot even be dialed is reported dead back to the
  registry, and every partition it owned is re-placed the same exact
  way — SIGKILLing a whole worker host behaves like ``restart_limit``
  worth of ordinary revives, not data loss;
* the routing table (version + owners) rides the router checkpoint, so
  :func:`~repro.resilience.router_recovery.recover_router` restores
  placement along with progress.
"""

from __future__ import annotations

import select
import signal
import threading
import time
import zlib
from bisect import bisect_left
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import (
    EngineError,
    OverloadError,
    QueryError,
    TransportError,
)
from repro.events.batch import BatchSchema, EventBatch, concatenated, joinable
from repro.events.event import Event
from repro.core.hpc import partition_attributes
from repro.engine.engine import StreamEngine
from repro.engine.metrics import EngineMetrics
from repro.engine.sinks import Output, ResultSink
from repro.engine.transport import (
    CHANNEL_ERRORS,
    ShardTransport,
    WorkerConfig,
    build_transport,
    wait_readable,
)
from repro.obs.funnel import (
    NULL_FUNNEL,
    FunnelRecorder,
    resolve_funnel,
)
from repro.obs.logging import get_logger
from repro.obs.profile import SamplingProfiler, collapsed_text
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    SnapshotMerger,
    registry_state,
    resolve_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    Stage,
    TraceRecorder,
    resolve_tracer,
    stitch_spans,
)
from repro.query.ast import AggKind, Query
from repro.query.parser import parse_query
from repro.resilience.checkpointer import (
    apply_engine_state,
    engine_state,
    load_latest_checkpoint,
)
from repro.resilience.journal import EventJournal, MemoryShardLog
from repro.resilience.membership import (
    DEAD,
    JOIN,
    LEAVE,
    MemberInfo,
    WorkerRegistry,
)
from repro.resilience.shard_supervisor import (
    HeartbeatSupervisor,
    ShardHealth,
)

_log = get_logger("sharded")

OVERLOAD_POLICIES = ("block", "shed_oldest", "raise")

#: Reply deadline of one guarded data-pipe request (see ``_roundtrip``).
_RECV_TIMEOUT_S = 30.0

#: query_rows() fields that are per-process distributions, not totals —
#: summing them across shards would be meaningless.
_NON_ADDITIVE_ROW_KEYS = frozenset(
    {"query", "runtime_kind", "latency_us_p50", "latency_us_p99"}
)


def shard_of(key: Any, shards: int) -> int:
    """Deterministic cross-process shard assignment for one key."""
    return zlib.crc32(repr(key).encode("utf-8")) % shards


class _SpanOutbox:
    """Worker-side retransmit buffer for trace shipments.

    Span drains used to be fire-and-forget: a shipment riding a reply
    that died with the pipe was gone (the residual loss PR 6
    documented). The outbox closes it — every drain of the worker
    tracer becomes a numbered batch that rides *every* shipment until
    the router acknowledges it (the ack piggybacks on heartbeat pings
    as ``("ping", {"ack": <seq>})``), so a transport blip only delays
    spans, it no longer loses them. The router deduplicates by batch
    sequence; the deque bound caps worst-case memory when a router
    never acks (an orphaned worker is exiting anyway)."""

    __slots__ = ("_batches", "_next")

    def __init__(self, capacity: int = 64):
        self._batches: deque[tuple[int, list[tuple]]] = deque(
            maxlen=capacity
        )
        self._next = 1

    def drain(self, tracer: TraceRecorder) -> None:
        if not tracer.enabled or not len(tracer):
            return
        spans = tracer.spans()
        tracer.clear()
        self._batches.append(
            (
                self._next,
                [
                    (s.ts, s.stage, s.event_type, s.detail,
                     s.trace_id, s.wall)
                    for s in spans
                ],
            )
        )
        self._next += 1

    def pending(self) -> list[tuple[int, list[tuple]]]:
        return list(self._batches)

    def ack(self, upto: int) -> None:
        while self._batches and self._batches[0][0] <= upto:
            self._batches.popleft()


def _worker_obs_payload(
    engine: StreamEngine,
    registry: MetricsRegistry,
    tracer: TraceRecorder,
    profiler: SamplingProfiler | None,
    outbox: _SpanOutbox,
) -> dict[str, Any]:
    """One observability shipment: metrics snapshot, trace spans,
    cumulative profile counts, and this process's wall clock (the
    router's skew anchor). Metric snapshots are absolute values —
    idempotent on the router side. Spans ship through the ``outbox``
    as acknowledged batches ``(seq, [span, ...])`` that are
    retransmitted until the router acks them."""
    payload: dict[str, Any] = {"wall": time.time()}
    if registry.enabled:
        try:
            engine.refresh_cost_metrics()
        except Exception:
            pass  # cost rows are best-effort; ship what we have
        payload["metrics"] = registry_state(registry)
    outbox.drain(tracer)
    batches = outbox.pending()
    if batches:
        payload["spans"] = batches
    if profiler is not None:
        payload["profile"] = profiler.counts()
    return payload


def _worker_obs_setup(
    obs: dict[str, Any],
) -> tuple[MetricsRegistry, TraceRecorder, SamplingProfiler | None]:
    """Build one worker's own registry/tracer/profiler from the obs
    config document (shared by the forked and the networked worker).

    Funnel instrumentation rides the same registry: ``obs["funnel"]``
    forces a live registry so the per-query stage counters ship with
    the ordinary metric snapshots and merge router-side.
    """
    registry = (
        MetricsRegistry()
        if obs.get("metrics") or obs.get("funnel")
        else NULL_REGISTRY
    )
    tracer = (
        TraceRecorder(capacity=int(obs.get("trace_capacity", 512)))
        if obs.get("trace")
        else NULL_TRACER
    )
    profiler: SamplingProfiler | None = None
    if obs.get("profile"):
        profiler = SamplingProfiler()
        profiler.start()
    return registry, tracer, profiler


def _build_worker_engine(
    specs: list[tuple[str, Any]],
    vectorized: bool,
    index: int,
    registry: MetricsRegistry,
    tracer: TraceRecorder,
    funnel: FunnelRecorder | None = None,
) -> StreamEngine:
    """One worker's routed engine over the registration set.

    Specs arrive as ``(name, query_text)`` pairs — query text is the
    transport-neutral form (``str(query)`` round-trips through the
    parser, the same property engine checkpoints rely on) — but
    in-process callers may still pass :class:`Query` objects."""
    engine = StreamEngine(
        routed=True,
        vectorized=vectorized,
        registry=registry,
        trace=tracer,
        funnel=funnel if funnel is not None else NULL_FUNNEL,
        stream_name=f"shard-{index}",
    )
    for name, query in specs:
        if isinstance(query, str):
            query = parse_query(query, name=name)
        engine.register(query, name=name)
    return engine


def _shard_worker(
    conn: Any,
    control: Any,
    specs: list[tuple[str, Any]],
    vectorized: bool,
    index: int = 0,
    obs: dict[str, Any] | None = None,
    orphan_timeout_s: float | None = None,
) -> None:
    """Forked-worker entry point: build the engine, run the loop.

    The worker builds its *own* registry/tracer from the ``obs`` config
    rather than resolving the process default: under the fork start
    method the child inherits the router's installed default registry,
    and writing into that copy would silently shadow the router's
    series instead of shipping. The networked worker
    (:mod:`repro.shard_worker`) reuses the same loop over framed TCP
    channels.
    """
    obs = obs or {}
    registry, tracer, profiler = _worker_obs_setup(obs)
    funnel = FunnelRecorder(registry) if obs.get("funnel") else NULL_FUNNEL
    engine = _build_worker_engine(
        specs, vectorized, index, registry, tracer, funnel=funnel
    )
    try:
        _worker_loop(
            conn, control, engine, registry, tracer,
            profiler, index=index, orphan_timeout_s=orphan_timeout_s,
        )
    finally:
        if profiler is not None:
            profiler.stop()


def _worker_loop(
    conn: Any,
    control: Any,
    engine: StreamEngine,
    registry: MetricsRegistry,
    tracer: TraceRecorder,
    profiler: SamplingProfiler | None,
    index: int = 0,
    orphan_timeout_s: float | None = None,
) -> str:
    """Worker loop: a routed StreamEngine over one hash-partition.

    Two duplex channels (pipe or framed TCP), multiplexed with
    :func:`~repro.engine.transport.wait_readable` so heartbeats are
    answered even while data queues up. Returns why it stopped:
    ``"stop"`` (router shut down), ``"eof"`` (transport closed), or
    ``"orphan"`` (``orphan_timeout_s`` of total silence — no batches,
    no heartbeats — so the router is presumed gone and the worker
    exits instead of lingering).

    Data-channel protocol (request, reply):

    * ``("batch", {"c": flat_buffer, "n": rows})`` — ingest one
      :class:`EventBatch` wire buffer, the only row shape a shard gets,
      live or replayed; no reply (the channel's buffer provides natural
      backpressure via ``send``). Optional keys: ``"t": [(offset,
      trace_id), ...]`` — the worker stamps a ``shard_ingest`` span per
      traced row — and ``"q": base_seq``, the shard-journal sequence of
      the first row, which drives worker-side dedup: rows below the
      worker's applied watermark (set by the last seed) are sliced off,
      so a recovering router may redeliver conservatively and never
      double-counts. A frame that does not decode poisons the engine.
    * ``("collect", watermark_ms)`` — advance clocks to the global
      watermark, reply ``("ok", {"partials": {name: partial}, "obs":
      ...})`` with composable partial results (see :func:`_partial_of`)
      plus a fresh observability shipment.
    * ``("obs", None)`` — reply ``("ok", obs_payload)``: the scrape-
      time pull of metrics/spans/profile when heartbeats are off or
      stale.
    * ``("seed", engine_checkpoint)`` — restore every executor from a
      checkpoint document (revive path), reply ok. The checkpoint's
      ``journal_seq`` becomes the dedup watermark.
    * ``("checkpoint", None)`` — reply ``("ok", engine_state(...))``.
    * ``("rows"/"inspect"/"state", ...)`` — ops-plane snapshots.
    * ``("hang", seconds)`` — fault injection: sleep on the data lane
      so the pipe backs up (heartbeats keep flowing).
    * ``("stop", None)`` — reply and exit.

    Control-channel protocol: ``("ping", {"ack": n})`` → ``("pong",
    {"events", "failure", "obs"})`` — every heartbeat piggybacks an
    observability shipment, and the ping's ``ack`` releases span
    batches the router has safely ingested (see :class:`_SpanOutbox`);
    ``("stall", s)`` / ``("stall_hard", s)`` — fault injection: go
    fully unresponsive (``stall_hard`` also ignores SIGTERM, to
    exercise the router's kill escalation).

    A batch that raises poisons the engine: the failure string rides
    every subsequent pong and the next collect replies ``("error",
    ...)`` — either way the supervisor restarts this process.
    """
    outbox = _SpanOutbox()
    failure: str | None = None
    #: Shard-journal watermark of applied rows (dedup cursor).
    applied_seq = 0
    deadline = (
        time.monotonic() + orphan_timeout_s if orphan_timeout_s else None
    )
    while True:
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            ready = wait_readable([conn, control], timeout)
        except OSError:
            return "eof"
        if not ready:
            if deadline is not None and time.monotonic() >= deadline:
                return "orphan"
            continue
        if deadline is not None:
            deadline = time.monotonic() + orphan_timeout_s
        if control in ready:
            try:
                command, payload = control.recv()
            except CHANNEL_ERRORS:
                return "eof"
            try:
                if command == "ping":
                    if isinstance(payload, dict):
                        ack = payload.get("ack")
                        if ack:
                            outbox.ack(int(ack))
                    control.send(
                        (
                            "pong",
                            {
                                "events": engine.metrics.events,
                                "failure": failure,
                                "obs": _worker_obs_payload(
                                    engine, registry, tracer, profiler,
                                    outbox,
                                ),
                            },
                        )
                    )
                elif command == "stall":
                    time.sleep(float(payload))
                elif command == "stall_hard":
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    time.sleep(float(payload))
            except CHANNEL_ERRORS:
                return "eof"
            continue
        try:
            command, payload = conn.recv()
        except CHANNEL_ERRORS:
            return "eof"
        if command == "batch":
            try:
                batch = EventBatch.from_wire(payload["c"])
                base = payload.get("q")
                skip = 0
                if base is not None:
                    # Worker-side dedup of redelivered rows: a recovering
                    # router replays conservatively; rows already folded
                    # in by the seed are sliced off here.
                    skip = max(0, min(len(batch), applied_seq - base))
                    applied_seq = max(applied_seq, base + len(batch))
                if tracer.enabled and payload.get("t"):
                    _stamp_shard_ingest(
                        tracer, batch, payload["t"], f"shard={index}", skip
                    )
                # Poisoned: drain silently until restarted. The router
                # already enforced stream order; shard-local
                # subsequences inherit it.
                if failure is None and skip < len(batch):
                    engine.process_event_batch(
                        batch.islice(skip, len(batch)), enforce_order=False
                    )
            except Exception as error:  # reported via pong + collect
                failure = f"{type(error).__name__}: {error}"
        elif command == "collect":
            if failure is not None:
                conn.send(("error", failure))
                return "stop"
            try:
                reply = _answer(engine, command, payload)
                reply["obs"] = _worker_obs_payload(
                    engine, registry, tracer, profiler, outbox
                )
                conn.send(("ok", reply))
            except Exception as error:
                conn.send(("error", f"{type(error).__name__}: {error}"))
                return "stop"
        elif command == "obs":
            conn.send(
                ("ok", _worker_obs_payload(engine, registry, tracer,
                                           profiler, outbox))
            )
        elif command == "seed":
            try:
                apply_engine_state(engine, payload)
                applied_seq = int(payload.get("journal_seq", 0) or 0)
                failure = None
                conn.send(("ok", None))
            except Exception as error:
                conn.send(("error", f"{type(error).__name__}: {error}"))
                return "stop"
        elif command == "checkpoint":
            try:
                conn.send(("ok", engine_state(engine)))
            except Exception as error:
                conn.send(("error", f"{type(error).__name__}: {error}"))
        elif command in ("rows", "inspect", "state"):
            conn.send(("ok", _answer(engine, command, payload)))
        elif command == "hang":
            time.sleep(float(payload))
        elif command == "stop":
            conn.send(("ok", engine.metrics.events))
            return "stop"


def _stamp_shard_ingest(
    tracer: TraceRecorder, batch: EventBatch, traced: Any, detail: str,
    skip: int = 0,
) -> None:
    """One ``shard_ingest`` span per traced row a shard applies (offsets
    index ``batch`` before a dedup cut of ``skip`` rows). A corrupt
    offset degrades to a missing span, never a dead worker."""
    now = time.time()
    types = batch.schema.types
    for entry in traced:
        try:
            offset, trace_id = entry
            if not skip <= offset < len(batch):
                continue
            event_type = types[batch.codes[offset]]
            ts = int(batch.ts[offset])
        except (TypeError, ValueError, IndexError):
            continue
        tracer.record(
            Stage.SHARD_INGEST, ts, event_type, detail,
            trace_id=trace_id, wall=now,
        )


def _answer(engine: StreamEngine, command: str, payload: Any) -> Any:
    """Answer ``collect`` / ``rows`` / ``inspect`` / ``state`` from one
    engine — a worker's, or the fold lane of a degraded shard — so both
    give the router the same reply shapes."""
    if command == "collect":
        engine.advance_clock(int(payload))
        return {
            "partials": {
                name: _partial_of(engine.executor_of(name))
                for name in engine.query_names
            }
        }
    if command == "rows":
        return engine.query_rows()
    if command == "inspect":
        return engine.inspect()
    if command == "state":
        from repro.obs.inspect import state_of

        return state_of(engine, payload)
    raise EngineError(f"command {command!r} has no engine-side answer")


def _partial_of(executor: Any) -> Any:
    """One shard's composable partial result for one query.

    AVG ships ``(count, wsum)`` pairs — scalar or per-group — because
    per-shard averages do not compose; everything else ships its plain
    result.
    """
    query = executor.query
    if query.aggregate.kind is AggKind.AVG:
        if query.group_by is not None:
            return executor.group_count_and_wsum()
        return executor.count_and_wsum()
    return executor.result()


def _merge_partials(query: Query, partials: list[Any]) -> Any:
    """Fold per-shard partials into the single-process result."""
    kind = query.aggregate.kind
    if query.group_by is not None:
        if kind is AggKind.AVG:
            totals: dict[Any, tuple[int, float]] = {}
            for partial in partials:
                for group, (count, wsum) in partial.items():
                    base_count, base_wsum = totals.get(group, (0, 0.0))
                    totals[group] = (base_count + count, base_wsum + wsum)
            return {
                group: (wsum / count if count else None)
                for group, (count, wsum) in totals.items()
            }
        merged: dict[Any, Any] = {}
        for partial in partials:
            for group, value in partial.items():
                if group not in merged:
                    merged[group] = value
                elif kind in (AggKind.COUNT, AggKind.SUM):
                    # Unreachable when the shard key leads the group key
                    # (groups are disjoint across shards), but merge
                    # soundly anyway.
                    merged[group] += value
                elif value is not None:
                    held = merged[group]
                    if held is None:
                        merged[group] = value
                    elif kind is AggKind.MAX:
                        merged[group] = max(held, value)
                    else:
                        merged[group] = min(held, value)
        return merged
    if kind in (AggKind.COUNT, AggKind.SUM):
        return sum(partials)
    if kind is AggKind.AVG:
        count = sum(pair[0] for pair in partials)
        wsum = sum(pair[1] for pair in partials)
        return wsum / count if count else None
    extrema = [value for value in partials if value is not None]
    if not extrema:
        return None
    return max(extrema) if kind is AggKind.MAX else min(extrema)


class _ShardUnresponsive(Exception):
    """A worker broke its pipe, died, or blew a reply deadline."""


class _Worker:
    """Parent-side handle: process, pipes, journal, recovery."""

    __slots__ = (
        "index", "process", "conn", "control", "lock",
        "log", "replay_base", "checkpoint", "checkpoint_disabled",
        "batches_since_checkpoint", "fold", "generation",
        "obs_state", "last_rows", "profile",
        "span_seen", "address", "parts", "part_traces",
    )

    def __init__(self, index: int):
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.control: Any = None
        #: Serializes data-pipe use and revive between the router
        #: thread and the heartbeat thread. Lock order: the engine's
        #: ``_pending_lock`` before ``lock``, never reversed.
        self.lock = threading.Lock()
        #: EventJournal under ``journal_dir``, else a MemoryShardLog.
        self.log: Any = None
        #: Journal seq at first spawn — a disk journal resumed from a
        #: previous router run must not replay the old run's rows.
        self.replay_base = 0
        #: Latest engine checkpoint document (with ``journal_seq``).
        self.checkpoint: dict[str, Any] | None = None
        self.checkpoint_disabled = False
        self.batches_since_checkpoint = 0
        #: In-process fold lane once this shard is degraded.
        self.fold: StreamEngine | None = None
        self.generation = 0
        #: Latest shipped metrics snapshot: (generation, state list).
        self.obs_state: tuple[int, list[dict]] | None = None
        #: Last successful query_rows reply (stale-scrape fallback).
        self.last_rows: list[dict[str, Any]] | None = None
        #: Latest shipped profile counts ({collapsed_stack: samples}).
        self.profile: dict[str, int] | None = None
        #: Highest span-outbox batch sequence ingested from this
        #: worker generation (acked back on the next heartbeat ping).
        self.span_seen = 0
        #: Remote endpoint address, when the transport has one.
        self.address: tuple[str, int] | None = None
        #: The frame buffer: routed sub-batches not yet sent and their
        #: trace offsets into the frame they will make. Guarded by the
        #: engine's ``_pending_lock``, not by ``lock``.
        self.parts: list[EventBatch] = []
        self.part_traces: list[tuple[int, str]] = []


def _pipe_writable(conn: Any, timeout: float) -> bool:
    """True when ``send`` on the connection would not block (or when
    the fd is unpollable — then let ``send`` raise the real error)."""
    try:
        return bool(select.select([], [conn], [], timeout)[1])
    except (OSError, ValueError):
        return True


def _destroy_process(worker: _Worker, timeout: float = 2.0) -> None:
    """Tear down one worker process and both pipe ends; never raises.

    Escalation ladder: close pipes (unblocks a worker stuck in recv),
    ``terminate()``, and — when SIGTERM is ignored or the worker is
    wedged in uninterruptible state — ``kill()``. Always joins so no
    zombie is left, then closes the Process handle to release its fds.
    """
    for pipe in (worker.conn, worker.control):
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass
    worker.conn = None
    worker.control = None
    process = worker.process
    worker.process = None
    if process is None:
        return
    try:
        if process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout)
        else:
            process.join(0.1)  # reap an already-dead child
    except (OSError, ValueError):
        pass
    try:
        process.close()
    except ValueError:  # still running after kill: nothing more to do
        pass


class ShardedStreamEngine:
    """Hash-partitioned multi-process variant of :class:`StreamEngine`.

    Same registration surface (``register`` / ``run`` / ``results`` /
    ``query_rows`` / ``inspect``), duck-type compatible with the admin
    server. Workers start lazily on the first ingested event, so all
    queries must be registered before ingestion begins.

    Supervision knobs (see the module docstring for the semantics):

    ``supervise``
        Master switch for heartbeats, per-shard journaling,
        checkpoints, and exact revive. Off = PR 4 behavior: a dead
        shard raises :class:`~repro.errors.EngineError`.
    ``heartbeat_interval_s`` / ``heartbeat_max_missed``
        Ping cadence and how many consecutive missed pongs mark a
        shard as wedged.
    ``restart_limit``
        Restarts granted per shard before it degrades into the local
        fold lane.
    ``send_timeout_s`` / ``overload_policy``
        Backpressure guard on data-pipe sends: ``"block"`` (restart the
        wedged worker, lossless), ``"shed_oldest"`` (drop + count), or
        ``"raise"`` (:class:`~repro.errors.OverloadError`).
    ``journal_dir``
        Directory for durable per-shard journals + checkpoints
        (``shard-NN/``); None keeps them in memory.
    ``checkpoint_every_batches``
        Worker state snapshot cadence, in delivered batches (0 never
        checkpoints; revive then replays the whole shard journal).

    Observability knobs (the distributed observability plane):

    ``collect_obs``
        Per-shard metrics collection: workers ship registry snapshots
        with every heartbeat pong and collect reply; the router merges
        them at scrape time under ``shard="N"`` labels, monotonic
        across worker revives. Defaults to on exactly when the router
        registry is enabled.
    ``trace`` / ``trace_sample``
        Cross-process tracing: every ``trace_sample``-th routed keyed
        row — per-event or columnar ingest alike — gets a trace id
        that travels with its batch; ``drain_trace()``
        stitches router→shard→merge spans with wall-clock skew
        correction from heartbeat RTTs.
    ``profile``
        Opt-in sampling profiler in the router and every worker;
        ``collapsed_profile()`` concatenates per-process collapsed
        stacks (the admin ``/profile`` body).
    """

    def __init__(
        self,
        shards: int = 2,
        batch_size: int = 256,
        vectorized: bool = False,
        registry: MetricsRegistry | None = None,
        stream_name: str = "sharded",
        supervise: bool = True,
        heartbeat_interval_s: float = 0.5,
        heartbeat_max_missed: int = 3,
        restart_limit: int = 3,
        send_timeout_s: float = 5.0,
        overload_policy: str = "block",
        journal_dir: str | Path | None = None,
        checkpoint_every_batches: int = 64,
        shutdown_timeout_s: float = 2.0,
        trace: TraceRecorder | None = None,
        trace_sample: int = 64,
        collect_obs: bool | None = None,
        funnel: FunnelRecorder | None = None,
        profile: bool = False,
        transport: str | ShardTransport | None = None,
        worker_addresses: Sequence[str] | None = None,
        orphan_timeout_s: float | None = None,
        router_checkpoint_every: int = 0,
        resume_shards: bool = False,
        membership: WorkerRegistry | None = None,
        membership_wait_s: float = 15.0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if heartbeat_max_missed < 1:
            raise ValueError("heartbeat_max_missed must be at least 1")
        if restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")
        if send_timeout_s <= 0:
            raise ValueError("send_timeout_s must be positive")
        if checkpoint_every_batches < 0:
            raise ValueError("checkpoint_every_batches must be >= 0")
        if shutdown_timeout_s <= 0:
            raise ValueError("shutdown_timeout_s must be positive")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {overload_policy!r}"
            )
        if trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")
        if orphan_timeout_s is not None and orphan_timeout_s < 0:
            raise ValueError("orphan_timeout_s must be >= 0 (0 disables)")
        if router_checkpoint_every < 0:
            raise ValueError("router_checkpoint_every must be >= 0")
        if resume_shards and not supervise:
            raise ValueError(
                "resume_shards needs supervise=True (worker seeding "
                "replays per-shard journals)"
            )
        if membership is not None and not supervise:
            raise ValueError(
                "membership needs supervise=True (partition migration "
                "re-seeds workers from checkpoints and journals)"
            )
        self.shards = shards
        self.batch_size = batch_size
        self._vectorized = vectorized
        self.stream_name = stream_name
        self._transport = build_transport(
            transport,
            worker_addresses=worker_addresses,
            registry=registry,
        )
        self._orphan_timeout_s = orphan_timeout_s
        self._supervise = supervise
        self._heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_max_missed = heartbeat_max_missed
        self._restart_limit = restart_limit
        self._send_timeout_s = send_timeout_s
        self._overload_policy = overload_policy
        self._journal_dir = (
            None if journal_dir is None else Path(journal_dir)
        )
        self._checkpoint_every = checkpoint_every_batches
        self._shutdown_timeout_s = shutdown_timeout_s
        self.metrics = EngineMetrics()
        self.obs_registry = resolve_registry(registry)
        obs = self.obs_registry
        self._m_restarts = [
            obs.counter(
                "shard_restarts_total",
                "worker processes restarted by the shard supervisor",
                shard=str(index),
            )
            for index in range(shards)
        ]
        self._m_shard_failures = [
            obs.counter(
                "shard_failures_total",
                "shard failures observed (crash, hang, poisoned state)",
                shard=str(index),
            )
            for index in range(shards)
        ]
        self._g_degraded = obs.gauge(
            "shards_degraded",
            "shards folded into the local lane after exhausting restarts",
        )
        self._m_backpressure = obs.counter(
            "shard_backpressure_total",
            "data-pipe sends that hit the send timeout",
        )
        self._m_shed = obs.counter(
            "shard_shed_events_total",
            "events dropped by the shed_oldest overload policy",
        )
        self._m_checkpoints = obs.counter(
            "shard_checkpoints_total", "per-shard worker checkpoints taken"
        )
        self._m_router_checkpoints = obs.counter(
            "router_checkpoints_total",
            "router-side progress checkpoints written to the router log",
        )
        self._m_wal_appends = obs.counter(
            "router_wal_appends_total",
            "events appended to the router's WAL",
        )
        # ----- elastic membership (partition ownership) -----
        self._membership = membership
        if membership_wait_s < 0:
            raise ValueError("membership_wait_s must be >= 0")
        #: How long first start waits for an empty-but-growable fleet
        #: (a join listener or workers file) to gain its first member
        #: before giving up — covers the cold-start race where the
        #: router ingests before any ``--advertise`` worker dialed in.
        self._membership_wait_s = membership_wait_s
        #: partition index → member id (``slot-N`` placeholders when no
        #: registry is attached; ownership is then transport-implicit).
        self._routing: list[str] = []
        #: Bumped on every ownership flip; exported, checkpointed, and
        #: asserted on by the differential suites.
        self.routing_version = 0
        #: Routing document injected by router recovery (version+owners).
        self._resume_routing: dict[str, Any] | None = None
        #: Completed partition migrations (joins, leaves, dead reroutes).
        self.migrations = 0
        #: Serializes poll_membership across the heartbeat tick thread
        #: and direct callers; migrations themselves take the per-worker
        #: locks, this only keeps event-drain ordering sane.
        self._membership_poll_lock = threading.Lock()
        self._m_migrations = obs.counter(
            "repro_migration_total",
            "partition migrations completed (join, leave, dead reroute)",
        )
        self._m_migration_replayed = obs.counter(
            "repro_migration_events_replayed_total",
            "journal-suffix events replayed into migrated partitions",
        )
        self._h_migration_pause = obs.histogram(
            "repro_migration_pause_us",
            "ingest pause of one partition during a live migration (µs)",
        )
        self._g_routing_version = obs.gauge(
            "repro_membership_routing_version",
            "monotonic version of the partition-to-worker routing table",
        )
        #: All registrations, in order: name -> (query, sinks).
        self._specs: dict[str, tuple[Query, list[ResultSink]]] = {}
        #: The partition attribute all sharded queries agree on.
        self.shard_attribute: str | None = None
        self._sharded: dict[str, Query] = {}
        #: Relevant types of the sharded queries (IPC filter).
        self._sharded_types: frozenset[str] = frozenset()
        # ----- the distributed observability plane -----
        self._trace = resolve_tracer(trace)
        self._trace_on = self._trace.enabled
        self._trace_sample = trace_sample
        self._route_seq = 0
        #: Sampled ids awaiting their MERGE span: (id, shard, type, ts).
        self._pending_traces: deque[tuple[str, int, str, int]] = deque(
            maxlen=512
        )
        #: Worker spans ingested from obs shipments, skew-corrected,
        #: awaiting a /trace drain.
        self._shard_spans: deque[dict[str, Any]] = deque(maxlen=4096)
        funnel = resolve_funnel(funnel)
        self._funnel = funnel
        self._collect_obs = (
            (self.obs_registry.enabled or funnel.enabled)
            if collect_obs is None
            else bool(collect_obs)
        )
        # Funnel-only runs (metrics registry disabled) still need a
        # live router-side registry to merge worker snapshots into;
        # the funnel recorder carries one.
        merge_registry = self.obs_registry
        if not merge_registry.enabled and funnel.enabled:
            merge_registry = funnel.registry
        self._merger = (
            SnapshotMerger(merge_registry) if self._collect_obs else None
        )
        self._profile = profile
        self._profiler: SamplingProfiler | None = None
        #: Worker-side observability config (crosses the fork/spawn).
        self._worker_obs = {
            "metrics": self._collect_obs,
            "trace": self._trace_on,
            "trace_capacity": 512,
            "profile": profile,
            "funnel": funnel.enabled,
        }
        #: Non-partitionable queries run here, in-process.
        self._local = StreamEngine(
            routed=True,
            vectorized=vectorized,
            registry=registry,
            trace=trace,
            funnel=funnel,
            stream_name=f"{stream_name}-local",
        )
        self._local_names: list[str] = []
        self._workers: list[_Worker] = []
        self._shard_health = [
            ShardHealth(shard=index) for index in range(shards)
        ]
        #: Indices of shards folded into the local process.
        self.degraded_shards: set[int] = set()
        #: Events dropped under the shed_oldest overload policy.
        self.shed_events = 0
        self._monitor: HeartbeatSupervisor | None = None
        self._started = False
        self._closed = False
        self._clock_ms: int | None = None
        #: Events ``process`` has handed the local lane but not yet the
        #: router WAL or the workers; ``_flush_pending`` routes them as
        #: one batch. Every WAL write and every worker send happens
        #: under ``_pending_lock`` (the ingest thread and the scrape
        #: thread both flush), so neither can run out of order.
        self._pending: list[Event] = []
        self._pending_lock = threading.Lock()
        #: The one growing schema of every pending batch, as
        #: ``batches_from_events`` keeps it: type codes stay put and the
        #: routing LUT stays cached from one flush to the next.
        self._pending_schema: BatchSchema | None = None
        # ----- router durability (see attach_router_log) -----
        self._router_log: EventJournal | None = None
        self._router_checkpoint_every = router_checkpoint_every
        self._events_since_router_checkpoint = 0
        #: Resume mode: ``_start`` re-seeds every worker from its own
        #: durable checkpoint + journal instead of starting fresh.
        self._resume_shards = resume_shards
        #: Per-shard checkpoint overrides injected by router recovery
        #: (e.g. the fold-lane state of a shard that was degraded).
        self._resume_checkpoints: dict[int, dict[str, Any]] = {}
        #: Events replayed into this engine by the last recovery.
        self.events_replayed = 0
        # ----- partition-step caches (see _send_partitions) -----
        #: Single-entry (schema, sharded-type LUT) routing cache; batch
        #: runs share one growing schema, so identity works as the key.
        self._columnar_route: tuple[Any, Any] | None = None
        #: Bounded key→shard memo (crc32 per unique key, not per row).
        self._shard_of_key: dict[Any, int] = {}

    # ----- registration ------------------------------------------------------

    def register(
        self,
        query: Query,
        *sinks: ResultSink,
        name: str | None = None,
    ) -> None:
        """Register a query; must happen before the first event."""
        if self._started:
            raise EngineError(
                "register all queries before ingesting events; the worker "
                "processes are built from the registration set"
            )
        name = name or query.name or f"q{len(self._specs)}"
        if name in self._specs:
            raise EngineError(f"duplicate query name {name!r}")
        try:
            attributes = partition_attributes(query)
        except QueryError:
            attributes = ()
        leading = attributes[0] if attributes else None
        if leading is not None and self.shard_attribute is None:
            self.shard_attribute = leading
        self._specs[name] = (query, list(sinks))
        if leading is not None and leading == self.shard_attribute:
            self._sharded[name] = query
            self._sharded_types = self._sharded_types | frozenset(
                query.relevant_types
            )
        else:
            self._local.register(query, *sinks, name=name)
            self._local_names.append(name)

    # ----- worker lifecycle --------------------------------------------------

    def _resolved_orphan_timeout(self) -> float | None:
        """The orphan-silence budget shipped to workers.

        Explicit wins (0 disables); under supervision the default is
        generous — ten full miss budgets, floored at 10s — so a worker
        never self-terminates while its router is merely busy; without
        heartbeats there is no traffic floor to judge silence by, so
        the guard stays off (transport EOF still ends the worker).
        """
        if self._orphan_timeout_s is not None:
            return self._orphan_timeout_s or None
        if self._supervise:
            return max(
                10.0,
                self._heartbeat_interval_s
                * self._heartbeat_max_missed
                * 10.0,
            )
        return None

    def _spawn_into(self, worker: _Worker) -> None:
        """(Re)connect one worker through the transport (fresh pipes
        and a forked process, or a framed-TCP session). With a worker
        registry attached, the routing table decides *which* member
        serves this partition and the transport dials that member."""
        if self._membership is not None:
            endpoint = self._transport.open_member(
                worker.index, self._member_of(worker.index)
            )
        else:
            endpoint = self._transport.open(worker.index)
        worker.process = endpoint.process
        worker.conn = endpoint.conn
        worker.control = endpoint.control
        worker.address = endpoint.address
        worker.span_seen = 0

    def _member_of(self, index: int) -> MemberInfo:
        """The live member the routing table points this partition at."""
        member_id = self._routing[index]
        member = self._membership.get(member_id)
        if member is None or not member.live:
            raise TransportError(
                f"partition {index} is routed to {member_id!r}, which "
                f"is not a live member"
            )
        return member

    def _initial_routing(self) -> None:
        """Build the partition→member routing table at first start.

        Round-robin over live members in registry order, unless router
        recovery injected a routing document — then prior owners are
        honored wherever they are still live (their journals and the
        recovered watermarks describe that placement)."""
        if self._membership is None:
            self._routing = [f"slot-{i}" for i in range(self.shards)]
            return
        members = self._membership.live_members()
        if (
            not members
            and self._membership_wait_s > 0
            and self._membership.can_grow
        ):
            _log.info(
                "membership_wait",
                message=(
                    f"worker fleet is empty; waiting up to "
                    f"{self._membership_wait_s:g}s for the first member"
                ),
                wait_s=self._membership_wait_s,
            )
            self._membership.wait_for_members(self._membership_wait_s)
            members = self._membership.live_members()
        if not members:
            raise EngineError(
                f"the worker registry has no live members to place "
                f"{self.shards} partitions on"
            )
        resume = self._resume_routing or {}
        owners = resume.get("owners") or []
        live_ids = {member.member_id for member in members}
        self._routing = []
        for index in range(self.shards):
            owner = owners[index] if index < len(owners) else None
            if owner not in live_ids:
                owner = members[index % len(members)].member_id
            self._routing.append(owner)
        self.routing_version = int(resume.get("version", 0) or 0)
        self._g_routing_version.set(float(self.routing_version))

    def _bump_routing(self) -> None:
        self.routing_version += 1
        self._g_routing_version.set(float(self.routing_version))

    def _start(self) -> None:
        self._transport.bind(
            WorkerConfig(
                specs=[
                    (name, str(query))
                    for name, query in self._sharded.items()
                ],
                vectorized=self._vectorized,
                obs=self._worker_obs,
                orphan_timeout_s=self._resolved_orphan_timeout(),
            )
        )
        if self._profile and self._profiler is None:
            self._profiler = SamplingProfiler()
            self._profiler.start()
        self._initial_routing()
        for index in range(self.shards):
            worker = _Worker(index)
            if self._supervise:
                worker.log = (
                    MemoryShardLog() if self._journal_dir is None
                    else EventJournal(
                        self._journal_dir / f"shard-{index:02d}",
                        registry=self.obs_registry,
                    )
                )
                if self._resume_shards:
                    # Router recovery: the journal's whole history is
                    # the re-seed recipe, not a stale prefix to skip.
                    worker.replay_base = 0
                    checkpoint = self._resume_checkpoints.get(index)
                    if checkpoint is None and self._journal_dir:
                        checkpoint, _ = load_latest_checkpoint(
                            worker.log.directory
                        )
                    worker.checkpoint = checkpoint
                else:
                    worker.replay_base = worker.log.next_seq
            self._spawn_into(worker)
            if self._resume_shards:
                self._seed_worker(worker)
            self._workers.append(worker)
        if self._supervise and self._sharded:
            self._monitor = HeartbeatSupervisor(
                self.shards,
                self._ping_shard,
                self._revive,
                interval_s=self._heartbeat_interval_s,
                max_missed=self._heartbeat_max_missed,
                registry=self.obs_registry,
                health=self._shard_health,
                tick=(
                    self._membership_tick
                    if self._membership is not None
                    else None
                ),
            )
            self._monitor.start()
        self._started = True

    def close(self) -> None:
        """Stop workers with terminate→kill escalation; idempotent and
        exception-safe (no leaked pipe fds, no zombie processes).
        Nothing more is sent: pending events are journaled, and rows
        in the workers' frame buffers are already in the router WAL
        when one is attached; router recovery's count-skip delivers
        both. Without a router WAL, call :meth:`flush` first."""
        if self._closed:
            return
        self._closed = True
        monitor = self._monitor
        if monitor is not None:
            monitor.stop()
            self._monitor = None
        profiler = self._profiler
        if profiler is not None:
            profiler.stop()
        for worker in self._workers:
            acquired = worker.lock.acquire(
                timeout=self._shutdown_timeout_s + 3.0
            )
            try:
                self._say_stop(worker)
                _destroy_process(worker, self._shutdown_timeout_s)
                if worker.log is not None:
                    worker.log.close()
                    worker.log = None
                worker.fold = None
            finally:
                if acquired:
                    worker.lock.release()
        self._workers.clear()
        try:
            self._transport.close()
        except Exception:  # transport teardown must never mask close
            pass
        log = self._router_log
        if log is not None:
            try:
                if self._pending:
                    log.append_batch(self._pending)
                    self._m_wal_appends.inc(len(self._pending))
                    self._pending = []
                log.close()
            except Exception:
                pass
            self._router_log = None

    def _say_stop(self, worker: _Worker) -> None:
        """The stop handshake: ask a worker to exit and give it a moment
        to acknowledge (teardown proper is :func:`_destroy_process`)."""
        if worker.conn is None:
            return
        try:
            worker.conn.send(("stop", None))
            if worker.conn.poll(min(1.0, self._shutdown_timeout_s)):
                worker.conn.recv()
        except CHANNEL_ERRORS:
            pass

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----- supervision -------------------------------------------------------

    def _ping_shard(self, index: int) -> tuple[str, Any]:
        """Heartbeat probe of one shard (called by the monitor thread).

        Never blocks behind the router: a busy per-worker lock skips
        the round rather than stalling the monitor loop.
        """
        worker = self._workers[index]
        if not worker.lock.acquire(timeout=0.05):
            return ("busy", None)
        try:
            if self._closed:
                return ("busy", None)
            if worker.fold is not None:
                return ("ok", {"degraded": True})
            return self._ping_locked(worker)
        finally:
            worker.lock.release()

    def _ping_locked(self, worker: _Worker) -> tuple[str, Any]:
        process = worker.process
        if worker.conn is None or worker.control is None:
            return ("dead", None)
        # A remote (networked) worker has no process handle; its
        # channel state is the only liveness signal we have.
        if process is not None and not process.is_alive():
            return ("dead", None)
        control = worker.control
        try:
            # Stale pongs from missed rounds are dropped, but the obs
            # shipment they carry is salvaged first — worker span
            # drains are destructive, so a discarded pong would lose
            # its spans for good.
            while control.poll(0):
                self._salvage_reply(worker, control.recv())
            sent_mono = time.monotonic()
            sent_wall = time.time()
            # The ack releases span batches this router has already
            # ingested from the worker's retransmit outbox.
            control.send(("ping", {"ack": worker.span_seen}))
            if not control.poll(self._heartbeat_interval_s):
                return ("miss", None)
            _, payload = control.recv()
        except CHANNEL_ERRORS:
            return ("dead", None)
        if isinstance(payload, dict):
            # RTT and clock skew from this very roundtrip: the worker's
            # wall clock is assumed read halfway through the RTT, so
            # skew = worker_wall - (send_wall + rtt/2). The skew
            # normalizes worker span wall times into the router clock.
            rtt = time.monotonic() - sent_mono
            health = self._shard_health[worker.index]
            health.rtt_s = rtt
            obs = payload.get("obs")
            if isinstance(obs, dict) and obs.get("wall"):
                health.clock_skew_s = (
                    float(obs["wall"]) - (sent_wall + rtt / 2.0)
                )
            self._ingest_obs(worker, obs)
        failure = (
            payload.get("failure") if isinstance(payload, dict) else None
        )
        if failure:
            return ("failed", failure)
        return ("ok", payload)

    def _ingest_obs(self, worker: _Worker, obs: Any) -> None:
        """Absorb one worker observability shipment (any thread).

        Metrics snapshots are *stored* (latest wins, keyed by process
        generation) and merged into the router registry at scrape time;
        spans are skew-corrected and queued for the next ``/trace``
        drain; profile counts overwrite the shard's latest.
        """
        if not isinstance(obs, dict):
            return
        metrics = obs.get("metrics")
        if metrics is not None:
            worker.obs_state = (worker.generation, metrics)
        spans = obs.get("spans")
        if spans:
            # Two shipment shapes: acked outbox batches ``(seq,
            # [span6, ...])`` — deduplicated against the worker's
            # ``span_seen`` watermark, acked back on the next ping —
            # and the legacy flat list of 6-tuples (drain-once
            # shipments salvaged from stale replies).
            flat: list[tuple] = []
            for item in spans:
                if (
                    len(item) == 2
                    and isinstance(item[1], (list, tuple))
                ):
                    batch_seq, batch = item
                    if batch_seq <= worker.span_seen:
                        continue  # retransmit of an ingested batch
                    worker.span_seen = batch_seq
                    flat.extend(batch)
                else:
                    flat.append(item)
            skew = self._shard_health[worker.index].clock_skew_s or 0.0
            for ts, stage, event_type, detail, trace_id, wall in flat:
                self._shard_spans.append(
                    {
                        "seq": None,
                        "shard": worker.index,
                        "ts": ts,
                        "stage": stage,
                        "event_type": event_type,
                        "detail": detail,
                        "trace_id": trace_id,
                        "wall": (wall - skew) if wall else 0.0,
                    }
                )
        profile = obs.get("profile")
        if profile:
            worker.profile = profile

    def _salvage_reply(self, worker: _Worker, message: Any) -> None:
        """Recover the obs shipment riding a stale, discarded reply.

        Span drains are destructive on the worker side, so a pong from
        a missed heartbeat round or a data-pipe reply that blew its
        deadline would otherwise lose its spans forever.  Drain loops
        feed every discarded message through here; anything malformed
        is ignored (the drop was the point).  Pipes are recreated on
        revive, so a salvaged shipment is always from the worker's
        current generation.
        """
        try:
            _, payload = message
        except (TypeError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if "obs" in payload:
            self._ingest_obs(worker, payload["obs"])
        elif "wall" in payload:
            # A bare ("obs", None) reply: the payload *is* the shipment.
            self._ingest_obs(worker, payload)

    def _revive(self, index: int, reason: str) -> None:
        """Monitor-thread entry point: restart one unhealthy shard."""
        worker = self._workers[index]
        with worker.lock:
            if self._closed or worker.fold is not None:
                return
            # The router may have revived it while we waited for the
            # lock — a healthy pong means there is nothing left to do.
            if self._ping_locked(worker)[0] == "ok":
                return
            self._handle_failure(worker, reason)

    def _handle_failure(self, worker: _Worker, reason: str) -> None:
        """Record one shard failure and recover (lock held by caller)."""
        health = self._shard_health[worker.index]
        health.failures += 1
        health.last_failure = reason
        self._m_shard_failures[worker.index].inc()
        if not self._supervise:
            raise EngineError(f"shard {worker.index} failed: {reason}")
        self._revive_locked(worker, reason)

    def _revive_locked(self, worker: _Worker, reason: str) -> None:
        """Kill, respawn, re-seed exactly (checkpoint + journal suffix
        replay); degrade into the fold lane once restarts run out."""
        if self._closed or worker.fold is not None:
            return
        health = self._shard_health[worker.index]
        while True:
            if health.restarts >= self._restart_limit:
                self._degrade_locked(worker, reason)
                return
            health.restarts += 1
            health.alive = True
            health.missed_heartbeats = 0
            health.last_pong_at = time.monotonic()
            self._m_restarts[worker.index].inc()
            try:
                self._respawn(worker)
            except Exception as error:
                reason = f"re-seed failed: {error!r}"
                health.failures += 1
                health.last_failure = reason
                self._m_shard_failures[worker.index].inc()
                continue
            if self._trace_on:
                self._trace.record(
                    Stage.SHARD_REVIVE,
                    int(self._clock_ms or 0),
                    "",
                    f"shard={worker.index} "
                    f"generation={worker.generation}: {reason}",
                    wall=time.time(),
                )
            _log.warning(
                "shard_restart",
                message=(
                    f"shard {worker.index} restarted "
                    f"(generation {worker.generation}): {reason}"
                ),
                shard=worker.index,
                generation=worker.generation,
                reason=reason,
            )
            return

    def _respawn(self, worker: _Worker, prefer: str | None = None) -> None:
        """Drop one partition's endpoint and bring it back, re-seeded,
        as the next worker generation (lock held) — the step revive,
        migration and dead-owner reroute have in common."""
        _destroy_process(worker, self._shutdown_timeout_s)
        worker.generation += 1
        if self._membership is not None:
            # The partition's owner may itself be the casualty: after
            # ``prefer`` try it first, then any other live member.
            self._place_and_seed(worker, prefer)
            return
        self._spawn_into(worker)
        self._seed_worker(worker)

    def _place_and_seed(
        self, worker: _Worker, prefer: str | None = None
    ) -> None:
        """Spawn + seed one partition on a live member (lock held).

        Tries ``prefer``, then the current owner, then every other live
        member in registry order. A member whose endpoint cannot even
        be dialed is reported **dead** to the registry (its remaining
        partitions are evacuated by the next membership poll); seeding
        failures on a reachable member propagate — the revive loop's
        restart budget owns those. Every ownership flip bumps the
        routing version."""
        candidates: list[str] = []
        for member_id in (prefer, self._routing[worker.index]):
            if member_id and member_id not in candidates:
                candidates.append(member_id)
        loads = self._member_loads()
        for member_id in sorted(
            loads, key=lambda mid: (loads[mid], mid)
        ):
            if member_id not in candidates:
                candidates.append(member_id)
        last_error: Exception | None = None
        for member_id in candidates:
            member = self._membership.get(member_id)
            if member is None or not member.live:
                continue
            if self._routing[worker.index] != member_id:
                self._routing[worker.index] = member_id
                self._bump_routing()
            try:
                self._spawn_into(worker)
            except TransportError as error:
                last_error = error
                self._membership.mark_dead(member_id)
                continue
            replayed = self._seed_worker(worker)
            if replayed:
                self._m_migration_replayed.inc(replayed)
            return
        raise last_error or TransportError(
            f"no live member could host partition {worker.index}"
        )

    def _restore(
        self, worker: _Worker, apply_checkpoint: Callable[[dict], Any]
    ) -> Iterator[tuple[int, EventBatch]]:
        """The restore recipe, whatever the target: hand the shard's
        latest checkpoint to ``apply_checkpoint``, then yield the
        journal suffix past it as ``(base_seq, batch)`` pairs for the
        caller to feed the target. Revive, migration, router recovery
        and degrade-to-fold all rebuild a shard this way."""
        start_seq = worker.replay_base
        if worker.checkpoint is not None:
            apply_checkpoint(worker.checkpoint)
            start_seq = max(
                start_seq, int(worker.checkpoint.get("journal_seq", 0))
            )
        if worker.log is not None:
            yield from worker.log.replay(start_seq)

    def _seed_worker(self, worker: _Worker) -> int:
        """Re-seed a fresh worker exactly (see :meth:`_restore`). Replay
        batches carry their base journal sequence so the worker's dedup
        cursor tracks exactly what it has applied — a later
        conservative redelivery (router recovery) is then skippable
        worker-side. Returns the number of journal rows replayed."""
        replayed = 0
        for base, batch in self._restore(
            worker, lambda state: self._roundtrip(worker, "seed", state)
        ):
            worker.conn.send(
                ("batch", {"c": batch.to_wire(), "n": len(batch), "q": base})
            )
            replayed += len(batch)
        return replayed

    def _degrade_locked(self, worker: _Worker, reason: str) -> None:
        """Fold this shard's key-range into an in-process lane, seeded
        the same exact way a revive would seed a fresh worker."""
        health = self._shard_health[worker.index]
        # The fold lane shares the router registry and tracer: a
        # degraded shard's series fold into the local lane's (same
        # metric names, no shard label) instead of going dark, and its
        # merged remote series freeze at the last shipped snapshot —
        # still monotonic.
        fold = StreamEngine(
            routed=True,
            vectorized=self._vectorized,
            registry=self.obs_registry if self._collect_obs else None,
            trace=self._trace if self._trace_on else None,
            funnel=self._funnel,
            stream_name=f"{self.stream_name}-fold-{worker.index}",
        )
        for name, query in self._sharded.items():
            fold.register(query, name=name)
        dropped = sum(
            _feed_fold(fold, batch)
            for _, batch in self._restore(
                worker, lambda state: apply_engine_state(fold, state)
            )
        )
        _destroy_process(worker, self._shutdown_timeout_s)
        worker.fold = fold
        health.degraded = True
        health.alive = False
        self.degraded_shards.add(worker.index)
        self._g_degraded.set(float(len(self.degraded_shards)))
        if self._trace_on:
            self._trace.record(
                Stage.SHARD_DEGRADE,
                int(self._clock_ms or 0),
                "",
                f"shard={worker.index} after {health.restarts} restarts: "
                f"{reason}",
                wall=time.time(),
            )
        _log.warning(
            "shard_degraded",
            message=(
                f"shard {worker.index} degraded after {health.restarts} "
                f"restarts; its key-range now runs in-process: {reason}"
            ),
            shard=worker.index,
            restarts=health.restarts,
            replay_dropped_events=dropped,
            reason=reason,
        )

    def _roundtrip(
        self,
        worker: _Worker,
        command: str,
        payload: Any = None,
        timeout: float = _RECV_TIMEOUT_S,
    ) -> Any:
        """One guarded request/reply on the data pipe (lock held).

        Stale replies are drained first: a previous request that blew
        its deadline may have left its answer in the pipe, and pairing
        it with this request would desynchronize the protocol (any obs
        shipment riding a drained reply is salvaged, not lost). Raises
        :class:`_ShardUnresponsive` on pipe death or a blown reply
        deadline, :class:`EngineError` on an ``("error", ...)`` reply.
        """
        try:
            while worker.conn.poll(0):
                self._salvage_reply(worker, worker.conn.recv())
            worker.conn.send((command, payload))
            if not worker.conn.poll(timeout):
                raise _ShardUnresponsive(
                    f"no reply to {command!r} within {timeout}s"
                )
            status, value = worker.conn.recv()
        except CHANNEL_ERRORS as error:
            raise _ShardUnresponsive(repr(error)) from error
        if status != "ok":
            raise EngineError(
                f"shard {worker.index} {command} failed: {value}"
            )
        return value

    def shard_health(self) -> list[dict[str, Any]]:
        """Per-shard supervision snapshots (restarts, heartbeat age,
        degraded flag) for ``inspect()`` and the admin plane."""
        return [health.snapshot() for health in self._shard_health]

    # ----- elastic membership ------------------------------------------------

    def _membership_tick(self) -> None:
        """Heartbeat-loop hook: drain membership events, best-effort."""
        try:
            self.poll_membership()
        except Exception as error:  # never kill the heartbeat thread
            _log.warning(
                "membership_poll_error",
                message=f"membership poll raised {error!r}",
                error=type(error).__name__,
            )

    def poll_membership(self) -> list[tuple[str, str]]:
        """Consume queued membership events and rebalance partitions.

        Joins pull partitions off the most-loaded members onto the
        newcomer; graceful leaves migrate every owned partition away
        with a checkpoint handoff; deaths re-place the partitions from
        their checkpoints + journal suffixes (worker-side count-skip
        dedup keeps delivery exactly-once either way). Called by the
        heartbeat loop every round; safe to call directly. Returns the
        events that were handled.
        """
        if self._membership is None or not self._started or self._closed:
            return []
        if not self._membership_poll_lock.acquire(blocking=False):
            return []  # another thread is already draining
        try:
            events = self._membership.poll()
            for kind, member_id in events:
                try:
                    if kind == JOIN:
                        self._rebalance_for_join(member_id)
                    elif kind in (LEAVE, DEAD):
                        self._evacuate_member(member_id, kind)
                except (EngineError, OSError) as error:
                    _log.warning(
                        "membership_event_failed",
                        message=(
                            f"handling {kind} of {member_id} failed: "
                            f"{error!r}"
                        ),
                        member=member_id,
                        kind=kind,
                    )
            return events
        finally:
            self._membership_poll_lock.release()

    def migrate_partition(self, index: int, member_id: str) -> float:
        """Move one partition to another live member, exactly.

        The handoff: quiesce the partition at a batch boundary (take
        its worker lock), checkpoint the source worker through
        ``engine_state`` and prune its journal, stop the source
        gracefully, flip the routing entry (bumping the version), spawn
        on the new owner and re-seed from checkpoint + journal suffix.
        If the source cannot checkpoint, the stored checkpoint plus the
        *full* journal suffix re-seeds instead — the stock revive
        recipe, so merged results stay bit-identical either way.
        Returns the partition's ingest pause in seconds.
        """
        if self._membership is None:
            raise EngineError(
                "migrate_partition needs a worker registry "
                "(membership=...)"
            )
        if not 0 <= index < self.shards:
            raise EngineError(f"no such partition {index}")
        if not self._started:
            raise EngineError(
                "start the engine before migrating partitions"
            )
        member = self._membership.get(member_id)
        if member is None or not member.live:
            raise EngineError(f"{member_id!r} is not a live member")
        if self._routing[index] == member_id:
            return 0.0
        worker = self._workers[index]
        with worker.lock:
            return self._migrate_locked(worker, member_id)

    def _migrate_locked(self, worker: _Worker, member_id: str) -> float:
        if worker.fold is not None:
            raise EngineError(
                f"partition {worker.index} is degraded (in-process); "
                f"there is no worker state to migrate"
            )
        started = time.perf_counter()
        # Every send holds the worker lock, so holding it is a batch
        # boundary: the checkpoint below covers exactly what the shard
        # journal holds. Rows still pending or buffered in the router
        # go to whichever member owns the partition when they are sent.
        try:
            if not worker.checkpoint_disabled:
                self._take_checkpoint(worker)
            self._say_stop(worker)
        except (_ShardUnresponsive, EngineError):
            # Source is sick: re-seed from the stored checkpoint plus
            # the full journal suffix instead — still exact.
            pass
        pause = self._move_locked(worker, member_id, started)
        _log.info(
            "partition_migrated",
            message=(
                f"partition {worker.index} migrated to "
                f"{self._routing[worker.index]} in {pause * 1000:.1f}ms "
                f"(routing v{self.routing_version})"
            ),
            shard=worker.index,
            member=self._routing[worker.index],
            routing_version=self.routing_version,
            pause_ms=round(pause * 1000, 3),
        )
        return pause

    def _reroute_partition(self, index: int, dest: str) -> None:
        """Re-place one partition whose owner is already gone (no
        graceful handoff possible): destroy the dead endpoint, flip
        routing, spawn + re-seed from checkpoint + journal suffix."""
        worker = self._workers[index]
        with worker.lock:
            if worker.fold is not None or self._closed:
                return
            self._move_locked(worker, dest, time.perf_counter())

    def _move_locked(
        self, worker: _Worker, prefer: str, started: float
    ) -> float:
        """The tail of every partition move: respawn on a live member
        (``prefer`` first) and book the migration. Returns the pause
        since ``started``."""
        self._respawn(worker, prefer)
        pause = time.perf_counter() - started
        self.migrations += 1
        self._m_migrations.inc()
        self._h_migration_pause.observe(pause * 1_000_000.0)
        return pause

    def _member_loads(self, exclude: str | None = None) -> dict[str, int]:
        """Partitions owned per live member (``exclude`` left out)."""
        loads = {
            member.member_id: 0
            for member in self._membership.live_members()
            if member.member_id != exclude
        }
        for owner in self._routing:
            if owner in loads:
                loads[owner] += 1
        return loads

    def _least_loaded(self, exclude: str | None = None) -> str | None:
        """The live member owning the fewest partitions (ties: id)."""
        loads = self._member_loads(exclude)
        if not loads:
            return None
        return min(loads, key=lambda mid: (loads[mid], mid))

    def _rebalance_for_join(self, member_id: str) -> None:
        """Pull partitions onto a joined member until loads even out.

        Moves one partition at a time from the most-loaded donor, and
        only while a move strictly reduces imbalance (donor at least
        two ahead) — minimal churn, never a pointless swap."""
        while True:
            loads = self._member_loads()
            if member_id not in loads:
                return  # the joiner is not (or no longer) live
            movable: dict[str, list[int]] = {}
            for index, owner in enumerate(self._routing):
                if owner != member_id and self._workers[index].fold is None:
                    movable.setdefault(owner, []).append(index)
            joiner_load = loads[member_id]
            donor = None
            for owner in sorted(movable):
                # A dead owner awaiting evacuation is no donor: its
                # partitions move with its own DEAD event.
                if loads.get(owner, -1) >= joiner_load + 2 and (
                    donor is None or loads[owner] > loads[donor]
                ):
                    donor = owner
            if donor is None:
                return
            self.migrate_partition(movable[donor][-1], member_id)

    def _evacuate_member(self, member_id: str, kind: str) -> None:
        """Move every partition off a departed or dead member."""
        for index in range(self.shards):
            if self._routing[index] != member_id:
                continue
            if self._workers[index].fold is not None:
                continue
            dest = self._least_loaded(exclude=member_id)
            if dest is None:
                _log.warning(
                    "membership_no_destination",
                    message=(
                        f"no live member left to take partition {index} "
                        f"from {member_id}; the revive path will degrade "
                        f"it if its worker is unreachable"
                    ),
                    shard=index,
                    member=member_id,
                )
                return
            if kind == LEAVE:
                # Graceful: the departing worker still answers, so the
                # checkpoint handoff applies; fall back to a reroute.
                try:
                    self.migrate_partition(index, dest)
                    continue
                except EngineError:
                    pass
            self._reroute_partition(index, dest)

    def membership_view(self) -> dict[str, Any] | None:
        """Fleet + routing snapshot for ``/healthz`` and ``inspect()``
        (``None`` when no worker registry is attached)."""
        if self._membership is None:
            return None
        view = self._membership.snapshot()
        view["routing"] = {
            "version": self.routing_version,
            "owners": list(self._routing),
        }
        view["migrations"] = self.migrations
        return view

    # ----- ingestion ---------------------------------------------------------

    def attach_router_log(self, log: EventJournal) -> None:
        """Attach the router's WAL (before ingestion).

        With a journal attached every batch is journaled *before* any
        of its rows reaches a worker (classic WAL discipline), and — when
        ``router_checkpoint_every`` is set — the router periodically
        persists its own progress document, so
        :func:`~repro.resilience.router_recovery.recover_router` can
        resume this engine bit-identically after a router SIGKILL.
        Requires durable shard journals (``journal_dir``): the WAL
        reconciles against them at recovery time.
        """
        if self._started or self.metrics.events:
            raise EngineError(
                "attach the router log before ingesting events; "
                "already-routed events would be missing from the WAL"
            )
        if self._supervise and self._journal_dir is None:
            raise EngineError(
                "router journaling requires durable shard journals "
                "(set journal_dir); recovery reconciles the router WAL "
                "against each shard's on-disk journal"
            )
        self._router_log = log

    def router_checkpoint(self) -> dict[str, Any]:
        """Persist the router's own progress document (see
        :mod:`repro.resilience.router_recovery` for the recovery side).

        The document is the local lane's engine state (so it loads
        through the stock checkpoint reader) with ``journal_seq``
        holding the global ingest sequence and a ``"router"`` section
        carrying the distributed bookkeeping: per-shard delivered
        watermarks (shard-journal offsets after a full flush), query
        texts, and the fold-lane state of any degraded shard. Flushing
        first is what makes the watermarks honest: every event routed
        before the checkpoint is either in a shard journal or
        (shed_oldest only) dropped on purpose.
        """
        log = self._router_log
        if log is None:
            raise EngineError("no router log attached")
        self.flush()
        state = engine_state(self._local, journal_seq=log.next_seq)
        delivered: list[int] = []
        folds: dict[str, Any] = {}
        for worker in self._workers:
            seq = worker.log.next_seq if worker.log is not None else 0
            delivered.append(seq)
            if worker.fold is not None:
                fold_state = engine_state(worker.fold)
                fold_state["journal_seq"] = seq
                folds[str(worker.index)] = fold_state
        state["router"] = {
            "events": self.metrics.events,
            "clock_ms": self._clock_ms,
            "route_seq": self._route_seq,
            "shards": self.shards,
            "batch_size": self.batch_size,
            "shard_attribute": self.shard_attribute,
            "queries": [
                [name, str(query), name in self._sharded]
                for name, (query, _) in self._specs.items()
            ],
            "shard_delivered": delivered,
            "shed_events": self.shed_events,
            "degraded": sorted(self.degraded_shards),
            "folds": folds,
            "routing": {
                "version": self.routing_version,
                "owners": list(self._routing),
            },
        }
        log.checkpoint(state)
        self._events_since_router_checkpoint = 0
        self._m_router_checkpoints.inc()
        return state

    def _router_checkpoint_due(self, count: int) -> None:
        """The router-checkpoint cadence, run *before* ``count`` more
        events are journaled: a checkpoint covers only fully routed
        events, or its watermark would claim one the local lane lacks."""
        if (
            self._router_checkpoint_every
            and self._events_since_router_checkpoint
            >= self._router_checkpoint_every
        ):
            self.router_checkpoint()
        self._events_since_router_checkpoint += count

    def process(self, event: Event) -> None:
        """Ingest one event.

        The local lane sees it now; the router WAL and the workers see
        it when the router's pending batch flushes — once ``batch_size``
        events are pending, or on :meth:`flush`, :meth:`router_checkpoint`
        or a ``query_rows`` scrape — as one WAL record and one
        :meth:`_send_partitions` call, after which every frame buffer is
        sent. Until then the event is neither durable nor in any shard.
        :meth:`process_event_batch` routes pending events into the frame
        buffers without sending them.
        """
        if not self._started:
            self._start()
        if self._router_log is not None:
            self._router_checkpoint_due(1)
        self.metrics.events += 1
        ts = event.ts
        if self._clock_ms is None or ts > self._clock_ms:
            self._clock_ms = ts
        self._local.process(event)
        if (
            self._router_log is None
            and event.event_type not in self._sharded_types
        ):
            return  # nothing downstream of the local lane needs it
        with self._pending_lock:
            pending = self._pending
            pending.append(event)
            if len(pending) >= self.batch_size:
                self._flush_pending_locked()

    def process_event_batch(self, batch: EventBatch) -> int:
        """Ingest one columnar batch; returns its size.

        The batch must not run backwards past anything the router has
        ingested (:class:`~repro.errors.OutOfOrderError` otherwise,
        before any of it is journaled or routed). Pending events are
        routed first; then the batch is one router WAL record, the local
        lane consumes it through its columnar lane, and
        :meth:`_send_partitions` hands each worker's share to its frame
        buffer. A frame goes out once it holds ``len(batch)`` rows, so
        a shard journals a row when its frame is sent: until then the
        row is in the router WAL (when attached) and nowhere else.
        """
        count = len(batch)
        if count == 0:
            return 0
        if not self._started:
            self._start()
        batch.ensure_in_order(self._clock_ms)
        log = self._router_log
        if log is not None:
            self._router_checkpoint_due(count)
        with self._pending_lock:
            self._route_pending_locked()
            if log is not None:
                log.append_event_batch(batch)
                self._m_wal_appends.inc(count)
            self._ingest_locked(batch)
        return count

    def _ingest_batch(
        self, batch: EventBatch, skip: list[int] | None = None
    ) -> None:
        """:meth:`_ingest_locked` under the pending lock (router
        recovery's WAL replay enters here)."""
        with self._pending_lock:
            self._ingest_locked(batch, skip)

    def _ingest_locked(
        self, batch: EventBatch, skip: list[int] | None = None
    ) -> None:
        """Everything but the WAL and the order gate: local lane,
        counters, clock, then the partition step."""
        self._local.process_event_batch(batch, enforce_order=False)
        self.metrics.events += len(batch)
        last = batch.last_ts()
        if self._clock_ms is None or last > self._clock_ms:
            self._clock_ms = last
        self._send_partitions(batch, skip)

    def _flush_pending(self, timeout: float = -1) -> None:
        """:meth:`_flush_pending_locked` under the pending lock; a
        ``timeout`` lets the scrape path give up on a busy router."""
        if not self._pending_lock.acquire(timeout=timeout):
            return
        try:
            self._flush_pending_locked()
        finally:
            self._pending_lock.release()

    def _flush_pending_locked(self) -> None:
        """Route the pending events, then send every worker's frame
        buffer (``_pending_lock`` held): afterwards every ingested row
        is in its shard."""
        self._route_pending_locked()
        for worker in self._workers:
            self._send_frame_locked(worker)

    def _route_pending_locked(self) -> None:
        """Journal the pending events as one router WAL record, then
        route them as one batch (``_pending_lock`` held)."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        if self._router_log is not None:
            self._router_log.append_batch(pending)
            self._m_wal_appends.inc(len(pending))
        batch = EventBatch.from_events(pending, self._pending_schema)
        self._pending_schema = batch.schema
        self._send_partitions(batch)

    def _send_partitions(
        self, batch: EventBatch, skip: list[int] | None = None
    ) -> None:
        """The router's one partition step: hand every worker's frame
        buffer the rows of ``batch`` its partition owns, as one
        sub-batch each (``_pending_lock`` held).

        A row is relevant when a sharded query reacts to its type (a
        per-schema LUT over the type codes). A relevant row with the
        shard attribute goes to ``shard_of(key)``; one without it is
        keyless and broadcast to every worker, as HPC does across its
        in-process partitions. With tracing on, every
        ``trace_sample``-th keyed row gets a trace id (a ``ROUTE`` span
        here, its sub-batch offset in the ``"t"`` payload for the
        worker's ``shard_ingest`` span).

        ``skip`` is router recovery's count-skip cursor: per shard, how
        many more rows that shard's journal already holds. Routing is
        deterministic, so during WAL replay the *k*-th row bound for
        shard *i* lands on the journal sequence it had in the crashed
        run; the first ``skip[i]`` rows of shard *i*'s bucket are
        already inside the worker and are dropped. Replay is not
        traced (spans describe the original run, not the recovery).
        """
        if not self._sharded:
            return
        schema = batch.schema
        route = self._columnar_route
        if route is None or route[0] is not schema:
            lut = np.fromiter(
                (name in self._sharded_types for name in schema.types),
                dtype=bool,
                count=len(schema.types),
            )
            route = (schema, lut)
            self._columnar_route = route
        rows = np.flatnonzero(route[1][batch.codes])
        if not rows.size:
            return
        buckets: list[Any] = [[] for _ in self._workers]
        traced: list[list[tuple[int, str]]] | None = None
        attribute = self.shard_attribute
        column = None if attribute is None else batch.cols.get(attribute)
        sampled = self._trace_on and skip is None
        if column is None:
            # No key column at all: every relevant row is keyless.
            row_list = rows.tolist()
            for bucket in buckets:
                bucket.extend(row_list)
        elif column.dtype.kind in "biu" and not sampled:
            buckets = self._integer_buckets(
                rows, column, batch.present.get(attribute)
            )
        else:
            keys = column[rows].tolist()
            mask = batch.present.get(attribute)
            keyed = (
                [True] * len(keys) if mask is None else mask[rows].tolist()
            )
            memo = self._shard_of_key
            shards = self.shards
            for row, key, has_key in zip(rows.tolist(), keys, keyed):
                if not has_key:
                    for bucket in buckets:
                        bucket.append(row)
                    continue
                try:
                    index = memo[key]
                except KeyError:
                    index = shard_of(key, shards)
                    if len(memo) < 65536:
                        memo[key] = index
                except TypeError:  # unhashable key: hash it every time
                    index = shard_of(key, shards)
                buckets[index].append(row)
            if sampled:
                traced = self._sample_routes(
                    batch, rows, keys, keyed, buckets
                )
        count = len(batch)
        for worker, bucket in zip(self._workers, buckets):
            if skip is not None and skip[worker.index] > 0:
                applied = min(skip[worker.index], len(bucket))
                skip[worker.index] -= applied  # in checkpoint + journal
                bucket = bucket[applied:]
            if not len(bucket):
                continue
            if len(bucket) == count:
                sub = batch
            else:
                sub = batch.take(np.asarray(bucket, dtype=np.int64))
            self._buffer_locked(
                worker, sub, traced and traced[worker.index], count
            )

    def _buffer_locked(
        self,
        worker: _Worker,
        sub: EventBatch,
        traced: list[tuple[int, str]] | None,
        frame_rows: int,
    ) -> None:
        """Append one routed sub-batch to ``worker``'s frame buffer; the
        frame is sent once it holds ``frame_rows`` rows — the size of
        the batch being routed — so a worker's kernel calls are as large
        as the caller's (``_pending_lock`` held). A sub-batch that
        cannot join the buffered rows in one frame
        (:func:`~repro.events.batch.joinable`) sends them first. Trace
        offsets shift by the rows already buffered, so a traced run
        sends the frames an untraced one does.

        What moves with it: ``checkpoint_every_batches`` counts frames
        sent, a shard's heartbeat ``events`` lags until its frame is
        sent, and ``shed_oldest`` drops a whole frame — up to one caller
        batch per worker (``shed_events`` stays exact)."""
        if worker.parts and not joinable(worker.parts[-1], sub):
            self._send_frame_locked(worker)
        buffered = sum(map(len, worker.parts))
        if traced:
            worker.part_traces.extend(
                (offset + buffered, trace_id) for offset, trace_id in traced
            )
        worker.parts.append(sub)
        if buffered + len(sub) >= frame_rows:
            self._send_frame_locked(worker)

    def _send_frame_locked(self, worker: _Worker) -> None:
        """Send ``worker``'s frame buffer as one batch and empty it
        (``_pending_lock`` held; the send takes ``worker.lock``). The
        parts are released before the frame is encoded."""
        parts = worker.parts
        if not parts:
            return
        traced = worker.part_traces
        worker.parts, worker.part_traces = [], []
        frame = parts[0] if len(parts) == 1 else concatenated(parts)
        del parts
        with worker.lock:
            self._send_batch(worker, frame, traced)

    def _integer_buckets(
        self, rows: np.ndarray, column: np.ndarray, mask: Any
    ) -> list[np.ndarray]:
        """The partition step's buckets over an integer or bool key
        column, equal to the row loop's: one memo / :func:`shard_of`
        lookup per distinct key, then one mask per worker, keyless rows
        (``mask`` False) in every bucket. Float keys stay on the loop:
        ``-0.0`` and ``0.0`` are one key to ``np.unique`` and to the
        memo, but not to ``repr``."""
        keys = column.take(rows)
        keyed = None if mask is None else mask.take(rows)
        if keyed is not None:
            keys = keys[keyed]
        distinct, inverse = np.unique(keys, return_inverse=True)
        memo = self._shard_of_key
        shards = self.shards
        table = []
        for key in distinct.tolist():
            index = memo.get(key)
            if index is None:
                index = shard_of(key, shards)
                if len(memo) < 65536:
                    memo[key] = index
            table.append(index)
        owner = np.array(table, dtype=np.intp).take(inverse.ravel())
        if keyed is not None:
            owner, owned = np.full(rows.size, -1, dtype=np.intp), owner
            owner[keyed] = owned
        keyless = owner < 0
        return [
            rows[(owner == worker) | keyless]
            for worker in range(len(self._workers))
        ]

    def _sample_routes(
        self,
        batch: EventBatch,
        rows: np.ndarray,
        keys: list[Any],
        keyed: list[bool],
        buckets: list[list[int]],
    ) -> list[list[tuple[int, str]]]:
        """Trace sampling for one partition step: each keyed row
        advances ``_route_seq``; every ``trace_sample``-th gets a trace
        id, a ``ROUTE`` span, and a ``(sub-batch offset, id)`` entry in
        its shard's list. Keyless broadcasts are not traced: one trace
        id per shard would stitch wrong."""
        traced: list[list[tuple[int, str]]] = [[] for _ in buckets]
        sample = self._trace_sample
        seq = self._route_seq
        types = batch.schema.types
        for row, key, has_key in zip(rows.tolist(), keys, keyed):
            if not has_key:
                continue
            seq += 1
            if seq % sample:
                continue
            index = shard_of(key, self.shards)
            trace_id = f"e{seq}"
            event_type = types[batch.codes[row]]
            ts = int(batch.ts[row])
            self._trace.record(
                Stage.ROUTE,
                ts,
                event_type,
                f"shard={index}",
                trace_id=trace_id,
                wall=time.time(),
            )
            self._pending_traces.append((trace_id, index, event_type, ts))
            # Buckets hold ascending row numbers: the row's position in
            # its bucket is its offset in the shard's sub-batch.
            traced[index].append(
                (bisect_left(buckets[index], row), trace_id)
            )
        self._route_seq = seq
        return traced

    def _send_batch(
        self,
        worker: _Worker,
        batch: EventBatch,
        traced: list[tuple[int, str]] | None = None,
    ) -> None:
        """Deliver one frame with the backpressure guard (lock held);
        only :meth:`_send_frame_locked` calls it.

        The journal-on-successful-send invariant: a batch is appended
        to the shard journal exactly when the worker accepted it, so
        checkpoint + journal-suffix replay reconstructs precisely what
        the worker had consumed.  ``traced`` rides along as batch
        offsets so the worker can stamp ``shard_ingest`` spans; the
        journal keeps the batch alone (replay is untraced).
        """
        if worker.fold is not None:
            if traced:
                # Degraded lane: the "shard" stage happens in-process.
                _stamp_shard_ingest(
                    self._trace, batch, traced,
                    f"shard={worker.index} lane=fold",
                )
            self._fold_feed(worker, batch)
            return
        # The base journal sequence travels with the batch: the worker
        # advances its dedup cursor by it, so redelivery after a
        # router recovery can never double-apply.  A revive inside the
        # retry loop below does not move ``next_seq`` (replay stops
        # exactly there), so the base stays valid across attempts.
        payload: dict[str, Any] = {"c": batch.to_wire(), "n": len(batch)}
        if worker.log is not None:
            payload["q"] = worker.log.next_seq
        if traced:
            payload["t"] = traced
        attempts = 0
        while True:
            failed = None
            try:
                if _pipe_writable(worker.conn, self._send_timeout_s):
                    worker.conn.send(("batch", payload))
                    break
                self._m_backpressure.inc()
                if self._overload_policy == "raise":
                    raise OverloadError(
                        f"shard {worker.index} pipe not writable within "
                        f"{self._send_timeout_s}s"
                    )
                if self._overload_policy == "shed_oldest":
                    self.shed_events += len(batch)
                    self._m_shed.inc(len(batch))
                    _log.warning(
                        "shard_shed",
                        message=(
                            f"shed {len(batch)} events to stalled "
                            f"shard {worker.index} (shed_oldest policy)"
                        ),
                        shard=worker.index,
                        events=len(batch),
                    )
                    return  # dropped, never journaled
                # "block" policy: a restart both unwedges the pipe and
                # preserves exactness (checkpoint + replay + redeliver).
                failed = "pipe stalled beyond the send timeout"
            except CHANNEL_ERRORS as error:
                failed = f"send failed: {error!r}"
            attempts += 1
            if attempts > self._restart_limit + 1:
                raise EngineError(
                    f"shard {worker.index}: could not deliver a batch "
                    f"after {attempts} attempts ({failed})"
                )
            self._handle_failure(worker, failed)
            if worker.fold is not None:
                self._fold_feed(worker, batch)
                return
        if worker.log is not None:
            # The frame the worker was sent is the frame journaled.
            worker.log.append_event_batch(batch, payload["c"])
            worker.batches_since_checkpoint += 1
            if (
                self._checkpoint_every
                and not worker.checkpoint_disabled
                and worker.batches_since_checkpoint
                >= self._checkpoint_every
            ):
                self._checkpoint_locked(worker)

    def _take_checkpoint(self, worker: _Worker) -> None:
        """Snapshot one worker's engine state and prune its journal
        (lock held; the caller owns what a failed snapshot means)."""
        state = self._roundtrip(worker, "checkpoint", None)
        state["journal_seq"] = worker.log.next_seq
        worker.checkpoint = state
        worker.log.checkpoint(state)
        worker.batches_since_checkpoint = 0
        self._m_checkpoints.inc()

    def _checkpoint_locked(self, worker: _Worker) -> None:
        """The cadence checkpoint: an unresponsive worker is revived, a
        worker that cannot serialize stops being asked."""
        try:
            self._take_checkpoint(worker)
        except _ShardUnresponsive as error:
            self._handle_failure(worker, f"checkpoint failed: {error}")
        except EngineError as error:
            # Deterministic serialization problem: a restart would not
            # fix it, so keep the worker and stop asking.
            worker.checkpoint_disabled = True
            _log.warning(
                "shard_checkpoint_disabled",
                message=(
                    f"shard {worker.index} cannot checkpoint "
                    f"({error}); revive will replay the full journal"
                ),
                shard=worker.index,
            )

    def _fold_feed(self, worker: _Worker, batch: EventBatch) -> None:
        dropped = _feed_fold(worker.fold, batch)
        if dropped:
            _log.warning(
                "fold_dropped",
                message=(
                    f"fold lane of degraded shard {worker.index} "
                    f"dropped a poison batch of {dropped} events"
                ),
                shard=worker.index,
                events=dropped,
            )

    def flush(self) -> None:
        """Journal and route every pending event (see :meth:`process`),
        then send every worker's frame buffer.

        With a router log attached this is the durability ack: every
        event ingested before it is in the WAL afterwards. With shard
        journals it is also the delivery ack: every routed row is in
        its shard's journal afterwards (or, under ``shed_oldest``,
        dropped and counted).
        """
        self._flush_pending()

    def run(self, stream: Iterable[Event]) -> int:
        """Drain a stream; deliver merged finals to sharded-query sinks.

        The stream may yield :class:`EventBatch` instances (columnar
        lane) or plain events; the two shapes can be mixed.
        """
        started = time.perf_counter()
        processed = 0
        for item in stream:
            if isinstance(item, EventBatch):
                processed += self.process_event_batch(item)
            else:
                self.process(item)
                processed += 1
        merged = self._merged_results()
        ts = int(self._clock_ms or 0)
        for name, value in merged.items():
            _, sinks = self._specs[name]
            if not sinks:
                continue
            output = Output(name, ts, value)
            for sink in sinks:
                try:
                    sink.emit(output)
                except Exception:
                    self.metrics.sink_errors += 1
        self.metrics.elapsed_s += time.perf_counter() - started
        return processed

    # ----- results -----------------------------------------------------------

    def _request(
        self, worker: _Worker, command: str, payload: Any = None
    ) -> Any:
        """One request/reply with revive-and-retry on failure."""
        with worker.lock:
            failure = "unknown"
            for _ in range(self._restart_limit + 2):
                if worker.fold is not None:
                    return self._fold_request(worker, command, payload)
                try:
                    return self._roundtrip(worker, command, payload)
                except Exception as error:
                    failure = str(error) or repr(error)
                    self._handle_failure(
                        worker, f"{command} failed: {failure}"
                    )
            raise EngineError(
                f"shard {worker.index}: {command} kept failing "
                f"({failure})"
            )

    def _fold_request(
        self, worker: _Worker, command: str, payload: Any
    ) -> Any:
        """Serve a worker request from a degraded shard's fold lane."""
        reply = _answer(worker.fold, command, payload)
        if command == "inspect":
            reply["degraded"] = True
        return reply

    def _collect(self, command: str, payload: Any = None) -> list[Any]:
        """Round-trip one request to every worker (flushes first)."""
        if not self._started:
            self._start()
        self.flush()
        return [
            self._request(worker, command, payload)
            for worker in self._workers
        ]

    def _merged_results(self) -> dict[str, Any]:
        if not self._sharded:
            return {}
        watermark = int(self._clock_ms or 0)
        replies = self._collect("collect", watermark)
        partials_by_shard: list[dict[str, Any]] = []
        for worker, reply in zip(self._workers, replies):
            # A worker's collect reply piggybacks an observability
            # snapshot, so a merge also refreshes metrics/traces
            # without extra trips (a fold lane's carries none).
            self._ingest_obs(worker, reply.get("obs"))
            partials_by_shard.append(reply["partials"])
        if self._trace_on and self._pending_traces:
            now = time.time()
            while self._pending_traces:
                trace_id, shard, event_type, ts = (
                    self._pending_traces.popleft()
                )
                self._trace.record(
                    Stage.MERGE,
                    watermark if watermark else ts,
                    event_type,
                    f"shard={shard}",
                    trace_id=trace_id,
                    wall=now,
                )
        return {
            name: _merge_partials(
                query,
                [partials[name] for partials in partials_by_shard],
            )
            for name, query in self._sharded.items()
        }

    def results(self) -> dict[str, Any]:
        """Merged aggregates of every query, in registration order."""
        merged = self._merged_results()
        local = self._local.results()
        return {
            name: (merged[name] if name in merged else local[name])
            for name in self._specs
        }

    def result(self, name: str) -> Any:
        if name not in self._specs:
            raise EngineError(f"unknown query {name!r}")
        if name in self._sharded:
            return self._merged_results()[name]
        return self._local.result(name)

    # ----- introspection -----------------------------------------------------

    @property
    def query_names(self) -> list[str]:
        return list(self._specs)

    @property
    def watermark_ms(self) -> float | None:
        return None if self._clock_ms is None else float(self._clock_ms)

    def _scrape_rows(
        self, worker: _Worker
    ) -> tuple[list[dict[str, Any]] | None, bool]:
        """One shard's cost rows for the admin plane: ``(rows, stale)``.

        A shard mid-restart (lock held by the revive path, or pipe
        dead) must not wedge ``/queries``: the scrape returns the
        shard's last known rows flagged stale instead of blocking or
        raising, and never triggers a revive of its own.
        """
        if not worker.lock.acquire(timeout=0.5):
            return (worker.last_rows, True)
        try:
            if worker.fold is not None:
                return (worker.fold.query_rows(), False)
            try:
                rows = self._roundtrip(worker, "rows", timeout=2.0)
            except (_ShardUnresponsive, EngineError):
                return (worker.last_rows, True)
            worker.last_rows = rows
            return (rows, False)
        finally:
            worker.lock.release()

    def query_rows(self) -> list[dict[str, Any]]:
        """Per-query cost rows with shard totals folded together.

        Additive fields (events routed, counter updates, live objects,
        partitions…) sum across the shards that hold a piece of the
        query; per-process latency quantiles are dropped rather than
        averaged wrongly.  A shard mid-restart marks ``stale`` exactly
        the queries it contributes to — its last-known rows, or every
        sharded query when it has nothing to contribute — so queries
        whose shards all answered fresh stay unflagged.
        """
        rows = {row["query"]: row for row in self._local.query_rows()}
        stale_queries: set[str] = set()
        if self._sharded and self._started:
            # Unlocked peek: an idle router skips the wait.
            if self._pending or any(w.parts for w in self._workers):
                try:
                    self._flush_pending(timeout=0.5)
                except Exception as error:
                    # Best-effort: a scrape must not raise. The rows
                    # are journaled, and sends before the failing one
                    # were delivered.
                    _log.warning(
                        "scrape_flush_failed",
                        message=f"scrape-time flush failed: {error!r}",
                    )
            for worker in self._workers:
                shard_rows, stale = self._scrape_rows(worker)
                if stale:
                    if shard_rows:
                        stale_queries.update(
                            row["query"] for row in shard_rows
                        )
                    else:
                        # Nothing known about this shard: every
                        # sharded query misses its piece.
                        stale_queries.update(self._sharded)
                for row in shard_rows or ():
                    name = row["query"]
                    merged = rows.get(name)
                    if merged is None:
                        rows[name] = {
                            key: value
                            for key, value in row.items()
                            if key not in ("latency_us_p50", "latency_us_p99")
                        }
                        rows[name]["shards"] = 1
                        continue
                    merged["shards"] = merged.get("shards", 1) + 1
                    for key, value in row.items():
                        if key in _NON_ADDITIVE_ROW_KEYS:
                            continue
                        if isinstance(value, (int, float)):
                            merged[key] = merged.get(key, 0) + value
            for name in self._sharded:
                if name not in rows:
                    # Every holder of this query was unreachable: still
                    # surface the query, flagged, instead of dropping it.
                    rows[name] = {"query": name, "stale": True}
                elif name in stale_queries:
                    rows[name]["stale"] = True
        return [rows[name] for name in self._specs if name in rows]

    # ----- observability plane ----------------------------------------------

    def _pull_obs(self, worker: _Worker) -> None:
        """Refresh one worker's stored obs snapshot (never raises).

        Scrape-path only: short lock/poll deadlines, no revive — a
        shard mid-restart just keeps its previous snapshot, which the
        merger re-ingests idempotently.
        """
        if not worker.lock.acquire(timeout=0.25):
            return
        try:
            if worker.fold is not None or worker.conn is None:
                return
            try:
                self._ingest_obs(
                    worker, self._roundtrip(worker, "obs", timeout=2.0)
                )
            except (_ShardUnresponsive, EngineError):
                pass
        finally:
            worker.lock.release()

    def _export_shard_health(self) -> None:
        """Publish supervision health as Prometheus series."""
        registry = self.obs_registry
        for health in (h.snapshot() for h in self._shard_health):
            shard = str(health["shard"])
            registry.counter(
                "repro_shard_restarts_total",
                "times this shard's worker process was restarted",
                shard=shard,
            ).value = float(health["restarts"])
            registry.gauge(
                "repro_shard_degraded",
                "1 when this shard has been folded into the local lane",
                shard=shard,
            ).set(1.0 if health["degraded"] else 0.0)
            age = health["heartbeat_age_s"]
            if age is not None:
                registry.gauge(
                    "repro_shard_heartbeat_age_seconds",
                    "seconds since this shard last answered a heartbeat",
                    shard=shard,
                ).set(age)

    def refresh_cost_metrics(self) -> None:
        """Refresh every lane's gauges and merge shard snapshots.

        Called by the admin server before ``/metrics``: local-lane and
        fold-lane engines refresh in-process; live workers are polled
        for a fresh snapshot (best-effort, stale-tolerant) and every
        stored snapshot is re-ingested into the shard merger so the
        router registry exports the whole fleet under ``shard=`` labels.
        """
        self._local.refresh_cost_metrics()
        for worker in self._workers:
            if worker.fold is not None:
                try:
                    worker.fold.refresh_cost_metrics()
                except Exception:
                    pass
        if self._supervise or self._started:
            self._export_shard_health()
        if self._merger is not None and self._started:
            for worker in self._workers:
                self._pull_obs(worker)
                state = worker.obs_state
                if state is not None:
                    generation, metrics = state
                    self._merger.ingest(
                        str(worker.index), metrics, generation=generation
                    )

    def drain_trace(self) -> dict[str, Any]:
        """Drain router + shard spans, stitched across the fleet.

        The admin server prefers this hook over its own tracer drain
        for sharded engines: spans recorded by workers (skew-corrected
        at ingestion) are merged with the router's own, and sampled
        trace ids are stitched into route → shard_ingest → merge spans.
        """
        if not self._trace_on:
            return {"spans": [], "recorded_total": 0, "enabled": False}
        spans = [
            {
                "seq": span.seq,
                "shard": "router",
                "ts": span.ts,
                "stage": span.stage,
                "event_type": span.event_type,
                "detail": span.detail,
                "trace_id": span.trace_id,
                "wall": span.wall,
            }
            for span in self._trace.spans()
        ]
        recorded_total = self._trace.recorded_total
        self._trace.clear()
        while self._shard_spans:
            spans.append(self._shard_spans.popleft())
        return {
            "enabled": True,
            "recorded_total": recorded_total,
            "spans": spans,
            "stitched": stitch_spans(spans),
        }

    def collapsed_profile(self) -> str | None:
        """Fleet-wide collapsed-stack profile, or ``None`` when off.

        Concatenates the router's samples (rooted ``router;``) with the
        latest counts each worker shipped (rooted ``shard-N;``) so one
        download feeds a single flamegraph of the whole fleet.
        """
        if not self._profile:
            return None
        sections: list[str] = []
        if self._profiler is not None:
            sections.append(
                collapsed_text(self._profiler.counts(), root="router")
            )
        for worker in self._workers:
            if worker.profile:
                sections.append(
                    collapsed_text(
                        worker.profile, root=f"shard-{worker.index}"
                    )
                )
        text = "".join(sections)
        return text if text else "# no samples yet\n"

    def executor_of(self, name: str) -> Any:
        """Local-lane executors only; sharded state lives in workers."""
        if name in self._local_names:
            return self._local.executor_of(name)
        raise EngineError(
            f"query {name!r} is sharded; its executors live in worker "
            f"processes — see inspect()"
        )

    def state_of(self, query_id: str) -> dict[str, Any] | None:
        """Structured state for one query (admin ``/queries/<id>/state``).

        Local-lane queries dump their in-process executor; sharded
        queries return every worker's piece side by side.
        """
        if query_id not in self._specs:
            return None
        if query_id in self._local_names:
            return _answer(self._local, "state", query_id)
        if not self._started:
            return {"kind": "sharded", "query": query_id, "shards": []}
        return {
            "kind": "sharded",
            "query": query_id,
            "shards": self._collect("state", query_id),
        }

    @property
    def funnel(self) -> FunnelRecorder:
        """The router-side funnel recorder. Its registry is always the
        merge target the worker funnel snapshots land in, so readers
        (workload profile, admin) can go straight to
        ``engine.funnel.registry``."""
        return self._funnel

    def explain(self) -> dict[str, Any]:
        """Structured plan: routing lane per query (see
        :mod:`repro.obs.explain`)."""
        from repro.obs.explain import explain_engine
        return explain_engine(self)

    def inspect(self) -> dict[str, Any]:
        workers: list[Any] = []
        if self._sharded and self._started:
            workers = self._collect("inspect")
        return {
            "kind": "sharded",
            "stream": self.stream_name,
            "shards": self.shards,
            "batch_size": self.batch_size,
            "shard_attribute": self.shard_attribute,
            "events": self.metrics.events,
            "watermark_ms": self.watermark_ms,
            "sharded_queries": list(self._sharded),
            "local_queries": list(self._local_names),
            "local": self._local.inspect(),
            "workers": workers,
            "supervised": self._supervise,
            "transport": self._transport.describe(),
            "router_journal": self._router_log is not None,
            "degraded_shards": sorted(self.degraded_shards),
            "shed_events": self.shed_events,
            "shard_health": self.shard_health(),
            "membership": self.membership_view(),
            "routing_version": self.routing_version,
            "migrations": self.migrations,
        }


def _feed_fold(fold: StreamEngine, batch: EventBatch) -> int:
    """Feed a replayed/live batch to a fold lane one event at a time; a
    poison event is dropped (and counted) rather than wedging the
    degraded shard forever or taking its whole batch down with it."""
    dropped = 0
    for event in batch.to_events():
        try:
            fold.process(event)
        except Exception:
            dropped += 1
    return dropped
