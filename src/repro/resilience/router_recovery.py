"""Router durability: exact recovery of a sharded engine from its WAL.

Per-shard journals rebuild any *worker*; the router's own local lane,
merge bookkeeping and in-flight batches are rebuilt by the recipe every
durable directory uses — one :class:`~repro.resilience.journal
.EventJournal` owning its segments and checkpoints — one level up:

* the router's WAL is an ``EventJournal`` whose segments sit directly
  in the router directory (shard journals under ``shards/``). Every
  batch the router routes is first appended as one journal record —
  one CRC'd line, one ``write()``: a columnar ingest batch whole, and
  per-event ingest as the router's pending batch when it flushes
  (``batch_size`` events, or ``flush()``). The journal's torn-tail
  rule is the atomic commit point: a SIGKILL mid-append leaves a torn
  final line that the reader drops whole, and none of its events can
  have reached a shard. The journal sequence is the global ingest
  sequence;
* :func:`recover_router` rebuilds a
  :class:`~repro.engine.sharded.ShardedStreamEngine` after a router
  crash on the supervised recovery's spine
  (:func:`~repro.resilience.recovery.register_recorded`,
  :func:`~repro.resilience.recovery.replay_records`), its ingest being
  the router's own partition step with per-shard **count-skip**.

Why this is exact (under the ``"block"`` overload policy):

1. the engine appends to the WAL before any batch leaves for a shard,
   and a shard-journal append happens only after a successful send —
   so every shard journal is a strict by-count prefix-subset of the
   WAL;
2. journals are unbuffered (one ``write()`` per record), so a SIGKILL
   loses at most the router's pending events and a torn final record
   — rows that were never sent anywhere. ``flush()`` journals the
   pending events, so it is the durability ack: after recovery the
   source resumes from the recovered engine's ``metrics.events``,
   which can only trail the crash point by events ingested after the
   last flush;
3. the router checkpoint flushes the pending events first, so its
   per-shard delivered watermarks are honest, and its cadence check
   runs before the next event or batch is journaled, so it never
   covers a half-routed one;
4. WAL segments are pruned only below the *oldest* retained checkpoint
   generation (:meth:`~repro.resilience.journal.EventJournal
   .checkpoint`), so falling back over a corrupt newest checkpoint
   still finds its whole suffix — and the journal reader raises rather
   than replay a suffix with a hole.

``shed_oldest`` deliberately drops records, so replay after recovery
may re-deliver what the crashed run shed (or vice versa) — recovery is
then best-effort, exactly as the live path is.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import CheckpointError
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.resilience.checkpointer import (
    apply_engine_metrics,
    apply_engine_state,
    load_latest_checkpoint,
)
from repro.resilience.journal import EventJournal
from repro.resilience.recovery import register_recorded, replay_records

_log = get_logger("router_recovery")


def recover_router(
    directory: str | Path,
    queries: Sequence[Any] | None = None,
    sinks: Mapping[str, Sequence[Any]] | None = None,
    registry: MetricsRegistry | None = None,
    fsync: str = "never",
    reattach_log: bool = True,
    journal_dir: str | Path | None = None,
    **engine_kwargs: Any,
):
    """Rebuild a sharded engine after a router crash; returns the
    recovered :class:`~repro.engine.sharded.ShardedStreamEngine`,
    mid-stream, ready for the next ``process()`` call.

    ``directory`` is the router WAL directory (journal segments +
    router checkpoints — what ``attach_router_log`` wrote).
    ``journal_dir`` is the per-shard journal directory of the crashed
    engine; it defaults to ``<directory>/shards``, the CLI's layout.
    ``queries`` is only needed when no router checkpoint survives
    (from-scratch replay); otherwise the checkpoint's query texts are
    authoritative and must re-derive the same sharding plan. Extra
    keyword arguments pass through to the engine constructor
    (transport, overload policy, heartbeat cadence,
    ``router_checkpoint_every``, ...). The source resumes from the
    recovered engine's ``metrics.events`` (point 2 above).

    Recovery outline (the inverse of ``router_checkpoint``):

    1. workers restart seeded from their own checkpoints + journals
       (``resume_shards=True``); a shard that had degraded into the
       fold lane is resurrected as a live worker from the fold state
       embedded in the router checkpoint;
    2. the local lane restores from the checkpoint document exactly
       like single-process recovery (executors + metrics);
    3. the WAL suffix replays one record at a time, as a batch, into
       the local lane (sinks detached) and through the partition step
       with per-shard count-skip: routing is deterministic per row, so
       the first ``skip[i]`` rows bound for shard *i* — how far its
       recovered journal runs past the checkpoint — are dropped, and
       anything redelivered anyway is dropped by the worker's own
       dedup cursor. ``events_replayed`` counts rows.
    """
    from repro.engine.sharded import ShardedStreamEngine

    directory = Path(directory)
    registry = resolve_registry(registry)
    m_recoveries = registry.counter(
        "router_recoveries_total", "successful router recoveries"
    )
    m_replayed = registry.counter(
        "router_replayed_events_total",
        "router WAL events replayed during router recovery",
    )

    state, state_path = load_latest_checkpoint(directory)
    router = state.get("router") if state is not None else None
    if state is not None and not isinstance(router, dict):
        raise CheckpointError(
            f"{state_path} is not a router checkpoint (no 'router' "
            f"section); point recover() at it instead"
        )

    shards = engine_kwargs.pop("shards", router["shards"] if router else None)
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

    recorded = router["queries"] if router is not None else None
    register_recorded(engine, recorded, queries, sinks, directory)
    for name, _, was_sharded in recorded or ():
        if (name in engine._sharded) != bool(was_sharded):
            raise CheckpointError(
                f"query {name!r} re-derived a different sharding plan "
                f"than the checkpoint records; the registration set "
                f"must match the crashed run"
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
    # Opened before _start(): a directory the journal refuses must not
    # leave spawned workers behind.
    log = EventJournal(directory, fsync=fsync, registry=registry)
    engine._start()

    # Restore the router's own bookkeeping and the local lane.
    delivered, start_seq = [0] * shards, 0
    if router is not None:
        delivered, start_seq = router["shard_delivered"], state["journal_seq"]
        engine.metrics.events = int(router["events"])
        engine._clock_ms = router["clock_ms"]
        engine._route_seq = int(router["route_seq"])
        engine.shed_events = int(router.get("shed_events", 0))
        apply_engine_state(engine._local, state)
        apply_engine_metrics(engine._local, state)

    # The count-skip cursor: how many more rows each shard's journal
    # already holds past the checkpoint's delivered watermark. Captured
    # *before* replay: replay appends past-tail rows to the shard
    # journals, which must not widen the skip window.
    skip = [
        max(0, worker.log.next_seq - done)
        for worker, done in zip(engine._workers, delivered)
    ]

    # Local-lane sinks stay detached during replay — pre-crash outputs
    # were already delivered (same contract as single-process recover).
    replayed = replay_records(
        engine._local,
        log.replay(start_seq),
        lambda batch, _: engine._ingest_batch(batch, skip),
    )

    engine.events_replayed = replayed
    m_replayed.inc(replayed)
    m_recoveries.inc()
    _log.info(
        "router_recovered",
        message=(
            f"router recovered from "
            f"{state_path.name if state_path else 'no checkpoint'}: "
            f"{replayed} WAL events replayed, {shards} shard(s) "
            f"re-seeded"
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
