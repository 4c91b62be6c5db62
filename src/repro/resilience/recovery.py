"""Crash recovery: latest valid checkpoint + journal-suffix replay.

The recovery contract this module proves (and the resilience test
suite checks differentially): for any crash point *i*,

    ``recover(dir)`` then feeding events ``i..n``  ==  an uninterrupted
    run over events ``0..n``

for every checkpointable query shape (DPC, SEM, HPC/GROUP BY,
negation, value aggregates). The pieces:

1. load the newest checkpoint that parses and validates — corrupt or
   torn generations are skipped, older generations are fallback
   (:func:`repro.resilience.checkpointer.load_latest_checkpoint`);
   with no loadable checkpoint at all, recovery degrades to a full
   journal replay from offset 0 (queries must then be re-supplied);
2. rebuild the :class:`SupervisedStreamEngine`: re-register each
   registration's query text (:func:`register_recorded`), then apply
   the document (:func:`~repro.resilience.checkpointer.apply_engine_state`);
3. replay the journal suffix (``seq >= checkpoint.journal_seq``)
   records in the order they were written (:func:`replay_records`): a
   run of frame records as one batch, a run of column records as one
   event list — a torn final record, whose dispatch never began, is
   dropped whole;
4. re-attach the journal (which resumes appending after the last valid
   record) and a fresh checkpointer, so the recovered engine is
   immediately crash-safe again.

Sinks are process-local objects and cannot be serialized; pass
``sinks={"query_name": [sink, ...]}`` to re-attach them. Replayed rows
do *not* re-emit to sinks — the outputs were already delivered before
the crash. :func:`~repro.resilience.router_recovery.recover_router`
rebuilds a sharded router on the same two helpers.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import CheckpointError
from repro.engine.engine import StreamEngine
from repro.engine.sinks import ResultSink
from repro.events.batch import EventBatch, concatenated, joinable
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.tracing import Stage, TraceRecorder, resolve_tracer
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.resilience.checkpointer import (
    Checkpointer,
    apply_engine_metrics,
    apply_engine_state,
    load_latest_checkpoint,
)
from repro.resilience.journal import EventJournal, read_records
from repro.resilience.supervisor import SupervisedStreamEngine


def register_recorded(
    engine: Any,
    recorded: Iterable[Sequence[Any]] | None,
    queries: Sequence[Query] | None,
    sinks: Mapping[str, Sequence[ResultSink]] | None,
    directory: Path,
) -> None:
    """Register the checkpoint's ``(name, query text, ...)`` entries
    with their sinks — or, with no checkpoint, ``queries`` (named
    ``q<i>`` when unnamed); with neither, raise :class:`CheckpointError`."""
    if recorded is not None:
        queries = [parse_query(text, name=name) for name, text, *_ in recorded]
    elif queries is None:
        raise CheckpointError(
            f"no loadable checkpoint under {directory} and no queries "
            f"supplied for a from-scratch replay"
        )
    sinks = sinks or {}
    for index, query in enumerate(queries):
        name = query.name or f"q{index}"
        engine.register(query, *sinks.get(name, ()), name=name)


def replay_records(
    engine: Any,
    records: Iterable[tuple[int, Any]],
    ingest: Callable[[Any, int], None],
) -> int:
    """Feed each ``(first seq, rows)`` journal record to ``ingest(rows,
    seq)`` with ``engine``'s sinks detached, so outputs delivered before
    the crash are not delivered twice; the sinks are re-attached even
    when replay raises. Returns the number of rows replayed."""
    detached = {}
    for name in engine.query_names:
        registration = engine._registrations[name]
        detached[name], registration.sinks = registration.sinks, []
    replayed = 0
    try:
        for seq, rows in records:
            ingest(rows, seq)
            replayed += len(rows)
    finally:
        for name, saved in detached.items():
            engine._registrations[name].sinks = saved
    return replayed


#: Replay stops joining records once a run holds this many rows.
_RUN_ROWS = 4096


def _joined(
    records: Iterable[tuple[int, Any]],
) -> Iterator[tuple[int, Any]]:
    """``records`` with each run of consecutive records of one kind
    joined, cut once it holds :data:`_RUN_ROWS` rows: column records
    (event lists; a per-event journal holds one event per record) into
    one list, frame records into one batch while each can follow the
    last (:func:`~repro.events.batch.joinable`)."""
    first, framed, parts, size = 0, False, [], 0
    for seq, rows in records:
        frame = isinstance(rows, EventBatch)
        if parts and (
            size >= _RUN_ROWS
            or frame is not framed
            or (frame and not joinable(parts[-1], rows))
        ):
            yield first, _run(parts)
            parts, size = [], 0
        if not parts:
            first, framed = seq, frame
        parts.append(rows)
        size += len(rows)
    if parts:
        yield first, _run(parts)


def _run(parts: list[Any]) -> Any:
    """One record's rows out of a joined run of ``parts``."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], EventBatch):
        return concatenated(parts)
    return list(chain.from_iterable(parts))


def recover(
    directory: str | Path,
    sinks: Mapping[str, Sequence[ResultSink]] | None = None,
    queries: Sequence[Query] | None = None,
    registry: MetricsRegistry | None = None,
    trace: TraceRecorder | None = None,
    reattach_journal: bool = True,
    checkpoint_every_events: int | None = None,
    fsync: str = "never",
    **supervisor_kwargs,
) -> SupervisedStreamEngine:
    """Rebuild a supervised engine from ``directory`` after a crash.

    ``directory`` is the runtime directory holding both the journal
    segments and the checkpoint generations (what the CLI's
    ``--journal DIR`` writes). ``queries`` is only needed when no
    checkpoint survives at all (fresh replay from offset 0); otherwise
    the checkpoint's own query texts are authoritative.
    """
    directory = Path(directory)
    registry = resolve_registry(registry)
    tracer = resolve_tracer(trace)
    m_recoveries = registry.counter(
        "recoveries_total", "successful engine recoveries"
    )
    m_replayed = registry.counter(
        "events_replayed_total", "journal events replayed during recovery"
    )

    state, state_path = load_latest_checkpoint(directory)
    engine = SupervisedStreamEngine(
        registry=registry, trace=tracer, **supervisor_kwargs
    )
    start_seq, recorded = 0, None
    if state is not None:
        start_seq = state["journal_seq"]
        apply_engine_metrics(engine, state)
        recorded = [
            (entry["name"], entry["state"]["query"])
            for entry in state["registrations"]
        ]
    register_recorded(engine, recorded, queries, sinks, directory)
    if state is not None:
        apply_engine_state(engine, state)

    if tracer.enabled:
        tracer.record(
            Stage.RECOVER, 0, "-",
            f"checkpoint={state_path.name if state_path else 'none'} "
            f"replay_from={start_seq}",
        )

    # The base-class entry points: replay must not re-journal or tick
    # the checkpoint schedule, and each row keeps its journal sequence.
    def ingest(rows: Any, seq: int) -> None:
        if isinstance(rows, EventBatch):
            StreamEngine.process_event_batch(engine, rows, False, seq)
        else:
            StreamEngine.process_batch(engine, rows, seq)

    replayed = replay_records(
        engine, _joined(read_records(directory, start_seq)), ingest
    )
    m_replayed.inc(replayed)
    engine.events_replayed = replayed

    if reattach_journal:
        journal = EventJournal(directory, fsync=fsync, registry=registry)
        engine.attach_journal(journal)
        if checkpoint_every_events:
            engine.attach_checkpointer(Checkpointer(
                engine, journal, every_events=checkpoint_every_events,
                registry=registry,
            ))
    m_recoveries.inc()
    return engine
