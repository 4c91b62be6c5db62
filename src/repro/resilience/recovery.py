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
2. rebuild the :class:`SupervisedStreamEngine`: each registration's
   query text is re-parsed and registered, then the document is applied
   (:func:`repro.resilience.checkpointer.apply_engine_state`);
3. replay the journal suffix (``seq >= checkpoint.journal_seq``)
   through the restored engine — the journal reader tolerates a torn
   final record, so a crash mid-append loses at most the event whose
   dispatch never completed;
4. re-attach the journal (which resumes appending after the last valid
   record) and a fresh checkpointer, so the recovered engine is
   immediately crash-safe again.

Sinks are process-local objects and cannot be serialized; pass
``sinks={"query_name": [sink, ...]}`` to re-attach them. Replayed
events do *not* re-emit to sinks by default (``replay_to_sinks=False``)
— the outputs were already delivered before the crash.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CheckpointError
from repro.engine.sinks import ResultSink
from repro.events.event import Event
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
from repro.resilience.journal import EventJournal, read_journal
from repro.resilience.supervisor import SupervisedStreamEngine


def replay_detached(
    engine: Any,
    events: Iterable[Event],
    process: Callable[[Event], None],
    detach: bool = True,
) -> int:
    """Replay ``events`` through ``process`` with ``engine``'s sinks
    detached (unless ``detach`` is off), so outputs delivered before
    the crash are not delivered twice; the sinks are re-attached even
    when replay raises. Returns the number of events replayed."""
    detached: dict[str, list] = {}
    if detach:
        for name in engine.query_names:
            registration = engine._registrations[name]
            detached[name] = registration.sinks
            registration.sinks = []
    replayed = 0
    try:
        for event in events:
            process(event)
            replayed += 1
    finally:
        for name, saved in detached.items():
            engine._registrations[name].sinks = saved
    return replayed


def recover(
    directory: str | Path,
    sinks: Mapping[str, Sequence[ResultSink]] | None = None,
    queries: Sequence[Query] | None = None,
    registry: MetricsRegistry | None = None,
    trace: TraceRecorder | None = None,
    reattach_journal: bool = True,
    checkpoint_every_events: int | None = None,
    checkpoint_every_ms: float | None = None,
    replay_to_sinks: bool = False,
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
    sinks = sinks or {}

    start_seq = 0
    if state is not None:
        start_seq = state["journal_seq"]
        apply_engine_metrics(engine, state)
        for entry in state["registrations"]:
            name = entry["name"]
            engine.register(
                parse_query(entry["state"]["query"], name=name),
                *sinks.get(name, ()),
                name=name,
            )
        apply_engine_state(engine, state)
    elif queries is not None:
        for index, query in enumerate(queries):
            name = query.name or f"q{index}"
            engine.register(query, *sinks.get(name, ()), name=name)
    else:
        raise CheckpointError(
            f"no loadable checkpoint under {directory} and no queries "
            f"supplied for a from-scratch replay"
        )

    if tracer.enabled:
        tracer.record(
            Stage.RECOVER, 0, "-",
            f"checkpoint={state_path.name if state_path else 'none'} "
            f"replay_from={start_seq}",
        )

    replayed = replay_detached(
        engine,
        (event for _, event in read_journal(directory, start_seq=start_seq)),
        engine.process,
        detach=not replay_to_sinks,
    )
    m_replayed.inc(replayed)
    engine.events_replayed = replayed

    if reattach_journal:
        journal = EventJournal(directory, fsync=fsync, registry=registry)
        engine.attach_journal(journal)
        if checkpoint_every_events or checkpoint_every_ms:
            engine.attach_checkpointer(
                Checkpointer(
                    engine,
                    journal,
                    every_events=checkpoint_every_events,
                    every_ms=checkpoint_every_ms,
                    registry=registry,
                )
            )
    m_recoveries.inc()
    return engine
