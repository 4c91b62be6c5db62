"""Engine-wide checkpoints: atomicity, retention, typed errors."""

import json
import os

import pytest

from repro.core.checkpoint import checkpoint as executor_checkpoint
from repro.core.checkpoint import restore as executor_restore
from repro.core.executor import ASeqEngine
from repro.errors import CheckpointError, EngineError, ReproError
from repro.events import Event
from repro.obs.registry import MetricsRegistry
from repro.query import seq
from repro.resilience.checkpointer import (
    Checkpointer,
    engine_state,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    validate_engine_state,
    write_checkpoint,
)
from repro.resilience.faults import corrupt_latest_checkpoint
from repro.resilience.journal import EventJournal
from repro.resilience.supervisor import SupervisedStreamEngine


def make_engine():
    engine = SupervisedStreamEngine()
    engine.register(seq("A", "B").count().within(ms=10).named("ab").build())
    engine.register(
        seq("A", "B", "C").group_by("id").count().within(ms=10)
        .named("grp").build()
    )
    return engine


def feed(engine, n=30):
    for i in range(n):
        engine.process(Event("ABC"[i % 3], i + 1, {"id": i % 2}))


# ----- engine_state ----------------------------------------------------------


def test_engine_state_round_trips_through_json(tmp_path):
    engine = make_engine()
    feed(engine)
    state = json.loads(json.dumps(engine_state(engine, journal_seq=30)))
    validate_engine_state(state)
    assert state["journal_seq"] == 30
    assert {r["name"] for r in state["registrations"]} == {"ab", "grp"}
    assert state["metrics"]["events"] == 30


def test_engine_state_rejects_non_checkpointable_executor():
    engine = SupervisedStreamEngine()

    class Opaque:
        def process(self, event):
            return None

        def result(self):
            return 0

    engine.register_executor("odd", Opaque())
    with pytest.raises(CheckpointError):
        engine_state(engine)


def test_write_checkpoint_is_atomic_no_tmp_left(tmp_path):
    engine = make_engine()
    feed(engine)
    path = write_checkpoint(tmp_path, engine_state(engine, journal_seq=30))
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert load_checkpoint(path)["journal_seq"] == 30


def test_load_latest_falls_back_over_corruption(tmp_path):
    engine = make_engine()
    for seq_no in (10, 20, 30):
        write_checkpoint(tmp_path, engine_state(engine, journal_seq=seq_no))
    corrupt_latest_checkpoint(tmp_path)
    state, path = load_latest_checkpoint(tmp_path)
    assert state is not None
    assert state["journal_seq"] == 20
    assert path in list_checkpoints(tmp_path)


def test_load_latest_with_nothing_loadable(tmp_path):
    assert load_latest_checkpoint(tmp_path) == (None, None)
    write_checkpoint(
        tmp_path, engine_state(make_engine(), journal_seq=5)
    )
    for path in list_checkpoints(tmp_path):
        path.write_text("{ not json")
    assert load_latest_checkpoint(tmp_path) == (None, None)


def test_validate_rejects_malformed_documents():
    for bad in (
        [],
        {},
        {"version": 99, "journal_seq": 0, "registrations": []},
        {"version": 1, "registrations": []},
        {"version": 1, "journal_seq": 0},
        {"version": 1, "journal_seq": 0, "registrations": [{"name": 3}]},
    ):
        with pytest.raises(CheckpointError):
            validate_engine_state(bad)


GROUPED = "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g"


def grouped_batches():
    """Two 1000-row batches of a negation + GROUP BY stream."""
    import random

    from repro.events.batch import EventBatch

    rng = random.Random(3)
    events = [
        Event(rng.choice("ABNZ"), ts + 1, {
            "g": rng.randint(0, 7), "v": rng.randint(1, 9),
        })
        for ts in range(2000)
    ]
    return (
        EventBatch.from_events(events[:1000]),
        EventBatch.from_events(events[1000:]),
    )


def restored_from(state):
    from repro.engine.engine import StreamEngine
    from repro.query import parse_query
    from repro.resilience.checkpointer import apply_engine_state

    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(GROUPED), name="q")
    apply_engine_state(engine, json.loads(json.dumps(state)))
    return engine


def test_a_restored_engine_keeps_the_batch_order_gate():
    """The document records the engine clock, so an engine restored
    from it refuses a batch older than everything it counted, as the
    checkpointed engine does."""
    from repro.engine.engine import StreamEngine
    from repro.errors import OutOfOrderError
    from repro.query import parse_query

    first, second = grouped_batches()
    live = StreamEngine(routed=True, vectorized=True)
    live.register(parse_query(GROUPED), name="q")
    live.process_event_batch(first)
    live.process_event_batch(second)
    state = engine_state(live)
    assert state["clock_ms"] == second.last_ts()
    restored = restored_from(state)
    for engine in (live, restored):
        with pytest.raises(OutOfOrderError):
            engine.process_event_batch(first)
    assert restored.results() == live.results()


def test_a_document_without_the_clock_restores_as_before():
    """An older document has no clock: the restored engine's gate starts
    open, as it did before the field existed."""
    from repro.engine.engine import StreamEngine
    from repro.query import parse_query

    first, second = grouped_batches()
    live = StreamEngine(routed=True, vectorized=True)
    live.register(parse_query(GROUPED), name="q")
    live.process_event_batch(first)
    live.process_event_batch(second)
    state = engine_state(live)
    del state["clock_ms"]
    restored = restored_from(state)
    assert restored.process_event_batch(first) == len(first)


# ----- Checkpointer scheduling ----------------------------------------------


def test_checkpointer_every_n_events(tmp_path):
    engine = make_engine()
    checkpointer = Checkpointer(
        engine, EventJournal(tmp_path), every_events=10
    )
    engine.attach_checkpointer(checkpointer)
    feed(engine, 35)
    assert len(list_checkpoints(tmp_path)) == 3


def test_checkpointer_retention_prunes_old_generations(tmp_path):
    engine = make_engine()
    checkpointer = Checkpointer(engine, EventJournal(tmp_path), every_events=5)
    engine.attach_checkpointer(checkpointer)
    feed(engine, 40)
    assert len(list_checkpoints(tmp_path)) == 3


def test_checkpointer_time_trigger(tmp_path):
    engine = make_engine()
    checkpointer = Checkpointer(engine, EventJournal(tmp_path), every_ms=0.01)
    engine.attach_checkpointer(checkpointer)
    feed(engine, 3)
    assert len(list_checkpoints(tmp_path)) >= 1


def test_checkpointer_metrics(tmp_path):
    registry = MetricsRegistry()
    engine = SupervisedStreamEngine(registry=registry)
    engine.register(seq("A", "B").count().named("ab").build())
    checkpointer = Checkpointer(
        engine, EventJournal(tmp_path), every_events=5, registry=registry
    )
    engine.attach_checkpointer(checkpointer)
    feed(engine, 20)
    assert registry.value("checkpoints_written_total") == 4
    histogram = registry.get("checkpoint_duration_us")
    assert histogram.count == 4


def test_checkpointer_rejects_bad_schedule(tmp_path):
    engine = make_engine()
    with pytest.raises(ValueError):
        Checkpointer(engine, EventJournal(tmp_path), every_events=0)
    with pytest.raises(ValueError):
        Checkpointer(engine, EventJournal(tmp_path), every_ms=-1)


# ----- typed checkpoint errors (satellite) ----------------------------------


def test_checkpoint_error_is_engine_and_repro_error():
    assert issubclass(CheckpointError, EngineError)
    assert issubclass(CheckpointError, ReproError)


def test_version_mismatch_raises_checkpoint_error():
    query = seq("A", "B").count().build()
    state = executor_checkpoint(ASeqEngine(query))
    state["version"] = 99
    with pytest.raises(CheckpointError):
        executor_restore(query, state)


def test_query_mismatch_raises_checkpoint_error():
    query = seq("A", "B").count().build()
    other = seq("A", "C").count().build()
    state = executor_checkpoint(ASeqEngine(query))
    with pytest.raises(CheckpointError):
        executor_restore(other, state)


def test_runtime_mismatch_raises_checkpoint_error():
    query = seq("A", "B").count().within(ms=10).build()
    state = executor_checkpoint(ASeqEngine(query))
    with pytest.raises(CheckpointError):
        executor_restore(query, state, vectorized=True)


def test_malformed_state_raises_checkpoint_error_not_key_error():
    query = seq("A", "B").count().within(ms=10).build()
    state = executor_checkpoint(ASeqEngine(query))
    del state["runtime"]["counters"]
    with pytest.raises(CheckpointError):
        executor_restore(query, state)


def test_unsupported_runtime_raises_checkpoint_error():
    from repro.baseline.twostep import TwoStepEngine
    from repro.core.checkpoint import _runtime_state

    engine = TwoStepEngine(seq("A", "B").count().within(ms=10).build())
    with pytest.raises(CheckpointError):
        _runtime_state(engine)
