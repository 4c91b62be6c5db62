"""Micro-batch ingestion: process_batch through every layer.

Batching is a pure mechanical optimization — the differential suite in
``test_batch_shard_differential.py`` pins results bit-identical; these
tests cover the per-layer surfaces (StreamEngine, ASeqEngine,
VectorizedSemEngine, EventJournal, SupervisedStreamEngine) and the
places where batching *changes* bookkeeping granularity on purpose
(one journal write and one checkpoint-schedule check per batch).
"""

import random

from conftest import random_events
from repro.core.executor import ASeqEngine, process_each
from repro.core.vectorized import VectorizedSemEngine
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.events.event import Event
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query
from repro.resilience.journal import EventJournal, read_journal
from repro.resilience.supervisor import SupervisedStreamEngine


def _stream(seed, count=500, alphabet=("A", "B", "C", "Z")):
    rng = random.Random(seed)
    return random_events(
        rng,
        list(alphabet),
        count,
        attr_maker=lambda r, t: {"v": r.randint(1, 9)},
    )


def _pair(routed=True, **kwargs):
    queries = [
        ("count", "PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"),
        ("sum", "PATTERN SEQ(A, C) AGG SUM(C.v) WITHIN 40 ms"),
    ]
    reference = StreamEngine(**kwargs)
    batched = StreamEngine(routed=routed, **kwargs)
    sinks = []
    for name, text in queries:
        ref_sink, fast_sink = CollectSink(), CollectSink()
        reference.register(parse_query(text), ref_sink, name=name)
        batched.register(parse_query(text), fast_sink, name=name)
        sinks.append((ref_sink, fast_sink))
    return reference, batched, sinks


def test_process_batch_matches_per_event_including_sink_order():
    events = _stream(3)
    reference, batched, sinks = _pair()
    for event in events:
        reference.process(event)
    for start in range(0, len(events), 64):
        batched.process_batch(events[start:start + 64])
    assert reference.results() == batched.results()
    for ref_sink, fast_sink in sinks:
        assert ref_sink.outputs == fast_sink.outputs


def test_run_chunks_through_batches():
    events = _stream(4)
    reference, batched, _ = _pair()
    reference.run(events)
    assert batched.run(events, batch_size=50) == len(events)
    assert reference.results() == batched.results()
    assert batched.metrics.events == len(events)


def test_constructor_batch_size_applies_to_run():
    events = _stream(5)
    reference, _, _ = _pair()
    engine = StreamEngine(routed=True, batch_size=32)
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"), name="count"
    )
    engine.register(
        parse_query("PATTERN SEQ(A, C) AGG SUM(C.v) WITHIN 40 ms"), name="sum"
    )
    reference.run(events)
    engine.run(events)
    assert engine.results() == reference.results()


def test_empty_batch_is_a_noop():
    _, batched, _ = _pair()
    assert batched.process_batch([]) == 0
    assert batched.metrics.events == 0


def test_batched_engine_metrics_count_every_event():
    events = _stream(6, count=200)
    registry = MetricsRegistry()
    engine = StreamEngine(routed=True, registry=registry)
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"), name="count"
    )
    engine.run(events, batch_size=37)
    assert engine.metrics.events == 200
    snapshot = registry.flat()
    assert snapshot["events_ingested_total"] == 200.0
    # Routed + batched: the registration only sees its relevant slice.
    relevant = sum(1 for e in events if e.event_type in ("A", "B"))
    assert snapshot['query_events_total{query=count}'] == float(relevant)


def test_aseq_process_batch_matches_per_event():
    query = parse_query("PATTERN SEQ(A, !N, C) AGG COUNT WITHIN 25 ms")
    events = _stream(7, alphabet=("A", "C", "N", "Z"))
    reference, batched = ASeqEngine(query), ASeqEngine(query)
    outputs = []
    for event in events:
        fresh = reference.process(event)
        if fresh is not None:
            outputs.append((event, fresh))
    emitted = []
    for start in range(0, len(events), 48):
        emitted.extend(batched.process_batch(events[start:start + 48]))
    assert emitted == outputs
    assert reference.result() == batched.result()
    assert reference.events_seen == batched.events_seen


def test_vectorized_batch_and_searchsorted_expiry():
    query = parse_query("PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 15 ms")
    events = _stream(8, alphabet=("A", "B"))
    reference = VectorizedSemEngine(query)
    batched = VectorizedSemEngine(query)
    for event in events:
        reference.process(event)
    for start in range(0, len(events), 33):
        process_each(batched, events[start:start + 33])
    assert reference.result() == batched.result()
    assert reference.active_counters == batched.active_counters
    assert reference.counter_updates == batched.counter_updates


def test_vectorized_counter_updates_match_reference_sem():
    # Satellite: the columnar runtime accounts counter updates exactly
    # like SemEngine, so /queries cost rows agree between the two.
    from repro.core.sem import SemEngine

    query = parse_query("PATTERN SEQ(A, B, C) AGG COUNT WITHIN 20 ms")
    events = _stream(9, alphabet=("A", "B", "C"))
    sem, vec = SemEngine(query), VectorizedSemEngine(query)
    for event in events:
        sem.process(event)
        vec.process(event)
    assert vec.counter_updates == sem.counter_updates
    state = vec.inspect()
    assert state["counter_updates"] == vec.counter_updates
    assert state["peak_counters"] == vec.peak_counters


def test_vectorized_accepts_registry_and_trace():
    from repro.obs.tracing import TraceRecorder

    registry = MetricsRegistry()
    trace = TraceRecorder(capacity=64)
    query = parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 10 ms")
    engine = VectorizedSemEngine(query, registry=registry, trace=trace)
    for event in [Event("A", 1), Event("B", 2), Event("A", 50)]:
        engine.process(event)
    snapshot = registry.flat()
    assert snapshot["sem_counters_created_total"] == 2.0
    assert snapshot["sem_counters_expired_total"] == 1.0
    assert trace.recorded_total > 0


def test_journal_append_batch_numbers_and_replays(tmp_path):
    events = [Event("A", i, {"n": i}) for i in range(10)]
    with EventJournal(tmp_path) as journal:
        first = journal.append_batch(events[:6])
        assert first == 0
        assert journal.append_batch([]) == 6
        second = journal.append_batch(events[6:])
        assert second == 6
    replayed = list(read_journal(tmp_path))
    assert [seq for seq, _ in replayed] == list(range(10))
    assert [event.ts for _, event in replayed] == list(range(10))


def test_journal_append_batch_one_fsync_per_batch(tmp_path):
    registry = MetricsRegistry()
    journal = EventJournal(tmp_path, fsync="always", registry=registry)
    journal.append_batch([Event("A", i) for i in range(50)])
    assert registry.flat()["journal_fsyncs_total"] == 1.0
    journal.close()


def test_journal_append_batch_interval_counts_records(tmp_path):
    registry = MetricsRegistry()
    journal = EventJournal(
        tmp_path, fsync="interval", fsync_interval=100, registry=registry
    )
    journal.append_batch([Event("A", i) for i in range(60)])
    assert registry.flat()["journal_fsyncs_total"] == 0.0
    journal.append_batch([Event("A", i) for i in range(60)])
    assert registry.flat()["journal_fsyncs_total"] == 1.0
    journal.close()


def test_supervised_batch_matches_per_event_and_journals_once(tmp_path):
    events = _stream(11, count=300)
    reference = SupervisedStreamEngine()
    batched = SupervisedStreamEngine(
        routed=True,
        journal=EventJournal(tmp_path / "wal"),
    )
    for engine in (reference, batched):
        engine.register(
            parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"),
            name="count",
        )
    for event in events:
        reference.process(event)
    for start in range(0, len(events), 75):
        batched.process_batch(events[start:start + 75])
    assert reference.results() == batched.results()
    replayed = list(read_journal(tmp_path / "wal"))
    assert len(replayed) == len(events)


def test_supervised_batch_dead_letters_the_poison_event(tmp_path):
    class Poison:
        layout = None

        def __init__(self):
            self.calls = 0

        def process(self, event):
            self.calls += 1
            if event.event_type == "B":
                raise RuntimeError("poison")
            return None

        def result(self):
            return self.calls

    engine = SupervisedStreamEngine(
        journal=EventJournal(tmp_path / "wal"), quarantine_after=99
    )
    engine.register_executor("poison", Poison())
    events = [Event("A", 1), Event("B", 2), Event("A", 3), Event("B", 4)]
    engine.process_batch(events)
    letters = list(engine.dlq)
    assert [letter.event.event_type for letter in letters] == ["B", "B"]
    # Journal sequences attribute the exact poison events of the batch.
    assert [letter.journal_seq for letter in letters] == [1, 3]
    assert engine.health_of("poison")["failures_total"] == 2


def test_supervised_batch_quarantines_and_skips_rest_of_batch():
    class AlwaysBoom:
        layout = None

        def __init__(self):
            self.calls = 0

        def process(self, event):
            self.calls += 1
            raise RuntimeError("boom")

        def result(self):
            return None

    boom = AlwaysBoom()
    engine = SupervisedStreamEngine(quarantine_after=3)
    engine.register_executor("boom", boom)
    engine.process_batch([Event("A", i) for i in range(10)])
    assert engine.quarantined() == ["boom"]
    assert boom.calls == 3  # quarantine stops the rest of the batch


def test_supervised_batch_checkpoints_on_batch_boundaries(tmp_path):
    from repro.resilience.checkpointer import Checkpointer

    engine = SupervisedStreamEngine()
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"), name="count"
    )
    checkpointer = Checkpointer(
        engine, EventJournal(tmp_path / "ckpt"), every_events=100
    )
    engine.attach_checkpointer(checkpointer)
    engine.process_batch([Event("A", i) for i in range(99)])
    assert checkpointer.last_path is None
    engine.process_batch([Event("A", i) for i in range(99, 120)])
    assert checkpointer.last_path is not None


def test_checkpointer_maybe_checkpoint_credits_event_count(tmp_path):
    from repro.resilience.checkpointer import Checkpointer

    engine = StreamEngine()
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"), name="count"
    )
    checkpointer = Checkpointer(
        engine, EventJournal(tmp_path), every_events=10
    )
    assert checkpointer.maybe_checkpoint(events=9) is None
    assert checkpointer.maybe_checkpoint(events=1) is not None


def test_batched_latency_histogram_is_per_event_scaled():
    registry = MetricsRegistry()
    engine = StreamEngine(routed=True, registry=registry)
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 30 ms"), name="count"
    )
    engine.process_batch([Event("A", i) for i in range(100)])
    histogram = registry.histogram(
        "event_latency_us",
        "per-event processing latency across all registrations (µs)",
    )
    assert histogram.count == 1  # one observation per batch


def test_process_batch_accepts_any_iterable():
    reference, batched, _ = _pair()
    events = _stream(12, count=64)
    for event in events:
        reference.process(event)
    assert batched.process_batch(iter(events)) == len(events)
    assert reference.results() == batched.results()
