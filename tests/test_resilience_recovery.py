"""Kill-and-recover differential tests: crash at event *i*, recover,
finish — final aggregates must equal an uninterrupted oracle run.

The crash points and corruption sites are drawn from a seeded
:class:`FaultPlan`; the ``chaos`` CI job re-runs this file under
``REPRO_FAULT_SEED=0,1,2``.
"""

import random

import pytest

from repro.engine.sinks import CollectSink
from repro.errors import CheckpointError, JournalError
from repro.events import Event
from repro.obs.registry import MetricsRegistry
from repro.query import seq
from repro.resilience import (
    Checkpointer,
    EventJournal,
    FaultPlan,
    SupervisedStreamEngine,
    list_checkpoints,
    list_segments,
    load_checkpoint,
    load_latest_checkpoint,
    recover,
)

QUERIES = {
    "dpc": lambda: seq("A", "B", "C").count().named("dpc").build(),
    "sem": lambda: seq("A", "B", "C").count().within(ms=12)
    .named("sem").build(),
    "negation": lambda: seq("A", "!N", "B").count().within(ms=12)
    .named("negation").build(),
    "hpc": lambda: seq("A", "B").where_equal("id").count().within(ms=12)
    .named("hpc").build(),
    "groupby": lambda: seq("A", "B").group_by("id").count().within(ms=12)
    .named("groupby").build(),
    "sum": lambda: seq("A", "B").sum("B", "w").within(ms=12)
    .named("sum").build(),
}


def random_stream(rng, n=400):
    events, ts = [], 0
    for _ in range(n):
        ts += rng.randint(1, 3)
        events.append(
            Event(
                rng.choice("ABCN"),
                ts,
                {"id": rng.randint(1, 3), "w": rng.randint(1, 9)},
            )
        )
    return events


def oracle_results(queries, events):
    oracle = SupervisedStreamEngine()
    for query in queries:
        oracle.register(query)
    for event in events:
        oracle.process(event)
    return oracle.results()


def crash_run(tmp_path, queries, events, crash, checkpoint_every=23,
              fsync="never"):
    """Run to ``crash`` under journal+checkpoints, then drop the engine."""
    engine = SupervisedStreamEngine()
    journal = EventJournal(tmp_path, fsync=fsync)
    engine.attach_journal(journal)
    engine.attach_checkpointer(
        Checkpointer(engine, journal, every_events=checkpoint_every)
    )
    for query in queries:
        engine.register(query)
    for event in events[:crash]:
        engine.process(event)
    # no close(), no final checkpoint: this is the crash


@pytest.mark.parametrize("kind", list(QUERIES))
def test_kill_and_recover_equals_uninterrupted(tmp_path, kind):
    plan = FaultPlan()
    rng = random.Random(plan.seed * 7919 + hash(kind) % 1000)
    queries = [QUERIES[kind]()]
    events = random_stream(rng)
    expected = oracle_results(queries, events)
    crash = plan.crash_point(len(events))

    crash_run(tmp_path, queries, events, crash)
    recovered = recover(tmp_path, queries=queries)
    assert recovered.events_replayed >= 0
    for event in events[crash:]:
        recovered.process(event)
    assert recovered.results() == expected
    assert recovered.metrics.events == len(events)


def test_kill_and_recover_multi_query_engine(tmp_path):
    plan = FaultPlan()
    rng = random.Random(plan.seed + 41)
    queries = [make() for make in QUERIES.values()]
    events = random_stream(rng)
    expected = oracle_results(queries, events)
    crash = plan.crash_point(len(events))

    crash_run(tmp_path, queries, events, crash)
    recovered = recover(tmp_path, queries=queries)
    for event in events[crash:]:
        recovered.process(event)
    assert recovered.results() == expected


def test_recover_after_torn_journal_tail(tmp_path):
    """A crash mid-append loses only the torn record's event."""
    plan = FaultPlan()
    rng = random.Random(plan.seed + 97)
    queries = [QUERIES["sem"]()]
    events = random_stream(rng, n=200)
    crash = plan.crash_point(len(events))
    if crash % 23 == 0:
        # In a real crash the torn record's event was never dispatched,
        # so no checkpoint can cover it; this simulation processes the
        # event *then* tears, so keep the tear ahead of any checkpoint.
        crash -= 1

    crash_run(tmp_path, queries, events, crash)
    plan.tear_journal(tmp_path)
    recovered = recover(tmp_path, queries=queries)
    # the torn record covered events[crash-1]; re-deliver it with the
    # rest, which must reproduce the uninterrupted run exactly
    for event in events[crash - 1:]:
        recovered.process(event)
    assert recovered.results() == oracle_results(queries, events)


def test_recover_falls_back_over_corrupt_newest_checkpoint(tmp_path):
    plan = FaultPlan()
    rng = random.Random(plan.seed + 13)
    queries = [QUERIES["groupby"](), QUERIES["dpc"]()]
    events = random_stream(rng)
    expected = oracle_results(queries, events)
    crash = plan.crash_point(len(events))

    crash_run(tmp_path, queries, events, crash, checkpoint_every=17)
    if len(list_checkpoints(tmp_path)) < 2:
        pytest.skip("crash point too early for two generations")
    plan.corrupt_latest_checkpoint(tmp_path)
    recovered = recover(tmp_path, queries=queries)
    for event in events[crash:]:
        recovered.process(event)
    assert recovered.results() == expected


def test_recover_with_every_checkpoint_corrupt_replays_from_scratch(
    tmp_path,
):
    plan = FaultPlan()
    rng = random.Random(plan.seed + 5)
    queries = [QUERIES["sem"]()]
    events = random_stream(rng, n=150)
    expected = oracle_results(queries, events)
    crash = plan.crash_point(len(events))

    crash_run(tmp_path, queries, events, crash, checkpoint_every=29)
    for path in list_checkpoints(tmp_path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
    recovered = recover(tmp_path, queries=queries)
    assert recovered.events_replayed == crash
    for event in events[crash:]:
        recovered.process(event)
    assert recovered.results() == expected


def test_recover_without_checkpoint_or_queries_raises(tmp_path):
    EventJournal(tmp_path).close()
    with pytest.raises(CheckpointError):
        recover(tmp_path)


def test_recovered_engine_is_immediately_crash_safe(tmp_path):
    """Crash the *recovered* engine again: double recovery works."""
    plan = FaultPlan()
    rng = random.Random(plan.seed + 71)
    queries = [QUERIES["sem"](), QUERIES["hpc"]()]
    events = random_stream(rng)
    expected = oracle_results(queries, events)
    first = plan.crash_point(len(events) - 2)
    second = plan.crash_point(len(events) - first - 1)

    crash_run(tmp_path, queries, events, first, checkpoint_every=19)
    middle = recover(tmp_path, queries=queries, checkpoint_every_events=19)
    for event in events[first:first + second]:
        middle.process(event)
    del middle  # second crash, again without cleanup

    final = recover(tmp_path, queries=queries)
    for event in events[first + second:]:
        final.process(event)
    assert final.results() == expected


def test_replay_does_not_re_emit_to_sinks(tmp_path):
    queries = [QUERIES["sem"]()]
    events = random_stream(random.Random(3), n=120)
    crash = 100

    engine = SupervisedStreamEngine()
    journal = EventJournal(tmp_path)
    engine.attach_journal(journal)
    engine.attach_checkpointer(
        Checkpointer(engine, journal, every_events=30)
    )
    pre_sink = CollectSink()
    engine.register(queries[0], pre_sink)
    for event in events[:crash]:
        engine.process(event)
    pre_crash_outputs = len(pre_sink)

    post_sink = CollectSink()
    recovered = recover(tmp_path, sinks={"sem": [post_sink]})
    assert recovered.events_replayed > 0
    assert len(post_sink) == 0  # replay stays silent
    for event in events[crash:]:
        recovered.process(event)
    # sinks live again for new events
    oracle = SupervisedStreamEngine()
    oracle_sink = CollectSink()
    oracle.register(QUERIES["sem"](), oracle_sink)
    for event in events:
        oracle.process(event)
    assert pre_crash_outputs + len(post_sink) == len(oracle_sink)
    assert post_sink.values() == oracle_sink.values()[pre_crash_outputs:]


def test_recovery_metrics_exported(tmp_path):
    registry = MetricsRegistry()
    queries = [QUERIES["dpc"]()]
    events = random_stream(random.Random(11), n=100)
    crash_run(tmp_path, queries, events, 90, checkpoint_every=40)
    recovered = recover(tmp_path, registry=registry)
    assert registry.value("recoveries_total") == 1
    assert (
        registry.value("events_replayed_total")
        == recovered.events_replayed
        == 90 - 80
    )


# ----- the supervised directory is pruned like every other one --------------


def pruned_run(tmp_path, queries, events):
    """2,000 events under small segments and a 300-event cadence, then
    the crash: enough generations that pruning has segments to drop."""
    engine = SupervisedStreamEngine()
    journal = EventJournal(tmp_path, segment_bytes=2048)
    engine.attach_journal(journal)
    engine.attach_checkpointer(
        Checkpointer(engine, journal, every_events=300)
    )
    for query in queries:
        engine.register(query)
    for event in events:
        engine.process(event)


def test_supervised_checkpoints_prune_the_journal(tmp_path):
    plan = FaultPlan()
    queries = [QUERIES["groupby"](), QUERIES["sem"]()]
    events = random_stream(random.Random(plan.seed + 2027), n=2000)
    pruned_run(tmp_path, queries, events)
    retained = [load_checkpoint(p) for p in list_checkpoints(tmp_path)]
    assert len(retained) == 3
    oldest = min(state["journal_seq"] for state in retained)
    segments = list_segments(tmp_path)
    starts = [int(p.name[len("journal-"):-len(".wal")]) for p in segments]
    assert starts[0] > 0  # the prefix below every generation is gone
    # No segment lies wholly below the oldest retained generation: the
    # one after each segment starts past that generation's seq.
    assert all(start > oldest for start in starts[1:])


def test_supervised_fallback_over_a_corrupt_newest_checkpoint(tmp_path):
    """The pruned journal still holds the oldest generation's whole
    suffix, so falling back over a corrupt newest checkpoint is exact
    and replays exactly the events since the fallback."""
    plan = FaultPlan()
    queries = [QUERIES["groupby"](), QUERIES["sem"]()]
    events = random_stream(random.Random(plan.seed + 2029), n=2400)
    crash_at = 2000
    pruned_run(tmp_path, queries, events[:crash_at])
    list_checkpoints(tmp_path)[-1].write_text("{ torn")
    fallback, _ = load_latest_checkpoint(tmp_path)
    recovered = recover(tmp_path, queries=queries)
    assert recovered.events_replayed == crash_at - fallback["journal_seq"]
    for event in events[crash_at:]:
        recovered.process(event)
    assert recovered.results() == oracle_results(queries, events)


def test_supervised_recovery_refuses_a_journal_with_a_hole(tmp_path):
    """With every generation corrupt, replay from offset 0 would skip
    the pruned prefix: recovery raises instead."""
    plan = FaultPlan()
    queries = [QUERIES["sem"]()]
    events = random_stream(random.Random(plan.seed + 2039), n=2000)
    pruned_run(tmp_path, queries, events)
    for path in list_checkpoints(tmp_path):
        path.write_text("{ torn")
    with pytest.raises(JournalError):
        recover(tmp_path, queries=queries)


# ----- replay feeds each record as it was written -----------------------------

#: The shapes whose plans bind the columnar kernel on a vectorized engine.
KERNEL_KINDS = ["sem", "negation", "groupby", "sum"]


def batched_engine(tmp_path=None, checkpoint_every=None):
    engine = SupervisedStreamEngine(vectorized=True, routed=True)
    if tmp_path is not None:
        journal = EventJournal(tmp_path)
        engine.attach_journal(journal)
        if checkpoint_every:
            engine.attach_checkpointer(
                Checkpointer(engine, journal, every_events=checkpoint_every)
            )
    for kind in KERNEL_KINDS:
        engine.register(QUERIES[kind]())
    return engine


@pytest.mark.parametrize("checkpoint_every", [None, 70])
def test_a_frame_journal_recovers_through_the_kernel(
    tmp_path, monkeypatch, checkpoint_every
):
    """Frame records replay as batches, never as events: recovery with
    ``EventBatch.to_events`` raising equals the uninterrupted run, from
    offset 0 and across a mid-stream checkpoint."""
    from repro.events.batch import EventBatch, batches_from_events
    from repro.resilience.journal import read_records

    plan = FaultPlan()
    events = random_stream(random.Random(plan.seed + 4099))
    batches = list(batches_from_events(events, 25))
    crash = max(1, plan.crash_point(len(batches)))
    expected = batched_engine()
    for batch in batches_from_events(events, 25):
        expected.process_event_batch(batch)

    crashed = batched_engine(tmp_path, checkpoint_every)
    for batch in batches[:crash]:
        crashed.process_event_batch(batch)
    start, _ = load_latest_checkpoint(tmp_path)
    start_seq = start["journal_seq"] if start else 0
    assert (checkpoint_every is None) == (start is None)
    assert all(
        isinstance(rows, EventBatch)
        for _, rows in read_records(tmp_path, start_seq)
    )

    def refuse(batch):
        raise AssertionError("a frame record was made events")

    with monkeypatch.context() as patch:
        patch.setattr(EventBatch, "to_events", refuse)
        recovered = recover(
            tmp_path, queries=[QUERIES[kind]() for kind in KERNEL_KINDS],
            vectorized=True, routed=True,
        )
    assert recovered.events_replayed == crash * 25 - start_seq
    for batch in batches_from_events(events[crash * 25:], 25):
        recovered.process_event_batch(batch)
    assert recovered.results() == expected.results()
    assert recovered.metrics.events == len(events)


def test_a_mixed_journal_recovers_exactly(tmp_path):
    """Per-event column records followed by frame records: each replays
    through its own lane, in journal order."""
    from repro.events.batch import EventBatch, batches_from_events
    from repro.resilience.journal import read_records

    plan = FaultPlan()
    queries = [make() for make in QUERIES.values()]
    events = random_stream(random.Random(plan.seed + 4111))
    expected = oracle_results(queries, events)
    head, crash = 130, 330

    engine = SupervisedStreamEngine(vectorized=True, routed=True)
    engine.attach_journal(EventJournal(tmp_path))
    for query in queries:
        engine.register(query)
    for event in events[:head]:
        engine.process(event)
    for batch in batches_from_events(events[head:crash], 40):
        engine.process_event_batch(batch)
    kinds = [
        isinstance(rows, EventBatch) for _, rows in read_records(tmp_path, 0)
    ]
    assert kinds == [False] * head + [True] * 5

    recovered = recover(
        tmp_path, queries=[make() for make in QUERIES.values()],
        vectorized=True, routed=True,
    )
    assert recovered.events_replayed == crash
    for event in events[crash:]:
        recovered.process(event)
    assert recovered.results() == expected


@pytest.mark.parametrize("lane", ["event", "batch", "frames"])
def test_replayed_dead_letters_carry_their_journal_sequence(tmp_path, lane):
    """A poison row met during replay is dead-lettered under the
    sequence the journal gave it, as it was before the crash — also
    when it sits in a later frame of a run replay joins into one
    batch."""
    from repro.events.batch import batches_from_events
    from repro.resilience.journal import read_records
    from repro.resilience.recovery import _joined

    events = [
        Event("A", 1, {"id": 1}),
        Event("B", 2, {"id": 1}),
        Event("A", 3, {}),  # no GROUP BY key: the executor raises
        Event("B", 4, {"id": 1}),
    ]
    engine = SupervisedStreamEngine(vectorized=lane != "event")
    engine.attach_journal(EventJournal(tmp_path))
    engine.register(QUERIES["groupby"]())
    if lane == "event":
        for event in events:
            engine.process(event)
    else:
        batch = next(batches_from_events(events, 4))
        # "frames": one frame record per row, all of one batch's columns.
        step = 4 if lane == "batch" else 1
        for start in range(0, 4, step):
            engine.process_event_batch(batch.islice(start, start + step))
    assert [letter.journal_seq for letter in engine.dlq] == [2]
    if lane == "frames":
        # Four one-row frame records, replayed as one batch.
        joined = _joined(read_records(tmp_path, 0))
        assert [(seq, len(rows)) for seq, rows in joined] == [(0, 4)]

    recovered = recover(
        tmp_path, queries=[QUERIES["groupby"]()],
        vectorized=lane != "event", reattach_journal=False,
    )
    letters = list(recovered.dlq)
    assert [letter.journal_seq for letter in letters] == [2]
    assert letters[0].event == events[2]
    assert recovered.results() == engine.results()
