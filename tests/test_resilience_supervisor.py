"""Supervisor: dead-letter queue, quarantine, overload, restarts."""

import pytest

from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.errors import EngineError, OutOfOrderError, OverloadError
from repro.events import Event
from repro.events.batch import EventBatch
from repro.obs.registry import MetricsRegistry
from repro.query import seq
from repro.resilience import (
    Checkpointer,
    DeadLetter,
    DeadLetterQueue,
    EventJournal,
    FaultPlan,
    InjectedFault,
    SupervisedStreamEngine,
    recover,
)
from repro.resilience.checkpointer import list_checkpoints
from repro.resilience.faults import FaultyExecutor
from repro.resilience.journal import read_journal

from repro.core.executor import ASeqEngine


def ab_query(name="ab"):
    return seq("A", "B").count().within(ms=10).named(name).build()


def stream(n=60):
    return [Event("AB"[i % 2], i + 1) for i in range(n)]


def poison_engine(registry=None, **kwargs):
    """Engine with one healthy and one always-raising registration."""
    engine = SupervisedStreamEngine(registry=registry, **kwargs)
    healthy_sink = CollectSink()
    engine.register(ab_query("healthy"), healthy_sink)
    poison = FaultyExecutor(ASeqEngine(ab_query("poison")), poison=True)
    engine.register_executor("poison", poison)
    return engine, healthy_sink


# ----- acceptance: poison query does not stop the healthy one ---------------


def test_poison_registration_does_not_stop_healthy_delivery():
    registry = MetricsRegistry()
    engine, healthy_sink = poison_engine(registry=registry)
    events = stream(60)

    oracle = SupervisedStreamEngine()
    oracle_sink = CollectSink()
    oracle.register(ab_query("healthy"), oracle_sink)
    for event in events:
        oracle.process(event)
        engine.process(event)

    assert healthy_sink.values() == oracle_sink.values()
    assert engine.result("healthy") == oracle.result("healthy")
    assert engine.quarantined() == ["poison"]
    assert registry.value("quarantined_queries") == 1
    assert registry.value("dead_letters_total") == 5  # quarantine_after
    assert registry.value(
        "executor_failures_total", query="poison"
    ) == 5


def test_dead_letters_carry_event_error_and_name():
    engine, _ = poison_engine(quarantine_after=3)
    events = stream(10)
    for event in events:
        engine.process(event)
    letters = engine.dlq.drain()
    assert len(letters) == 3
    assert all(isinstance(letter, DeadLetter) for letter in letters)
    assert [letter.event for letter in letters] == events[:3]
    assert all(letter.query_name == "poison" for letter in letters)
    assert all(
        isinstance(letter.error, InjectedFault) for letter in letters
    )


def test_dead_letter_journal_seq_recorded(tmp_path):
    engine, _ = poison_engine(quarantine_after=2)
    engine.attach_journal(EventJournal(tmp_path))
    for event in stream(6):
        engine.process(event)
    letters = list(engine.dlq)
    assert [letter.journal_seq for letter in letters] == [0, 1]


def test_transient_failures_do_not_quarantine():
    """Failures must be *consecutive* to quarantine."""
    engine = SupervisedStreamEngine(quarantine_after=3)
    # fails on every 3rd offered event: never 3 in a row
    flaky = FaultyExecutor(
        ASeqEngine(ab_query("flaky")), fail_at=range(0, 60, 3)
    )
    engine.register_executor("flaky", flaky)
    for event in stream(60):
        engine.process(event)
    assert engine.quarantined() == []
    assert len(engine.dlq) == 20
    assert engine.health_of("flaky")["failures_total"] == 20


def test_quarantined_registration_is_skipped_entirely():
    engine, _ = poison_engine(quarantine_after=4)
    poison = engine._registrations["poison"].executor
    for event in stream(50):
        engine.process(event)
    assert poison.offered == 4  # nothing offered after quarantine
    assert len(engine.dlq) == 4


def test_manual_restart_lifts_quarantine():
    registry = MetricsRegistry()
    engine, _ = poison_engine(registry=registry, quarantine_after=2)
    for event in stream(10):
        engine.process(event)
    assert engine.quarantined() == ["poison"]
    engine.restart("poison")
    assert engine.quarantined() == []
    assert registry.value("quarantined_queries") == 0
    # poison still raises, so it re-quarantines after 2 more failures
    for event in stream(10):
        engine.process(event)
    assert engine.quarantined() == ["poison"]
    assert registry.value("quarantines_total") == 2


def test_restart_from_checkpoint_restores_state(tmp_path):
    engine = SupervisedStreamEngine(quarantine_after=2)
    journal = EventJournal(tmp_path)
    engine.attach_journal(journal)
    checkpointer = Checkpointer(engine, journal, every_events=10)
    engine.attach_checkpointer(checkpointer)
    engine.register(ab_query("ab"))
    events = stream(20)
    for event in events:
        engine.process(event)
    before = engine.result("ab")
    # wreck the live executor state, then restore from the checkpoint
    engine._registrations["ab"].executor = FaultyExecutor(
        ASeqEngine(ab_query("ab")), poison=True
    )
    engine.process(Event("A", 100))
    engine.process(Event("A", 101))
    assert engine.quarantined() == ["ab"]
    engine.restart_from_checkpoint("ab")
    assert engine.quarantined() == []
    assert engine.result("ab") == before  # checkpoint was at event 20


def test_restart_from_checkpoint_without_checkpointer_raises():
    engine, _ = poison_engine()
    with pytest.raises(EngineError):
        engine.restart_from_checkpoint("poison")


def test_restart_unknown_query_raises():
    engine = SupervisedStreamEngine()
    with pytest.raises(EngineError):
        engine.restart("nope")
    with pytest.raises(EngineError):
        engine.health_of("nope")


def test_auto_restart_backoff(tmp_path):
    """A quarantined query is retried after the backoff, which doubles."""
    engine = SupervisedStreamEngine(
        quarantine_after=2, auto_restart_events=10
    )
    fail_first_6 = FaultyExecutor(
        ASeqEngine(ab_query("flaky")), fail_at=range(6)
    )
    engine.register_executor("flaky", fail_first_6)
    for event in stream(120):
        engine.process(event)
    # offered 0,1 fail -> quarantined, retry after 10 events; offered
    # 2,3 fail -> quarantined, retry after 20; offered 4,5 fail ->
    # quarantined, retry after 40; the injected failures are then
    # exhausted and the registration stays healthy
    assert engine.quarantined() == []
    assert fail_first_6.failures == 6
    health = engine.health_of("flaky")
    assert health["failures_total"] == 6
    assert health["quarantined"] is False


# ----- DLQ overload policies -------------------------------------------------


def letters(n):
    return [
        DeadLetter("q", Event("A", i), InjectedFault("x")) for i in range(n)
    ]


def test_dlq_shed_oldest():
    registry = MetricsRegistry()
    dlq = DeadLetterQueue(
        capacity=5, policy="shed_oldest", registry=registry
    )
    for letter in letters(8):
        dlq.push(letter)
    assert len(dlq) == 5
    assert dlq.shed == 3
    assert dlq.peek().event.ts == 3  # oldest three were shed
    assert registry.value("dlq_depth") == 5
    assert registry.value("dlq_shed_total") == 3


def test_dlq_raise_policy():
    dlq = DeadLetterQueue(capacity=3, policy="raise")
    for letter in letters(3):
        dlq.push(letter)
    with pytest.raises(OverloadError):
        dlq.push(letters(1)[0])


def test_dlq_block_policy_drains_via_hook():
    drained = []
    dlq = DeadLetterQueue(
        capacity=3,
        policy="block",
        on_full=lambda queue: drained.extend(queue.drain()),
    )
    for letter in letters(10):
        dlq.push(letter)
    assert len(drained) + len(dlq) == 10


def test_dlq_block_policy_without_hook_raises():
    dlq = DeadLetterQueue(capacity=2, policy="block")
    for letter in letters(2):
        dlq.push(letter)
    with pytest.raises(OverloadError):
        dlq.push(letters(1)[0])


def test_dlq_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DeadLetterQueue(capacity=0)
    with pytest.raises(ValueError):
        DeadLetterQueue(policy="panic")


def test_engine_overload_policy_flows_through():
    engine, _ = poison_engine(
        quarantine_after=100, dlq_capacity=4, overload_policy="raise"
    )
    events = stream(20)
    with pytest.raises(OverloadError):
        for event in events:
            engine.process(event)


# ----- one dispatch spine: supervision through every entry point -------------

LANES = ("process", "process_batch", "process_event_batch", "run_batches")
CHUNK = 16


def feed(engine, events, lane):
    """Push ``events`` through one of the engine's ingest entry points."""
    if lane == "process":
        for event in events:
            engine.process(event)
        return
    chunks = [events[i:i + CHUNK] for i in range(0, len(events), CHUNK)]
    if lane == "process_batch":
        for chunk in chunks:
            engine.process_batch(chunk)
    elif lane == "process_event_batch":
        for chunk in chunks:
            engine.process_event_batch(EventBatch.from_events(chunk))
    else:
        engine.run(EventBatch.from_events(chunk) for chunk in chunks)


def abz_stream(n=96):
    return [Event("ABZ"[i % 3], i + 1) for i in range(n)]


class WalProbe:
    """Catch-all executor noting how far the journal had got each time
    it was offered an event."""

    layout = None

    def __init__(self, journal):
        self.journal = journal
        self.seen = []

    def process(self, event):
        self.seen.append((event.ts, self.journal.next_seq))
        return None

    def result(self):
        return len(self.seen)


def supervised_run(directory, lane, routed, events):
    registry = MetricsRegistry()
    journal = EventJournal(directory)
    engine = SupervisedStreamEngine(
        registry=registry, routed=routed, quarantine_after=3,
        journal=journal,
    )
    sinks = {"healthy": CollectSink(), "flaky": CollectSink()}
    engine.register(ab_query("healthy"), sinks["healthy"])
    engine.register_executor(
        "flaky",
        FaultyExecutor(ASeqEngine(ab_query("flaky")), fail_at=range(0, 96, 4)),
        sinks["flaky"],
    )
    engine.register_executor(
        "poison", FaultyExecutor(ASeqEngine(ab_query("poison")), poison=True)
    )
    engine.register_executor("probe", WalProbe(journal))
    feed(engine, events, lane)
    journal.close()
    return engine, registry, sinks


def letters_of(engine):
    return sorted(
        (letter.journal_seq, letter.query_name, letter.event)
        for letter in engine.dlq
    )


@pytest.mark.parametrize("routed", [False, True])
@pytest.mark.parametrize("lane", LANES)
def test_every_entry_point_is_supervised_alike(tmp_path, lane, routed):
    events = abz_stream()
    engine, registry, sinks = supervised_run(
        tmp_path / "lane", lane, routed, events
    )

    # WAL: every row journaled, and journaled before any executor saw it
    # (event ts i+1 holds sequence i).
    assert list(read_journal(tmp_path / "lane")) == list(enumerate(events))
    probe = engine.executor_of("probe")
    assert [ts for ts, _ in probe.seen] == [event.ts for event in events]
    assert all(next_seq >= ts for ts, next_seq in probe.seen)

    # Isolation: a dead letter is the poison row under its own sequence;
    # the siblings' outputs are what an unsupervised engine produces.
    letters = letters_of(engine)
    assert letters and all(
        seq == event.ts - 1 for seq, _, event in letters
    )
    oracle = StreamEngine(routed=routed)
    oracle_sink = CollectSink()
    oracle.register(ab_query("healthy"), oracle_sink)
    oracle.run(events)
    assert sinks["healthy"].values() == oracle_sink.values()
    assert engine.result("healthy") == oracle.result("healthy")

    # Quarantine after K in a row stops the rest of the slice.
    assert engine.quarantined() == ["poison"]
    assert engine.executor_of("poison").offered == 3
    flaky = engine.executor_of("flaky")
    assert flaky.failures == engine.health_of("flaky")["failures_total"] > 3

    # Outputs, letters and health agree with process_batch exactly.
    reference, _, reference_sinks = supervised_run(
        tmp_path / "reference", "process_batch", routed, events
    )
    assert letters == letters_of(reference)
    for name in engine.query_names:
        assert engine.health_of(name) == reference.health_of(name)
    assert engine.results() == reference.results()
    for name, sink in sinks.items():
        assert sink.values() == reference_sinks[name].values()
    assert engine.metrics.events == reference.metrics.events == len(events)
    assert engine.metrics.outputs == reference.metrics.outputs

    # The batch lanes say they materialised: one tick per registration
    # per batch, under its plan's reason — these executors are not
    # vectorized, so the guard itself chose no walk.
    batches = len(events) // CHUNK if lane in LANES[2:] else 0
    for name in engine.query_names:
        assert registry.value(
            "repro_columnar_declined_total", query=name,
            reason="not_vectorized",
        ) == batches
        assert registry.value(
            "repro_columnar_declined_total", query=name, reason="supervised"
        ) == 0


@pytest.mark.parametrize("lane", LANES)
def test_auto_restart_backoff_counts_events_not_batches(lane):
    engine = SupervisedStreamEngine(
        quarantine_after=2, auto_restart_events=10
    )
    flaky = FaultyExecutor(ASeqEngine(ab_query("flaky")), fail_at=range(6))
    engine.register_executor("flaky", flaky)
    feed(engine, stream(120), lane)
    # Events 1-2 fail: quarantined, retry at 12. 12-13 fail: retry at
    # 33. 33-34 fail: retry at 74, from where it stays healthy.
    assert flaky.offered == 6 + (120 - 74 + 1)
    assert engine.health_of("flaky") == {
        "quarantined": False,
        "consecutive_failures": 0,
        "failures_total": 6,
        "retry_at_event": None,
    }


@pytest.mark.parametrize("lane", LANES)
def test_dlq_overload_policies_through_every_entry_point(lane):
    engine, _ = poison_engine(
        quarantine_after=100, dlq_capacity=4, overload_policy="raise"
    )
    with pytest.raises(OverloadError):
        feed(engine, stream(20), lane)
    engine, _ = poison_engine(quarantine_after=100, dlq_capacity=4)
    feed(engine, stream(20), lane)
    assert len(engine.dlq) == 4
    assert engine.dlq.shed == 16


@pytest.mark.parametrize("lane", LANES)
def test_checkpoint_cadence_and_recovery_from_every_entry_point(
    tmp_path, lane
):
    events = abz_stream(112)
    queries = [
        ab_query("ab"),
        seq("A", "B").count().within(ms=40).named("wide").build(),
    ]
    journal = EventJournal(tmp_path)
    engine = SupervisedStreamEngine(journal=journal)
    checkpointer = Checkpointer(engine, journal, every_events=100)
    engine.attach_checkpointer(checkpointer)
    for query in queries:
        engine.register(query)
    feed(engine, events[:96], lane)
    assert checkpointer.last_path is None
    feed(engine, events[96:], lane)
    assert checkpointer.last_path is not None
    journal.close()

    oracle = StreamEngine()
    for query in queries:
        oracle.register(query)
    oracle.run(events)
    recovered = recover(tmp_path, reattach_journal=False)
    assert recovered.results() == oracle.results() == engine.results()
    assert recovered.events_replayed <= 12
    # With the checkpoints gone, the journal alone replays to the same.
    for path in list_checkpoints(tmp_path):
        path.unlink()
    replayed = recover(tmp_path, queries=queries, reattach_journal=False)
    assert replayed.events_replayed == len(events)
    assert replayed.results() == oracle.results()


def test_rejected_batch_reaches_neither_journal_nor_executors(tmp_path):
    engine = SupervisedStreamEngine(journal=EventJournal(tmp_path))
    engine.register(ab_query())
    engine.process_event_batch(EventBatch.from_events(stream(4)))
    with pytest.raises(OutOfOrderError):
        engine.process_event_batch(EventBatch.from_events(stream(2)))
    assert engine.journal.next_seq == 4
    assert engine.metrics.events == 4


def test_event_batch_materialises_only_routed_rows_and_guards_alike(
    tmp_path, monkeypatch
):
    """A routed supervised engine journals a columnar batch as itself
    and builds events only for the rows a route reads; dead letters
    (under their positional journal sequence), quarantine and readmit
    ordinals, health and outputs are those of the same rows fed to
    ``process_batch`` as events."""
    events = [
        Event("A" if i % 7 == 0 else "B" if i % 11 == 0 else "Z", i + 1)
        for i in range(400)
    ]
    routed = sum(event.event_type != "Z" for event in events)

    def twin(directory):
        engine = SupervisedStreamEngine(
            routed=True, quarantine_after=2, auto_restart_events=30,
            journal=EventJournal(directory),
        )
        sinks = {"healthy": CollectSink(), "poison": CollectSink()}
        engine.register(ab_query("healthy"), sinks["healthy"])
        engine.register_executor(
            "poison",
            FaultyExecutor(ASeqEngine(ab_query("poison")), fail_at=range(9)),
            sinks["poison"],
        )
        return engine, sinks

    def triples(engine):
        return [
            (letter.query_name, letter.event, letter.journal_seq)
            for letter in engine.dlq
        ]

    batches = [
        EventBatch.from_events(events[i:i + 64])
        for i in range(0, len(events), 64)
    ]
    reference, reference_sinks = twin(tmp_path / "events")
    for batch in batches:
        reference.process_batch(batch.to_events())

    materialised = []
    to_events = EventBatch.to_events

    def counted(self):
        materialised.extend(self.schema.types[code] for code in self.codes)
        return to_events(self)

    monkeypatch.setattr(EventBatch, "to_events", counted)
    engine, sinks = twin(tmp_path / "batches")
    for batch in batches:
        engine.process_event_batch(batch)
    engine.journal.close()
    reference.journal.close()

    assert len(materialised) == routed and "Z" not in materialised
    assert triples(engine) == triples(reference)
    letters = triples(engine)
    assert len(letters) == engine.executor_of("poison").failures > 4
    assert all(events[seq] == event for _, event, seq in letters)
    for name in ("healthy", "poison"):
        assert engine.health_of(name) == reference.health_of(name)
        assert sinks[name].values() == reference_sinks[name].values()
    assert engine.results() == reference.results()
    assert engine.metrics.events == reference.metrics.events == len(events)
    monkeypatch.setattr(EventBatch, "to_events", to_events)
    assert list(read_journal(tmp_path / "batches")) == list(
        read_journal(tmp_path / "events")
    ) == list(enumerate(events))


# ----- journal backlog bound -------------------------------------------------


def test_journal_backlog_bound_forces_fsync(tmp_path):
    registry = MetricsRegistry()
    engine = SupervisedStreamEngine(
        registry=registry, max_journal_backlog_bytes=200
    )
    engine.attach_journal(
        EventJournal(tmp_path, fsync="never", registry=registry)
    )
    engine.register(ab_query())
    for event in stream(40):
        engine.process(event)
    assert registry.value("journal_fsyncs_total") > 0
    assert engine.journal.backlog_bytes <= 200 + 64


# ----- seeded plan determinism ----------------------------------------------


def test_fault_plan_is_deterministic_per_seed():
    plan_a, plan_b = FaultPlan(seed=42), FaultPlan(seed=42)
    assert plan_a.crash_point(1000) == plan_b.crash_point(1000)
    assert plan_a.failure_ordinals(100, 5) == plan_b.failure_ordinals(100, 5)
    assert FaultPlan(seed=1).crash_point(1000) != FaultPlan(
        seed=2
    ).crash_point(1000)


# ----- the guard on the columnar kernel --------------------------------------

GROUPED = (
    "PATTERN SEQ(A, !N, B) AGG SUM(B.price) WITHIN 40 ms GROUP BY volume"
)


def grouped_events(n=600, seed=5):
    import random

    rng = random.Random(seed)
    return [
        Event(rng.choice("AABBNCDZ"), i + 1, {
            "price": rng.randint(1, 40) / 2, "volume": rng.randint(1, 6),
        })
        for i in range(n)
    ]


def kernel_twin(directory, **kwargs):
    """A vectorized supervised engine: ``kernel`` runs the columnar
    kernel, ``poison`` (types C/D) is no executor the kernel runs and
    raises on every event."""
    from repro.query import parse_query

    engine = SupervisedStreamEngine(
        vectorized=True, routed=True, quarantine_after=3,
        auto_restart_events=150, journal=EventJournal(directory), **kwargs,
    )
    sinks = {"kernel": CollectSink(), "poison": CollectSink()}
    engine.register(parse_query(GROUPED), sinks["kernel"], name="kernel")
    engine.register_executor(
        "poison",
        FaultyExecutor(
            ASeqEngine(seq("C", "D").count().within(ms=10).build()),
            poison=True,
        ),
        sinks["poison"],
    )
    return engine, sinks


def test_kernel_registrations_run_columnar_beside_a_poison_one(
    tmp_path, monkeypatch
):
    from repro.query import parse_query

    events = grouped_events()
    batches = [
        EventBatch.from_events(events[i:i + 64])
        for i in range(0, len(events), 64)
    ]
    oracle = StreamEngine(routed=True, vectorized=True)
    oracle_sink = CollectSink()
    oracle.register(parse_query(GROUPED), oracle_sink, name="kernel")
    for batch in batches:
        oracle.process_event_batch(batch)

    reference, _ = kernel_twin(tmp_path / "events")
    for batch in batches:
        reference.process_batch(batch.to_events())

    materialised = []
    to_events = EventBatch.to_events

    def counted(self):
        materialised.extend(self.schema.types[code] for code in self.codes)
        return to_events(self)

    monkeypatch.setattr(EventBatch, "to_events", counted)
    registry = MetricsRegistry()
    engine, sinks = kernel_twin(tmp_path / "batches", registry=registry)
    for batch in batches:
        engine.process_event_batch(batch)
    monkeypatch.setattr(EventBatch, "to_events", to_events)

    # The kernel registration's rows never became events: only the
    # poison registration's C/D rows were made, for its walk.
    assert materialised and set(materialised) <= {"C", "D"}
    assert registry.value(
        "repro_columnar_declined_total", query="kernel", reason="supervised"
    ) == 0
    assert registry.value(
        "repro_columnar_declined_total", query="poison",
        reason="not_vectorized",
    ) == len(batches)
    assert sinks["kernel"].values() == oracle_sink.values()
    assert engine.result("kernel") == oracle.result("kernel")
    # The poison walk dead-letters, quarantines and readmits exactly as
    # the same rows offered as events.
    assert letters_of(engine) == letters_of(reference)
    assert len(engine.dlq) == engine.executor_of("poison").failures > 3
    for name in ("kernel", "poison"):
        assert engine.health_of(name) == reference.health_of(name)
    assert engine.results() == reference.results()
    engine.journal.close()
    reference.journal.close()


def test_a_kernel_failure_commits_nothing_and_the_walk_recovers(
    tmp_path, monkeypatch
):
    """A kernel call that raises once every GROUP BY partition the
    batch touches has been stepped, before anything is published, leaves
    the executor as it was; under supervision the batch's rows then
    walk per event, to the reference outputs."""
    from repro.core.checkpoint import checkpoint
    from repro.core.partition_table import PartitionTable
    from repro.query import parse_query

    query = parse_query(GROUPED)
    events = grouped_events(seed=8)
    head = EventBatch.from_events(events[:300])
    tail = EventBatch.from_events(events[300:])
    stepped = []
    run_steps = PartitionTable._run_steps

    def fail_on(executor):
        """Make the table's kernel raise after its depth steps ran over
        every touched partition (and their carried rows)."""
        assert isinstance(executor.runtime, PartitionTable)

        def steps(table, plan, counts, *args):
            run_steps(table, plan, counts, *args)
            stepped.append(counts.shape[1])
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(PartitionTable, "_run_steps", steps)

    executor = ASeqEngine(query, vectorized=True)
    plan = executor.columnar_plan(head.schema)
    executor.process_columnar(head, plan)
    before = checkpoint(executor)
    books = (executor.events_seen, executor.counter_updates)
    fail_on(executor)
    with pytest.raises(RuntimeError, match="injected"):
        executor.process_columnar(tail, executor.columnar_plan(tail.schema))
    assert stepped and stepped[0] > executor.current_objects() > 0
    assert checkpoint(executor) == before
    assert (executor.events_seen, executor.counter_updates) == books
    monkeypatch.undo()

    oracle = StreamEngine(routed=True)
    oracle_sink = CollectSink()
    oracle.register(query, oracle_sink, name="q")
    oracle.process_batch(events)

    registry = MetricsRegistry()
    engine = SupervisedStreamEngine(
        vectorized=True, routed=True, registry=registry
    )
    sink = CollectSink()
    engine.register(query, sink, name="q")
    engine.process_event_batch(head)
    fail_on(engine.executor_of("q"))
    engine.process_event_batch(tail)
    assert sink.values() == oracle_sink.values()
    assert engine.result("q") == oracle.result("q")
    assert not len(engine.dlq)
    assert engine.health_of("q")["failures_total"] == 0
    assert registry.value(
        "repro_columnar_declined_total", query="q", reason="supervised"
    ) == 1


def test_a_counter_past_int64_is_raised_not_walked(tmp_path):
    """A count past int64 belongs to the workload, not to a row: the
    guard raises it from the kernel, as the unguarded columnar lane
    does, and from the per-event lane, instead of dead-lettering the
    row and walking on with a wrapped count."""
    from repro.errors import CounterOverflowError
    from repro.query import parse_query

    query = parse_query(
        "PATTERN SEQ(A, B, C, D, E, F, G, H, I) AGG COUNT WITHIN 10000 ms"
    )
    # 455 of each of A..H, then I: a live count passes 2^63 at the
    # third I (the staircase of test_closed_form.py).
    names = [name for name in "ABCDEFGH" for _ in range(455)]
    names += ["I"] * (4096 - len(names))
    events = [Event(name, ts + 1) for ts, name in enumerate(names)]
    batches = [
        EventBatch.from_events(events[i:i + 256])
        for i in range(0, len(events), 256)
    ]

    unguarded = StreamEngine(routed=True, vectorized=True)
    unguarded.register(query, CollectSink(), name="q")
    with pytest.raises(CounterOverflowError):
        for batch in batches:
            unguarded.process_event_batch(batch)

    for lane in ("process_event_batch", "process"):
        engine = SupervisedStreamEngine(
            vectorized=True, routed=True,
            journal=EventJournal(tmp_path / lane),
        )
        sink = CollectSink()
        engine.register(query, sink, name="q")
        with pytest.raises(CounterOverflowError):
            if lane == "process":
                for event in events:
                    engine.process(event)
            else:
                for batch in batches:
                    engine.process_event_batch(batch)
        # The two exact totals the per-event lane reports before it
        # raises pass 2^63 themselves.
        assert sink.values() == (
            [455**8, 2 * 455**8] if lane == "process" else []
        )
        assert not len(engine.dlq)
        assert engine.health_of("q")["failures_total"] == 0
        engine.journal.close()
