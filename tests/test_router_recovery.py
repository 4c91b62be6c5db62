"""Differential kill-the-ROUTER suite: exact recovery of the whole
sharded engine after the coordinating process itself dies.

The contract under test closes the last single point of failure: with
a router WAL attached (one journal + periodic router checkpoints) and
durable shard journals, SIGKILLing the *router* mid-stream and calling
``recover_router`` resumes the run bit-identically — the recovered
engine finishes the stream and its merged results equal an
uninterrupted single-process reference. Workers are reconciled from
their own checkpoints + journals; the WAL suffix replays with
per-shard count-skip; anything conservatively redelivered is dropped
by the workers' dedup cursors.

Per-event ingest waits in the router's pending batch, which is
appended to the WAL as one record ahead of its sends, so a router
death can lose events ingested after the last flush — events that
provably reached no shard. The recovered engine's ``metrics.events``
is therefore the resume position (the source continues from that
offset), and ``flush()`` is the explicit durability ack that pins it
exactly.

Crashes are simulated two ways: in-process (stop the monitor, SIGKILL
every worker, abandon the engine without close/flush — exactly the
state a dead router leaves behind) and once for real (a subprocess
router SIGKILLed from outside). Everything is seeded through
``REPRO_FAULT_SEED``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from conftest import random_events
from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine, shard_of
from repro.errors import CheckpointError, EngineError, JournalError
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.query import parse_query
from repro.resilience.checkpointer import (
    list_checkpoints,
    load_latest_checkpoint,
)
from repro.resilience.faults import FaultPlan, fault_seed, tear_journal_tail
from repro.resilience.journal import EventJournal, list_segments, read_journal
from repro.resilience.router_recovery import recover_router

SEEDS = [fault_seed(0) * 101 + offset for offset in (0, 1, 2)]

QUERIES = {
    "count": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "sum": "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g",
    "avg": "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 40 ms GROUP BY g",
    "max": "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 40 ms GROUP BY g",
    "min": "PATTERN SEQ(A, B) AGG MIN(B.v) WITHIN 40 ms GROUP BY g",
    "neg": "PATTERN SEQ(A, !C, B) AGG COUNT WITHIN 40 ms GROUP BY g",
}

ENGINE_SETTINGS = dict(
    batch_size=32,
    heartbeat_interval_s=0.05,
    heartbeat_max_missed=2,
    checkpoint_every_batches=4,
)


def _attrs(rng, _event_type):
    return {"g": rng.randrange(16), "v": rng.randrange(1000)}


def _stream(plan: FaultPlan, count: int):
    return random_events(plan.rng, "ABC", count, attr_maker=_attrs)


def _reference(events) -> dict:
    engine = StreamEngine()
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    for event in events:
        engine.process(event)
    engine.advance_clock(events[-1].ts)
    return engine.results()


def _journaled(tmp_path, shards, checkpoint_every=150,
               **overrides) -> ShardedStreamEngine:
    settings = dict(
        ENGINE_SETTINGS,
        shards=shards,
        journal_dir=tmp_path / "shards",
        router_checkpoint_every=checkpoint_every,
    )
    settings.update(overrides)
    engine = ShardedStreamEngine(**settings)
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    engine.attach_router_log(EventJournal(tmp_path))
    return engine


def _crash_router(engine: ShardedStreamEngine) -> None:
    """Leave behind exactly what a SIGKILL'd router leaves: dead
    workers, un-closed journals, no flush, no checkpoint — events
    pending in the router since the last flush are lost, just as a
    real SIGKILL would lose them."""
    monitor = engine._monitor
    if monitor is not None:
        # A heartbeat round already in flight must not respawn the
        # workers we are about to kill (stop() joins with a timeout).
        monitor._revive = lambda shard, reason: None
        monitor.stop()
        engine._monitor = None
    for worker in engine._workers:
        process = worker.process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
    for worker in engine._workers:
        if worker.process is not None:
            worker.process.join(timeout=10)
    engine._closed = True  # the crashed instance is never reused


def _recover(tmp_path, **overrides) -> ShardedStreamEngine:
    """``recover_router`` with the crashed run's queries as the
    from-scratch inputs (callers add its ``shards=``): a crash before
    the first router checkpoint needs them, and a surviving checkpoint
    stays authoritative over them."""
    settings = dict(ENGINE_SETTINGS, queries=[
        parse_query(text, name=name) for name, text in QUERIES.items()
    ])
    settings.update(overrides)
    settings.pop("journal_dir", None)
    return recover_router(tmp_path, **settings)


# ----- the differential matrix ----------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_router_sigkill_mid_stream_is_exact(tmp_path, seed, shards):
    """Kill the router at a seeded offset; recover; finish the stream;
    merged results stay bit-identical to the reference — across every
    aggregate shape, negation, and GROUP BY at once."""
    plan = FaultPlan(seed)
    events = _stream(plan, 900)
    expected = _reference(events)
    crash_at = plan.crash_point(len(events))
    engine = _journaled(tmp_path, shards)
    for event in events[:crash_at]:
        engine.process(event)
    _crash_router(engine)
    recovered = _recover(tmp_path, shards=shards)
    try:
        # The resume position trails the crash point by at most the
        # records staged since the last group commit (none of which
        # were ever delivered); the source resumes from it.
        resume = recovered.metrics.events
        assert crash_at - 32 * (shards + 1) <= resume <= crash_at
        for event in events[resume:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_router_sigkill_mid_columnar_stream_is_exact(
    tmp_path, seed, transport, monkeypatch
):
    """The columnar ingest lane under a router SIGKILL: feed the stream
    as struct-of-arrays batches (which the WAL-attached engine journals
    one record per batch and routes columnar — the per-event entry
    point raises if anything falls back to it), crash at a seeded
    offset, recover, finish the stream columnar — merged results stay
    bit-identical over both transports."""
    from repro.events.batch import EventBatch

    def no_per_event_lane(self, event):
        raise AssertionError("a router WAL forced the per-event lane")

    monkeypatch.setattr(ShardedStreamEngine, "process", no_per_event_lane)

    def feed_batches(engine, records):
        for start in range(0, len(records), 64):
            engine.process_event_batch(
                EventBatch.from_events(records[start:start + 64])
            )

    plan = FaultPlan(seed)
    events = _stream(plan, 900)
    expected = _reference(events)
    crash_at = plan.crash_point(len(events))
    engine = _journaled(tmp_path, 2, transport=transport)
    feed_batches(engine, events[:crash_at])
    _crash_router(engine)
    recovered = _recover(tmp_path, shards=2, transport=transport)
    try:
        resume = recovered.metrics.events
        assert crash_at - 32 * 3 <= resume <= crash_at
        feed_batches(recovered, events[resume:])
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_recovery_without_any_router_checkpoint(tmp_path):
    """checkpoint cadence 0: nothing but the WAL survives. Recovery is
    a from-scratch replay and still exact (queries re-supplied)."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 500)
    expected = _reference(events)
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    for event in events[:300]:
        engine.process(event)
    engine.flush()  # durability ack: all 300 events hit the WAL
    _crash_router(engine)
    queries = [parse_query(text, name=name)
               for name, text in QUERIES.items()]
    recovered = _recover(tmp_path, shards=2, queries=queries)
    try:
        assert recovered.events_replayed == 300
        for event in events[300:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_surviving_router_checkpoint_wins_over_supplied_queries(tmp_path):
    """From-scratch inputs are a fallback: with a router checkpoint on
    disk, its query set is registered, not the one passed in."""
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 600)
    expected = _reference(events)
    engine = _journaled(tmp_path, 2)
    for event in events[:400]:
        engine.process(event)
    _crash_router(engine)
    stranger = parse_query(QUERIES["count"], name="stranger")
    recovered = _recover(tmp_path, shards=2, queries=[stranger])
    try:
        assert sorted(recovered.query_names) == sorted(QUERIES)
        for event in events[recovered.metrics.events:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_scrape_flush_commits_the_wal_before_it_sends(tmp_path):
    """Every buffered record leaves the router through one procedure
    that group-commits the WAL first — a ``/queries`` scrape included.
    The scrape-path flush used to send without committing, so a shard
    journal could hold records the durable WAL did not (shard journal
    at seq 10, router WAL at 0) and a crash right after lost them from
    the WAL while the worker kept them."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 500)
    expected = _reference(events)
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    log = engine._router_log
    for event in events[:10]:  # below batch_size: nothing sent yet
        engine.process(event)
    assert [worker.log.next_seq for worker in engine._workers] == [0, 0]
    assert log.next_seq == 0
    engine.query_rows()  # the scrape flushes every buffer, best-effort
    assert sum(worker.log.next_seq for worker in engine._workers) == 10
    assert log.next_seq == 10 and not engine._pending
    _crash_router(engine)
    queries = [parse_query(text, name=name)
               for name, text in QUERIES.items()]
    recovered = _recover(tmp_path, shards=2, queries=queries)
    try:
        assert recovered.metrics.events == 10
        for event in events[10:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_recovery_replays_broadcasts_and_unsharded_types(tmp_path):
    """WAL replay goes through the same routing body as live ingest,
    so the two branches that do not hash a key — a keyless negated
    event broadcast to every shard, and a type only the local lane
    reacts to — recover exactly too (count-skip per shard, local-lane
    sinks detached)."""
    from repro.engine.sinks import CollectSink

    local_text = "PATTERN SEQ(A, Z) AGG COUNT WITHIN 40 ms"

    def attrs(rng, event_type):
        if event_type == "Z" or (event_type == "C" and rng.random() < 0.5):
            return {"v": rng.randrange(1000)}  # no partition key
        return _attrs(rng, event_type)

    plan = FaultPlan(SEEDS[1])
    events = random_events(plan.rng, "ABCZ", 900, attr_maker=attrs)
    reference = StreamEngine()
    reference_sink = CollectSink()
    for name, text in QUERIES.items():
        reference.register(parse_query(text), name=name)
    reference.register(parse_query(local_text), reference_sink, name="flat")
    for event in events:
        reference.process(event)
    reference.advance_clock(events[-1].ts)

    # Past the first router checkpoint (cadence 150), short of the end.
    crash_at = 300 + plan.crash_point(500)
    engine = _journaled(tmp_path, 3)
    before = CollectSink()
    engine.register(parse_query(local_text), before, name="flat")
    for event in events[:crash_at]:
        engine.process(event)
    assert engine.inspect()["local_queries"] == ["flat"]
    _crash_router(engine)
    after = CollectSink()
    recovered = _recover(tmp_path, sinks={"flat": [after]})
    try:
        resume = recovered.metrics.events
        assert recovered.events_replayed > 0
        assert not after.outputs  # replay does not re-emit
        for event in events[resume:]:
            recovered.process(event)
        assert recovered.results() == reference.results()
        resumed_at = events[resume - 1].ts
        emitted = [
            (o.ts, o.value) for o in before.outputs if o.ts <= resumed_at
        ] + [(o.ts, o.value) for o in after.outputs]
        assert emitted == [(o.ts, o.value) for o in reference_sink.outputs]
    finally:
        recovered.close()


def test_recover_twice_survives_a_second_crash(tmp_path):
    """The recovered engine is immediately crash-safe again: the WAL
    reattaches and a second SIGKILL recovers just as exactly."""
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 900)
    expected = _reference(events)
    engine = _journaled(tmp_path, 3)
    for event in events[:300]:
        engine.process(event)
    _crash_router(engine)
    second = _recover(tmp_path, router_checkpoint_every=150)
    for event in events[second.metrics.events:600]:
        second.process(event)
    _crash_router(second)
    third = _recover(tmp_path, router_checkpoint_every=150)
    try:
        for event in events[third.metrics.events:]:
            third.process(event)
        assert third.results() == expected
    finally:
        third.close()


def test_recovery_under_tcp_transport_is_exact(tmp_path):
    """Transport parity under failure: the crashed run and the
    recovered run both ride the socket transport."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 700)
    expected = _reference(events)
    engine = _journaled(tmp_path, 2, transport="tcp")
    for event in events[:400]:
        engine.process(event)
    _crash_router(engine)
    recovered = _recover(tmp_path, transport="tcp")
    try:
        for event in events[recovered.metrics.events:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_true_sigkill_of_router_process_is_exact(tmp_path):
    """The real thing: a subprocess router SIGKILLed from outside at a
    seeded crash point, recovered here, finishes the stream exactly."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 800)
    expected = _reference(events)
    crash_at = plan.crash_point(len(events))
    events_file = tmp_path / "events.pkl"
    with open(events_file, "wb") as handle:
        pickle.dump(
            [(e.event_type, e.ts, e.attrs) for e in events[:crash_at]],
            handle,
        )
    script = textwrap.dedent(
        f"""
        import pickle, sys
        from repro.engine.sharded import ShardedStreamEngine
        from repro.events.event import Event
        from repro.query import parse_query
        from repro.resilience.journal import EventJournal

        queries = {QUERIES!r}
        engine = ShardedStreamEngine(
            shards=2, batch_size=32, heartbeat_interval_s=0.05,
            heartbeat_max_missed=2, checkpoint_every_batches=4,
            journal_dir={str(tmp_path / "shards")!r},
            router_checkpoint_every=150,
        )
        for name, text in queries.items():
            engine.register(parse_query(text), name=name)
        engine.attach_router_log(EventJournal({str(tmp_path)!r}))
        with open({str(events_file)!r}, "rb") as handle:
            records = pickle.load(handle)
        for t, ts, attrs in records:
            engine.process(Event(t, ts, attrs))
        engine.flush()  # durability ack: the prefix is fully WAL'd
        print("FED", flush=True)
        sys.stdin.readline()  # hold until the test SIGKILLs us
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    router = subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        assert router.stdout.readline().strip() == "FED"
        os.kill(router.pid, signal.SIGKILL)
        assert router.wait(timeout=30) == -signal.SIGKILL
    finally:
        if router.poll() is None:
            router.kill()
            router.wait(timeout=10)
    recovered = _recover(tmp_path)
    try:
        # flush() acked the whole prefix, so recovery is position-exact.
        assert recovered.metrics.events == crash_at
        for event in events[crash_at:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


# ----- recovery bookkeeping -------------------------------------------------


def test_checkpoint_bounds_replay(tmp_path):
    """Replay length is bounded by the checkpoint cadence, not the
    stream length — the point of periodic router checkpoints."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 900)
    engine = _journaled(tmp_path, 2, checkpoint_every=100)
    for event in events:
        engine.process(event)
    _crash_router(engine)
    recovered = _recover(tmp_path)
    try:
        assert recovered.events_replayed <= 100
        # At most one checkpoint window is un-checkpointed, and at most
        # one commit group of it was still staged when the router died.
        assert len(events) - 100 <= recovered.metrics.events <= len(events)
    finally:
        recovered.close()


def test_router_checkpoint_metric_and_inspect(tmp_path):
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 400)
    settings = dict(
        ENGINE_SETTINGS,
        shards=2,
        journal_dir=tmp_path / "shards",
        router_checkpoint_every=100,
        registry=registry,
    )
    with ShardedStreamEngine(**settings) as engine:
        for name, text in QUERIES.items():
            engine.register(parse_query(text), name=name)
        engine.attach_router_log(EventJournal(tmp_path, registry=registry))
        for event in events:
            engine.process(event)
        engine.flush()  # commit the staged tail before reading counters
        assert engine.inspect()["router_journal"] is True
        assert registry.value("router_checkpoints_total") >= 3
        assert registry.value("router_wal_appends_total") == len(events)


def test_attach_router_log_guards(tmp_path):
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 50)
    # Supervised engines need durable shard journals for the WAL.
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(parse_query(QUERIES["count"]), name="count")
        with pytest.raises(EngineError):
            engine.attach_router_log(EventJournal(tmp_path))
    # Attaching after ingestion started is refused.
    with ShardedStreamEngine(
        shards=2, journal_dir=tmp_path / "shards"
    ) as engine:
        engine.register(parse_query(QUERIES["count"]), name="count")
        for event in events:
            engine.process(event)
        with pytest.raises(EngineError):
            engine.attach_router_log(EventJournal(tmp_path))


def test_recover_router_refuses_mismatched_shards(tmp_path):
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 300)
    engine = _journaled(tmp_path, 2, checkpoint_every=100)
    for event in events:
        engine.process(event)
    _crash_router(engine)
    alive = set(multiprocessing.active_children())
    with pytest.raises(CheckpointError):
        _recover(tmp_path, shards=3)
    # Refused before spawning: no orphaned workers for exit to wait on.
    assert set(multiprocessing.active_children()) <= alive


def test_recover_router_requires_wal_or_queries(tmp_path):
    with pytest.raises(CheckpointError):
        recover_router(tmp_path / "empty")


# ----- the router's journal: pending flush, records, checkpoint -------------


def test_router_log_resumes_global_sequence(tmp_path):
    log = EventJournal(tmp_path)
    events = [Event("A", index, {"g": index}) for index in range(10)]
    assert log.append_batch(events) == 0
    assert log.next_seq == 10
    log.close()
    reopened = EventJournal(tmp_path)
    assert reopened.next_seq == 10
    assert reopened.append_batch([Event("A", 10, {"g": 3})]) == 10
    reopened.close()


def test_router_log_replays_in_ingest_order(tmp_path):
    """Per-event ingest and a columnar batch keep ingest order in the
    WAL: the router's pending events are flushed as their own records
    before the batch is appended whole, as the next record."""
    events = _stream(FaultPlan(SEEDS[0]), 60)
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    try:
        for event in events[:40]:
            engine.process(event)
        engine.process_event_batch(EventBatch.from_events(events[40:50]))
        for event in events[50:]:
            engine.process(event)
        engine.flush()
        replayed = list(read_journal(tmp_path))
        assert [seq for seq, _ in replayed] == list(range(60))
        assert [event for _, event in replayed] == events
        records = [
            len(batch) for _, batch in engine._router_log.replay()
        ]
        # batch_size 32: one full pending batch, the 8 left pending
        # ahead of the columnar batch, the batch, the flushed tail.
        assert records == [32, 8, 10, 10]
    finally:
        engine.close()


def test_per_event_ingest_routes_one_batch_per_batch_size(
    tmp_path, monkeypatch
):
    """Per-event ingest fills one router-level pending batch:
    ``batch_size - 1`` events send nothing and write no WAL record; the
    ``batch_size``-th writes one record and sends each affected worker
    one batch."""
    events = _stream(FaultPlan(SEEDS[0]), ENGINE_SETTINGS["batch_size"])
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    sends: list[tuple[int, int]] = []
    send = ShardedStreamEngine._send_batch

    def recording(self, worker, batch, traced=None):
        sends.append((worker.index, len(batch)))
        return send(self, worker, batch, traced)

    monkeypatch.setattr(ShardedStreamEngine, "_send_batch", recording)
    try:
        for event in events[:-1]:
            engine.process(event)
        assert sends == []
        assert list(read_journal(tmp_path)) == []
        engine.process(events[-1])
        assert [len(batch) for _, batch in engine._router_log.replay()] == [
            len(events)
        ]
        affected = {shard_of(event.get("g"), 2) for event in events}
        assert sorted(index for index, _ in sends) == sorted(affected)
        assert sum(rows for _, rows in sends) == len(events)
    finally:
        engine.close()


def test_router_log_staged_records_need_a_commit(tmp_path):
    """Per-event ingest waits in the router's pending batch: until a
    flush (or ``batch_size`` pending events) nothing of it is in the
    WAL, so a router crash loses it; ``flush()`` is the durability
    ack."""
    events = _stream(FaultPlan(SEEDS[1]), 8)
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    for event in events[:5]:
        engine.process(event)
    assert list(read_journal(tmp_path)) == []
    engine.flush()
    for event in events[5:]:
        engine.process(event)
    _crash_router(engine)
    durable = EventJournal(tmp_path)
    assert durable.next_seq == 5
    assert [event for _, event in read_journal(tmp_path)] == events[:5]
    durable.close()


def test_close_journals_pending_events_for_recovery(tmp_path):
    """A clean ``close()`` journals what is still pending without
    sending it; router recovery then delivers it to the shards."""
    events = _stream(FaultPlan(SEEDS[2]), 300)
    expected = _reference(events)
    engine = _journaled(tmp_path, 2, checkpoint_every=0)
    for event in events[:10]:  # below batch_size: all still pending
        engine.process(event)
    engine.close()
    recovered = _recover(tmp_path, shards=2)
    try:
        assert recovered.metrics.events == 10
        for event in events[10:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()


def test_router_log_drops_a_torn_commit_whole(tmp_path):
    """The journal's torn-tail rule is the commit point: a record torn
    mid-write is dropped whole on reopen, never in part."""
    log = EventJournal(tmp_path)
    log.append_batch([Event("A", index, {"g": index}) for index in range(10)])
    log.append_batch(
        [Event("A", index, {"g": index}) for index in range(10, 15)]
    )
    log.close()
    assert tear_journal_tail(tmp_path, drop_bytes=7) == 7
    reopened = EventJournal(tmp_path)
    assert reopened.next_seq == 10
    assert [event.ts for _, event in read_journal(tmp_path)] == list(
        range(10)
    )
    reopened.close()


def test_router_log_checkpoint_prunes_lane_segments(tmp_path):
    """A checkpoint prunes segments below the *oldest* retained
    generation only, so every fallback generation keeps its suffix."""
    # Tiny segments, written in small records, so pruning has
    # something to drop.
    log = EventJournal(tmp_path, segment_bytes=2048)
    for first in range(0, 500, 50):
        log.append_batch([
            Event("A", index, {"g": 1, "v": index})
            for index in range(first, first + 50)
        ])
    before = len(list_segments(tmp_path))
    state = {"version": 1, "registrations": [], "router": {}}
    for seq in (250, 500):
        log.checkpoint(dict(state, journal_seq=seq))
    assert len(list_segments(tmp_path)) < before
    assert [seq for seq, _ in read_journal(tmp_path, 250)] == list(
        range(250, 500)
    )
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))
    log.close()
    # Reopening seeds the retained generations from disk: the next
    # checkpoint still prunes below the oldest (250), not its own seq.
    reopened = EventJournal(tmp_path, segment_bytes=2048)
    reopened.checkpoint(dict(state, journal_seq=500))
    assert [seq for seq, _ in read_journal(tmp_path, 250)][0] == 250
    reopened.close()


def test_router_log_refuses_the_ingest_lane_layout(tmp_path):
    """A WAL directory written in the older lane layout is refused
    before recovery spawns a worker — never replayed as an empty WAL."""
    (tmp_path / "lane-00").mkdir()
    (tmp_path / "commits").mkdir()
    with pytest.raises(CheckpointError, match="ingest-lane layout"):
        EventJournal(tmp_path)
    alive = set(multiprocessing.active_children())
    with pytest.raises(CheckpointError, match="ingest-lane layout"):
        _recover(tmp_path, shards=2)
    assert set(multiprocessing.active_children()) <= alive


# ----- checkpoint retention and the corruption fallback ---------------------


def test_every_checkpoint_directory_keeps_three_generations(tmp_path):
    """Router and disk shard logs write through the one retention rule:
    a long run leaves at most three generations in each directory."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 1500)
    engine = _journaled(tmp_path, 2, checkpoint_every=100)
    try:
        for event in events:
            engine.process(event)
        engine.flush()
    finally:
        engine.close()
    directories = [tmp_path, *sorted((tmp_path / "shards").iterdir())]
    assert len(directories) == 3
    for directory in directories:
        assert 1 <= len(list_checkpoints(directory)) <= 3, directory


def test_fallback_over_a_corrupt_router_checkpoint_is_exact(tmp_path):
    """Segments are pruned below the *oldest* retained generation, so a
    corrupt newest checkpoint falls back to an older one whose whole
    WAL suffix is still on disk: replay covers exactly the events since
    that checkpoint, and the local lane emits every output once."""
    from repro.engine.sinks import CollectSink

    local_text = "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms"
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 2400)
    crash_at = 2000
    reference = StreamEngine()
    reference_sink = CollectSink()
    reference.register(parse_query(local_text), reference_sink, name="flat")
    for name, text in QUERIES.items():
        reference.register(parse_query(text), name=name)
    for event in events:
        reference.process(event)
    reference.advance_clock(events[-1].ts)

    engine = ShardedStreamEngine(
        **ENGINE_SETTINGS,
        shards=2,
        journal_dir=tmp_path / "shards",
        router_checkpoint_every=300,
    )
    before = CollectSink()
    engine.register(parse_query(local_text), before, name="flat")
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    engine.attach_router_log(EventJournal(tmp_path, segment_bytes=2048))
    for event in events[:crash_at]:
        engine.process(event)
    engine.flush()  # durability ack: the resume position is crash_at
    _crash_router(engine)
    list_checkpoints(tmp_path)[-1].write_text("{ torn")
    fallback, _ = load_latest_checkpoint(tmp_path)
    assert fallback["journal_seq"] < crash_at - 300

    after = CollectSink()
    recovered = _recover(tmp_path, sinks={"flat": [after]})
    try:
        assert recovered.events_replayed == (
            crash_at - fallback["journal_seq"]
        )
        resume = recovered.metrics.events
        assert resume == crash_at
        assert not after.outputs  # replay does not re-emit
        for event in events[resume:]:
            recovered.process(event)
        assert recovered.results() == reference.results()
        resumed_at = events[resume - 1].ts
        emitted = [
            (o.ts, o.value) for o in before.outputs if o.ts <= resumed_at
        ] + [(o.ts, o.value) for o in after.outputs]
        assert emitted == [(o.ts, o.value) for o in reference_sink.outputs]
    finally:
        recovered.close()
