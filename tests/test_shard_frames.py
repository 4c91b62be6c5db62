"""One shard frame per caller batch.

The router's partition step appends each worker's rows to that worker's
frame buffer and sends the buffer as one frame once it holds as many
rows as the batch being routed, or when something reads shard state
(``flush``, ``results``, a router checkpoint, a scrape). These tests pin
that a worker's kernel calls grow to the caller's batch size, that rows
whose codes or columns cannot share a frame never do, that tracing sends
the frames an untraced run sends, and that rows waiting in a buffer
survive a degrade, a migration and a router checkpoint + crash exactly.
Every case compares merged results with a single-process
:class:`StreamEngine`.
"""

from __future__ import annotations

import os
import random
import signal
import time

import numpy as np
import pytest

from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine, shard_of
from repro.events.batch import BatchSchema, EventBatch, batches_from_events
from repro.events.event import Event
from repro.obs.tracing import Stage, TraceRecorder
from repro.query import parse_query
from repro.resilience.faults import kill_shard
from repro.resilience.journal import EventJournal
from repro.resilience.membership import WorkerRegistry
from repro.resilience.router_recovery import recover_router

QUERIES = {
    "count": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "sum": "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g",
    "neg": "PATTERN SEQ(A, !C, B) AGG COUNT WITHIN 40 ms GROUP BY g",
}

#: Three of eight types concern the queries, about the ledger's share.
TYPES = ["A", "B", "C", "U", "V", "X", "Y", "Z"]

SETTINGS = dict(
    shards=2,
    heartbeat_interval_s=0.05,
    heartbeat_max_missed=2,
)


def _events(count: int, seed: int = 5, start: int = 0) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            rng.choice(TYPES),
            start + index,
            {"g": rng.randrange(16), "v": rng.randrange(100), "w": 1},
        )
        for index in range(count)
    ]


def _reference(events: list[Event]) -> dict:
    engine = StreamEngine()
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    engine.run(events)
    return engine.results()


def _engine(**overrides) -> ShardedStreamEngine:
    engine = ShardedStreamEngine(**dict(SETTINGS, **overrides))
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    return engine


def _owned(events: list[Event], shards: int = 2) -> list[list[tuple]]:
    """Each worker's rows, in order, as ``(ts, type)``."""
    rows: list[list[tuple]] = [[] for _ in range(shards)]
    for event in events:
        if event.event_type in "ABC":
            rows[shard_of(event["g"], shards)].append(
                (event.ts, event.event_type)
            )
    return rows


@pytest.fixture
def frames(monkeypatch):
    """Every frame sent: ``(worker, [(ts, type), ...], traced)``."""
    sent: list[tuple[int, list[tuple], list]] = []
    send = ShardedStreamEngine._send_batch

    def recording(self, worker, batch, traced=None):
        types = batch.schema.types
        rows = [
            (ts, types[code])
            for ts, code in zip(batch.ts.tolist(), batch.codes.tolist())
        ]
        sent.append((worker.index, rows, list(traced or ())))
        return send(self, worker, batch, traced)

    monkeypatch.setattr(ShardedStreamEngine, "_send_batch", recording)
    return sent


def _of(sent, index: int) -> list[list[tuple]]:
    return [rows for worker, rows, _ in sent if worker == index]


def _wait_for(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return bool(predicate())


# ----- frame sizing -----------------------------------------------------------


def test_ten_caller_batches_reach_each_worker_as_few_frames(frames):
    events = _events(10 * 4096)
    with _engine(vectorized=True) as engine:
        for batch in batches_from_events(events, 4096):
            engine.process_event_batch(batch)
        assert engine.results() == _reference(events)
    owned = _owned(events)
    for index in range(2):
        sent = _of(frames, index)
        assert 1 <= len(sent) <= 3
        assert [row for rows in sent for row in rows] == owned[index]
        # Every frame but the one results() flushed is a caller batch.
        assert all(len(rows) >= 4096 for rows in sent[:-1])


def test_a_durable_shard_journal_encodes_each_frame_once(
    tmp_path, monkeypatch, frames
):
    """The bytes a worker is sent are the bytes its journal records: one
    ``to_wire`` per frame with ``journal_dir`` set."""
    encoded = []
    to_wire = EventBatch.to_wire

    def counting(batch):
        encoded.append(len(batch))
        return to_wire(batch)

    monkeypatch.setattr(EventBatch, "to_wire", counting)
    events = _events(4 * 256)
    with _engine(vectorized=True, journal_dir=tmp_path) as engine:
        for batch in batches_from_events(events, 256):
            engine.process_event_batch(batch)
        assert engine.results() == _reference(events)
        assert encoded == [len(rows) for _, rows, _ in frames]
        for worker, owned in zip(engine._workers, _owned(events)):
            replayed = [
                (ts, batch.schema.types[code])
                for _, batch in worker.log.replay(0)
                for ts, code in zip(batch.ts.tolist(), batch.codes.tolist())
            ]
            assert replayed == owned


def test_per_event_flushes_share_one_schema(monkeypatch, frames):
    """The router's pending batches grow one schema, as
    ``batches_from_events`` does, so the routing LUT is built once; each
    flush's rows reach each worker as one frame."""
    events = [e for e in _events(1024) if e.event_type in "ABC"][:128]
    schemas, routes = [], []
    route = ShardedStreamEngine._send_partitions

    def recording(self, batch, skip=None):
        schemas.append(batch.schema)
        route(self, batch, skip)
        routes.append(self._columnar_route)

    monkeypatch.setattr(ShardedStreamEngine, "_send_partitions", recording)
    with _engine(batch_size=32) as engine:
        for event in events:
            engine.process(event)
        assert engine.results() == _reference(events)
    assert len(schemas) == 4
    assert all(schema is schemas[0] for schema in schemas)
    assert all(lut is routes[0] for lut in routes)
    for index in range(2):
        assert _of(frames, index) == [
            rows
            for start in range(0, len(events), 32)
            if (rows := _owned(events[start:start + 32])[index])
        ]


# ----- what may not share a frame ---------------------------------------------


def _split_at_the_boundary(frames, first, second):
    """Each worker's first frame holds exactly its rows of ``first``,
    and everything it was sent is its rows of both, in order."""
    for index in range(2):
        sent = _of(frames, index)
        head = _owned(first)[index]
        assert sent[0] == head
        assert [row for rows in sent for row in rows] == (
            head + _owned(second)[index]
        )


def test_a_schema_change_sends_the_buffer_first(frames):
    """A batch whose codes name other types than the buffered rows' is
    never concatenated with them."""
    events = _events(128)
    first, second = events[:64], events[64:]
    head = EventBatch.from_events(first)
    # Same types, other codes: concatenating would rename rows.
    tail = EventBatch.from_events(
        second,
        BatchSchema(tuple(reversed(head.schema.types)), head.schema.columns),
    )
    with _engine() as engine:
        engine.process_event_batch(head)
        assert all(worker.parts for worker in engine._workers)
        engine.process_event_batch(tail)
        assert engine.results() == _reference(events)
    _split_at_the_boundary(frames, first, second)


def test_an_extending_schema_shares_the_frame(frames):
    """A schema that only appends types keeps every buffered code's
    meaning: the rows share one frame."""
    events = _events(128)
    head = EventBatch.from_events(events[:64])
    tail = EventBatch.from_events(
        events[64:], head.schema.extended(["NEW"])
    )
    assert tail.schema is not head.schema
    with _engine() as engine:
        engine.process_event_batch(head)
        engine.process_event_batch(tail)
        assert engine.results() == _reference(events)
    for index, rows in enumerate(_owned(events)):
        assert _of(frames, index) == [rows]


@pytest.mark.parametrize("change", ["column", "mask"])
def test_a_new_column_or_mask_sends_the_buffer_first(frames, change):
    events = _events(128)
    first, second = events[:64], events[64:]
    if change == "column":
        second = [
            Event(e.event_type, e.ts, dict(e.attrs, extra=e.ts))
            for e in second
        ]
    else:  # every other row lacks "w": its column gains a mask
        second = [
            Event(
                e.event_type, e.ts,
                {k: v for k, v in e.attrs.items() if k != "w" or e.ts % 2},
            )
            for e in second
        ]
    head = EventBatch.from_events(first)
    tail = EventBatch.from_events(second, head.schema)
    assert (list(tail.cols), list(tail.present)) != (
        list(head.cols), list(head.present)
    )
    with _engine() as engine:
        engine.process_event_batch(head)
        engine.process_event_batch(tail)
        assert engine.results() == _reference(first + second)
    _split_at_the_boundary(frames, first, second)


# ----- tracing ------------------------------------------------------------------


def test_a_traced_run_sends_the_untraced_frames(frames):
    events = _events(12 * 64)
    batches = list(batches_from_events(events, 64))
    with _engine() as engine:
        for batch in batches:
            engine.process_event_batch(batch)
        expected = engine.results()
    untraced = [(index, rows) for index, rows, _ in frames]
    frames.clear()
    trace = TraceRecorder(capacity=1 << 14)
    with _engine(trace=trace, trace_sample=3) as engine:
        for batch in batches:
            engine.process_event_batch(batch)
        assert engine.results() == expected
        drained = engine.drain_trace()
    assert [(index, rows) for index, rows, _ in frames] == untraced
    assert any(len(rows) > 64 for _, rows in untraced)  # several parts
    routed = {
        span["trace_id"]: (span["ts"], span["event_type"])
        for span in drained["spans"]
        if span["stage"] == Stage.ROUTE
    }
    offsets = 0
    for _, rows, traced in frames:
        for offset, trace_id in traced:
            assert rows[offset] == routed[trace_id]
            offsets += 1
    assert offsets == len(routed)
    ingested = [
        span for span in drained["spans"]
        if span["stage"] == Stage.SHARD_INGEST
    ]
    assert ingested
    for span in ingested:
        assert (span["ts"], span["event_type"]) == routed[span["trace_id"]]


# ----- buffered rows across supervision -----------------------------------------


def test_rows_buffered_at_a_degrade_reach_the_fold_lane_in_order(
    monkeypatch,
):
    events = _events(10 * 64)
    fed: list[int] = []
    feed = ShardedStreamEngine._fold_feed

    def recording(self, worker, batch):
        fed.extend(batch.ts.tolist())
        return feed(self, worker, batch)

    monkeypatch.setattr(ShardedStreamEngine, "_fold_feed", recording)
    batches = list(batches_from_events(events, 64))
    with _engine(restart_limit=0, checkpoint_every_batches=2) as engine:
        for batch in batches[:5]:
            engine.process_event_batch(batch)
        engine.flush()
        engine.process_event_batch(batches[5])
        victim = engine._workers[0]
        buffered = [ts for part in victim.parts for ts in part.ts.tolist()]
        assert buffered
        kill_shard(engine, 0)
        assert _wait_for(lambda: 0 in engine.degraded_shards)
        for batch in batches[6:]:
            engine.process_event_batch(batch)
        assert engine.results() == _reference(events)
    later = [ts for ts, _ in _owned(events[6 * 64:])[0]]
    assert fed[-len(buffered) - len(later):] == buffered + later


def test_migrating_a_partition_with_rows_buffered_is_exact():
    events = _events(10 * 64)
    batches = list(batches_from_events(events, 64))
    fleet = WorkerRegistry(members=["m-a", "m-b"])
    engine = _engine(membership=fleet, checkpoint_every_batches=2)
    try:
        for batch in batches[:5]:
            engine.process_event_batch(batch)
        engine.process_event_batch(batches[5])
        assert engine._workers[0].parts
        owner = engine.membership_view()["routing"]["owners"][0]
        target = "m-b" if owner == "m-a" else "m-a"
        assert engine.migrate_partition(0, target) > 0.0
        assert engine._workers[0].parts  # the buffer waits for the owner
        for batch in batches[6:]:
            engine.process_event_batch(batch)
        assert engine.results() == _reference(events)
        assert engine.migrations == 1
    finally:
        engine.close()
        fleet.close()


def _crash_router(engine: ShardedStreamEngine) -> None:
    """What a SIGKILL'd router leaves: dead workers, no close, no flush;
    rows in the frame buffers are only in the router WAL."""
    monitor = engine._monitor
    if monitor is not None:
        monitor._revive = lambda shard, reason: None
        monitor.stop()
        engine._monitor = None
    for worker in engine._workers:
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)
    for worker in engine._workers:
        if worker.process is not None:
            worker.process.join(timeout=10)
    engine._closed = True


def test_a_router_checkpoint_with_rows_buffered_recovers_exactly(tmp_path):
    events = _events(12 * 64)
    batches = list(batches_from_events(events, 64))
    engine = _engine(
        journal_dir=tmp_path / "shards", checkpoint_every_batches=2
    )
    engine.attach_router_log(EventJournal(tmp_path))
    for batch in batches[:5]:
        engine.process_event_batch(batch)
    assert any(worker.parts for worker in engine._workers)
    state = engine.router_checkpoint()
    assert not any(worker.parts for worker in engine._workers)
    sent = [_owned(events[:5 * 64])[index] for index in range(2)]
    assert state["router"]["shard_delivered"] == [
        len(rows) for rows in sent
    ]
    for batch in batches[5:9]:
        engine.process_event_batch(batch)
    assert any(worker.parts for worker in engine._workers)
    _crash_router(engine)
    recovered = recover_router(
        tmp_path,
        queries=[parse_query(t, name=n) for n, t in QUERIES.items()],
        **SETTINGS,
    )
    try:
        assert recovered.metrics.events == 9 * 64
        for batch in batches[9:]:
            recovered.process_event_batch(batch)
        assert recovered.results() == _reference(events)
        recovered.flush()
        assert [worker.log.next_seq for worker in recovered._workers] == [
            len(rows) for rows in _owned(events)
        ]
    finally:
        recovered.close()


def test_frames_concatenate_columns_and_masks():
    """The frame of two joinable parts is their rows, in order, column
    by column and mask by mask."""
    from repro.events.batch import concatenated, joinable

    schema = BatchSchema(("A", "B"), ("k",))
    head = EventBatch(
        schema, np.array([0, 1]), np.array([1, 2]),
        {"k": np.array([5, 6])}, {"k": np.array([True, False])},
    )
    tail = EventBatch(
        schema.extended(["C"]), np.array([2]), np.array([3]),
        {"k": np.array([7])}, {"k": np.array([True])},
    )
    assert joinable(head, tail)
    assert not joinable(tail, head)  # the shorter schema renames nothing
    frame = concatenated([head, tail])
    assert frame.schema is tail.schema
    assert frame.codes.tolist() == [0, 1, 2]
    assert frame.ts.tolist() == [1, 2, 3]
    assert frame.cols["k"].tolist() == [5, 6, 7]
    assert frame.present["k"].tolist() == [True, False, True]
    wide = EventBatch(
        schema, np.array([0]), np.array([4]),
        {"k": np.array([7.5])}, {"k": np.array([True])},
    )
    assert not joinable(head, wide)  # another dtype
