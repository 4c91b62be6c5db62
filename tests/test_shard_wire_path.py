"""What a sharded batch crosses: the router's partition step and the
wire decode on the far side.

* ``EventBatch.from_wire`` interns decoded schemas by ``(types,
  columns)``, so the frames of one stream share one schema and a shard
  worker (or WAL replay) binds each registration's plan once, not once
  per frame.
* ``ShardedStreamEngine._send_partitions`` buckets an integer or bool
  key column with one shard lookup per distinct key; its buckets must
  be the row loop's, row for row, so shard journals and router
  recovery's count-skip replay see the same rows in the same order.
"""

import numpy as np
import pytest

import repro.events.batch as batch_module
from repro.core.executor import ASeqEngine
from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine, _Worker
from repro.events.batch import BatchSchema, EventBatch
from repro.query import parse_query
from repro.resilience.journal import EventJournal

GROUPED = "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 50 ms GROUP BY k"
TYPES = ("A", "B", "N", "Z")


def frames(count, rows=256, seed=4):
    """``count`` batches of one stream, each with a schema of its own."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(1, 3, count * rows))
    return [
        EventBatch(
            BatchSchema(TYPES, ("k", "v")),
            rng.integers(0, len(TYPES), rows),
            ts[index * rows:(index + 1) * rows],
            {"k": rng.integers(0, 16, rows), "v": rng.random(rows)},
        )
        for index in range(count)
    ]


# ----- decoded schemas are interned ------------------------------------------


def test_decoded_frames_share_one_schema_and_one_plan(monkeypatch):
    decoded = [
        EventBatch.from_wire(batch.to_wire()) for batch in frames(10)
    ]
    assert len({id(batch.schema) for batch in decoded}) == 1
    builds = []
    plan_for = ASeqEngine.columnar_plan

    def counting(self, schema):
        builds.append(schema)
        return plan_for(self, schema)

    monkeypatch.setattr(ASeqEngine, "columnar_plan", counting)
    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(GROUPED), name="g")
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 50 ms"), name="f"
    )
    for batch in decoded:
        engine.process_event_batch(batch)
    assert len(builds) == 2  # one per registration, not per frame


def test_replayed_frames_share_one_schema(tmp_path):
    journal = EventJournal(tmp_path)
    for batch in frames(4):
        journal.append_event_batch(batch)
    replayed = [batch for _, batch in journal.replay()]
    journal.close()
    assert len(replayed) == 4
    assert len({id(batch.schema) for batch in replayed}) == 1


def test_the_schema_table_stays_bounded():
    for index in range(3 * batch_module._DECODED_SCHEMAS_MAX):
        one = EventBatch(
            BatchSchema((f"T{index}",), ()), np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64), {},
        )
        decoded = EventBatch.from_wire(one.to_wire())
        assert decoded.schema.types == (f"T{index}",)
        assert len(batch_module._DECODED_SCHEMAS) <= (
            batch_module._DECODED_SCHEMAS_MAX
        )


# ----- the partition step: integer buckets are the loop's --------------------


def buckets(column, present=None, memo=None, shards=3):
    """Each worker's rows of one partition step over a batch whose key
    column is ``column``, read from the frame each worker is sent."""
    n = column.size
    batch = EventBatch(
        BatchSchema(TYPES, ("k",)),
        np.arange(n) % len(TYPES),
        np.arange(1, n + 1),
        {"k": column},
        {} if present is None else {"k": present},
    )
    engine = ShardedStreamEngine(shards=shards, supervise=False)
    engine.register(
        parse_query("PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 9 ms GROUP BY k")
    )
    engine._workers = [_Worker(index) for index in range(shards)]
    if memo is not None:
        engine._shard_of_key.update(memo)
    sent = {}
    engine._send_batch = lambda worker, sub, traced=None: sent.setdefault(
        worker.index, sub.ts.tolist()
    )
    engine._send_partitions(batch)
    engine.flush()  # the step buffers each worker's rows as one frame
    # Rows are numbered by their timestamps (1-based).
    return [[ts - 1 for ts in sent.get(index, [])] for index in range(shards)]


rng = np.random.default_rng(8)
KEYS = {
    "small": rng.integers(0, 40, 2_000),
    "negative": rng.integers(-50, 50, 2_000),
    "wide": rng.integers(-(2**62), 2**62, 2_000),
    "int32": rng.integers(-1000, 1000, 2_000).astype(np.int32),
    "uint64": rng.integers(0, 2**40, 2_000).astype(np.uint64) + (2**63),
    "bool": rng.integers(0, 2, 2_000).astype(bool),
    "past_the_memo_cap": np.arange(70_000, dtype=np.int64)[::-1].copy(),
}


@pytest.mark.parametrize("name", sorted(KEYS))
@pytest.mark.parametrize("keyless", [False, True])
def test_integer_buckets_are_the_loops(name, keyless):
    column = KEYS[name]
    present = None
    if keyless:
        present = np.random.default_rng(3).random(column.size) > 0.2
    # An ``object`` column of the same Python values takes the row loop.
    expected = buckets(column.astype(object), present)
    got = buckets(column, present)
    assert got == expected
    assert all(bucket == sorted(bucket) for bucket in got)
    relevant = [row for row in range(column.size) if row % 4 != 3]
    assert sorted(set().union(*map(set, got))) == relevant


def test_integer_buckets_read_a_full_memo_as_the_loop_does():
    # The memo is full: keys past the cap are hashed on every step; the
    # memoized ones (True hits 1's entry, as in the loop) are read.
    memo = {key: key % 3 for key in range(65_536)}
    column = np.array([1, 70_000, 5, 70_000, 1, 99_999] * 10)
    assert buckets(column, memo=dict(memo)) == buckets(
        column.astype(object), memo=dict(memo)
    )
    flags = np.array([True, False, True, True] * 10)
    assert buckets(flags, memo=dict(memo)) == buckets(
        flags.astype(object), memo=dict(memo)
    )
