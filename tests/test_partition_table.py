"""The GROUP BY partition table
(``repro.core.partition_table.PartitionTable``).

A single-attribute GROUP BY on the columnar kernel keeps every
partition's live STARTs as rows of one pair of matrices and runs one
kernel call per batch across partitions. It must be indistinguishable
from per-partition runtimes: outputs, every accounting figure, the
checkpoint document (byte for byte, in both directions), the int64
rule, and commit-or-nothing under a failing kernel call.
"""

import json
import random

import pytest

from repro.core.checkpoint import checkpoint, restore
from repro.core.executor import ASeqEngine
from repro.core.partition_table import PartitionTable
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.errors import CounterOverflowError
from repro.events import Event
from repro.events.batch import EventBatch
from repro.query import parse_query
from repro.resilience.supervisor import SupervisedStreamEngine


def columnar(executor, events, size):
    """``executor`` fed ``events`` in ``size``-row kernel calls; the
    ``(ts, fresh)`` pairs."""
    emitted = []
    for start in range(0, len(events), size):
        batch = EventBatch.from_events(events[start:start + size])
        pairs, _ = executor.process_columnar(
            batch, executor.columnar_plan(batch.schema), routed=False
        )
        emitted += pairs
    return emitted


def per_event(executor, events):
    return [
        (event.ts, fresh)
        for event in events
        if (fresh := executor.process(event)) is not None
    ]


# ----- the int64 rule, as on the flat query ----------------------------------------


LONG = (
    "PATTERN SEQ(A, B, C, D, E, F, G, H, I) AGG COUNT WITHIN 10000 ms "
    "GROUP BY k"
)


def staircase(rows, per_type, types="ABCDEFGHI"):
    """The flat staircase of ``test_closed_form.py`` under one constant
    key: ``per_type`` of every type but the last, then the last."""
    names = [name for name in types[:-1] for _ in range(per_type)]
    names += [types[-1]] * (rows - len(names))
    return [Event(name, ts + 1, {"k": 7}) for ts, name in enumerate(names)]


def test_totals_past_int64_are_exact():
    # Every TRIG adds 128^8 = 2^56 matches, so totals pass 2^63 at the
    # 128th while each count still fits int64: the call runs over
    # Python ints, and publishes int64 rows.
    query = parse_query(LONG)
    events = staircase(4096, per_type=128)
    reference = ASeqEngine(query)
    expected = per_event(reference, events)
    assert len(expected) == 3072
    assert expected[-1][1] == {7: 3072 * 2**56}
    executor = ASeqEngine(query, vectorized=True)
    assert columnar(executor, events, 4096) == expected
    runtime = executor.runtime
    assert isinstance(runtime, PartitionTable)
    assert runtime.inspect()["kernel_batches"]["wide"] == 1
    assert runtime._ints.dtype.name == "int64"
    assert executor.result() == reference.result()
    # The per-event path on the table counts the same.
    assert per_event(ASeqEngine(query, vectorized=True), events) == expected


def test_a_count_past_int64_raises_and_commits_nothing():
    # 455 of each type: a single count reaches 455^8 > 2^63.
    query = parse_query(LONG)
    events = staircase(4096, per_type=455)
    executor = ASeqEngine(query, vectorized=True)
    columnar(executor, events[:100], 100)
    before = json.dumps(checkpoint(executor))
    books = (executor.events_processed, executor.counter_updates)
    with pytest.raises(CounterOverflowError):
        columnar(executor, events[100:], 4096)
    assert json.dumps(checkpoint(executor)) == before
    assert (executor.events_processed, executor.counter_updates) == books
    with pytest.raises(CounterOverflowError):
        per_event(ASeqEngine(query, vectorized=True), events)


# ----- high cardinality --------------------------------------------------------------


def footprint(executor):
    runtime = executor.runtime
    return {
        "seen": executor.events_seen,
        "processed": executor.events_processed,
        "updates": executor.counter_updates,
        "peak": executor.peak_objects,
        "objects": executor.current_objects(),
        "partitions": runtime.partition_count,
        "books": [
            (
                key, partition.events_processed, partition.counter_updates,
                partition.peak_counters, partition.current_objects(),
            )
            for key, partition in runtime.partitions()
        ],
    }


def test_a_hundred_thousand_keys_match_the_per_event_reference():
    """Keys nearly unique per batch (about one routed row per
    partition), 256-row calls, against per-event ``SemEngine``
    partitions on outputs and on every accounting figure."""
    query = parse_query(
        "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 400 ms GROUP BY k"
    )
    rng = random.Random(41)
    # Every seventh row on one of five hot keys, so some partitions see
    # several rows per window.
    events = [
        Event(rng.choice("AABNZ"), ts, {
            "k": ts % 5 if ts % 7 == 0 else rng.randrange(100_000),
        })
        for ts in range(1, 40_001)
    ]
    reference = ASeqEngine(query)
    executor = ASeqEngine(query, vectorized=True)
    assert columnar(executor, events, 256) == per_event(reference, events)
    assert footprint(executor) == footprint(reference)
    assert executor.runtime.partition_count > 20_000
    # A batch appends the blocks it rewrites; abandoned columns are
    # reclaimed when the matrices fill, so they stay within twice the
    # most rows ever held plus a batch.
    assert executor.runtime._ints.shape[1] <= 2 * (executor.peak_objects + 256)
    assert executor.result() == reference.result()
    assert footprint(executor) == footprint(reference)


# ----- checkpoints --------------------------------------------------------------------


GROUPED = "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 10 ms GROUP BY k"

#: What per-partition runtimes checkpointed after ``HEAD`` (partition
#: ``y`` keeps a row past its own clock: it has had no arrival since).
PER_PARTITION_DOCUMENT = (
    '{"version": 1, "query": "PATTERN SEQ(A, !N, B)\\nGROUP BY k\\nAGG '
    'SUM(B.v)\\nWITHIN 10ms", "runtime": {"kind": "hpc", "now": 14, '
    '"partitions": [["x", {"kind": "vectorized", "now": 14, "counts": '
    '[[1], [1]], "exps": [23], "wsums": [[0.0], [0.5]]}], ["y", {"kind": '
    '"vectorized", "now": 5, "counts": [[0], [0]], "exps": [12], '
    '"wsums": [[0.0], [0.0]]}]]}}'
)

HEAD = [
    Event("A", 1, {"k": "x", "v": 1.5}),
    Event("A", 2, {"k": "y", "v": 2.0}),
    Event("B", 3, {"k": "x", "v": 0.25}),
    Event("A", 4, {"k": "x", "v": 1.0}),
    Event("N", 5, {"k": "y"}),
    Event("A", 13, {"k": "x", "v": 3.0}),
    Event("B", 14, {"k": "x", "v": 0.5}),
]
TAIL = [
    Event("B", 15, {"k": "y", "v": 4.0}),
    Event("A", 16, {"k": "y", "v": 1.0}),
    Event("B", 17, {"k": "x", "v": 2.0}),
    Event("B", 18, {"k": "y", "v": 1.25}),
    Event("A", 19, {"k": "z", "v": 1.0}),
    Event("B", 20, {"k": "z", "v": 8.0}),
]


@pytest.mark.parametrize("lane", ["batch", "event"])
def test_the_table_writes_the_per_partition_document(lane):
    executor = ASeqEngine(parse_query(GROUPED), vectorized=True)
    if lane == "batch":
        columnar(executor, HEAD, 3)
    else:
        per_event(executor, HEAD)
    assert json.dumps(checkpoint(executor)) == PER_PARTITION_DOCUMENT


def test_a_per_partition_document_restores_into_the_table():
    query = parse_query(GROUPED)
    document = json.loads(PER_PARTITION_DOCUMENT)
    restored = restore(query, document, vectorized=True)
    assert isinstance(restored.runtime, PartitionTable)
    assert json.dumps(checkpoint(restored)) == PER_PARTITION_DOCUMENT
    straight = ASeqEngine(query, vectorized=True)
    per_event(straight, HEAD)
    again = restore(query, document, vectorized=True)
    assert columnar(restored, TAIL, 4) == per_event(straight, TAIL) == (
        per_event(again, TAIL)
    )
    assert json.dumps(checkpoint(restored)) == json.dumps(
        checkpoint(straight)
    ) == json.dumps(checkpoint(again))


# ----- commit or nothing ---------------------------------------------------------------


def test_a_failing_kernel_call_publishes_no_key_and_the_walk_recovers(
    monkeypatch,
):
    """A raise while the TRIG totals are folded — every partition
    stepped, new keys factorized — leaves the table as it was, its new
    keys unpublished; the supervised guard then walks the batch per
    event to the reference outputs."""
    import repro.core.partition_table as table

    query = parse_query(GROUPED)
    rng = random.Random(9)
    events = [
        Event(rng.choice("AABNZ"), ts, {
            "k": rng.randrange(12 if ts < 300 else 40),
            "v": rng.randint(1, 8) / 4,
        })
        for ts in range(1, 601)
    ]
    head = EventBatch.from_events(events[:300])
    tail = EventBatch.from_events(events[300:])
    fold = table._fold

    def failing(*args, **kwargs):
        raise RuntimeError("injected kernel failure")

    executor = ASeqEngine(query, vectorized=True)
    executor.process_columnar(head, executor.columnar_plan(head.schema))
    before = json.dumps(checkpoint(executor))
    partitions = executor.runtime.partition_count
    monkeypatch.setattr(table, "_fold", failing)
    with pytest.raises(RuntimeError, match="injected"):
        executor.process_columnar(tail, executor.columnar_plan(tail.schema))
    assert json.dumps(checkpoint(executor)) == before
    assert executor.runtime.partition_count == partitions
    monkeypatch.setattr(table, "_fold", fold)

    reference = StreamEngine(routed=True)
    expected = CollectSink()
    reference.register(query, expected, name="q")
    reference.process_batch(events)
    engine = SupervisedStreamEngine(vectorized=True, routed=True)
    sink = CollectSink()
    engine.register(query, sink, name="q")
    engine.process_event_batch(head)
    monkeypatch.setattr(table, "_fold", failing)
    engine.process_event_batch(tail)
    monkeypatch.setattr(table, "_fold", fold)
    assert [(o.ts, o.value) for o in sink.outputs] == [
        (o.ts, o.value) for o in expected.outputs
    ]
    assert engine.results() == reference.results()
    assert not len(engine.dlq)
