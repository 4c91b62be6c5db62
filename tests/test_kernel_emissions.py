"""The GROUP BY kernel's ranking and the kernels' columnar emissions.

The partition table ranks a batch's rows by key with no comparison sort
(16-bit radix passes over each key's offset from the batch minimum),
and every kernel returns its TRIG emissions as columns ``(positions,
ts, values, labels)`` that become ``(ts, fresh)`` pairs or ``Output``
objects only where something reads them. Neither may be observable:
outputs, results, every accounting figure and the ``(ts, fresh)``
pairs of ``ASeqEngine.process_columnar`` are those of per-event
runtimes, whatever the key column's dtype and range and whether a sink
is attached.
"""

import hashlib

import numpy as np
import pytest

from repro.core.executor import ASeqEngine
from repro.core.partition_table import (
    _RADIX_MIN_ROWS,
    PartitionTable,
    _stable_order,
)
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.events.batch import BatchSchema, EventBatch
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query

TYPES = ("A", "B", "C", "N", "Z")

GRID_QUERIES = [
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 60 ms GROUP BY k",
    "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 60 ms GROUP BY k",
    "PATTERN SEQ(A, B, !N, C) AGG AVG(C.v) WITHIN 60 ms GROUP BY k",
    "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 60 ms GROUP BY k",
    "PATTERN SEQ(A, !N, B) AGG MIN(A.v) WITHIN 60 ms GROUP BY k",
    "PATTERN SEQ(A, B, C) AGG SUM(A.v) WITHIN 60 ms GROUP BY k",
]


def stream(seed, rows, keys):
    """``rows`` events over ``TYPES`` as columns: timestamps rising by 0
    or 1 ms (ties included), keys uniform in ``[0, keys)``, values on a
    1/8 grid."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, len(TYPES), rows),
        np.cumsum(rng.integers(0, 2, rows)) + 1,
        {
            "k": rng.integers(0, keys, rows),
            "v": rng.integers(1, 400, rows) / 8,
        },
    )


def batches(columns, size, schema=None):
    codes, ts, cols = columns
    schema = schema or BatchSchema(TYPES, tuple(cols))
    return [
        EventBatch(
            schema, codes[start:start + size], ts[start:start + size],
            {
                name: column[start:start + size]
                for name, column in cols.items()
            },
        )
        for start in range(0, len(codes), size)
    ]


def books(engine, executor):
    """Everything an engine and its executor count, per partition too."""
    return {
        "outputs": engine.metrics.outputs,
        "events": engine.metrics.events,
        "seen": executor.events_seen,
        "processed": executor.events_processed,
        "updates": executor.counter_updates,
        "peak": executor.peak_objects,
        "objects": executor.current_objects(),
        "partitions": [
            (
                key, partition.events_processed, partition.counter_updates,
                partition.peak_counters, partition.current_objects(),
            )
            for key, partition in executor.runtime.partitions()
        ],
    }


def run(text, parts, vectorized, sink=True, registry=None):
    """``parts`` through a routed ``StreamEngine``: the columnar lane's
    ``process_event_batch`` when ``vectorized``, else per-event runtimes
    over the materialised events."""
    engine = StreamEngine(
        routed=True, vectorized=vectorized, registry=registry
    )
    collected = CollectSink()
    sinks = (collected,) if sink else ()
    executor = engine.register(parse_query(text), *sinks, name="q")
    for batch in parts:
        if vectorized:
            engine.process_event_batch(batch)
        else:
            engine.process_batch(batch.to_events())
    outputs = [(o.query_name, o.ts, o.value) for o in collected.outputs]
    return engine, executor, outputs


# ----- the grid: the table against per-event partitions ----------------------


@pytest.mark.parametrize("size", [97, 256, 4096])
@pytest.mark.parametrize("keys", [4, 64, 100_000])
@pytest.mark.parametrize("text", GRID_QUERIES)
def test_the_table_matches_per_event_partitions(text, keys, size):
    columns = stream(len(text) * 7 + keys % 97 + size, 6_000, keys)
    engine, executor, outputs = run(text, batches(columns, size), True)
    assert isinstance(executor.runtime, PartitionTable)
    assert executor.runtime.inspect()["kernel_batches"]["batches"] > 0
    reference, expected_executor, expected = run(
        text, batches(columns, size), False
    )
    assert outputs == expected
    assert len(outputs) == engine.metrics.outputs > 0
    assert engine.results() == reference.results()
    assert books(engine, executor) == books(reference, expected_executor)


# ----- ranking: every branch orders as a stable sort by value ----------------


INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)

KEY_COLUMNS = {
    "narrow": np.array([9, 3, 3, 60_000, 9, 0, 3, 12], dtype=np.int64),
    "sixteen_bits": np.array([65_535, 17, 17, 0, 65_535], dtype=np.int64),
    "past_sixteen_bits": np.array([65_536, 17, 17, 0], dtype=np.int64),
    "wide": np.array([1 << 40, 5, -(1 << 40), 5, 1 << 40], dtype=np.int64),
    "negative": np.array([-3, -60_000, -3, -1, -60_000, 0], dtype=np.int64),
    "int64_extremes": np.array(
        [INT64.max, INT64.min, INT64.max - 1, INT64.min, INT64.max],
        dtype=np.int64,
    ),
    "near_int64_max": np.array(
        [INT64.max, INT64.max - 60_000, INT64.max, INT64.max - 1],
        dtype=np.int64,
    ),
    "near_int64_min": np.array(
        [INT64.min + 5, INT64.min, INT64.min + 5, INT64.min + 60_000],
        dtype=np.int64,
    ),
    "uint64": np.array(
        [UINT64.max, UINT64.max - 60_000, UINT64.max, UINT64.max - 1],
        dtype=np.uint64,
    ),
    "uint64_wide": np.array([UINT64.max, 3, 1 << 63, 3], dtype=np.uint64),
    "int32_full_range": np.array(
        [2**31 - 1, -(2**31), 0, 2**31 - 1, -(2**31)], dtype=np.int32
    ),
    "int16": np.array([-5, 300, -5, 0], dtype=np.int16),
    "bool": np.array([True, False, True, True, False]),
    "one_row": np.array([42], dtype=np.int64),
}

#: Ranges past 16 bits: the comparison sort stays.
WIDE = {
    "past_sixteen_bits", "wide", "int64_extremes", "uint64_wide",
    "int32_full_range",
}


@pytest.mark.parametrize("name", sorted(KEY_COLUMNS))
def test_the_key_order_is_the_stable_sort(name, monkeypatch):
    # Repeated past the cut-over, so the radix ranking runs (ties too).
    column = np.resize(KEY_COLUMNS[name], 2 * _RADIX_MIN_ROWS + 3)
    radix = []
    argsort = np.argsort

    def counting(array, **kwargs):
        radix.append(array.dtype.itemsize <= 2)  # numpy's radix sort
        return argsort(array, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    order = _stable_order(column)
    monkeypatch.setattr(np, "argsort", argsort)
    assert order.tolist() == np.argsort(column, kind="stable").tolist()
    # Ranges past 16 bits keep the comparison sort.
    assert radix == [name not in WIDE]
    # Under the cut-over it is numpy's stable sort, whatever the range.
    short = KEY_COLUMNS[name]
    assert _stable_order(short).tolist() == np.argsort(
        short, kind="stable"
    ).tolist()


GROUPED = "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 30 ms GROUP BY k"


def key_stream(column, rows=3_000, seed=3):
    """``rows`` events whose key column draws from ``column``'s values."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, len(TYPES), rows),
        np.cumsum(rng.integers(0, 2, rows)) + 1,
        {
            "k": rng.choice(column, rows),
            "v": rng.integers(1, 400, rows) / 8,
        },
    )


KEYED_STREAMS = {
    **{
        name: column for name, column in KEY_COLUMNS.items()
        if name != "one_row"
    },
    "float": np.array([0.5, -2.25, 1e300, 0.5, -0.0, 7.0]),
    "string": np.array(["x", "yy", "x", "zzz", ""]),
}


@pytest.mark.parametrize("size", [7, 1024])
@pytest.mark.parametrize("name", sorted(KEYED_STREAMS))
def test_each_key_dtype_groups_as_the_per_event_partitions(name, size):
    columns = key_stream(KEYED_STREAMS[name])
    engine, executor, outputs = run(GROUPED, batches(columns, size), True)
    reference, expected_executor, expected = run(
        GROUPED, batches(columns, size), False
    )
    assert executor.runtime.inspect()["kernel_batches"]["walked"] == 0
    assert outputs == expected
    assert engine.results() == reference.results()
    assert books(engine, executor) == books(reference, expected_executor)


# ----- emissions: nothing depends on whether a sink reads them ---------------


@pytest.mark.parametrize("text", [
    GRID_QUERIES[1],
    GRID_QUERIES[3],
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 60 ms",
    "PATTERN SEQ(A, !N, B) AGG AVG(B.v) WITHIN 60 ms",
])
def test_a_sink_changes_no_figure(text):
    columns = stream(17, 5_000, 64)

    def figures(sink):
        registry = MetricsRegistry()
        engine, executor, outputs = run(
            text, batches(columns, 512), True, sink, registry
        )
        counters = {
            (metric.name, metric.labels): metric.value
            for metric in registry.metrics()
            if metric.kind == "counter"
        }
        return (
            engine.metrics.outputs, repr(engine.results()),
            executor.events_seen, executor.counter_updates, counters,
        ), outputs

    with_sink, outputs = figures(True)
    without_sink, nothing = figures(False)
    assert with_sink == without_sink
    assert len(outputs) == with_sink[0] > 0 and nothing == []


#: sha256 of ``repr`` of the ``(ts, fresh)`` pairs each plan's
#: ``process_columnar`` returned before emissions became columns.
PAIRS_DIGESTS = {
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 60 ms": (
        "06ae1663cbb0254b76a7f2b3898c6915"
        "110e2fd04025c1ff4c7c6986ccb8a39d"
    ),
    "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 60 ms": (
        "803082e766aa8328312ebb9a67b9747a"
        "ae3bd33083d2c3e03b65adc2adc72f7c"
    ),
    "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 60 ms": (
        "48e9524aaddf0777dd368fd6347c5b66"
        "f45a6b53f24c82c3511bc7fabad18a85"
    ),
    GRID_QUERIES[0]: (
        "fd1ab577fe0339d46ff5e0c0b0617289"
        "e277a8bd2770e506ed1f92948626bbdb"
    ),
    GRID_QUERIES[2]: (
        "eae98728b9d03938bb14a078fa0e6fce"
        "34faad8f14b7a61f00bb2fbaeb35b43e"
    ),
    GRID_QUERIES[4]: (
        "6558c8dac1b7352f22c959373362e3cd"
        "1cb4ce9d5a826637b27113813892579e"
    ),
}


def columnar_pairs(text, size):
    executor = ASeqEngine(parse_query(text), vectorized=True)
    pairs = []
    for batch in batches(stream(23, 3_000, 16), size):
        emitted, _ = executor.process_columnar(
            batch, executor.columnar_plan(batch.schema), routed=False
        )
        pairs += emitted
    return pairs


@pytest.mark.parametrize("text", sorted(PAIRS_DIGESTS))
def test_process_columnar_returns_the_same_pairs(text):
    # 1024-row calls take the closed form on the flat COUNT, 16-row ones
    # the row loop; both give the per-event pairs.
    pairs = columnar_pairs(text, 1024)
    assert columnar_pairs(text, 16) == pairs
    reference = ASeqEngine(parse_query(text))
    assert pairs == [
        (event.ts, fresh)
        for batch in batches(stream(23, 3_000, 16), 3_000)
        for event in batch.to_events()
        if (fresh := reference.process(event)) is not None
    ]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        PAIRS_DIGESTS[text]
    )
