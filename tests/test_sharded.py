"""ShardedStreamEngine: worker lifecycle, planning, and merge rules.

The result-level sharded-vs-single-process pinning lives in
``test_batch_shard_differential.py``; this file covers the machinery —
the deterministic shard hash, the partial-result merge algebra, the
sharded/local query split, the ops-plane surface, and lifecycle edges.
"""

import pytest

from conftest import random_events
from repro.engine.sharded import (
    ShardedStreamEngine,
    _merge_partials,
    shard_of,
)
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.errors import EngineError, OutOfOrderError
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.query import parse_query
from repro.resilience.journal import EventJournal

import random


GROUPED = "PATTERN SEQ(A, B) AGG {agg} WITHIN 50 ms GROUP BY g"


def _events(seed, count=2000, groups=8):
    rng = random.Random(seed)
    return random_events(
        rng,
        ["A", "B", "C"],
        count,
        attr_maker=lambda r, t: {
            "g": r.randint(0, groups - 1), "v": r.randint(1, 5)
        },
    )


def test_shard_of_is_deterministic_and_bounded():
    for key in [0, 1, "user-7", (3, "x"), 9999]:
        first = shard_of(key, 4)
        assert 0 <= first < 4
        assert shard_of(key, 4) == first


def test_merge_scalar_count_and_sum():
    query = parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 10 ms")
    assert _merge_partials(query, [3, 0, 4]) == 7
    query = parse_query("PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 10 ms")
    assert _merge_partials(query, [1.5, 2.0]) == 3.5


def test_merge_scalar_avg_folds_count_and_wsum():
    query = parse_query("PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 10 ms")
    assert _merge_partials(query, [(2, 10.0), (3, 5.0)]) == 3.0
    assert _merge_partials(query, [(0, 0.0), (0, 0.0)]) is None


def test_merge_scalar_extrema_ignore_empty_shards():
    query = parse_query("PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 10 ms")
    assert _merge_partials(query, [None, 4.0, 2.0]) == 4.0
    assert _merge_partials(query, [None, None]) is None
    query = parse_query("PATTERN SEQ(A, B) AGG MIN(B.v) WITHIN 10 ms")
    assert _merge_partials(query, [3.0, None, 7.0]) == 3.0


def test_merge_grouped_results_union_disjoint_groups():
    query = parse_query(GROUPED.format(agg="COUNT"))
    merged = _merge_partials(query, [{1: 2, 3: 4}, {2: 5}])
    assert merged == {1: 2, 3: 4, 2: 5}


def test_merge_grouped_avg():
    query = parse_query(GROUPED.format(agg="AVG(B.v)"))
    merged = _merge_partials(
        query, [{1: (2, 6.0)}, {1: (2, 2.0), 2: (0, 0.0)}]
    )
    assert merged == {1: 2.0, 2: None}


def test_merge_grouped_extrema_none_safe():
    query = parse_query(GROUPED.format(agg="MAX(B.v)"))
    merged = _merge_partials(query, [{1: None, 2: 3.0}, {1: 5.0, 2: 4.0}])
    assert merged == {1: 5.0, 2: 4.0}


def test_partitionable_queries_shard_others_run_locally():
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="grouped"
        )
        engine.register(
            parse_query("PATTERN SEQ(A, C) AGG COUNT WITHIN 20 ms"),
            name="flat",
        )
        assert engine.shard_attribute == "g"
        assert engine.query_names == ["grouped", "flat"]
        engine.run(_events(0, count=300))
        state = engine.inspect()
        assert state["sharded_queries"] == ["grouped"]
        assert state["local_queries"] == ["flat"]
        assert len(state["workers"]) == 2


def test_second_partition_attribute_falls_to_local_lane():
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="by_g"
        )
        engine.register(
            parse_query(
                "PATTERN SEQ(A, B) AGG COUNT WITHIN 50 ms GROUP BY v"
            ),
            name="by_v",
        )
        engine.run(_events(1, count=300))
        state = engine.inspect()
        # Only queries sharing the first partition attribute shard;
        # a different key would mis-route events for this query.
        assert state["sharded_queries"] == ["by_g"]
        assert state["local_queries"] == ["by_v"]


def test_register_after_start_is_rejected():
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(parse_query(GROUPED.format(agg="COUNT")), name="q")
        engine.process(Event("A", 1, {"g": 1}))
        with pytest.raises(EngineError):
            engine.register(
                parse_query(GROUPED.format(agg="COUNT")), name="late"
            )


def test_local_lane_sinks_fire_per_trigger():
    sink = CollectSink()
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(
            parse_query("PATTERN SEQ(A, C) AGG COUNT WITHIN 30 ms"),
            sink,
            name="flat",
        )
        engine.run(
            [Event("A", 1), Event("C", 2), Event("A", 3), Event("C", 4)]
        )
    # Per-TRIG emissions exactly as in the single-process engine (1
    # match at C@2, 3 at C@4); local-lane queries get no extra
    # end-of-run delivery.
    assert sink.values() == [1, 3]


def test_sharded_query_sinks_get_final_merged_result():
    sink = CollectSink()
    events = _events(2, count=400)
    with ShardedStreamEngine(shards=3, batch_size=64) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), sink, name="grouped"
        )
        engine.run(events)
        expected = engine.results()["grouped"]
    assert sink.last() is not None
    assert sink.last().value == expected


def test_query_rows_merge_worker_totals():
    events = _events(3, count=600)
    with ShardedStreamEngine(shards=2, batch_size=64) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="grouped"
        )
        engine.run(events)
        rows = engine.query_rows()
    assert len(rows) == 1
    row = rows[0]
    assert row["query"] == "grouped"
    assert row["shards"] == 2
    # Every A/B event lands on exactly one shard, so the per-shard
    # post-filter totals add back up to the stream's relevant count.
    relevant = sum(1 for e in events if e.event_type in ("A", "B"))
    assert row["events_processed"] == relevant


def test_results_before_any_event():
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="grouped"
        )
        assert engine.results() == {"grouped": {}}


def test_close_is_idempotent_and_context_manager_safe():
    engine = ShardedStreamEngine(shards=2)
    engine.register(parse_query(GROUPED.format(agg="COUNT")), name="q")
    engine.process(Event("A", 1, {"g": 0}))
    engine.close()
    engine.close()


def test_executor_of_rejects_sharded_queries():
    with ShardedStreamEngine(shards=2) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="grouped"
        )
        engine.register(
            parse_query("PATTERN SEQ(A, C) AGG COUNT WITHIN 20 ms"),
            name="flat",
        )
        assert engine.executor_of("flat") is not None
        with pytest.raises(EngineError):
            engine.executor_of("grouped")


def test_state_of_reaches_worker_executors():
    from repro.obs.inspect import state_of

    with ShardedStreamEngine(shards=2, batch_size=2) as engine:
        engine.register(
            parse_query(GROUPED.format(agg="COUNT")), name="grouped"
        )
        engine.register(
            parse_query("PATTERN SEQ(A, C) AGG COUNT WITHIN 20 ms"),
            name="flat",
        )
        engine.run(_events(5, count=200))
        sharded_state = state_of(engine, "grouped")
        assert sharded_state["kind"] == "sharded"
        assert len(sharded_state["shards"]) == 2
        assert state_of(engine, "flat") is not None
        assert state_of(engine, "nope") is None


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        ShardedStreamEngine(shards=0)
    with pytest.raises(ValueError):
        ShardedStreamEngine(batch_size=0)


def test_keyless_negated_events_broadcast_to_every_shard():
    query = parse_query(
        "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 100 ms GROUP BY g"
    )
    events = [
        Event("A", 1, {"g": 0}),
        Event("A", 2, {"g": 1}),
        Event("N", 3),  # keyless: must invalidate both groups
        Event("B", 4, {"g": 0}),
        Event("B", 5, {"g": 1}),
    ]
    from repro.engine.engine import StreamEngine

    reference = StreamEngine()
    reference.register(query, name="q")
    reference.run(events)
    with ShardedStreamEngine(shards=2, batch_size=2) as engine:
        engine.register(query, name="q")
        engine.run(events)
        assert engine.results() == reference.results()


@pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
def test_batch_order_gate_does_not_depend_on_the_wal(tmp_path, wal):
    """A batch that runs backwards past per-event ingest is refused
    whether or not a router WAL is attached, before any row of it is
    counted, journaled or routed."""
    query = parse_query(GROUPED.format(agg="COUNT"))
    first = Event("A", 100, {"g": 1})
    backwards = EventBatch.from_events(
        [Event("B", 50, {"g": 1}), Event("B", 60, {"g": 2})]
    )
    reference = StreamEngine()
    reference.register(query, name="q")
    reference.process(first)
    settings = dict(shards=2, batch_size=4)
    if wal:
        settings["journal_dir"] = tmp_path / "shards"
    with ShardedStreamEngine(**settings) as engine:
        engine.register(query, name="q")
        if wal:
            engine.attach_router_log(EventJournal(tmp_path / "wal"))
        engine.process(first)
        with pytest.raises(OutOfOrderError):
            engine.process_event_batch(backwards)
        assert engine.metrics.events == 1
        assert engine.results() == reference.results()

