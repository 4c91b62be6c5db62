"""Match funnel: unit semantics + path-invariance differential tests.

The differential classes are the load-bearing part: the six stage
counters must be identical whichever execution path carried the events
(per-event, routed micro-batches, vectorized, sharded), because the
stage semantics are pinned to the runtime's cost accounting, which the
PR 4 differential suite already holds bit-identical across paths.
"""

import random

import pytest

from repro.core.executor import ASeqEngine
from repro.events import Event
from repro.obs.funnel import (
    NULL_FUNNEL,
    STAGES,
    FunnelRecorder,
    NullFunnel,
    funnel_rows,
    funnel_totals,
    get_default_funnel,
    resolve_funnel,
    set_default_funnel,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.query import seq


def make_events(seed, count=600, types="ABC", keys=6, gap=25):
    rng = random.Random(seed)
    ts = 0
    events = []
    for _ in range(count):
        ts += rng.randint(1, gap)
        events.append(
            Event(rng.choice(types), ts, {"k": rng.randrange(keys)})
        )
    return events


class TestQueryFunnelUnit:
    def test_counts_start_at_zero(self):
        fq = FunnelRecorder().for_query("q")
        assert fq.counts() == {stage: 0 for stage in STAGES}

    def test_counts_reflect_increments(self):
        fq = FunnelRecorder().for_query("q")
        fq.routed.inc(3)
        fq.passed.inc(2)
        fq.extended.inc(7)
        fq.emitted.inc()
        counts = fq.counts()
        assert counts["events_routed"] == 3
        assert counts["predicate_pass"] == 2
        assert counts["runs_extended"] == 7
        assert counts["matches_emitted"] == 1
        assert counts["runs_expired"] == 0
        assert counts["negation_blocked"] == 0

    def test_note_ts_first_once_last_max(self):
        fq = FunnelRecorder().for_query("q")
        fq.routed.inc()
        fq.note_ts(50.0)
        fq.note_ts(10.0)  # earlier arrival must not rewind first_ts
        fq.note_ts(90.0)
        snap = fq.snapshot()
        assert snap["first_event_ms"] == 50.0
        assert snap["last_event_ms"] == 90.0

    def test_snapshot_span_is_none_without_routed_events(self):
        fq = FunnelRecorder().for_query("q")
        assert fq.snapshot()["first_event_ms"] is None
        assert fq.snapshot()["last_event_ms"] is None

    def test_sample_due_cadence(self):
        fq = FunnelRecorder(sample_every=4).for_query("q")
        due = [fq.sample_due() for _ in range(8)]
        assert due == [False, False, False, True] * 2

    def test_for_query_get_or_create(self):
        funnel = FunnelRecorder()
        assert funnel.for_query("a") is funnel.for_query("a")
        assert funnel.for_query("a") is not funnel.for_query("b")
        assert funnel.query_names() == ["a", "b"]

    def test_disabled_registry_falls_back_to_private(self):
        funnel = FunnelRecorder(NULL_REGISTRY)
        assert funnel.registry.enabled
        funnel.for_query("q").routed.inc()
        assert funnel.registry.value(
            "repro_funnel_events_routed_total", query="q"
        ) == 1


class TestNullFunnel:
    def test_disabled_and_shared_handle(self):
        assert not NULL_FUNNEL.enabled
        assert NULL_FUNNEL.for_query("a") is NULL_FUNNEL.for_query("b")
        assert NULL_FUNNEL.query_names() == []

    def test_all_operations_are_noops(self):
        fq = NullFunnel().for_query("q")
        fq.routed.inc(10)
        fq.note_ts(5.0)
        assert not fq.sample_due()
        assert fq.counts() == {stage: 0 for stage in STAGES}

    def test_default_install_and_restore(self):
        mine = FunnelRecorder()
        previous = set_default_funnel(mine)
        try:
            assert get_default_funnel() is mine
            assert resolve_funnel(None) is mine
            assert resolve_funnel(NULL_FUNNEL) is NULL_FUNNEL
        finally:
            set_default_funnel(previous)
        assert get_default_funnel() is previous


class TestFunnelRows:
    def test_rows_sum_shard_series(self):
        registry = MetricsRegistry()
        for shard, routed, first, last in (
            ("0", 10, 100.0, 900.0),
            ("1", 4, 250.0, 700.0),
        ):
            registry.counter(
                "repro_funnel_events_routed_total", "h",
                query="q", shard=shard,
            ).inc(routed)
            registry.gauge(
                "repro_funnel_first_event_ms", "h", query="q", shard=shard
            ).set(first)
            registry.gauge(
                "repro_funnel_last_event_ms", "h", query="q", shard=shard
            ).set(last)
        (row,) = funnel_rows(registry)
        assert row["query"] == "q"
        assert row["events_routed"] == 14
        assert row["first_event_ms"] == 100.0
        assert row["last_event_ms"] == 900.0

    def test_span_ignores_idle_shards(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_funnel_events_routed_total", "h", query="q", shard="0"
        ).inc(5)
        registry.gauge(
            "repro_funnel_first_event_ms", "h", query="q", shard="0"
        ).set(300.0)
        registry.gauge(
            "repro_funnel_last_event_ms", "h", query="q", shard="0"
        ).set(800.0)
        # Shard 1 never routed an event; its zero gauges must not
        # drag first_event_ms down to 0.
        registry.counter(
            "repro_funnel_events_routed_total", "h", query="q", shard="1"
        )
        registry.gauge(
            "repro_funnel_first_event_ms", "h", query="q", shard="1"
        )
        (row,) = funnel_rows(registry)
        assert row["first_event_ms"] == 300.0
        assert row["last_event_ms"] == 800.0

    def test_totals_fold(self):
        rows = [
            {stage: 2 for stage in STAGES},
            {stage: 3 for stage in STAGES},
        ]
        assert funnel_totals(rows) == {stage: 5 for stage in STAGES}


def run_per_event(query, events):
    funnel = FunnelRecorder()
    engine = ASeqEngine(query, funnel=funnel)
    for event in events:
        engine.process(event)
    engine.result()  # final expiry sweep, matching results() elsewhere
    return engine.funnel_counts()


def run_batched(query, events, batch=64):
    funnel = FunnelRecorder()
    engine = ASeqEngine(query, funnel=funnel)
    for start in range(0, len(events), batch):
        engine.process_batch(events[start:start + batch])
    engine.result()
    return engine.funnel_counts()


def run_vectorized(query, events):
    funnel = FunnelRecorder()
    engine = ASeqEngine(query, vectorized=True, funnel=funnel)
    for event in events:
        engine.process(event)
    engine.result()
    return engine.funnel_counts()


def run_sharded(query, events, shards=2):
    from repro.engine.sharded import ShardedStreamEngine

    funnel = FunnelRecorder()
    engine = ShardedStreamEngine(
        shards=shards, funnel=funnel, supervise=False
    )
    try:
        engine.register(query, name=query.name or "q")
        engine.run(events)
        engine.results()
        engine.refresh_cost_metrics()  # merges worker funnel snapshots
        (row,) = funnel_rows(engine.funnel.registry)
        return {stage: row[stage] for stage in STAGES}
    finally:
        engine.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestPathInvariance:
    """Identical stage counts on every execution path, per ISSUE 8."""

    def query(self):
        return (
            seq("A", "B")
            .count()
            .within(ms=200)
            .group_by("k")
            .named("q")
            .build()
        )

    def test_batched_matches_per_event(self, seed):
        events = make_events(seed)
        reference = run_per_event(self.query(), events)
        assert run_batched(self.query(), events) == reference
        assert reference["events_routed"] > 0
        assert reference["runs_extended"] > 0

    def test_vectorized_matches_per_event(self, seed):
        events = make_events(seed)
        assert run_vectorized(self.query(), events) == run_per_event(
            self.query(), events
        )

    def test_sharded_matches_per_event(self, seed):
        events = make_events(seed)
        assert run_sharded(self.query(), events) == run_per_event(
            self.query(), events
        )


class TestNegationFunnel:
    def query(self):
        return seq("A", "!C", "B").count().within(ms=200).named("q").build()

    def test_negation_blocked_counts(self):
        events = make_events(7, types="ABC")
        counts = run_per_event(self.query(), events)
        assert counts["negation_blocked"] > 0
        assert counts["runs_expired"] > 0

    def test_negation_paths_agree(self):
        events = make_events(7, types="ABC")
        reference = run_per_event(self.query(), events)
        assert run_batched(self.query(), events) == reference
        assert run_vectorized(self.query(), events) == reference


class TestColumnarFunnelParity:
    """Columnar-lane stage counts and event-time gauges must match the
    per-event path — both when the zero-object kernel engages and when
    a registration falls back through the batch materializer."""

    def run_stream_engine(self, query, events, columnar, batch=97):
        from repro.engine.engine import StreamEngine
        from repro.events.batch import batches_from_events

        funnel = FunnelRecorder()
        engine = StreamEngine(routed=True, vectorized=True, funnel=funnel)
        engine.register(query, name="q")
        if columnar:
            engine.run(batches_from_events(events, batch_size=batch))
        else:
            for event in events:
                engine.process(event)
        engine.results()
        (row,) = funnel_rows(funnel.registry)
        return row

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_lane_counts_and_watermarks(self, seed):
        query = seq("A", "B").count().within(ms=200).named("q").build()
        events = make_events(seed)
        reference = self.run_stream_engine(query, events, columnar=False)
        columnar = self.run_stream_engine(query, events, columnar=True)
        assert {s: columnar[s] for s in STAGES} == {
            s: reference[s] for s in STAGES
        }
        assert columnar["first_event_ms"] == reference["first_event_ms"]
        assert columnar["last_event_ms"] == reference["last_event_ms"]
        assert reference["events_routed"] > 0
        assert reference["runs_extended"] > 0
        assert reference["matches_emitted"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fallback_lane_matches_per_event(self, seed):
        # A scalar equivalence result sums every partition, which the
        # kernel declines: the batch→Event materializer must keep the
        # funnel identical.
        query = (
            seq("A", "B")
            .count()
            .within(ms=200)
            .where_equal("k")
            .named("q")
            .build()
        )
        events = make_events(seed)
        reference = self.run_stream_engine(query, events, columnar=False)
        columnar = self.run_stream_engine(query, events, columnar=True)
        assert {s: columnar[s] for s in STAGES} == {
            s: reference[s] for s in STAGES
        }
        assert columnar["first_event_ms"] == reference["first_event_ms"]
        assert columnar["last_event_ms"] == reference["last_event_ms"]


class TestLatencySampling:
    def test_sampled_latency_appears_in_rows(self):
        funnel = FunnelRecorder(sample_every=1)
        query = seq("A", "B").count().within(ms=200).named("q").build()
        engine = ASeqEngine(query, funnel=funnel)
        for event in make_events(3, count=200):
            engine.process(event)
        (row,) = funnel_rows(funnel.registry)
        assert row["stage_latency_us"]  # at least one stage sampled
        for stats in row["stage_latency_us"].values():
            assert stats["count"] > 0
            assert stats["mean_us"] >= 0.0
