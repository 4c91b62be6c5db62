"""Differential pinning: the columnar lane vs the reference engine.

Every consumer of :class:`EventBatch` must be bit-identical to the
per-event reference :class:`StreamEngine` (itself pinned to the
brute-force oracle in ``test_differential.py``):

* the zero-object kernel (``process_event_batch`` over COUNT / SUM /
  AVG / MAX / MIN with mask-compiled predicates, negation as the
  in-kernel Recounting Rule, single-attribute GROUP BY as one kernel
  call per partition), across seeds and batch sizes including 1 and
  larger-than-stream, on final results *and* the full
  ``(query, ts, value)`` output sequence — with ``to_events`` patched
  to raise, so a silent fallback cannot pass;
* the batch→Event fallback materializer (scalar equivalence chains,
  composite keys, Kleene, unwindowed, tracing, a batch lacking a key or
  attribute) — also pinned wholesale by the CI leg that sets
  ``REPRO_FORCE_COLUMNAR=1`` over the engine suites — and the reason
  slug each decline reports;
* the sharded flat-buffer wire, over both pipe and TCP transports;
* edge semantics: window expiry and resets straddling a batch edge,
  out-of-order timestamps rejected exactly like the per-event path
  (intra- and cross-batch), ``PredicateError`` surfacing, empty and
  size-1 batches.

Attribute values are small integers so float addition order cannot mask
a divergence — "equal" means bit-identical.
"""

import random

import pytest

from conftest import random_events
from repro.baseline.oracle import BruteForceOracle
from repro.core.checkpoint import checkpoint, restore
from repro.core.columnar import columnar_capable
from repro.core.executor import ASeqEngine
from repro.core.hpc import HPCEngine
from repro.core.partition_table import PartitionTable
from repro.core.vectorized import VectorizedSemEngine
from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine
from repro.engine.sinks import CollectSink
from repro.errors import OutOfOrderError, PredicateError
from repro.events.batch import EventBatch, batches_from_events
from repro.events.event import Event
from repro.obs.explain import render_explain
from repro.obs.funnel import FunnelRecorder
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query
from repro.resilience.faults import fault_seed

SEEDS = [fault_seed(0) * 101 + offset for offset in (0, 1, 2)]
BATCH_SIZES = [1, 7, 256, 4096]

KERNEL_QUERIES = [
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms",
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 90 ms",
    "PATTERN SEQ(A, C) AGG SUM(C.v) WITHIN 60 ms",
    "PATTERN SEQ(A, B, C) AGG AVG(C.v) WITHIN 80 ms",
    "PATTERN SEQ(B, C) AGG MAX(C.v) WITHIN 50 ms",
    "PATTERN SEQ(A, C) AGG MIN(C.v) WITHIN 50 ms",
    "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 70 ms",
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 50 ms GROUP BY g",
    "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 50 ms WHERE A.g = B.g GROUP BY g",
]

PREDICATE_QUERIES = [
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms WHERE B.v > 4",
    "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 60 ms WHERE A.v <= 3",
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms WHERE A.v != A.w",
    "PATTERN SEQ(A, B, C) AGG AVG(C.v) WITHIN 90 ms "
    "WHERE A.v < 5 AND C.v >= 2",
]

#: What the plan still declines, by reason slug: these registrations
#: are materialized with ``to_events()`` and run per event.
FALLBACK_QUERIES = {
    "scalar_equivalence":
        "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 60 ms WHERE A.g = B.g",
    "composite_key":
        "PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms WHERE A.w = B.w GROUP BY g",
    "kleene": "PATTERN SEQ(A, B+, C) AGG COUNT WITHIN 12 ms",
    "unwindowed": "PATTERN SEQ(A, B) AGG COUNT",  # DPC runtime
}


def flat_stream(seed, count=1500):
    rng = random.Random(seed)
    return random_events(
        rng,
        ["A", "B", "C", "N", "Z"],
        count,
        attr_maker=lambda r, t: {
            "v": r.randint(1, 9), "w": r.randint(1, 9),
            "g": r.randint(0, 5),
        },
    )


def reference_results(queries, events):
    engine = StreamEngine()
    for index, text in enumerate(queries):
        engine.register(parse_query(text), name=f"q{index}")
    for event in events:
        engine.process(event)
    return engine.results()


def columnar_results(queries, events, batch_size):
    engine = StreamEngine(routed=True, vectorized=True)
    for index, text in enumerate(queries):
        engine.register(parse_query(text), name=f"q{index}")
    engine.run(batches_from_events(events, batch_size=batch_size))
    return engine.results()


def kernel_engaged(engine, name):
    registration = engine._registrations[name]
    return (
        registration.columnar is not None
        and registration.columnar[1] is not None
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_kernel_queries_match_reference(seed, batch_size):
    events = flat_stream(seed)
    expected = reference_results(KERNEL_QUERIES, events)
    assert columnar_results(KERNEL_QUERIES, events, batch_size) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", [7, 256])
def test_predicate_masks_match_reference(seed, batch_size):
    events = flat_stream(seed)
    expected = reference_results(PREDICATE_QUERIES, events)
    assert (
        columnar_results(PREDICATE_QUERIES, events, batch_size) == expected
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_queries_match_reference(seed):
    events = flat_stream(seed)
    queries = list(FALLBACK_QUERIES.values())
    expected = reference_results(queries, events)
    assert columnar_results(queries, events, 113) == expected


def test_kernel_actually_engages_and_fallback_actually_falls_back():
    # Guard against the differential silently passing because every
    # registration fell back: pin which lane each query takes.
    events = flat_stream(SEEDS[0], count=300)
    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(KERNEL_QUERIES[0]), name="kernel")
    engine.register(
        parse_query(FALLBACK_QUERIES["scalar_equivalence"]), name="fallback"
    )
    engine.run(batches_from_events(events, batch_size=64))
    assert kernel_engaged(engine, "kernel")
    assert not kernel_engaged(engine, "fallback")


class TestBatchBoundaryEdges:
    def test_window_expiry_straddles_batch_edge(self):
        # A run opened in batch k must expire in batch k+1 exactly at
        # window end: events 1..4 in one batch, the trigger after the
        # boundary at ts 45 (A@1 expired, A@10 alive) and ts 52
        # (A@10 expired too).
        events = [
            Event("A", 1), Event("A", 10), Event("B", 12),
            Event("B", 45), Event("B", 52),
        ]
        query = "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms"
        expected = reference_results([query], events)
        for split in range(1, len(events)):
            engine = StreamEngine(routed=True, vectorized=True)
            engine.register(parse_query(query), name="q0")
            engine.process_event_batch(EventBatch.from_events(events[:split]))
            engine.process_event_batch(EventBatch.from_events(events[split:]))
            assert engine.results() == expected, f"split={split}"

    def test_empty_batch_is_a_noop(self):
        engine = StreamEngine(routed=True, vectorized=True)
        engine.register(
            parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms"),
            name="q0",
        )
        assert engine.process_event_batch(EventBatch.empty()) == 0
        assert engine.results() == {"q0": 0}

    def test_size_one_batches_match_reference(self):
        events = flat_stream(SEEDS[0], count=200)
        expected = reference_results(KERNEL_QUERIES, events)
        assert columnar_results(KERNEL_QUERIES, events, 1) == expected

    def test_intra_batch_regression_rejected_like_per_event(self):
        events = [Event("A", 5), Event("B", 3)]
        engine = StreamEngine(routed=True, vectorized=True)
        engine.register(
            parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms"),
            name="q0",
        )
        with pytest.raises(OutOfOrderError):
            engine.process_event_batch(EventBatch.from_events(events))

    def test_cross_batch_regression_rejected_like_per_event(self):
        engine = StreamEngine(routed=True, vectorized=True)
        engine.register(
            parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms"),
            name="q0",
        )
        engine.process_event_batch(
            EventBatch.from_events([Event("A", 5)])
        )
        with pytest.raises(OutOfOrderError):
            engine.process_event_batch(
                EventBatch.from_events([Event("B", 3)])
            )
        # Ties across the boundary are legal, like EventStream.
        engine.process_event_batch(
            EventBatch.from_events([Event("B", 5)])
        )

    @pytest.mark.parametrize("entry", ["process", "process_batch"])
    def test_batch_gated_against_events_ingested_per_event(self, entry):
        """The cross-batch gate sees what ``process``/``process_batch``
        ingested (recovery replays through them), not only batches."""
        engine = StreamEngine(routed=True)
        engine.register(
            parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 1 s"),
            name="q0",
        )
        if entry == "process":
            engine.process(Event("A", 100))
        else:
            engine.process_batch([Event("A", 100)])
        with pytest.raises(OutOfOrderError):
            engine.process_event_batch(
                EventBatch.from_events([Event("B", 50), Event("B", 60)])
            )
        assert engine.result("q0") == 0
        assert engine.metrics.events == 1

    def test_missing_predicate_attribute_raises_like_per_event(self):
        # The mask compiler routes the offending batch through the
        # materializer, which must surface the same PredicateError the
        # per-event evaluator raises.
        events = [Event("A", 1, {"v": 1}), Event("B", 2)]  # B lacks v
        query = "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms WHERE B.v > 0"
        reference = StreamEngine()
        reference.register(parse_query(query), name="q0")
        with pytest.raises(PredicateError):
            for event in events:
                reference.process(event)
        engine = StreamEngine(routed=True, vectorized=True)
        engine.register(parse_query(query), name="q0")
        with pytest.raises(PredicateError):
            engine.process_event_batch(EventBatch.from_events(events))

    def test_missing_aggregate_value_raises_like_per_event(self):
        events = [Event("A", 1), Event("C", 2)]  # C lacks v
        query = "PATTERN SEQ(A, C) AGG SUM(C.v) WITHIN 40 ms"
        reference = StreamEngine()
        reference.register(parse_query(query), name="q0")
        with pytest.raises(PredicateError):
            for event in events:
                reference.process(event)
        engine = StreamEngine(routed=True, vectorized=True)
        engine.register(parse_query(query), name="q0")
        with pytest.raises(PredicateError):
            engine.process_event_batch(EventBatch.from_events(events))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "query",
    [
        "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 90 ms",
        "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 90 ms GROUP BY g",
    ],
)
def test_accounting_matches_batched_path(seed, query):
    # events_processed / counter_updates feed the obs cost model; the
    # kernel must account identically to the per-event runtime (a reset
    # row is processed but updates no counter).
    events = flat_stream(seed, count=800)

    reference = StreamEngine(routed=True, vectorized=True)
    reference.register(parse_query(query), name="q0")
    reference.process_batch(events)

    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(query), name="q0")
    engine.run(batches_from_events(events, batch_size=97))

    ref_exec = reference._registrations["q0"].executor
    col_exec = engine._registrations["q0"].executor
    assert col_exec.events_seen == ref_exec.events_seen
    assert col_exec.events_processed == ref_exec.events_processed
    assert col_exec.counter_updates == ref_exec.counter_updates


# ----- negation x GROUP BY on the kernel ------------------------------------

AGGREGATES = ["COUNT", "SUM(B.v)", "AVG(B.v)", "MAX(B.v)", "MIN(B.v)"]
NEG_GROUPBY_WINDOW_MS = 60


def neg_groupby(aggregate):
    return (
        f"PATTERN SEQ(A, !N, B) AGG {aggregate} "
        f"WITHIN {NEG_GROUPBY_WINDOW_MS} ms GROUP BY g"
    )


def sequence_of(sink):
    return [(o.query_name, o.ts, o.value) for o in sink.outputs]


def per_event_run(text, events):
    """Output sequence and final results of the per-event reference."""
    engine = StreamEngine()
    sink = CollectSink()
    engine.register(parse_query(text), sink, name="q")
    for event in events:
        engine.process(event)
    return sequence_of(sink), engine.results()


def columnar_run(text, batches):
    engine = StreamEngine(routed=True, vectorized=True)
    sink = CollectSink()
    engine.register(parse_query(text), sink, name="q")
    for batch in batches:
        engine.process_event_batch(batch)
    return sequence_of(sink), engine.results()


def oracle_sequence(text, events):
    """What a GROUP BY query must emit, by brute-force enumeration: at
    every TRIG arrival, that arrival's group, aggregated over the
    events still inside the window."""
    query = parse_query(text)
    oracle = BruteForceOracle(query)
    window = query.window.size_ms
    trigger = query.pattern.positive_types[-1]
    outputs = []
    for index, event in enumerate(events):
        if event.event_type != trigger:
            continue
        recent = [
            e for e in events[: index + 1] if e.ts > event.ts - window
        ]
        group = event[query.group_by]
        value = oracle.aggregate(recent, now=event.ts)[group]
        outputs.append(("q", event.ts, {group: value}))
    return outputs


@pytest.fixture
def no_materializer(monkeypatch):
    """Any ``to_events()`` call fails the test: the lane must not fall
    back, silently or otherwise."""

    def refuse(self):
        raise AssertionError("the batch was materialized")

    monkeypatch.setattr(EventBatch, "to_events", refuse)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_neg_groupby_sequence_matches_reference_and_oracle(
    aggregate, batch_size, seed, no_materializer
):
    events = flat_stream(seed, count=500)
    text = neg_groupby(aggregate)
    expected_sequence, expected_results = per_event_run(text, events)
    assert expected_sequence == oracle_sequence(text, events)
    sequence, results = columnar_run(
        text, batches_from_events(events, batch_size=batch_size)
    )
    assert sequence == expected_sequence
    assert results == expected_results
    assert len(sequence) > 50


FLOAT_QUERIES = [
    "PATTERN SEQ(A, B, C) AGG SUM(B.price) WITHIN 120 ms",
    "PATTERN SEQ(A, B, C) AGG AVG(B.price) WITHIN 120 ms",
    "PATTERN SEQ(A, B) AGG SUM(B.price) WITHIN 120 ms GROUP BY g",
    "PATTERN SEQ(A, B) AGG AVG(B.price) WITHIN 120 ms GROUP BY g",
]


@pytest.mark.parametrize("text", FLOAT_QUERIES)
def test_float_sums_round_alike_on_every_lane(text):
    """Two-decimal prices, where addition order shows in the last ulp:
    the per-event SEM engine, the per-event vectorized engine,
    ``process_batch`` and the columnar kernel must add the live
    weighted sums in the same (column) order — ``==`` on every emit and
    on the finals, no rounding."""
    rng = random.Random(SEEDS[0])
    events = random_events(
        rng,
        ["A", "B", "C", "Z"],
        4000,
        attr_maker=lambda r, t: {
            "price": round(r.uniform(1, 200), 2), "g": r.randint(0, 3),
        },
    )
    expected = per_event_run(text, events)
    assert len(expected[0]) > 200

    def lane(feed):
        engine = StreamEngine(routed=True, vectorized=True)
        sink = CollectSink()
        engine.register(parse_query(text), sink, name="q")
        feed(engine)
        return sequence_of(sink), engine.results()

    def per_event(engine):
        for event in events:
            engine.process(event)

    def batched(engine):
        for start in range(0, len(events), 256):
            engine.process_batch(events[start:start + 256])

    assert lane(per_event) == expected
    assert lane(batched) == expected
    assert columnar_run(
        text, batches_from_events(events, batch_size=256)
    ) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_set_never_materializes(seed, no_materializer):
    events = flat_stream(seed, count=600)
    queries = KERNEL_QUERIES + PREDICATE_QUERIES
    expected = reference_results(queries, events)
    assert columnar_results(queries, events, 113) == expected


class TestNegationGroupByEdges:
    def assert_exact(self, text, events, batch_size=5):
        expected = per_event_run(text, events)
        for size in (1, batch_size, len(events)):
            batches = batches_from_events(events, batch_size=size)
            assert columnar_run(text, batches) == expected, f"size={size}"

    def test_reset_and_expiry_straddle_a_batch_edge(self, no_materializer):
        # g=1: A@1 is reset by N@8 before B@12, A@10 survives it and
        # expires before B@52; g=2 never sees the N. Every split point
        # puts a different one of those transitions on the boundary.
        events = [
            Event("A", 1, {"g": 1}), Event("A", 2, {"g": 2}),
            Event("N", 8, {"g": 1}), Event("A", 10, {"g": 1}),
            Event("B", 12, {"g": 1, "v": 3}), Event("B", 13, {"g": 2, "v": 4}),
            Event("B", 41, {"g": 1, "v": 5}), Event("B", 43, {"g": 2, "v": 6}),
            Event("N", 44, {"g": 1}), Event("B", 45, {"g": 1, "v": 7}),
            Event("B", 52, {"g": 1, "v": 8}),
        ]
        text = "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g"
        expected = per_event_run(text, events)
        assert expected[0][:2] == [("q", 12, {1: 3.0}), ("q", 13, {2: 4.0})]
        for split in range(1, len(events)):
            batches = [
                EventBatch.from_events(events[:split]),
                EventBatch.from_events(events[split:]),
            ]
            assert columnar_run(text, batches) == expected, f"split={split}"

    @pytest.mark.parametrize(
        "pattern", ["A, !N, B, C", "A, B, !N, C", "A, !N, B, !M, C"]
    )
    @pytest.mark.parametrize("aggregate", ["COUNT", "MAX(B.v)"])
    def test_first_and_last_guarded_positions(
        self, pattern, aggregate, no_materializer
    ):
        rng = random.Random(SEEDS[0])
        events = random_events(
            rng, ["A", "B", "C", "N", "M"], 700,
            attr_maker=lambda r, t: {"g": r.randint(0, 2), "v": r.randint(1, 9)},
        )
        text = (
            f"PATTERN SEQ({pattern}) AGG {aggregate} WITHIN 45 ms GROUP BY g"
        )
        self.assert_exact(text, events, batch_size=64)
        flat = f"PATTERN SEQ({pattern}) AGG {aggregate} WITHIN 45 ms"
        self.assert_exact(flat, events, batch_size=64)

    def test_keyless_negated_row_declines_and_leaves_state_untouched(self):
        # The key-less N invalidates *every* partition, which only the
        # per-event lane does. The declined batch must reach it with
        # the state the first (kernel) batch left, so a twin fed that
        # second batch per event agrees on everything after.
        text = neg_groupby("SUM(B.v)")
        events = flat_stream(SEEDS[1], count=400)
        head, tail = events[:200], events[200:]
        tail[7] = Event("N", tail[7].ts)
        engines = []
        for _ in range(2):
            engine = StreamEngine(routed=True, vectorized=True)
            sink = CollectSink()
            engine.register(parse_query(text), sink, name="q")
            engine.process_event_batch(EventBatch.from_events(head))
            engines.append((engine, sink))
        (declined, declined_sink), (twin, twin_sink) = engines
        declined.process_event_batch(EventBatch.from_events(tail))
        for event in tail:
            twin.process(event)
        plan = declined._registrations["q"].columnar[1]
        assert plan is not None and plan.last_decline == "missing_key"
        assert sequence_of(declined_sink) == sequence_of(twin_sink)
        assert declined.results() == twin.results()
        assert (sequence_of(twin_sink), twin.results()) == per_event_run(
            text, head + tail
        )

    def test_keyless_positive_row_raises_like_per_event(self):
        text = neg_groupby("COUNT")
        events = [Event("A", 1, {"g": 1}), Event("B", 2)]
        with pytest.raises(PredicateError):
            per_event_run(text, events)
        with pytest.raises(PredicateError):
            columnar_run(text, [EventBatch.from_events(events)])

    @pytest.mark.parametrize(
        "keys",
        [
            ["ab", "", "abc", "a b"],
            [0.5, -0.0, 0.0, 2.25],
            # One partition (1 == 1.0 == True), three labels.
            [1, 1.0, True, 2],
        ],
        ids=["str", "float", "mixed"],
    )
    def test_key_dtypes(self, keys, no_materializer):
        rng = random.Random(SEEDS[2])
        events = random_events(
            rng, ["A", "B", "N", "Z"], 600,
            attr_maker=lambda r, t: {"g": r.choice(keys), "v": r.randint(1, 9)},
        )
        text = neg_groupby("AVG(B.v)")
        expected_sequence, _ = per_event_run(text, events)
        sequence, _ = columnar_run(
            text, batches_from_events(events, batch_size=50)
        )
        # Dict equality would let 1 pass for True: compare the labels'
        # own types too.
        assert [
            (ts, [(type(k), k, v) for k, v in value.items()])
            for _, ts, value in sequence
        ] == [
            (ts, [(type(k), k, v) for k, v in value.items()])
            for _, ts, value in expected_sequence
        ]
        self.assert_exact(text, events, batch_size=50)

    def test_group_by_with_equivalence_on_the_same_attribute(
        self, no_materializer
    ):
        events = flat_stream(SEEDS[0], count=600)
        self.assert_exact(
            "PATTERN SEQ(A, !N, B) AGG MIN(B.v) WITHIN 60 ms "
            "WHERE A.g = B.g AND B.v > 2 GROUP BY g",
            events,
            batch_size=77,
        )

    def test_new_key_first_seen_mid_batch(self, no_materializer):
        # Partition order is first-appearance order, as per event:
        # results() iterates it.
        events = [
            Event("A", 1, {"g": "old"}), Event("B", 2, {"g": "old"}),
            Event("B", 3, {"g": "trigger-first"}),
            Event("A", 4, {"g": "new"}), Event("N", 5, {"g": "negated-first"}),
            Event("B", 6, {"g": "new"}), Event("B", 7, {"g": "old"}),
        ]
        text = "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 40 ms GROUP BY g"
        expected = per_event_run(text, events)
        batches = [
            EventBatch.from_events(events[:2]),
            EventBatch.from_events(events[2:]),
        ]
        sequence, results = columnar_run(text, batches)
        assert (sequence, results) == expected
        assert list(results["q"]) == list(expected[1]["q"]) == [
            "old", "trigger-first", "new", "negated-first",
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_funnel_matches_per_event_lane(seed):
    text = neg_groupby("SUM(B.v)")
    events = flat_stream(seed, count=800)
    counts = []
    for columnar in (False, True):
        funnel = FunnelRecorder()
        engine = StreamEngine(routed=True, vectorized=True, funnel=funnel)
        executor = engine.register(parse_query(text), name="q")
        if columnar:
            engine.run(batches_from_events(events, batch_size=97))
        else:
            for event in events:
                engine.process(event)
        counts.append(executor.funnel_counts())
    assert counts[0] == counts[1]
    assert all(counts[0].values()), counts[0]


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_checkpoint_between_columnar_batches_then_per_event(aggregate):
    query = parse_query(neg_groupby(aggregate))
    events = flat_stream(SEEDS[0], count=600)
    reference = ASeqEngine(query)
    expected = [reference.process(event) for event in events]

    engine = ASeqEngine(query, vectorized=True)
    outputs = []
    plan = None
    for batch in batches_from_events(events[:400], batch_size=200):
        plan = plan or engine.columnar_plan(batch.schema)
        emitted, _ = engine.process_columnar(batch, plan, routed=False)
        outputs.extend(fresh for _, fresh in emitted)
        engine = restore(query, checkpoint(engine), vectorized=True)
    outputs.extend(
        fresh
        for event in events[400:]
        if (fresh := engine.process(event)) is not None
    )
    assert outputs == [fresh for fresh in expected if fresh is not None]
    assert engine.result() == reference.result()


def test_sharded_neg_groupby_batches_match_reference():
    # Every row carries the key, so the workers' own columnar lanes run
    # the kernel (the keyless-broadcast variant is in SHARDED_QUERIES).
    text = neg_groupby("SUM(B.v)")
    events = flat_stream(SEEDS[0])
    expected = reference_results([text], events)
    with ShardedStreamEngine(shards=2, vectorized=True) as engine:
        engine.register(parse_query(text), name="q0")
        engine.run(batches_from_events(events, batch_size=149))
        assert engine.results() == expected


# ----- decline reasons --------------------------------------------------------


def declined_counts(registry):
    return {
        (dict(m.labels)["query"], dict(m.labels)["reason"]): m.value
        for m in registry.metrics()
        if m.name == "repro_columnar_declined_total"
    }


def test_every_static_decline_is_counted_with_its_reason_and_explained():
    registry = MetricsRegistry()
    engine = StreamEngine(routed=True, vectorized=True, registry=registry)
    engine.register(parse_query(KERNEL_QUERIES[0]), name="kernel")
    for reason, text in FALLBACK_QUERIES.items():
        engine.register(parse_query(text), name=reason)
    events = flat_stream(SEEDS[0], count=300)
    engine.run(batches_from_events(events, batch_size=100))
    assert declined_counts(registry) == {
        (reason, reason): 3 for reason in FALLBACK_QUERIES
    }
    plan = engine.explain()
    assert plan["queries"]["kernel"]["columnar"] == {
        "capable": True, "reason": None,
    }
    for reason in FALLBACK_QUERIES:
        assert plan["queries"][reason]["columnar"] == {
            "capable": False, "reason": reason,
        }
        assert f"columnar: materialized ({reason})" in render_explain(plan)


def test_not_vectorized_and_tracing_declines():
    from repro.obs.tracing import TraceRecorder

    text = KERNEL_QUERIES[0]
    batch = EventBatch.from_events(flat_stream(SEEDS[0], count=50))
    for kwargs, reason in (
        ({"vectorized": False}, "not_vectorized"),
        ({"vectorized": True, "trace": TraceRecorder()}, "tracing"),
    ):
        registry = MetricsRegistry()
        engine = StreamEngine(routed=True, registry=registry, **kwargs)
        engine.register(parse_query(text), name="q")
        engine.process_event_batch(batch)
        assert declined_counts(registry) == {("q", reason): 1}
        assert engine.explain()["queries"]["q"]["columnar"]["reason"] == reason


@pytest.mark.parametrize("vectorized", [False, True])
def test_capable_means_the_compiled_runtime_is_the_kernel(vectorized):
    # decline_reason() reads the query, _compile() builds the runtime:
    # a capable verdict must never sit on a runtime without the kernel.
    texts = (
        KERNEL_QUERIES + PREDICATE_QUERIES + list(FALLBACK_QUERIES.values())
        + [neg_groupby(aggregate) for aggregate in AGGREGATES]
    )
    events = flat_stream(SEEDS[0], count=40)
    capable = 0
    for text in texts:
        engine = ASeqEngine(parse_query(text), vectorized=vectorized)
        if not columnar_capable(engine):
            continue
        capable += 1
        for event in events:
            engine.process(event)
        runtime = engine.runtime
        assert not isinstance(runtime, HPCEngine), text
        assert callable(runtime.process_batch_columns)
        if engine.query.group_by is not None:
            assert type(runtime) is PartitionTable, text
            assert runtime.partition_count
        else:
            assert type(runtime) is VectorizedSemEngine, text
    assert capable == (len(texts) - len(FALLBACK_QUERIES) if vectorized else 0)


def test_value_column_absent_when_every_value_row_is_filtered(no_materializer):
    # The predicate drops every B, so no kept row needs B.v and the
    # batch (built without a v column) stays on the kernel: a SUM over
    # nothing, not a KeyError.
    events = [
        Event("A", 1, {"g": 1, "w": 9}), Event("B", 2, {"g": 1, "w": 1}),
        Event("N", 3, {"g": 1, "w": 1}), Event("B", 4, {"g": 2, "w": 2}),
    ]
    for aggregate in AGGREGATES[1:]:
        for text in (
            f"PATTERN SEQ(A, !N, B) AGG {aggregate} WITHIN 30 ms "
            "WHERE B.w > 5 GROUP BY g",
            f"PATTERN SEQ(A, B) AGG {aggregate} WITHIN 30 ms WHERE B.w > 5",
        ):
            batch = EventBatch.from_events(events)
            assert "v" not in batch.cols
            engine = StreamEngine(routed=True, vectorized=True)
            engine.register(parse_query(text), name="q")
            engine.process_event_batch(batch)
            assert kernel_engaged(engine, "q")
            assert engine.results() == per_event_run(text, events)[1]


def test_batch_level_declines_are_counted_per_batch():
    registry = MetricsRegistry()
    engine = StreamEngine(routed=True, vectorized=True, registry=registry)
    engine.register(parse_query(neg_groupby("COUNT")), name="keyed")
    engine.register(
        parse_query("PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms"),
        name="valued",
    )
    whole = [Event("A", 1, {"g": 1, "v": 1}), Event("B", 2, {"g": 1, "v": 2})]
    engine.process_event_batch(EventBatch.from_events(whole))
    assert declined_counts(registry) == {}
    # A negated row without the key; a B without the aggregate's value
    # would raise, so that one is an A-only batch lacking the column.
    engine.process_event_batch(
        EventBatch.from_events([Event("N", 3), Event("A", 4, {"g": 2})])
    )
    assert declined_counts(registry) == {("keyed", "missing_key"): 1}
    with pytest.raises(PredicateError):
        engine.process_event_batch(
            EventBatch.from_events([Event("B", 5, {"g": 1})])
        )
    assert declined_counts(registry)[("valued", "missing_attribute")] == 1


def grouped_stream(seed, count=1200, groups=7):
    rng = random.Random(seed)
    events = random_events(
        rng,
        ["A", "B", "C", "Z"],
        count,
        attr_maker=lambda r, t: {
            "g": r.randint(0, groups - 1), "v": r.randint(1, 9)
        },
    )
    # Keyless rows exercise the broadcast lane on every seed.
    for index in range(50, len(events), 97):
        events[index] = Event("N", events[index].ts)
    return events


SHARDED_QUERIES = [
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 60 ms GROUP BY g",
    "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 70 ms GROUP BY g",
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms",  # local lane
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_sharded_columnar_matches_reference(seed, transport):
    events = grouped_stream(seed)
    expected = reference_results(SHARDED_QUERIES, events)
    with ShardedStreamEngine(
        shards=2, vectorized=True, transport=transport
    ) as engine:
        for index, text in enumerate(SHARDED_QUERIES):
            engine.register(parse_query(text), name=f"q{index}")
        engine.run(batches_from_events(events, batch_size=149))
        assert engine.results() == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_columnar_matches_per_event_sharded(seed):
    # Same engine, same shard count: only the wire format differs.
    events = grouped_stream(seed, count=900)
    queries = SHARDED_QUERIES[:2]
    with ShardedStreamEngine(shards=2, vectorized=True) as engine:
        for index, text in enumerate(queries):
            engine.register(parse_query(text), name=f"q{index}")
        for event in events:
            engine.process(event)
        engine.flush()
        expected = engine.results()
    with ShardedStreamEngine(shards=2, vectorized=True) as engine:
        for index, text in enumerate(queries):
            engine.register(parse_query(text), name=f"q{index}")
        for batch in batches_from_events(events, batch_size=256):
            engine.process_event_batch(batch)
        engine.flush()
        assert engine.results() == expected


def test_sharded_mixed_batches_and_events():
    # run() accepts a stream interleaving both shapes.
    events = grouped_stream(SEEDS[0], count=600)
    expected = reference_results(SHARDED_QUERIES[:2], events)
    half = len(events) // 2
    mixed = list(batches_from_events(events[:half], batch_size=128))
    mixed += events[half:]
    with ShardedStreamEngine(shards=2, vectorized=True) as engine:
        for index, text in enumerate(SHARDED_QUERIES[:2]):
            engine.register(parse_query(text), name=f"q{index}")
        engine.run(mixed)
        assert engine.results() == expected


@pytest.mark.parametrize("lane", ["columnar", "traced"])
def test_sharded_batch_order_checked_on_every_lane(lane):
    # The traced lane materialises the batch and loops process(), which
    # trusts its caller for order: the batch must be checked first, in
    # batch and against the router clock, as the columnar lane's is.
    from repro.obs.tracing import TraceRecorder

    trace = TraceRecorder(capacity=64) if lane == "traced" else None
    with ShardedStreamEngine(shards=2, vectorized=True, trace=trace) as engine:
        engine.register(parse_query(SHARDED_QUERIES[0]), name="q")

        def batch(*stamps):
            return EventBatch.from_events(
                [Event("A", ts, {"g": 1}) for ts in stamps]
            )

        engine.process_event_batch(batch(5, 6))
        for regressed, pair in ((batch(7, 9, 8), (9, 8)), (batch(4), (6, 4))):
            with pytest.raises(OutOfOrderError) as raised:
                engine.process_event_batch(regressed)
            assert (raised.value.previous_ts, raised.value.current_ts) == pair
        assert engine.metrics.events == 2
