"""Differential pinning: many registrations on one closed-form scan.

``StreamEngine.process_event_batch`` hands every flat-COUNT registration
of one pattern length to one closed-form scan per batch
(``VectorizedSemEngine.process_group``). A registration must not be able
to tell: its outputs and its books — ``counter_updates``,
``peak_counters``, ``events_processed``, funnel stages, the executor's
``inspect()`` tallies, ``current_objects`` — must equal those of

* an engine holding that registration alone, fed the same batches (so
  the whole ``(query, ts, value)`` sequence, delivery order included,
  is the concatenation of the alone-engines' outputs batch by batch);
* the per-event reference ``StreamEngine()``;
* the brute-force oracle (strictly increasing timestamps only).

``EventBatch.to_events`` is patched to raise wherever no registration
declines the columnar lane, so a silent fallback cannot pass. The one
thing allowed to differ is which kernel body ran: the cut-over is judged
on the group's rows, so a registration below it alone may be on the
closed form in a group.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baseline.oracle import BruteForceOracle
from repro.core.executor import ASeqEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.events.batch import EventBatch, batches_from_events
from repro.events.event import Event
from repro.obs.funnel import FunnelRecorder
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query
from repro.resilience.checkpointer import apply_engine_state, engine_state

BATCH_SIZES = [1, 7, 333, 4096]
SEM_SERIES = ("sem_counters_created_total", "sem_counters_expired_total")

#: Types shared between members, a type at two positions, a choice type.
SHARING = [
    "PATTERN SEQ(A, B, A) AGG COUNT WITHIN 30 ms",
    "PATTERN SEQ(A|C, B, D) AGG COUNT WITHIN 45 ms",
    "PATTERN SEQ(B, C, D) AGG COUNT WITHIN 45 ms",
    "PATTERN SEQ(C, A, E) AGG COUNT WITHIN 60 ms",
]
#: One length, four windows; a predicate on two members.
WINDOWS = [
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 3 ms",
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms",
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 400 ms WHERE B.v > 4",
    "PATTERN SEQ(C, D) AGG COUNT WITHIN 25 ms WHERE C.v <= 6",
    "PATTERN SEQ(D, E) AGG COUNT WITHIN 100000 ms",
]
#: Members off the closed form, by ``closed_form_decline`` slug.
ROW_LOOP = {
    "negation": "PATTERN SEQ(A, !E, B) AGG COUNT WITHIN 40 ms",
    "group_by": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "aggregate": "PATTERN SEQ(C, D) AGG SUM(D.v) WITHIN 40 ms",
}
KLEENE = "PATTERN SEQ(A, B+, C) AGG COUNT WITHIN 12 ms"


def stream(seed, count=900, gaps=(0, 1, 2), alphabet="ABCDEZ"):
    rng = random.Random(seed)
    ts = 0
    events = []
    for _ in range(count):
        ts += rng.choice(gaps)
        events.append(Event(rng.choice(alphabet), ts, {
            "v": rng.randint(1, 9), "g": rng.randint(0, 3),
        }))
    return events


def batched(events, size):
    """Batches over one schema (every type known from the first)."""
    schema = EventBatch.from_events(events).schema
    return list(batches_from_events(events, batch_size=size, schema=schema))


def build(texts, names=None):
    registry = MetricsRegistry()
    engine = StreamEngine(
        routed=True, vectorized=True, registry=registry,
        funnel=FunnelRecorder(),
    )
    sink = CollectSink()
    for name, text in zip(names or names_of(texts), texts):
        engine.register(parse_query(text, name=name), sink, name=name)
    return engine, sink, registry


def names_of(texts):
    return [f"q{index}" for index in range(len(texts))]


def books(engine, name):
    """What one registration must agree on with its references."""
    executor = engine.executor_of(name)
    state = executor.inspect()
    del state["runtime"]  # which kernel body ran may differ
    return {
        **state,
        "peak_counters": getattr(executor.runtime, "peak_counters", None),
        "funnel": executor.funnel_counts(),
        "result": engine.result(name),
    }


def sequence(sink):
    return [(o.query_name, o.ts, o.value) for o in sink.outputs]


def run_together(texts, batches):
    engine, sink, registry = build(texts)
    for batch in batches:
        engine.process_event_batch(batch)
    return engine, sink, registry


def run_alone(texts, batches):
    """Each registration in its own engine; the outputs interleaved as
    one engine holding them all would deliver them."""
    alone = [build([text], [name]) for name, text in zip(names_of(texts), texts)]
    outputs = []
    for batch in batches:
        for engine, sink, _ in alone:
            mark = len(sink.outputs)
            engine.process_event_batch(batch)
            outputs += sequence(sink)[mark:]
    return alone, outputs


def assert_same_as_alone(texts, batches, monkeypatch, materializes=False):
    if not materializes:
        monkeypatch.setattr(EventBatch, "to_events", _no_materializing)
    engine, sink, registry = run_together(texts, batches)
    alone, outputs = run_alone(texts, batches)
    assert sequence(sink) == outputs
    for name, (single, _, _) in zip(names_of(texts), alone):
        assert books(engine, name) == books(single, name)
    for series in SEM_SERIES:
        assert registry.value(series) == sum(
            single_registry.value(series) for _, _, single_registry in alone
        )
    return engine, sink


def _no_materializing(self):
    raise AssertionError("the columnar lane materialized a batch")


def scan_widths(engine, names):
    return [
        engine.executor_of(name).runtime.inspect()["closed_form_scan_width"]
        for name in names
    ]


def assert_same_as_per_event(texts, events, engine, sink):
    reference = StreamEngine(funnel=FunnelRecorder())
    expected = CollectSink()
    for name, text in zip(names_of(texts), texts):
        reference.register(parse_query(text, name=name), expected, name=name)
    for event in events:
        reference.process(event)
    for name in names_of(texts):
        assert [o for o in sequence(sink) if o[0] == name] == [
            o for o in sequence(expected) if o[0] == name
        ]
        got, want = (
            engine.executor_of(name), reference.executor_of(name)
        )
        assert engine.result(name) == reference.result(name)
        for figure in ("counter_updates", "events_processed"):
            assert getattr(got, figure) == getattr(want, figure)
        assert got.current_objects() == want.current_objects()
        assert (
            getattr(got.runtime, "peak_counters", None)
            == getattr(want.runtime, "peak_counters", None)
        )
        for stage in ("runs_extended", "runs_expired"):
            assert got.funnel_counts()[stage] == want.funnel_counts()[stage]


# ----- the group ≡ each registration alone ≡ per event ---------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("texts", [SHARING, WINDOWS], ids=["shared", "windows"])
def test_group_matches_alone_and_per_event(texts, batch_size, monkeypatch):
    events = stream(seed=batch_size + len(texts[0]))
    engine, sink = assert_same_as_alone(
        texts, batched(events, batch_size), monkeypatch
    )
    assert_same_as_per_event(texts, events, engine, sink)
    if batch_size == 4096:
        assert scan_widths(engine, names_of(texts)) == [len(texts)] * len(texts)


@pytest.mark.parametrize("reason", ROW_LOOP)
def test_a_row_loop_member_between_grouped_ones(reason, monkeypatch):
    texts = [SHARING[0], ROW_LOOP[reason], SHARING[1], WINDOWS[1]]
    events = stream(seed=3)
    for size in (7, 333):
        engine, _ = assert_same_as_alone(
            texts, batched(events, size), monkeypatch
        )
    runtime = engine.executor_of("q1").runtime
    states = (
        [partition.inspect() for _, partition in runtime.partitions()]
        if reason == "group_by" else [runtime.inspect()]
    )
    assert all(state["closed_form_scan_width"] == 0 for state in states)
    assert scan_widths(engine, ["q0", "q2"]) == [2, 2]


def test_a_materialized_member_between_grouped_ones(monkeypatch):
    texts = [WINDOWS[0], KLEENE, WINDOWS[1], WINDOWS[4]]
    events = stream(seed=4)
    engine, sink = assert_same_as_alone(
        texts, batched(events, 333), monkeypatch, materializes=True
    )
    assert scan_widths(engine, ["q0", "q2", "q3"]) == [3, 3, 3]
    assert_same_as_per_event(texts, events, engine, sink)


def test_two_pattern_lengths_make_two_scans(monkeypatch):
    texts = [SHARING[0], WINDOWS[0], SHARING[2], WINDOWS[1], WINDOWS[2]]
    engine, _ = assert_same_as_alone(
        texts, batched(stream(5), 4096), monkeypatch
    )
    assert scan_widths(engine, names_of(texts)) == [2, 3, 2, 3, 3]


def test_group_crosses_the_cut_over_while_each_member_stays_below(
    monkeypatch,
):
    # Eight patterns over 24 of 40 types: a 333-row batch gives each
    # about 25 kept rows, below the 48-row cut-over, and the group 200.
    texts = [
        f"PATTERN SEQ(T{3 * i}, T{3 * i + 1}, T{3 * i + 2}) AGG COUNT "
        f"WITHIN {20 + 10 * i} ms"
        for i in range(8)
    ]
    rng = random.Random(8)
    events = [Event(f"T{rng.randrange(40)}", ts) for ts in range(1, 1999)]
    batches = batched(events, 333)
    for batch in batches:
        counts = [0] * 14
        for code in batch.codes.tolist():
            counts[int(batch.schema.types[code][1:]) // 3] += 1
        assert max(counts[:8]) < 48 <= sum(counts[:8])
    engine, _ = assert_same_as_alone(texts, batches, monkeypatch)
    alone, _ = run_alone(texts, batches)
    for name, (single, _, _) in zip(names_of(texts), alone):
        grouped = engine.executor_of(name).runtime.inspect()
        by_itself = single.executor_of(name).runtime.inspect()
        assert grouped["kernel_slices"] == {
            "closed_form": len(batches), "row_loop": 0,
        }
        assert by_itself["kernel_slices"]["closed_form"] == 0
        assert by_itself["closed_form_fallbacks"]["small_slice"] == len(batches)
        assert grouped["closed_form_scan_width"] == 8
        assert by_itself["closed_form_scan_width"] == 0
    # Under the cut-over the group's total decides: each member counts
    # one small_slice per batch.
    small = batched(events, 7)
    engine, _, _ = run_together(texts, small)
    state = engine.executor_of("q0").runtime.inspect()
    assert state["kernel_slices"]["closed_form"] == 0
    assert state["closed_form_fallbacks"]["small_slice"] == (
        state["kernel_slices"]["row_loop"]
    )


# ----- members leaving the group --------------------------------------------


def staircase_with_pairs():
    """A-H in blocks of 100, 200 I (each a TRIG adding 100⁸ matches),
    then 500 STARTs too late to match, interleaved with random J/K rows:
    the bound counts the late STARTs and fails, the true totals fit."""
    rng = random.Random(6)
    names = [name for name in "ABCDEFGH" for _ in range(100)]
    names += ["I"] * 200 + ["A"] * 500
    events = []
    for step, name in enumerate(names):
        events.append(Event(name, 2 * step + 1))
        events.append(Event(rng.choice("JK"), 2 * step + 2))
    return events


def test_one_member_past_the_bound_leaves_while_the_rest_stay_grouped(
    monkeypatch,
):
    texts = [
        "PATTERN SEQ(J, K, J, K, J, K, J, K, J) AGG COUNT WITHIN 40 ms",
        "PATTERN SEQ(A, B, C, D, E, F, G, H, I) AGG COUNT WITHIN 10000 ms",
        "PATTERN SEQ(K, J, K, J, K, J, K, J, K) AGG COUNT WITHIN 25 ms",
    ]
    events = staircase_with_pairs()
    engine, sink = assert_same_as_alone(
        texts, batched(events, 4096), monkeypatch
    )
    long = engine.executor_of("q1").runtime.inspect()
    assert long["closed_form_fallbacks"]["bound"] == 1
    assert long["kernel_slices"] == {"closed_form": 0, "row_loop": 1}
    assert scan_widths(engine, ["q0", "q2"]) == [2, 2]
    assert engine.result("q1") == 200 * 100**8
    assert engine.result("q0") and engine.result("q2")
    assert_same_as_per_event(texts, events, engine, sink)


def test_keys_that_would_wrap_scan_the_members_one_by_one(monkeypatch):
    # Eight bands of 2⁶⁰ ms each are past int64: the group falls back to
    # one scan per member, which must change nothing but the width.
    texts = [
        f"PATTERN SEQ({first}, {second}) AGG COUNT WITHIN {2**60} ms"
        for first, second in ["AB", "BA", "AC", "CA", "BC", "CB", "AD", "DA"]
    ]
    engine, _ = assert_same_as_alone(
        texts, batched(stream(seed=16, count=400), 4096), monkeypatch
    )
    assert scan_widths(engine, names_of(texts)) == [1] * len(texts)


def test_an_unordered_batch_under_forced_columnar(monkeypatch):
    # process_batch reroutes through the columnar lane without the order
    # gate; every slice holding the swapped rows leaves the scan.
    monkeypatch.setenv("REPRO_FORCE_COLUMNAR", "1")
    texts = SHARING[:3]
    events = stream(seed=9, count=600, gaps=(1, 2))
    first, second = [
        i for i, event in enumerate(events) if event.event_type == "B"
    ][3:5]
    events[first], events[second] = (
        Event("B", events[second].ts, events[first].attrs),
        Event("B", events[first].ts, events[second].attrs),
    )
    assert_unordered_like_alone(texts, events, "process_batch")
    engine, _, _ = build(texts)
    engine.process_batch(events)
    # SEQ(A, B, A), SEQ(A|C, B, D) and SEQ(B, C, D) all route B.
    assert [
        engine.executor_of(name).runtime.inspect()[
            "closed_form_fallbacks"]["unordered"]
        for name in names_of(texts)
    ] == [1, 1, 1]


def test_an_unordered_slice_leaves_the_others_on_the_scan():
    texts = [SHARING[0], WINDOWS[3], WINDOWS[4]]
    events = stream(seed=10, count=600, gaps=(1, 2))
    row = [i for i, e in enumerate(events) if e.event_type == "B"][3]
    events[row] = Event("B", events[row].ts + 50, events[row].attrs)
    engine = assert_unordered_like_alone(texts, events, "process_event_batch")
    state = engine.executor_of("q0").runtime.inspect()
    assert state["closed_form_fallbacks"]["unordered"] == 1
    assert scan_widths(engine, names_of(texts)) == [0, 2, 2]


def assert_unordered_like_alone(texts, events, entry):
    def feed(engine):
        if entry == "process_batch":
            engine.process_batch(events)
        else:
            engine.process_event_batch(
                EventBatch.from_events(events), enforce_order=False
            )

    engine, sink, _ = build(texts)
    feed(engine)
    for name, text in zip(names_of(texts), texts):
        single, single_sink, _ = build([text], [name])
        feed(single)
        assert books(engine, name) == books(single, name)
        assert [o for o in sequence(sink) if o[0] == name] == sequence(
            single_sink
        )
    return engine


# ----- registrations changing between batches ----------------------------------


def test_deregister_between_batches(monkeypatch):
    monkeypatch.setattr(EventBatch, "to_events", _no_materializing)
    texts = WINDOWS
    batches = batched(stream(seed=11), 150)
    engine, _, _ = build(texts)
    alone, _ = run_alone(texts, batches[:3])
    for batch in batches[:3]:
        engine.process_event_batch(batch)
    engine.deregister("q1")
    for batch in batches[3:]:
        engine.process_event_batch(batch)
        for name, (single, _, _) in zip(names_of(texts), alone):
            if name != "q1":
                single.process_event_batch(batch)
    for name, (single, _, _) in zip(names_of(texts), alone):
        if name != "q1":
            assert books(engine, name) == books(single, name)
    assert scan_widths(engine, ["q0", "q2", "q3", "q4"]) == [4] * 4


def test_restore_between_batches(monkeypatch):
    monkeypatch.setattr(EventBatch, "to_events", _no_materializing)
    texts = SHARING
    events = stream(seed=12)
    batches = batched(events, 200)
    straight, straight_sink, _ = run_together(texts, batches)
    first, _, _ = run_together(texts, batches[:2])
    resumed, sink, _ = build(texts)
    resumed.process_event_batch(batches[0])  # binds plans and the group
    apply_engine_state(resumed, engine_state(first))
    for batch in batches[2:]:
        resumed.process_event_batch(batch)
    tail = [o for o in sequence(straight_sink) if o[1] > batches[1].last_ts()]
    assert [o for o in sequence(sink) if o[1] > batches[1].last_ts()] == tail
    for name in names_of(texts):
        assert resumed.result(name) == straight.result(name)
        assert (
            resumed.executor_of(name).current_objects()
            == straight.executor_of(name).current_objects()
        )


def test_restore_swaps_the_executor_the_plan_cache_was_bound_to(monkeypatch):
    # A checkpoint restore replaces registration.executor; a plan cached
    # for the old executor (or its absence) must not outlive it.
    texts = WINDOWS[:2]
    events = stream(seed=13, count=600)
    batches = batched(events, 200)
    assert batches[0].schema is batches[1].schema
    plain = StreamEngine(routed=True)  # vectorized=False: SemEngine runtimes
    for name, text in zip(names_of(texts), texts):
        plain.register(parse_query(text, name=name), name=name)
    plain.process_batch(events[:200])

    # A vectorized engine restored from a per-event checkpoint ...
    engine, _, _ = build(texts)
    engine.process_event_batch(batches[0])
    apply_engine_state(engine, engine_state(plain))
    engine.process_event_batch(batches[1])
    engine.process_event_batch(batches[2])
    # ... and a per-event engine restored from a vectorized one, whose
    # next batch must then stay off to_events().
    vectorized_state = engine_state(run_together(texts, batches[:2])[0])
    back = StreamEngine(routed=True)
    for name, text in zip(names_of(texts), texts):
        back.register(parse_query(text, name=name), name=name)
    back.process_event_batch(batches[0])
    apply_engine_state(back, vectorized_state)
    monkeypatch.setattr(EventBatch, "to_events", _no_materializing)
    back.process_event_batch(batches[2])

    reference = StreamEngine()
    for name, text in zip(names_of(texts), texts):
        reference.register(parse_query(text, name=name), name=name)
    for event in events:
        reference.process(event)
    assert engine.results() == back.results() == reference.results()


# ----- against the brute-force oracle ----------------------------------------


def test_group_sequence_matches_the_oracle(monkeypatch):
    monkeypatch.setattr(EventBatch, "to_events", _no_materializing)
    texts = SHARING[:3] + WINDOWS[1:3]
    events = stream(seed=14, count=80, gaps=(1, 2, 3), alphabet="ABCDE")
    for size in (7, 4096):
        _, sink, _ = run_together(texts, batched(events, size))
        for name, text in zip(names_of(texts), texts):
            query = parse_query(text)
            oracle = BruteForceOracle(query)
            reference = ASeqEngine(query)
            expected = [
                (name, event.ts, oracle.aggregate(events[: index + 1]))
                for index, event in enumerate(events)
                if reference.process(event) is not None
            ]
            assert expected and any(value for _, _, value in expected)
            assert [o for o in sequence(sink) if o[0] == name] == expected


# ----- hypothesis ---------------------------------------------------------------


def flat_counts():
    position = st.one_of(
        st.sampled_from("ABCD"), st.sampled_from(["A|B", "C|D"])
    )
    query = st.tuples(
        st.lists(position, min_size=2, max_size=4),
        st.sampled_from([2, 9, 30, 200]),
        st.booleans(),
    )
    return st.lists(query, min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    queries=flat_counts(),
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from([1, 5, 48, 200, 4096]),
)
def test_any_query_set_on_one_scan_matches_each_alone(
    queries, seed, batch_size
):
    texts = [
        f"PATTERN SEQ({', '.join(positions)}) AGG COUNT WITHIN {window} ms"
        + (f" WHERE {positions[0]}.v > 3" if masked and len(positions[0]) == 1
           else "")
        for positions, window, masked in queries
    ]
    events = stream(seed, count=300, alphabet="ABCDZ")
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_as_alone(texts, batched(events, batch_size), monkeypatch)


def test_process_group_is_process_columns_for_one_member():
    # The one-member group is the plain call: same emissions, same ring.
    text = SHARING[1]
    events = stream(seed=15, count=500, gaps=(1, 2))
    batch = EventBatch.from_events(events)
    outputs = []
    for via_group in (False, True):
        executor = ASeqEngine(parse_query(text), vectorized=True)
        plan = executor.columnar_plan(batch.schema)
        _, kept = plan.evaluate(batch)
        runtime = executor.runtime
        codes, ts = batch.codes[kept], batch.ts[kept]
        if via_group:
            emitted = VectorizedSemEngine.process_group(
                [runtime], [plan], codes, ts, [0, len(codes)]
            )[0]
        else:
            emitted = runtime.process_columns(codes, ts, plan)
        outputs.append((emitted, runtime.inspect()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["closed_form_scan_width"] == 1
