"""Differential pinning: the closed-form COUNT kernel vs everything else.

``VectorizedSemEngine.process_columns`` has two bodies — the closed
form (prefix products over the slice, flat COUNT plans only) and the
row loop. Both must be indistinguishable from the per-event reference
``SemEngine`` and from the brute-force oracle, on the whole ``(query,
ts, value)`` output sequence *and* on every accounting figure the
paper's cost model and the obs plane read: ``counter_updates``,
``peak_counters``, ``events_processed``, ``active_counters``, the
funnel's ``runs_extended`` / ``runs_expired`` and the ``sem_counters_*``
series.

The kernel choice is forced through the cut-over constant (1 = the
closed form takes every eligible slice, huge = the row loop takes all),
so small streams reach the closed form too. The oracle orders matches
by strict timestamp, so only the engines are compared on streams with
tied timestamps.
"""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.vectorized as vectorized_module
from repro.baseline.oracle import BruteForceOracle
from repro.core.checkpoint import _runtime_state, checkpoint, restore
from repro.core.columnar import closed_form_decline
from repro.core.executor import ASeqEngine
from repro.core.sem import SemEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CollectSink
from repro.events.batch import EventBatch, batches_from_events
from repro.events.event import Event
from repro.obs.explain import render_explain
from repro.obs.funnel import FunnelRecorder
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query

BATCH_SIZES = [1, 7, 333, 4096]
CUT_OVER = {"closed_form": 1, "row_loop": 1 << 62}
SEM_SERIES = (
    "sem_counters_created_total",
    "sem_counters_expired_total",
    "sem_active_counters",
)

#: Plans the closed form may take: lengths 2-8, a type at two
#: non-adjacent positions, START = second position (slot 0 beside slot 1
#: is no adjacency: slot 0 is never updated), START = TRIG, disjunctive
#: positions, a local predicate.
ELIGIBLE = [
    "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms",
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 25 ms",
    "PATTERN SEQ(A, B, A) AGG COUNT WITHIN 30 ms",
    "PATTERN SEQ(A, A, B) AGG COUNT WITHIN 30 ms",
    "PATTERN SEQ(A, B, C, D) AGG COUNT WITHIN 300 ms",
    "PATTERN SEQ(A, B, C, A, B) AGG COUNT WITHIN 60 ms",
    "PATTERN SEQ(A|B, C, A|D) AGG COUNT WITHIN 35 ms",
    "PATTERN SEQ(A, B, C, D, A, C) AGG COUNT WITHIN 45 ms",
    "PATTERN SEQ(A, B, C, D, A, B, C) AGG COUNT WITHIN 50 ms",
    "PATTERN SEQ(A, B, C, D, A, B, C, D) AGG COUNT WITHIN 70 ms",
    "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 40 ms WHERE B.v > 3",
]

#: Plans that must stay on the row loop, by slug.
DECLINED = {
    "aggregate": "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms",
    "negation": "PATTERN SEQ(A, !D, B) AGG COUNT WITHIN 40 ms",
    "adjacent_slots": "PATTERN SEQ(A, B, B) AGG COUNT WITHIN 40 ms",
    "group_by": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY v",
}


def stream(seed, count=1200, gaps=(0, 0, 1, 2, 3), alphabet="ABCDZ"):
    """In-order events; a 0 in ``gaps`` gives tied timestamps."""
    rng = random.Random(seed)
    ts = 0
    events = []
    for _ in range(count):
        ts += rng.choice(gaps)
        events.append(
            Event(rng.choice(alphabet), ts, {"v": rng.randint(1, 9)})
        )
    return events


def force_kernel(monkeypatch, which):
    monkeypatch.setattr(
        vectorized_module, "_CLOSED_FORM_MIN_ROWS", CUT_OVER[which]
    )


def footprint(engine, executor, sink, registry):
    """Everything two lanes must agree on after the same stream."""
    results = engine.results()  # settles expiry at the final clock
    funnel = executor.funnel_counts()
    return {
        "sequence": [(o.query_name, o.ts, o.value) for o in sink.outputs],
        "results": results,
        "counter_updates": executor.counter_updates,
        "events_processed": executor.events_processed,
        "peak_counters": executor.runtime.peak_counters,
        "active_counters": executor.runtime.active_counters,
        "runs_extended": funnel["runs_extended"],
        "runs_expired": funnel["runs_expired"],
        **{name: registry.value(name) for name in SEM_SERIES},
    }


def reference_footprint(text, events):
    """The per-event lane on the reference ``SemEngine``."""
    registry = MetricsRegistry()
    engine = StreamEngine(registry=registry, funnel=FunnelRecorder())
    sink = CollectSink()
    executor = engine.register(parse_query(text), sink, name="q")
    assert isinstance(executor.runtime, SemEngine)
    for event in events:
        engine.process(event)
    return footprint(engine, executor, sink, registry)


def columnar_footprint(text, batches, monkeypatch, kernels):
    """The columnar lane, batch ``i`` on kernel ``kernels[i % len]``;
    also returns the runtime's own tally of which kernel ran."""
    registry = MetricsRegistry()
    engine = StreamEngine(
        routed=True, vectorized=True, registry=registry,
        funnel=FunnelRecorder(),
    )
    sink = CollectSink()
    executor = engine.register(parse_query(text), sink, name="q")
    for index, batch in enumerate(batches):
        force_kernel(monkeypatch, kernels[index % len(kernels)])
        engine.process_event_batch(batch)
    state = executor.runtime.inspect()
    return footprint(engine, executor, sink, registry), state


def oracle_sequence(text, events):
    """What a flat query must emit, by brute-force enumeration at every
    TRIG arrival that passes the local predicates."""
    query = parse_query(text)
    oracle = BruteForceOracle(query)
    reference = ASeqEngine(query)
    outputs = []
    for index, event in enumerate(events):
        if reference.process(event) is None:
            continue  # not a (surviving) TRIG arrival
        outputs.append(
            ("q", event.ts, oracle.aggregate(events[: index + 1]))
        )
    return outputs


# ----- closed form ≡ row loop ≡ SemEngine -------------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("text", ELIGIBLE)
def test_both_kernels_match_the_reference_footprint(
    text, batch_size, monkeypatch
):
    events = stream(seed=len(text) * 31 + batch_size)
    expected = reference_footprint(text, events)
    batches = list(batches_from_events(events, batch_size=batch_size))
    closed, state = columnar_footprint(
        text, batches, monkeypatch, ["closed_form"]
    )
    assert closed == expected
    assert state["kernel_slices"]["row_loop"] == 0
    assert state["kernel_slices"]["closed_form"] > 0
    loop, state = columnar_footprint(
        text, batches, monkeypatch, ["row_loop"]
    )
    assert loop == expected
    assert state["kernel_slices"]["closed_form"] == 0
    assert state["closed_form_fallbacks"]["small_slice"] > 0


@pytest.mark.parametrize("text", ELIGIBLE[:6])
def test_kernels_alternate_batch_by_batch_on_one_engine(text, monkeypatch):
    # Windows both shorter than a 97-row batch (25 ms) and longer than
    # several (300 ms): counters are carried in, updated by the other
    # kernel, and carried out again.
    events = stream(seed=7)
    expected = reference_footprint(text, events)
    batches = list(batches_from_events(events, batch_size=97))
    mixed, state = columnar_footprint(
        text, batches, monkeypatch, ["closed_form", "row_loop", "row_loop"]
    )
    assert mixed == expected
    assert state["kernel_slices"]["closed_form"] >= 4
    assert state["kernel_slices"]["row_loop"] >= 8


@pytest.mark.parametrize("reason", DECLINED)
def test_declined_plans_stay_on_the_row_loop(reason, monkeypatch):
    text = DECLINED[reason]
    query = parse_query(text)
    events = stream(seed=11, count=600)
    batch = EventBatch.from_events(events)
    executor = ASeqEngine(query, vectorized=True)
    plan = executor.columnar_plan(batch.schema)
    if reason == "group_by":
        # A GROUP BY runs the partition table's kernel whatever its
        # flat plan would allow.
        assert plan.key_attribute == "v"
    else:
        assert plan.closed_form_decline == reason

    force_kernel(monkeypatch, "closed_form")
    engine = StreamEngine(routed=True, vectorized=True)
    sink = CollectSink()
    executor = engine.register(query, sink, name="q")
    engine.process_event_batch(batch)
    reference = StreamEngine()
    expected = CollectSink()
    reference.register(query, expected, name="q")
    for event in events:
        reference.process(event)
    assert [(o.ts, o.value) for o in sink.outputs] == [
        (o.ts, o.value) for o in expected.outputs
    ]
    runtime = executor.runtime
    if reason == "group_by":
        assert runtime.inspect()["kernel_batches"]["batches"] == 1
        assert all(
            partition.inspect()["closed_form_scan_width"] == 0
            for _, partition in runtime.partitions()
        )
        kernel = "kernel: partition_table\n"
    else:
        state = runtime.inspect()
        assert state["kernel_slices"]["closed_form"] == 0
        assert state["kernel_slices"]["row_loop"] >= 1
        assert not any(state["closed_form_fallbacks"].values())
        kernel = f"kernel: row_loop ({reason})"
    assert kernel in render_explain(engine.explain())


def test_explain_names_the_closed_form():
    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(ELIGIBLE[1]), name="q")
    plan = engine.explain()
    assert plan["queries"]["q"]["kernel"] == {
        "kind": "closed_form", "reason": None,
    }
    assert "  columnar: kernel\n  kernel: closed_form\n" in render_explain(plan)
    # A registration off the kernel has no kernel body to name.
    materialized = StreamEngine(routed=True)
    materialized.register(parse_query(ELIGIBLE[1]), name="q")
    assert materialized.explain()["queries"]["q"]["kernel"] is None
    assert "kernel:" not in render_explain(materialized.explain())


def test_adjacency_is_about_update_slots_only():
    from repro.core.aggregates import PatternLayout

    def slug(text):
        return closed_form_decline(PatternLayout.of(parse_query(text)))

    assert slug("PATTERN SEQ(A, A, B) AGG COUNT WITHIN 9 ms") is None
    assert slug("PATTERN SEQ(A, B, A, B) AGG COUNT WITHIN 9 ms") is None
    assert slug("PATTERN SEQ(B, A, A) AGG COUNT WITHIN 9 ms") == (
        "adjacent_slots"
    )
    assert slug("PATTERN SEQ(A, B|C, C|D) AGG COUNT WITHIN 9 ms") == (
        "adjacent_slots"
    )


# ----- against the brute-force oracle -----------------------------------------


@pytest.mark.parametrize("text", ELIGIBLE[:4] + ELIGIBLE[6:7] + ELIGIBLE[-1:])
def test_closed_form_sequence_matches_the_oracle(text, monkeypatch):
    # Strictly increasing timestamps: the oracle's order is by ts.
    events = stream(seed=5, count=70, gaps=(1, 2, 3), alphabet="ABCD")
    expected = oracle_sequence(text, events)
    assert expected and any(value for _, _, value in expected)
    for batch_size in (7, 4096):
        batches = list(batches_from_events(events, batch_size=batch_size))
        closed, state = columnar_footprint(
            text, batches, monkeypatch, ["closed_form"]
        )
        assert closed["sequence"] == expected
        assert state["kernel_slices"]["row_loop"] == 0


# ----- hypothesis --------------------------------------------------------------


def patterns():
    """Flat COUNT patterns of length 2-8 over four types, some positions
    disjunctive; adjacent-slot ones included (they must take the loop)."""
    position = st.one_of(
        st.sampled_from("ABCD"),
        st.sampled_from(["A|B", "B|C", "C|D", "A|D"]),
    )
    return st.lists(position, min_size=2, max_size=8)


def timed_codes():
    element = st.tuples(
        st.sampled_from("ABCDZ"), st.integers(min_value=0, max_value=3)
    )
    return st.lists(element, min_size=0, max_size=120)


@settings(max_examples=120, deadline=None)
@given(
    positions=patterns(),
    rows=timed_codes(),
    window=st.sampled_from([1, 4, 11, 40, 1000]),
    batch_size=st.sampled_from([1, 5, 16, 200]),
    kernels=st.lists(
        st.sampled_from(["closed_form", "row_loop"]), min_size=1, max_size=3
    ),
)
def test_any_kernel_schedule_matches_the_reference(
    positions, rows, window, batch_size, kernels
):
    text = f"PATTERN SEQ({', '.join(positions)}) AGG COUNT WITHIN {window} ms"
    ts = 0
    events = []
    for event_type, gap in rows:
        ts += gap
        events.append(Event(event_type, ts))
    expected = reference_footprint(text, events)
    batches = list(batches_from_events(events, batch_size=batch_size))
    with pytest.MonkeyPatch.context() as monkeypatch:
        actual, _ = columnar_footprint(text, batches, monkeypatch, kernels)
    assert actual == expected


# ----- process_columns: lists, empty slices, unordered input ---------------------


def bound_pair(text, events):
    """A runtime, its plan and the kept ``codes``/``ts`` arrays."""
    executor = ASeqEngine(parse_query(text), vectorized=True)
    batch = EventBatch.from_events(events)
    plan = executor.columnar_plan(batch.schema)
    _, kept = plan.evaluate(batch)
    return executor.runtime, plan, batch.codes[kept], batch.ts[kept]


def test_process_columns_takes_lists_and_arrays_alike(monkeypatch):
    text = ELIGIBLE[2]
    events = stream(seed=3, count=500)
    for which in CUT_OVER:
        force_kernel(monkeypatch, which)
        from_arrays, plan, codes, ts = bound_pair(text, events)
        from_lists, _, _, _ = bound_pair(text, events)
        emitted = from_arrays.process_columns(codes, ts, plan)
        assert emitted == from_lists.process_columns(
            codes.tolist(), ts.tolist(), plan
        )
        # Emissions are plain Python ints whichever kernel made them.
        assert emitted and all(
            type(tag) is int and type(value) is int
            for tag, value in emitted
        )
        assert from_lists.process_columns([], [], plan) == []
        assert from_arrays.process_columns(codes[:0], ts[:0], plan) == []
        assert from_arrays.inspect() == from_lists.inspect()
        assert from_arrays.inspect()["kernel_slices"][which] == 1


def test_a_batch_with_no_kept_rows_still_moves_the_clock(monkeypatch):
    force_kernel(monkeypatch, "closed_form")
    text = ELIGIBLE[0]
    kept = [Event("A", 1), Event("A", 2), Event("B", 3)]
    idle = [Event("Z", 30), Event("Z", 60)]
    late = [Event("B", 61), Event("A", 62), Event("B", 63)]
    events = kept + idle + late
    expected = reference_footprint(text, events)
    batches = [EventBatch.from_events(part) for part in (kept, idle, late)]
    actual, state = columnar_footprint(
        text, batches, monkeypatch, ["closed_form"]
    )
    assert actual == expected
    assert state["kernel_slices"] == {"closed_form": 2, "row_loop": 0}


def test_unordered_slices_fall_back_and_are_tallied(monkeypatch):
    force_kernel(monkeypatch, "closed_form")
    text = ELIGIBLE[1]
    events = stream(seed=2, count=300)
    closed, plan, codes, ts = bound_pair(text, events)
    force_loop, _, _, _ = bound_pair(text, events)
    shuffled = ts.copy()
    shuffled[[10, 11]] = shuffled[[11, 10]] + np.array([1, -1])
    assert (np.diff(shuffled) < 0).any()
    emitted = closed.process_columns(codes, shuffled, plan)
    force_kernel(monkeypatch, "row_loop")
    assert emitted == force_loop.process_columns(codes, shuffled, plan)
    assert closed.inspect()["closed_form_fallbacks"]["unordered"] == 1
    # A slice starting behind the runtime clock falls back the same way.
    force_kernel(monkeypatch, "closed_form")
    closed.process_columns(codes, shuffled - 5, plan)
    assert closed.inspect()["closed_form_fallbacks"]["unordered"] == 2
    assert closed.inspect()["kernel_slices"] == {
        "closed_form": 0, "row_loop": 2,
    }


def test_cut_over_sends_small_slices_to_the_row_loop():
    text = ELIGIBLE[1]
    events = stream(seed=4, count=2000)
    runtime, plan, codes, ts = bound_pair(text, events)
    small = vectorized_module._CLOSED_FORM_MIN_ROWS - 1
    runtime.process_columns(codes[:small], ts[:small], plan)
    runtime.process_columns(codes[small:], ts[small:], plan)
    state = runtime.inspect()
    assert state["kernel_slices"] == {"closed_form": 1, "row_loop": 1}
    assert state["closed_form_fallbacks"] == {
        "small_slice": 1, "bound": 0, "unordered": 0,
    }
    reference = SemEngine(parse_query(text))
    for event in events:
        reference.process(event)
    assert runtime.result() == reference.result()
    assert runtime.counter_updates == reference.counter_updates


# ----- checkpoint → restore mid-stream -----------------------------------------


@pytest.mark.parametrize("first,second", [
    ("closed_form", "row_loop"),
    ("row_loop", "closed_form"),
    ("closed_form", "closed_form"),
])
def test_checkpoint_between_kernels(first, second, monkeypatch):
    query = parse_query(ELIGIBLE[5])
    events = stream(seed=9, count=900)
    reference = ASeqEngine(query)
    expected = [
        (event.ts, fresh)
        for event in events
        if (fresh := reference.process(event)) is not None
    ]

    def run(engine, part):
        outputs = []
        for batch in batches_from_events(part, batch_size=150):
            plan = engine.columnar_plan(batch.schema)
            emitted, _ = engine.process_columnar(batch, plan, routed=False)
            outputs.extend(emitted)
        return outputs

    force_kernel(monkeypatch, first)
    engine = ASeqEngine(query, vectorized=True)
    outputs = run(engine, events[:450])
    assert engine.runtime.active_counters > 0
    state = checkpoint(engine)
    force_kernel(monkeypatch, second)
    restored = restore(query, state, vectorized=True)
    assert isinstance(restored.runtime, VectorizedSemEngine)
    outputs += run(restored, events[450:])
    assert outputs == expected
    assert restored.result() == reference.result()
    # The rings the two kernels leave behind are the same ring.
    force_kernel(monkeypatch, first)
    straight = ASeqEngine(query, vectorized=True)
    run(straight, events)
    assert checkpoint(straight)["runtime"] == checkpoint(restored)["runtime"]


# ----- the int64 bound -----------------------------------------------------------


LONG = "PATTERN SEQ(A, B, C, D, E, F, G, H, I) AGG COUNT WITHIN {window} ms"


def staircase(rows, per_type, types="ABCDEFGHI"):
    """``rows`` events, one per ms, in blocks — ``per_type`` of every
    type but the last, then the last type to the end: the order that
    maximises the number of matches."""
    names = [name for name in types[:-1] for _ in range(per_type)]
    names += [types[-1]] * (rows - len(names))
    return [Event(name, ts + 1) for ts, name in enumerate(names)]


def sem_sequence(text, events):
    reference = SemEngine(parse_query(text))
    return [
        (event.ts, fresh)
        for event in events
        if (fresh := reference.process(event)) is not None
    ]


def test_bound_failure_runs_the_exact_row_loop(monkeypatch):
    # 128 events of each of eight types, then 3072 TRIGs: every TRIG
    # adds 128^8 = 2^56 matches, so totals pass 2^63 at the 128th while
    # each single counter (≤ 3072 · 2^49) still fits the ring. The
    # closed form must decline the slice; the row loop's Python ints
    # emit the exact totals — SemEngine's, beyond int64.
    force_kernel(monkeypatch, "closed_form")
    events = staircase(4096, per_type=128)
    text = LONG.format(window=10_000)
    expected = sem_sequence(text, events)
    assert len(expected) == 3072 and expected[-1][1] == 3072 * 2**56
    runtime, plan, codes, ts = bound_pair(text, events)
    assert runtime.process_columns(codes, ts, plan) == expected
    state = runtime.inspect()
    assert state["closed_form_fallbacks"]["bound"] == 1
    assert state["kernel_slices"] == {"closed_form": 0, "row_loop": 1}
    # One TRIG fewer than the bound can prove is the closed form's.
    runtime, plan, codes, ts = bound_pair(text, events[: 1024 + 30])
    assert runtime.process_columns(codes, ts, plan) == expected[:30]
    assert runtime.inspect()["kernel_slices"]["closed_form"] == 1


def test_a_counter_past_int64_raises_instead_of_wrapping(monkeypatch):
    # 455 of each of nine types: a single counter reaches 455^8 > 2^63.
    # The bound sends the slice to the row loop, whose write-back into
    # the int64 ring raises — as it did before there was a closed form.
    force_kernel(monkeypatch, "closed_form")
    events = staircase(4096, per_type=455)
    text = LONG.format(window=10_000)
    runtime, plan, codes, ts = bound_pair(text, events)
    with pytest.raises(OverflowError):
        runtime.process_columns(codes, ts, plan)
    assert runtime.inspect()["closed_form_fallbacks"]["bound"] == 1


def test_per_window_bound_admits_what_the_per_batch_bound_refuses(
    monkeypatch,
):
    # The same 4096-row staircase under a 60 ms window: no counter ever
    # sees more than 60 rows, so every true value is tiny, but the
    # per-batch product 455^8 fails the first check. The per-window
    # count keeps the slice on the closed form, exact against SemEngine.
    force_kernel(monkeypatch, "closed_form")
    rng = random.Random(1)
    events = [
        Event(rng.choice("ABCDEFGHI"), ts + 1) for ts in range(4096)
    ]
    text = LONG.format(window=60)
    expected = reference_footprint(text, events)
    actual, state = columnar_footprint(
        text, [EventBatch.from_events(events)], monkeypatch, ["closed_form"]
    )
    assert actual == expected
    assert any(value for _, _, value in expected["sequence"])
    assert state["kernel_slices"] == {"closed_form": 1, "row_loop": 0}
    # ... and the first check alone would have refused it.
    runtime, plan, codes, ts = bound_pair(text, events)
    monkeypatch.setattr(runtime, "_window_ms", 10**6)
    steps = plan.slot_luts.take(codes, axis=1)
    assert not runtime._fits_int64(steps, ts, runtime._counts[:, :0])


def test_carried_counters_count_against_the_bound(monkeypatch):
    force_kernel(monkeypatch, "closed_form")
    text = "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 100000 ms"
    events = staircase(3000, per_type=1000, types="ABC")
    runtime, plan, codes, ts = bound_pair(text, events)
    runtime.process_columns(codes[:2500], ts[:2500], plan)
    assert runtime.inspect()["kernel_slices"]["closed_form"] == 1
    # Plant a carried count so large that 500 more C rows cannot fit.
    runtime._counts[1, runtime._head] = 2**62
    before = runtime.inspect()["closed_form_fallbacks"]["bound"]
    state = _runtime_state(runtime)
    ring = runtime._head, runtime._tail
    books = (
        runtime.events_processed, runtime.counter_updates,
        runtime.peak_counters,
    )
    with pytest.raises(OverflowError):
        runtime.process_columns(codes[2500:], ts[2500:], plan)
    assert runtime.inspect()["closed_form_fallbacks"]["bound"] == before + 1
    # The row loop raised before writing its lists back to the ring.
    assert _runtime_state(runtime) == state
    assert (runtime._head, runtime._tail) == ring
    assert (
        runtime.events_processed, runtime.counter_updates,
        runtime.peak_counters,
    ) == books


# ----- the REPRO_FORCE_COLUMNAR leg ------------------------------------------------


@pytest.mark.parametrize("text", ELIGIBLE[:5])
def test_process_batch_agrees_with_per_event(text):
    # Under REPRO_FORCE_COLUMNAR=1 ``process_batch`` is rerouted through
    # the columnar lane, and 700-event batches are above the cut-over:
    # the CI leg runs this through the closed form, a plain run through
    # the per-event vectorized engine.
    events = stream(seed=13, count=2100, gaps=(1, 2))
    expected = reference_footprint(text, events)
    registry = MetricsRegistry()
    engine = StreamEngine(
        routed=True, vectorized=True, registry=registry,
        funnel=FunnelRecorder(),
    )
    sink = CollectSink()
    executor = engine.register(parse_query(text), sink, name="q")
    for start in range(0, len(events), 700):
        engine.process_batch(events[start : start + 700])
    actual = footprint(engine, executor, sink, registry)
    assert actual == expected
