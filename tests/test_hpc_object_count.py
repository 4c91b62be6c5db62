"""HPC's kept live-object total is exact after every event.

``HPCEngine`` keeps the sum of its partitions' ``current_objects()``
instead of recounting it on each call (the executor samples it after
every kept event for ``peak_objects``, the paper's memory metric).
Here a twin engine whose runtime recounts on every call is the
reference: after each event the kept total must equal a fresh recount
over the partition engines, and ``peak_objects`` must equal the twin's.
The stream walks every path that touches the total — GROUP BY,
a composite key, key-less negated broadcasts, unwindowed (DPC)
partitions, results mid-stream, a columnar batch followed by per-event
events, and an ``apply_engine_state`` restore mid-stream (the restore
writes the partitions directly, so a total it failed to invalidate
shows up on the next event).
"""

import random

import pytest

from conftest import random_events
from repro.engine.engine import StreamEngine
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.query import parse_query
from repro.resilience.checkpointer import apply_engine_state, engine_state

#: Fixed, not drawn from REPRO_FAULT_SEED: the offsets below are ones
#: where the stale-total paths actually change the count on this stream.
SEED = 7

QUERIES = {
    "neg_keyless": "PATTERN SEQ(A, !N, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "count": "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 60 ms GROUP BY g",
    "composite": (
        "PATTERN SEQ(A, !N, B) AGG SUM(B.v) WITHIN 50 ms "
        "WHERE A.u = B.u GROUP BY g"
    ),
    "dpc": "PATTERN SEQ(A, !N, B) AGG SUM(B.v) GROUP BY g",
    "max": "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 50 ms GROUP BY g",
    "equivalence": (
        "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 50 ms WHERE A.g = B.g"
    ),
}


def stream(seed, count=900):
    """Keyed events, with key-less ``N`` outside the columnar slice
    (rows 300-499) so that slice can stay on the kernel."""
    rng = random.Random(seed)
    events = random_events(
        rng, "ABCNZ", count,
        attr_maker=lambda r, t: {
            "g": r.randint(0, 5), "u": r.randint(0, 2), "v": r.randint(1, 9),
        },
    )
    for index, event in enumerate(events):
        if event.event_type == "N" and not 300 <= index < 500 and index % 3:
            events[index] = Event("N", event.ts)
    return events


def recount(runtime):
    return sum(engine.current_objects() for _, engine in runtime.partitions())


def recounting(engine):
    """Make the registration's runtime recount on every call — the
    reference the kept total must agree with."""
    runtime = engine._registrations["q"].executor._runtime
    runtime.current_objects = lambda: recount(runtime)


def executor_of(engine):
    return engine._registrations["q"].executor


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_kept_object_count_is_exact_after_every_event(name, vectorized):
    events = stream(SEED)
    kept, reference = (
        StreamEngine(routed=True, vectorized=vectorized) for _ in range(2)
    )
    for engine in (kept, reference):
        engine.register(parse_query(QUERIES[name]), name="q")
    recounting(reference)

    def check(where):
        runtime = executor_of(kept)._runtime
        assert runtime.current_objects() == recount(runtime), where
        assert (
            executor_of(kept).peak_objects
            == executor_of(reference).peak_objects
        ), where

    def per_event(start, stop):
        for index in range(start, stop):
            outputs = [
                engine.process(events[index]) for engine in (kept, reference)
            ]
            assert outputs[0] == outputs[1]
            check(f"event {index}")

    per_event(0, 200)
    assert kept.results() == reference.results()
    check("after results()")
    # The AVG-merge totals advance every partition they read; the
    # offsets are ones where that expires counters on this stream.
    weighted = "SUM(" in QUERIES[name] or "AVG(" in QUERIES[name]
    for totals, start, stop in (
        ("group_count_and_wsum", 200, 260), ("count_and_wsum", 260, 280),
    ):
        per_event(start, stop)
        if weighted:
            assert getattr(executor_of(kept), totals)() == getattr(
                executor_of(reference), totals
            )()
            check(f"after {totals}()")
    per_event(280, 300)
    batch = EventBatch.from_events(events[300:500])
    for engine in (kept, reference):
        engine.process_event_batch(batch)
    check("after the columnar batch")
    per_event(500, 650)
    for engine in (kept, reference):
        apply_engine_state(engine, engine_state(engine))
    recounting(reference)
    # The restored executor starts its peak afresh, like the twin's.
    check("after the restore")
    per_event(650, len(events))
    assert kept.results() == reference.results()
    assert executor_of(kept).peak_objects > 0


def test_the_columnar_batch_runs_on_the_kernel():
    """The flat GROUP BY shape takes the kernel lane for the batch, so
    the test above covers the per-batch invalidation, not a fallback."""
    events = stream(SEED)
    engine = StreamEngine(routed=True, vectorized=True)
    engine.register(parse_query(QUERIES["count"]), name="q")
    for event in events[:300]:
        engine.process(event)
    engine.process_event_batch(EventBatch.from_events(events[300:500]))
    plan = engine._registrations["q"].columnar[1]
    assert plan is not None and plan.last_decline is None
