"""The columnar SEM runtime must be indistinguishable from the reference."""

import pytest

from conftest import random_events
from repro.core.sem import SemEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.errors import QueryError
from repro.query import seq


def _mirror(query, events):
    """Replay both engines and compare outputs step by step."""
    reference = SemEngine(query)
    vectorized = VectorizedSemEngine(query)
    for event in events:
        expected = reference.process(event)
        actual = vectorized.process(event)
        if expected is None or actual is None:
            assert expected == actual
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected)
        else:
            assert actual == expected
        assert (
            vectorized.active_counters == reference.active_counters
        ), f"counter sets diverged at ts={event.ts}"
    return reference, vectorized


class TestVectorizedSem:
    def test_requires_window(self):
        with pytest.raises(QueryError):
            VectorizedSemEngine(seq("A", "B").build())

    def test_count_streams_mirror_reference(self, rng):
        query = seq("A", "B", "C").count().within(ms=15).build()
        for _ in range(25):
            events = random_events(rng, ["A", "B", "C", "Z"], 60)
            relevant = [e for e in events if e.event_type != "Z"]
            _mirror(query, relevant)

    def test_negation_mirrors_reference(self, rng):
        query = seq("A", "!N", "B", "C").count().within(ms=15).build()
        for _ in range(25):
            events = random_events(rng, ["A", "B", "C", "N"], 60)
            _mirror(query, events)

    @pytest.mark.parametrize("kind", ["sum", "avg", "max", "min"])
    def test_value_aggregates_mirror_reference(self, rng, kind):
        builder = seq("A", "B", "C")
        query = (
            getattr(builder, kind)("B", "w").within(ms=15).build()
        )

        def attrs(r, event_type):
            return {"w": r.randint(1, 20)}

        for _ in range(15):
            events = random_events(
                rng, ["A", "B", "C"], 50, attr_maker=attrs
            )
            _mirror(query, events)

    def test_start_slot_aggregate_mirrors_reference(self, rng):
        query = seq("A", "B").sum("A", "w").within(ms=10).build()

        def attrs(r, event_type):
            return {"w": r.randint(1, 9)}

        for _ in range(15):
            events = random_events(rng, ["A", "B"], 40, attr_maker=attrs)
            _mirror(query, events)

    def test_ring_buffer_growth_and_compaction(self):
        """Push far more STARTs than the initial capacity."""
        from repro.events import Event

        query = seq("A", "B").count().within(ms=50).build()
        engine = VectorizedSemEngine(query)
        reference = SemEngine(query)
        for ts in range(1, 2000):
            event = Event("A" if ts % 3 else "B", ts)
            engine.process(event)
            reference.process(event)
        assert engine.result() == reference.result()
        assert engine.active_counters == reference.active_counters

    def test_ring_outgrown_inside_one_columnar_call_stays_exact(self):
        """One ``process_columns`` call opens far more STARTs than the
        ring holds: the write-back must grow it, and the per-event path
        must be able to carry on from the grown ring."""
        from repro.core.executor import ASeqEngine
        from repro.core.vectorized import _INITIAL_CAPACITY
        from repro.events import Event
        from repro.events.batch import EventBatch

        query = seq("A", "B").sum("B", "w").within(ms=1000).build()
        events = [
            Event("B" if ts % 4 == 0 else "A", ts, {"w": ts % 7})
            for ts in range(1, 400)
        ]
        head, tail = events[:300], events[300:]
        reference = ASeqEngine(query)
        expected = [
            (event.ts, fresh)
            for event in head
            if (fresh := reference.process(event)) is not None
        ]
        engine = ASeqEngine(query, vectorized=True)
        batch = EventBatch.from_events(head)
        emitted, _ = engine.process_columnar(
            batch, engine.columnar_plan(batch.schema), routed=False
        )
        assert emitted == expected
        assert engine.runtime.active_counters > 4 * _INITIAL_CAPACITY
        assert engine.runtime.inspect()["capacity"] >= (
            engine.runtime.active_counters
        )
        for event in tail:
            assert engine.process(event) == reference.process(event)

    def test_advance_time(self):
        from repro.events import Event

        query = seq("A", "B").count().within(ms=5).build()
        engine = VectorizedSemEngine(query)
        engine.process(Event("A", 1))
        engine.process(Event("B", 2))
        assert engine.result() == 1
        engine.advance_time(10)
        assert engine.result() == 0
        assert engine.active_counters == 0

    def test_count_and_wsum(self):
        from repro.events import Event

        query = seq("A", "B").sum("B", "w").within(ms=10).build()
        engine = VectorizedSemEngine(query)
        engine.process(Event("A", 1))
        engine.process(Event("B", 2, {"w": 4}))
        assert engine.count_and_wsum() == (1, 4.0)


# ----- row-loop calls interleaved with per-event ingest ------------------------


def _runtimes(executor):
    """Each counting runtime of an executor, by partition key (None for
    a flat query)."""
    runtime = executor.runtime
    if hasattr(runtime, "partitions"):
        return dict(runtime.partitions())
    return {None: runtime}


def _books(executor):
    return {
        key: (
            runtime.events_processed,
            runtime.counter_updates,
            runtime.peak_counters,
        )
        for key, runtime in _runtimes(executor).items()
    }


def _interleaved(text, seed):
    """A seeded run interleaving kernel batches, per-event ``process``,
    ``result()``, ``advance_time`` and checkpoint/restore on one
    vectorized executor; at every step its outputs, checkpoint document
    and books must be those of the same executor fed per event, and its
    outputs those of the reference ``SemEngine`` lane."""
    import random

    from repro.core.checkpoint import checkpoint, restore
    from repro.core.executor import ASeqEngine
    from repro.events import Event
    from repro.events.batch import EventBatch
    from repro.query import parse_query

    rng = random.Random(seed)
    query = parse_query(text)
    kernel = ASeqEngine(query, vectorized=True)
    per_event = ASeqEngine(query, vectorized=True)
    reference = ASeqEngine(query)
    ts = 0
    kernel_steps = 0

    def arrivals(count):
        nonlocal ts
        events = []
        for _ in range(count):
            ts += rng.randint(1, 6)
            events.append(Event(rng.choice("AABBNZ"), ts, {
                "price": rng.randint(1, 90) / 4,
                "volume": rng.randint(1, 5),
            }))
        return events

    for _ in range(140):
        step = rng.choice(
            ["batch"] * 5 + ["event", "result", "advance", "checkpoint"]
        )
        if step in ("batch", "event"):
            events = arrivals(rng.randint(1, 48) if step == "batch" else 1)
            expected = [
                (event.ts, fresh)
                for event in events
                if (fresh := per_event.process(event)) is not None
            ]
            assert expected == [
                (event.ts, fresh)
                for event in events
                if (fresh := reference.process(event)) is not None
            ]
            if step == "batch":
                batch = EventBatch.from_events(events)
                emitted, offered = kernel.process_columnar(
                    batch, kernel.columnar_plan(batch.schema), routed=False
                )
                assert offered == len(events)
                kernel_steps += 1
            else:
                emitted = [
                    (event.ts, fresh)
                    for event in events
                    if (fresh := kernel.process(event)) is not None
                ]
            assert emitted == expected, step
        elif step == "result":
            assert kernel.result() == per_event.result() == (
                reference.result()
            )
        elif step == "advance":
            ts += rng.randint(0, 40)
            for executor in (kernel, per_event, reference):
                executor.advance_time(ts)
        else:
            document = checkpoint(kernel)
            assert document == checkpoint(per_event)
            if rng.random() < 0.5:
                kernel = restore(query, document, vectorized=True)
                per_event = restore(query, document, vectorized=True)
        assert _books(kernel) == _books(per_event), step
        assert kernel.events_seen == per_event.events_seen
    assert kernel_steps > 40
    assert checkpoint(kernel) == checkpoint(per_event)
    assert kernel.result() == per_event.result() == reference.result()
    return kernel


@pytest.mark.parametrize("seed", range(4))
def test_grouped_list_state_matches_the_per_event_lane(seed):
    kernel = _interleaved(
        "PATTERN SEQ(A, !N, B) AGG SUM(B.price) WITHIN 60 ms "
        "GROUP BY volume",
        seed,
    )
    assert kernel.runtime.partition_count == 5


@pytest.mark.parametrize("seed", range(4))
def test_flat_list_state_matches_the_per_event_lane(seed):
    _interleaved("PATTERN SEQ(A, !N, B) AGG SUM(B.price) WITHIN 60 ms", seed)


# ----- int64 headroom on the per-event path ---------------------------------------


def _staircase(rows, per_type, types="ABCDEFGHI"):
    """``per_type`` of every type but the last, then the last to the
    end, one per ms: the order that maximises the number of matches."""
    from repro.events import Event

    names = [name for name in types[:-1] for _ in range(per_type)]
    names += [types[-1]] * (rows - len(names))
    return [Event(name, ts + 1) for ts, name in enumerate(names)]


LONG = "PATTERN SEQ(A, B, C, D, E, F, G, H, I) AGG COUNT WITHIN 10000 ms"


def test_per_event_counts_past_int64_raise_instead_of_wrapping():
    """Each live count reaches 455^7 < 2^63 by the first I, so the
    totals the first two I report (past 2^63 themselves) are exact; the
    third I would push a count past int64 and raises before writing."""
    from repro.errors import CounterOverflowError
    from repro.query import parse_query

    query = parse_query(LONG)
    reference = SemEngine(query)
    runtime = VectorizedSemEngine(query)
    emitted = []
    with pytest.raises(CounterOverflowError):
        for event in _staircase(4096, per_type=455):
            expected = reference.process(event)
            assert runtime.process(event) == expected
            if expected is not None:
                emitted.append(expected)
    assert emitted == [455**8, 2 * 455**8]
    assert emitted[0] > 2**63


def test_a_restored_runtime_keeps_its_headroom():
    from repro.core.checkpoint import checkpoint, restore
    from repro.core.executor import ASeqEngine
    from repro.errors import CounterOverflowError
    from repro.query import parse_query

    query = parse_query(LONG)
    events = _staircase(4096, per_type=455)
    executor = ASeqEngine(query, vectorized=True)
    for event in events[:3640]:
        executor.process(event)
    restored = restore(query, checkpoint(executor), vectorized=True)
    assert restored.process(events[3640]) == 455**8
    assert restored.process(events[3641]) == 2 * 455**8
    with pytest.raises(CounterOverflowError):
        restored.process(events[3642])
