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
