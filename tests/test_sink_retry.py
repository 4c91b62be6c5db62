"""Bounded sink-delivery retry with backoff and dead-lettering.

``StreamEngine(sink_retries=N)`` retries a failing sink emit up to N
times (exponential backoff, jitter seeded via ``REPRO_FAULT_SEED``);
when every attempt fails the output is pushed to ``sink_dlq`` as a
DeadLetter carrying the undelivered payload. The default (0 retries,
no DLQ) is the historical count-and-drop behavior.
"""

from __future__ import annotations

import time

from repro.engine import CollectSink, StreamEngine
from repro.engine.sinks import Output, ResultSink
from repro.events.event import Event
from repro.query import seq
from repro.resilience import (
    DeadLetterQueue,
    EventJournal,
    SupervisedStreamEngine,
)
from repro.resilience.faults import BurstySink, InjectedFault


class AlwaysFailingSink(ResultSink):
    def __init__(self):
        self.attempts = 0

    def emit(self, output: Output) -> None:
        self.attempts += 1
        raise InjectedFault(f"attempt #{self.attempts}")


def _ab_query():
    return seq("A", "B").count().within(ms=10).named("ab").build()


def _ab_events(pairs: int):
    events = []
    ts = 0
    for _ in range(pairs):
        events.append(Event("A", ts + 1))
        events.append(Event("B", ts + 2))
        ts += 2
    return events


def test_retry_recovers_bursty_sink_without_loss():
    engine = StreamEngine(sink_retries=2, sink_retry_backoff_s=0.0)
    sink = BurstySink(period=2, burst_len=1)  # every other emit fails once
    engine.register(_ab_query(), sink)
    engine.run(_ab_events(6))
    # Every failed first attempt is recovered by a retry: no output lost.
    assert len(sink.delivered) == 6
    assert sink.failures > 0
    assert engine.metrics.sink_errors == sink.failures


def test_default_remains_count_and_drop():
    engine = StreamEngine()
    sink = BurstySink(period=2, burst_len=1)
    engine.register(_ab_query(), sink)
    engine.run(_ab_events(6))
    # No retries: the bursty emits are simply lost (and counted).
    assert len(sink.delivered) == 3
    assert engine.metrics.sink_errors == 3


def test_exhausted_retries_dead_letter_the_output():
    dlq = DeadLetterQueue(capacity=16)
    engine = StreamEngine(
        sink_retries=2, sink_retry_backoff_s=0.0, sink_dlq=dlq
    )
    sink = AlwaysFailingSink()
    engine.register(_ab_query(), sink)
    engine.run(_ab_events(2))
    assert sink.attempts == 2 * (1 + 2)  # initial try + 2 retries, twice
    assert len(dlq) == 2
    letter = dlq.drain()[0]
    assert letter.query_name == "ab"
    assert letter.output is not None
    assert letter.output.query_name == "ab"
    assert isinstance(letter.error, InjectedFault)


def test_sibling_sinks_unaffected_by_failing_sink():
    good = CollectSink()
    engine = StreamEngine(sink_retries=1, sink_retry_backoff_s=0.0)
    engine.register(_ab_query(), AlwaysFailingSink(), good)
    engine.run(_ab_events(4))
    assert len(good.values()) == 4


def test_supervised_engine_wires_sink_dlq_to_its_own_dlq(tmp_path):
    for batch_size in (0, 4):
        engine = SupervisedStreamEngine(
            sink_retries=1, sink_retry_backoff_s=0.0, batch_size=batch_size
        )
        engine.attach_journal(EventJournal(tmp_path / str(batch_size)))
        assert engine.sink_dlq is engine.dlq
        sink = AlwaysFailingSink()
        engine.register(_ab_query(), sink)
        engine.run(_ab_events(3))
        letters = [letter for letter in engine.dlq.drain() if letter.output]
        assert len(letters) == 3
        # Each undelivered output names the B event that triggered it,
        # per event and per batch alike.
        assert [letter.journal_seq for letter in letters] == [1, 3, 5]


def test_kernel_lane_sink_dead_letters_name_their_arrival(tmp_path):
    from repro.events.batch import EventBatch

    engine = SupervisedStreamEngine(
        vectorized=True, sink_retries=1, sink_retry_backoff_s=0.0
    )
    engine.attach_journal(EventJournal(tmp_path))
    engine.register(_ab_query(), AlwaysFailingSink())
    events = _ab_events(3)
    engine.process_event_batch(EventBatch.from_events(events))
    state = engine.executor_of("ab").runtime.inspect()
    assert state["kernel_slices"]["row_loop"] == 1
    letters = [letter for letter in engine.dlq.drain() if letter.output]
    # The kernel emits from columns; the B row behind each undelivered
    # output becomes an event only for its dead letter.
    assert [letter.journal_seq for letter in letters] == [1, 3, 5]
    assert [letter.event for letter in letters] == events[1::2]


def test_zero_backoff_does_not_sleep():
    engine = StreamEngine(sink_retries=3, sink_retry_backoff_s=0.0)
    engine.register(_ab_query(), AlwaysFailingSink())
    started = time.perf_counter()
    engine.run(_ab_events(10))
    assert time.perf_counter() - started < 1.0


def test_backoff_grows_exponentially_with_seeded_jitter(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
    engine = StreamEngine(sink_retries=3, sink_retry_backoff_s=0.01)
    engine.register(_ab_query(), AlwaysFailingSink())
    engine.run(_ab_events(1))
    assert len(sleeps) == 3
    # Base delays 0.01, 0.02, 0.04 with jitter factor in [0.5, 1.5).
    for delay, base in zip(sleeps, (0.01, 0.02, 0.04)):
        assert base * 0.5 <= delay < base * 1.5


def test_negative_retries_rejected():
    import pytest

    with pytest.raises(ValueError):
        StreamEngine(sink_retries=-1)
