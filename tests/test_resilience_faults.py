"""The fault-injection harness itself, plus end-to-end chaos runs."""

import random

import pytest

from repro.engine.sinks import CollectSink
from repro.events import Event
from repro.obs.registry import MetricsRegistry
from repro.query import seq
from repro.resilience import (
    BurstySink,
    Checkpointer,
    EventJournal,
    FaultPlan,
    FaultyExecutor,
    InjectedFault,
    SupervisedStreamEngine,
    fault_seed,
    recover,
)
from repro.core.executor import ASeqEngine


def ab_query(name="ab"):
    return seq("A", "B").count().within(ms=10).named(name).build()


# ----- seed plumbing ---------------------------------------------------------


def test_fault_seed_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
    assert fault_seed(default=7) == 7
    monkeypatch.setenv("REPRO_FAULT_SEED", "42")
    assert fault_seed() == 42
    assert FaultPlan().seed == 42
    monkeypatch.setenv("REPRO_FAULT_SEED", "not-a-number")
    with pytest.raises(ValueError):
        fault_seed()


# ----- FaultyExecutor --------------------------------------------------------


def test_faulty_executor_fails_only_at_chosen_ordinals():
    inner = ASeqEngine(ab_query())
    faulty = FaultyExecutor(inner, fail_at={1, 3})
    events = [Event("AB"[i % 2], i + 1) for i in range(6)]
    outcomes = []
    for event in events:
        try:
            faulty.process(event)
            outcomes.append("ok")
        except InjectedFault:
            outcomes.append("fail")
    assert outcomes == ["ok", "fail", "ok", "fail", "ok", "ok"]
    assert faulty.failures == 2
    # the inner engine never saw the failed events
    assert inner.events_seen == 4


def test_faulty_executor_delegates_surface():
    inner = ASeqEngine(ab_query())
    faulty = FaultyExecutor(inner)
    faulty.process(Event("A", 1))
    faulty.process(Event("B", 2))
    assert faulty.result() == inner.result() == 1
    assert faulty.query is inner.query
    assert faulty.current_objects() == inner.current_objects()


# ----- BurstySink ------------------------------------------------------------


def test_bursty_sink_fails_in_bursts():
    sink = BurstySink(period=5, burst_len=2)
    from repro.engine.sinks import Output

    for i in range(10):
        try:
            sink.emit(Output("q", i, i))
        except InjectedFault:
            pass
    assert sink.failures == 4  # emits 0,1,5,6
    assert [output.ts for output in sink.delivered] == [2, 3, 4, 7, 8, 9]


def test_bursty_sink_failures_are_isolated_by_the_engine():
    registry = MetricsRegistry()
    engine = SupervisedStreamEngine(registry=registry)
    bursty = BurstySink(period=3, burst_len=1)
    collect = CollectSink()
    engine.register(ab_query(), bursty, collect)
    for i in range(40):
        engine.process(Event("AB"[i % 2], i + 1))
    assert engine.metrics.sink_errors == bursty.failures > 0
    assert registry.value("sink_errors_total") == bursty.failures
    # the second sink saw every output despite the bursty one
    assert len(collect) == engine.metrics.outputs


# ----- end-to-end chaos ------------------------------------------------------


def test_chaos_everything_at_once(tmp_path):
    """Flaky executor + bursty sink + crash + torn tail + corrupt
    newest checkpoint, all seeded — recovery still converges to the
    uninterrupted oracle for the healthy query."""
    plan = FaultPlan()
    rng = random.Random(plan.seed + 1009)
    events = []
    ts = 0
    for _ in range(300):
        ts += rng.randint(1, 2)
        events.append(Event(rng.choice("AB"), ts))
    healthy = ab_query("healthy")
    expected_oracle = SupervisedStreamEngine()
    expected_oracle.register(healthy)
    for event in events:
        expected_oracle.process(event)
    expected = expected_oracle.result("healthy")

    engine = SupervisedStreamEngine(quarantine_after=3)
    journal = EventJournal(tmp_path, fsync="interval", fsync_interval=32)
    engine.attach_journal(journal)
    engine.attach_checkpointer(
        Checkpointer(engine, journal, every_events=31)
    )
    engine.register(ab_query("healthy"), plan.bursty_sink())
    engine.register_executor(
        "flaky",
        plan.faulty(ASeqEngine(ab_query("flaky")), len(events), 40),
    )
    crash = plan.crash_point(len(events))
    if crash % 31 == 0:
        crash -= 1
    for event in events[:crash]:
        engine.process(event)
    del engine

    plan.tear_journal(tmp_path)
    plan.corrupt_latest_checkpoint(tmp_path)
    recovered = recover(
        tmp_path, queries=[ab_query("healthy")], quarantine_after=3
    )
    # the torn tail lost at most events[crash-1]; re-deliver from there
    replay_from = max(0, crash - 1)
    for event in events[replay_from:]:
        recovered.process(event)
    assert recovered.result("healthy") == expected


def test_fault_plan_shard_to_kill_is_seeded():
    first = [FaultPlan(7).shard_to_kill(4) for _ in range(8)]
    second = [FaultPlan(7).shard_to_kill(4) for _ in range(8)]
    assert first == second
    assert all(0 <= victim < 4 for victim in first)
    draws = FaultPlan(7)
    assert [draws.shard_to_kill(4) for _ in range(8)] != first or len(
        set(first)
    ) == 1  # one plan advances its rng between draws


def test_shard_kill_tick_counts_down_and_fires_once():
    from types import SimpleNamespace

    from repro.resilience import kill_shard

    engine = SimpleNamespace(
        _workers=[SimpleNamespace(process=None)]
    )
    kill = kill_shard(engine, 0, after_events=3)
    assert not kill.fired
    assert kill.tick() is False
    assert kill.tick() is False
    assert kill.tick() is False  # fires, but there is no process to hit
    assert kill.fired
    assert kill.tick() is False  # armed once; never fires again
