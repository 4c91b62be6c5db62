"""Differential kill-and-recover suite for the supervised sharded engine.

The contract under test: with supervision on, killing, stalling or
poisoning any single shard worker mid-stream leaves the merged results
**bit-identical** to the single-process reference engine — the
supervisor restarts the worker and re-seeds it exactly from its
checkpoint plus a replay of that shard's journal suffix. Once a shard
exhausts its restart budget it degrades: its key-range folds into the
local process (still exact) and the engine reports it as degraded.

Everything here is seeded through ``REPRO_FAULT_SEED`` (default 0) so a
failing chaos run replays byte-for-byte.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import random_events
from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine, shard_of
from repro.errors import EngineError, OverloadError
from repro.events.event import Event
from repro.query import parse_query
from repro.resilience.faults import (
    FaultPlan,
    fault_seed,
    hang_shard_pipe,
    kill_shard,
    stall_shard,
)

SEEDS = [fault_seed(0) * 101 + offset for offset in (0, 1, 2)]

QUERIES = {
    "count": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "sum": "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g",
    "avg": "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 40 ms GROUP BY g",
    "max": "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 40 ms GROUP BY g",
    "min": "PATTERN SEQ(A, B) AGG MIN(B.v) WITHIN 40 ms GROUP BY g",
    "neg": "PATTERN SEQ(A, !C, B) AGG COUNT WITHIN 40 ms GROUP BY g",
}


def _attrs(rng, _event_type):
    return {"g": rng.randrange(16), "v": rng.randrange(1000)}


def _stream(plan: FaultPlan, count: int):
    return random_events(plan.rng, "ABC", count, attr_maker=_attrs)


def _reference(events) -> dict:
    engine = StreamEngine()
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    for event in events:
        engine.process(event)
    engine.advance_clock(events[-1].ts)
    return engine.results()


def _supervised(shards: int, **overrides) -> ShardedStreamEngine:
    settings = dict(
        shards=shards,
        batch_size=64,
        heartbeat_interval_s=0.05,
        heartbeat_max_missed=2,
        checkpoint_every_batches=4,
    )
    settings.update(overrides)
    engine = ShardedStreamEngine(**settings)
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    return engine


def _wait_for(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# ----- exactness across SIGKILL ---------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_sigkill_mid_stream_is_exact(seed, shards):
    """Kill one worker at a seeded offset; merged results stay
    bit-identical to the single-process reference."""
    plan = FaultPlan(seed)
    events = _stream(plan, 900)
    expected = _reference(events)
    crash_at = plan.crash_point(len(events))
    victim = plan.shard_to_kill(shards)
    with _supervised(shards) as engine:
        for index, event in enumerate(events):
            engine.process(event)
            if index == crash_at:
                kill_shard(engine, victim)
        assert engine.results() == expected
        restarts = sum(h["restarts"] for h in engine.shard_health())
        assert restarts >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_every_shard_once_is_exact(seed):
    """Serial kills of every worker, one at a time, stay exact."""
    plan = FaultPlan(seed)
    shards = 3
    events = _stream(plan, 900)
    expected = _reference(events)
    stride = len(events) // (shards + 1)
    kill_points = {stride * (index + 1): index for index in range(shards)}
    with _supervised(shards) as engine:
        for index, event in enumerate(events):
            engine.process(event)
            victim = kill_points.get(index)
            if victim is not None:
                kill_shard(engine, victim)
        assert engine.results() == expected
        assert all(h["restarts"] >= 1 for h in engine.shard_health())


def test_heartbeat_detects_idle_death_and_revives_exactly():
    """A worker killed while the router is idle (nothing being sent to
    it) is noticed by the heartbeat thread, not by a failed send."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 700)
    expected = _reference(events)
    with _supervised(2) as engine:
        for event in events[:350]:
            engine.process(event)
        engine.flush()
        kill_shard(engine, 0)
        assert _wait_for(
            lambda: engine.shard_health()[0]["restarts"] >= 1
        ), "heartbeat supervisor never revived the killed shard"
        for event in events[350:]:
            engine.process(event)
        assert engine.results() == expected


def test_heartbeat_stall_triggers_restart_and_stays_exact():
    """A worker that stops answering pings (but is not dead) is
    restarted after max_missed misses; results stay exact."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 700)
    expected = _reference(events)
    with _supervised(2) as engine:
        for event in events[:300]:
            engine.process(event)
        engine.flush()
        stall_shard(engine, 1, seconds=60.0)
        assert _wait_for(
            lambda: engine.shard_health()[1]["restarts"] >= 1
        ), "stalled shard was never restarted"
        for event in events[300:]:
            engine.process(event)
        assert engine.results() == expected


def test_poisoned_batch_does_not_crash_router():
    """An event whose payload crashes the worker engine (a string
    where the aggregates need a number) poisons the shard; the router
    must keep serving results — via restart, then degradation — and
    never raise out of ``results()``."""
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 400)
    last_ts = events[-1].ts
    with _supervised(2, restart_limit=1) as engine:
        for event in events:
            engine.process(event)
        # One poison B per group: whichever groups have a pending A
        # prefix complete a match and feed "boom" into SUM/AVG/MAX.
        for group in range(16):
            engine.process(
                Event("B", last_ts + 1 + group, {"g": group, "v": "boom"})
            )
        results = engine.results()  # must not raise
        assert set(results) == set(QUERIES)
        health = engine.shard_health()
        assert sum(h["failures"] for h in health) >= 1


# ----- degradation ----------------------------------------------------------


def test_repeated_kills_degrade_shard_into_local_lane():
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 800)
    expected = _reference(events)
    with _supervised(2, restart_limit=1) as engine:
        for event in events[:400]:
            engine.process(event)
        engine.flush()
        first_pid = engine._workers[0].process.pid
        kill_shard(engine, 0)

        def restarted_generation_is_up():
            # `restarts` is bumped before the respawn, while
            # worker.process is still the dead one: a kill issued then
            # hits nothing. Wait for the new process itself.
            process = engine._workers[0].process
            return (
                engine.shard_health()[0]["alive"]
                and process is not None
                and process.pid not in (None, first_pid)
            )

        assert _wait_for(restarted_generation_is_up)
        assert engine.shard_health()[0]["restarts"] == 1
        kill_shard(engine, 0)  # the restarted generation, budget spent
        assert _wait_for(lambda: 0 in engine.degraded_shards)
        assert engine.degraded_shards == {0}
        health = engine.shard_health()[0]
        assert health["degraded"] is True
        assert health["alive"] is False
        for event in events[400:]:
            engine.process(event)
        assert engine.results() == expected
        state = engine.inspect()
        assert state["degraded_shards"] == [0]
        assert state["supervised"] is True


def test_degraded_shard_serves_rows_and_inspect():
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 400)
    with _supervised(2, restart_limit=0) as engine:
        for event in events:
            engine.process(event)
        engine.flush()
        kill_shard(engine, 1)
        _wait_for(lambda: 1 in engine.degraded_shards)
        assert engine.degraded_shards == {1}
        rows = engine.query_rows()
        assert {row["query"] for row in rows} == set(QUERIES)
        state = engine.inspect()
        assert state["degraded_shards"] == [1]
        workers = state["workers"]
        assert workers[1].get("degraded") is True


@pytest.mark.parametrize("surface", ["rows", "state", "inspect"])
def test_degraded_shard_answers_like_a_live_worker(surface):
    """The fold lane of a degraded shard and a live worker build their
    ops-plane replies with one function: same key set on every surface,
    and ``inspect`` alone says which of the two answered."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 400)

    def answer(engine):
        if surface == "rows":
            return {row["query"]: row for row in engine.query_rows()}["count"]
        if surface == "state":
            return engine.state_of("count")["shards"][1]
        return engine.inspect()["workers"][1]

    with _supervised(2, restart_limit=0) as engine:
        for event in events:
            engine.process(event)
        engine.flush()
        live = answer(engine)
        assert live and "degraded" not in live
        kill_shard(engine, 1)
        assert _wait_for(lambda: 1 in engine.degraded_shards)
        folded = answer(engine)
        extra = {"degraded"} if surface == "inspect" else set()
        assert set(folded) == set(live) | extra
        if surface == "inspect":
            assert folded["degraded"] is True
        assert engine.results() == _reference(events)


def test_health_snapshot_reports_degraded_shards():
    from repro.obs.inspect import health_snapshot

    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 300)
    with _supervised(2, restart_limit=0) as engine:
        for event in events:
            engine.process(event)
        engine.flush()
        health = health_snapshot(engine)
        assert health["healthy"] is True
        assert health["degraded_shards"] == []
        assert len(health["shards"]) == 2
        kill_shard(engine, 0)
        _wait_for(lambda: 0 in engine.degraded_shards)
        health = health_snapshot(engine)
        assert health["healthy"] is False
        assert health["status"] == "degraded"
        assert health["degraded_shards"] == [0]


# ----- backpressure ---------------------------------------------------------


def _flood_events(shard: int, shards: int, count: int) -> list[Event]:
    """Events all routed to one shard, padded so the pipe fills fast."""
    key = next(k for k in range(10_000) if shard_of(k, shards) == shard)
    pad = "x" * 4096
    return [
        Event("A", ts, {"g": key, "v": ts, "pad": pad})
        for ts in range(1, count + 1)
    ]


def test_overload_policy_raise():
    with _supervised(
        2,
        batch_size=8,
        heartbeat_interval_s=30.0,
        send_timeout_s=0.2,
        overload_policy="raise",
        checkpoint_every_batches=0,
    ) as engine:
        flood = _flood_events(0, 2, 4000)
        engine.process(flood[0])
        hang_shard_pipe(engine, 0, seconds=8.0)
        with pytest.raises(OverloadError):
            for event in flood[1:]:
                engine.process(event)


def test_overload_policy_shed_oldest_counts_drops():
    with _supervised(
        2,
        batch_size=8,
        heartbeat_interval_s=30.0,
        send_timeout_s=0.2,
        overload_policy="shed_oldest",
        checkpoint_every_batches=0,
    ) as engine:
        flood = _flood_events(0, 2, 2500)
        engine.process(flood[0])
        hang_shard_pipe(engine, 0, seconds=5.0)
        for event in flood[1:]:
            engine.process(event)
        assert engine.shed_events > 0
        assert engine.inspect()["shed_events"] == engine.shed_events


def test_overload_policy_block_recovers_exactly():
    """The block policy restarts the wedged worker and redelivers —
    nothing is lost, so results match the reference exactly."""
    plan = FaultPlan(SEEDS[0])

    def padded(rng, event_type):
        attrs = _attrs(rng, event_type)
        attrs["pad"] = "x" * 2048  # fills the pipe fast; ignored by queries
        return attrs

    events = random_events(plan.rng, "ABC", 600, attr_maker=padded)
    expected = _reference(events)
    with _supervised(
        2,
        batch_size=16,
        heartbeat_interval_s=30.0,
        send_timeout_s=0.2,
        overload_policy="block",
        checkpoint_every_batches=0,
    ) as engine:
        for event in events[:200]:
            engine.process(event)
        hang_shard_pipe(engine, 0, seconds=30.0)
        for event in events[200:]:
            engine.process(event)
        assert engine.results() == expected


# ----- shutdown escalation (satellite) --------------------------------------


def test_close_escalates_to_kill_when_sigterm_is_ignored():
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 100)
    engine = _supervised(
        2, heartbeat_interval_s=30.0, shutdown_timeout_s=0.3
    )
    try:
        for event in events:
            engine.process(event)
        pid = engine._workers[0].process.pid
        stall_shard(engine, 0, seconds=60.0, hard=True)
        time.sleep(0.3)  # let the worker install SIG_IGN and stall
    finally:
        engine.close()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    # Idempotent: a second close (and re-close via context exit) is a
    # no-op, not an error.
    engine.close()


def test_close_reaps_killed_workers():
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 100)
    engine = _supervised(2, heartbeat_interval_s=30.0)
    for event in events:
        engine.process(event)
    pids = [worker.process.pid for worker in engine._workers]
    kill_shard(engine, 0)
    engine.close()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert engine._workers == []


# ----- unsupervised behavior ------------------------------------------------


def test_unsupervised_dead_shard_raises_engine_error():
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 300)
    with _supervised(2, supervise=False) as engine:
        for event in events:
            engine.process(event)
        engine.flush()
        kill_shard(engine, 0)
        time.sleep(0.2)
        with pytest.raises(EngineError):
            engine.results()


# ----- durable per-shard journals -------------------------------------------


def test_disk_shard_journal_layout_and_exact_recovery(tmp_path):
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 600)
    expected = _reference(events)
    crash_at = plan.crash_point(len(events))
    with _supervised(
        2, journal_dir=tmp_path, checkpoint_every_batches=2
    ) as engine:
        for index, event in enumerate(events):
            engine.process(event)
            if index == crash_at:
                kill_shard(engine, plan.shard_to_kill(2))
        assert engine.results() == expected
    for shard in (0, 1):
        directory = tmp_path / f"shard-{shard:02d}"
        assert directory.is_dir()
        assert list(directory.glob("journal-*.wal"))


def test_checkpoint_prunes_memory_journal():
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 800)
    with _supervised(
        2, batch_size=16, checkpoint_every_batches=2
    ) as engine:
        for event in events:
            engine.process(event)
        engine.flush()
        for worker in engine._workers:
            assert worker.checkpoint is not None
            log = worker.log
            # checkpoint() dropped the covered prefix: the suffix is
            # bounded by the checkpoint cadence, not the stream length.
            assert log.next_seq - log._base <= 16 * 2 + 16
        assert engine.results() == _reference(events)


def test_supervision_with_no_faults_is_invisible():
    """With no injected faults the supervised engine is semantically
    identical to the reference: no restarts, no degradation."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 500)
    with _supervised(3) as engine:
        for event in events:
            engine.process(event)
        assert engine.results() == _reference(events)
        assert engine.degraded_shards == set()
        assert all(h["restarts"] == 0 for h in engine.shard_health())
        assert engine.shed_events == 0
