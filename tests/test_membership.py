"""Elastic membership suite: the worker fleet may grow and shrink
mid-stream, merged results may not change by one bit.

The invariant under test is the split at the heart of the membership
layer: the **partition count** is fixed for the life of a query
(``shard_of`` never moves a key), while partition **ownership** is
elastic — a versioned routing table maps each partition to a registry
member, and joins, graceful leaves, and SIGKILL'd members are handled
by migrating partitions with an exact state handoff (quiesce at a
batch boundary, checkpoint, journal-suffix replay, atomic routing
flip). The differential matrix therefore churns the fleet mid-stream
— over the pipe transport with virtual local members and over framed
TCP with real worker processes — and pins the merged COUNT / SUM /
AVG / MAX / MIN / GROUP BY results against an uninterrupted
single-process reference.

Unit coverage rides along: the :class:`WorkerRegistry` state machine
(static members, workers-file hot reload, ``--advertise``
self-registration, liveness transitions), the engine's placement and
validation guards, the routing document in router checkpoints, and
the membership view surfaced through ``inspect()`` / ``/healthz``.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from conftest import random_events
from repro.engine.engine import StreamEngine
from repro.events.event import Event
from repro.engine.sharded import ShardedStreamEngine
from repro.engine.transport import FramedChannel
from repro.errors import EngineError, TransportError
from repro.obs.inspect import health_snapshot
from repro.obs.registry import MetricsRegistry
from repro.query import parse_query
from repro.resilience.faults import FaultPlan, fault_seed
from repro.resilience.journal import EventJournal
from repro.resilience.membership import (
    DEAD,
    JOIN,
    LEAVE,
    WorkerRegistry,
    _parse_member,
    registry_from_cli,
)
from repro.resilience.router_recovery import recover_router

SEEDS = [fault_seed(0) * 211 + offset for offset in (0, 1, 2)]

QUERIES = {
    "count": "PATTERN SEQ(A, B) AGG COUNT WITHIN 40 ms GROUP BY g",
    "sum": "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 40 ms GROUP BY g",
    "avg": "PATTERN SEQ(A, B) AGG AVG(B.v) WITHIN 40 ms GROUP BY g",
    "max": "PATTERN SEQ(A, B) AGG MAX(B.v) WITHIN 40 ms GROUP BY g",
    "min": "PATTERN SEQ(A, B) AGG MIN(B.v) WITHIN 40 ms GROUP BY g",
    "neg": "PATTERN SEQ(A, !C, B) AGG COUNT WITHIN 40 ms GROUP BY g",
}

ENGINE_SETTINGS = dict(
    shards=4,
    batch_size=32,
    heartbeat_interval_s=0.05,
    heartbeat_max_missed=2,
    checkpoint_every_batches=4,
)


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


def _member_engine(fleet: WorkerRegistry, **overrides):
    settings = dict(ENGINE_SETTINGS, membership=fleet)
    settings.update(overrides)
    engine = ShardedStreamEngine(**settings)
    for name, text in QUERIES.items():
        engine.register(parse_query(text), name=name)
    return engine


def _wait_until(probe, timeout_s: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if probe():
            return True
        time.sleep(0.05)
    return bool(probe())


def _owner_loads(engine: ShardedStreamEngine) -> dict[str, int]:
    owners = engine.membership_view()["routing"]["owners"]
    return {owner: owners.count(owner) for owner in set(owners)}


# ----- registry state machine ------------------------------------------------


def test_parse_member_shapes():
    assert _parse_member("m-a") == ("m-a", None)
    assert _parse_member("10.0.0.1:9200") == (
        "10.0.0.1:9200", ("10.0.0.1", 9200)
    )
    assert _parse_member(":9200") == (
        "127.0.0.1:9200", ("127.0.0.1", 9200)
    )
    with pytest.raises(TransportError):
        _parse_member("host:not-a-port")


def test_registry_lifecycle_and_events():
    registry = WorkerRegistry(members=["m-a", "m-b"])
    try:
        assert [m.member_id for m in registry.live_members()] == [
            "m-a", "m-b"
        ]
        # Constructor admits are quiet: the engine should not treat
        # its initial fleet as a burst of joins.
        assert registry.poll() == []
        registry.register("m-c")
        registry.leave("m-a")
        registry.mark_dead("m-b")
        assert registry.poll() == [
            (JOIN, "m-c"), (LEAVE, "m-a"), (DEAD, "m-b"),
        ]
        assert registry.get("m-a").status == "left"
        assert registry.get("m-b").status == "dead"
        assert not registry.get("m-b").live
        # Retiring twice queues nothing new; a dead member can rejoin.
        registry.mark_dead("m-b")
        assert registry.poll() == []
        revived = registry.register("m-b")
        assert revived.live and revived.generation == 1
        assert registry.poll() == [(JOIN, "m-b")]
    finally:
        registry.close()


def test_registry_exports_membership_metrics():
    metrics = MetricsRegistry()
    registry = WorkerRegistry(members=["m-a"], registry=metrics)
    try:
        registry.register("m-b")
        registry.leave("m-a")
        registry.mark_dead("m-b")
        assert metrics.value("repro_membership_joins_total") == 2
        assert metrics.value("repro_membership_leaves_total") == 1
        assert metrics.value("repro_membership_deaths_total") == 1
        assert metrics.value("repro_membership_workers") == 0
    finally:
        registry.close()


def test_workers_file_hot_reload(tmp_path):
    workers_file = tmp_path / "workers.txt"
    workers_file.write_text(
        "# the fleet\nm-a\nm-b  # inline comment\n\n"
    )
    registry = WorkerRegistry(workers_file=workers_file)
    try:
        assert [m.member_id for m in registry.live_members()] == [
            "m-a", "m-b"
        ]
        assert registry.poll() == []  # initial load is quiet
        # Rewrite: m-b gone, m-c added. Force the mtime forward so the
        # change detector cannot miss a same-second rewrite.
        workers_file.write_text("m-a\nm-c\n")
        stamp = time.time() + 2
        os.utime(workers_file, (stamp, stamp))
        events = registry.poll()
        assert (JOIN, "m-c") in events
        assert (LEAVE, "m-b") in events
        assert registry.get("m-b").status == "left"
        # Members that joined by other means are not file-managed:
        # removing them from the file must not retire them.
        registry.register("m-x")
        registry.poll()
        workers_file.write_text("m-a\nm-c\n# unchanged\n")
        stamp += 2
        os.utime(workers_file, (stamp, stamp))
        assert registry.poll() == []
        assert registry.get("m-x").live
    finally:
        registry.close()


def test_registry_from_cli(tmp_path):
    assert registry_from_cli(None) is None
    with pytest.raises(TransportError):
        registry_from_cli(str(tmp_path / "missing.txt"))
    workers_file = tmp_path / "workers.txt"
    workers_file.write_text("m-a\n")
    registry = registry_from_cli(str(workers_file))
    try:
        assert [m.member_id for m in registry.live_members()] == ["m-a"]
    finally:
        registry.close()


def _join_frame(address: tuple[str, int], payload) -> tuple:
    sock = socket.create_connection(address, timeout=5.0)
    channel = FramedChannel(sock)
    try:
        channel.send(payload)
        assert channel.poll(5.0)
        return channel.recv()
    finally:
        channel.close()


def test_join_listener_registers_and_deregisters():
    registry = WorkerRegistry(token="s3cret")
    try:
        address = registry.listen("127.0.0.1", 0)
        status, member_id = _join_frame(
            address,
            ("join", {"address": "127.0.0.1:7700", "token": "s3cret",
                      "pid": 4242}),
        )
        assert (status, member_id) == ("ok", "127.0.0.1:7700")
        member = registry.get("127.0.0.1:7700")
        assert member.live and member.source == "advertised"
        assert member.pid == 4242
        status, _ = _join_frame(
            address,
            ("leave", {"address": "127.0.0.1:7700", "token": "s3cret"}),
        )
        assert status == "ok"
        assert registry.get("127.0.0.1:7700").status == "left"
        assert registry.poll() == [
            (JOIN, "127.0.0.1:7700"), (LEAVE, "127.0.0.1:7700"),
        ]
    finally:
        registry.close()


def test_join_listener_rejects_bad_tokens_and_frames():
    registry = WorkerRegistry(token="s3cret")
    try:
        address = registry.listen("127.0.0.1", 0)
        status, detail = _join_frame(
            address,
            ("join", {"address": "127.0.0.1:7701", "token": "wrong"}),
        )
        assert (status, detail) == ("error", "token mismatch")
        status, _ = _join_frame(address, "not even a tuple")
        assert status == "error"
        status, _ = _join_frame(
            address, ("reboot", {"token": "s3cret", "address": "x:1"})
        )
        assert status == "error"
        assert registry.live_members() == []
    finally:
        registry.close()


def _spawn_worker(*extra: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.shard_worker",
            "--listen", "127.0.0.1:0", *extra,
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", line)
    assert match, f"worker never announced its port: {line!r}"
    return process, match.group(1)


def test_worker_advertise_joins_then_leaves_on_orphan_exit():
    """The full self-registration loop: ``--advertise`` joins the
    registry, and the orphan exit (no router ever shows up) sends the
    best-effort leave on the way out."""
    registry = WorkerRegistry()
    worker = None
    try:
        host, port = registry.listen("127.0.0.1", 0)
        worker, address = _spawn_worker(
            "--advertise", f"{host}:{port}", "--orphan-timeout", "1",
        )
        seen: list[tuple[str, str]] = []
        assert _wait_until(
            lambda: seen.extend(registry.poll())
            or (JOIN, address) in seen
        ), "worker never advertised itself"
        assert registry.get(address).live
        assert worker.wait(timeout=30) == 0  # orphan budget exit
        assert _wait_until(
            lambda: seen.extend(registry.poll())
            or (LEAVE, address) in seen
        ), "orphan exit never de-registered the worker"
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)
        registry.close()


# ----- engine placement and guards -------------------------------------------


def test_membership_requires_supervision():
    registry = WorkerRegistry(members=["m-a"])
    try:
        with pytest.raises(ValueError):
            ShardedStreamEngine(
                shards=2, membership=registry, supervise=False
            )
    finally:
        registry.close()


def test_empty_static_fleet_fails_fast():
    """No members and no way to gain any: first start must not hang."""
    fleet = WorkerRegistry(members=[])
    engine = _member_engine(fleet, shards=2)
    try:
        with pytest.raises(EngineError, match="no live members"):
            engine.process(Event("A", 1, {"g": 0, "v": 1}))
    finally:
        engine.close()
        fleet.close()


def test_empty_growable_fleet_waits_for_the_first_member():
    """The cold-start race: a router launched alongside --advertise
    workers must wait out the empty fleet, not fail its first ingest
    because nobody dialed in yet."""
    import threading

    fleet = WorkerRegistry(members=[])
    fleet.listen("127.0.0.1", 0)  # growable: a join listener is open
    engine = _member_engine(fleet, shards=2, membership_wait_s=10.0)
    threading.Timer(
        0.4, lambda: fleet.register("m-late", source="static")
    ).start()
    try:
        plan = FaultPlan(SEEDS[0])
        events = _stream(plan, 120)
        for event in events:
            engine.process(event)
        assert engine.results() == _reference(events)
        assert set(engine.membership_view()["routing"]["owners"]) == {
            "m-late"
        }
    finally:
        engine.close()
        fleet.close()


def test_initial_routing_and_membership_view():
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(registry)
    try:
        engine.process(next(iter(_stream(FaultPlan(SEEDS[0]), 1))))
        view = engine.membership_view()
        assert view["routing"]["owners"] == ["m-a", "m-b", "m-a", "m-b"]
        assert view["routing"]["version"] == 0
        assert view["live"] == 2
        assert view["migrations"] == 0
        state = engine.inspect()
        assert state["membership"]["routing"]["owners"] == (
            view["routing"]["owners"]
        )
        assert state["routing_version"] == 0
        health = health_snapshot(engine)
        assert health["membership"]["live"] == 2
    finally:
        engine.close()
        registry.close()
    # Without a registry the view is absent, not empty.
    with ShardedStreamEngine(shards=2) as bare:
        assert bare.membership_view() is None
        assert "membership" not in health_snapshot(bare)


def test_migrate_partition_guards():
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 10)
    with ShardedStreamEngine(shards=2) as bare:
        bare.register(parse_query(QUERIES["count"]), name="count")
        bare.process(events[0])
        with pytest.raises(EngineError):
            bare.migrate_partition(0, "anywhere")
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(registry)
    try:
        with pytest.raises(EngineError):
            engine.migrate_partition(0, "m-b")  # not started yet
        for event in events:
            engine.process(event)
        with pytest.raises(EngineError):
            engine.migrate_partition(99, "m-b")
        with pytest.raises(EngineError):
            engine.migrate_partition(0, "not-a-member")
        registry.leave("m-b")
        with pytest.raises(EngineError):
            engine.migrate_partition(0, "m-b")  # not live
        owner = engine.membership_view()["routing"]["owners"][0]
        assert engine.migrate_partition(0, owner) == 0.0  # no-op
        assert engine.routing_version == 0
    finally:
        engine.close()
        registry.close()


def test_explicit_migration_moves_state_exactly():
    """One hand-driven ``migrate_partition``: the moved partition keeps
    its counts, the routing version bumps, the metrics record it."""
    metrics = MetricsRegistry()
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 600)
    expected = _reference(events)
    registry = WorkerRegistry(members=["m-a", "m-b"], registry=metrics)
    engine = _member_engine(registry, registry=metrics)
    try:
        for event in events[:400]:
            engine.process(event)
        pause = engine.migrate_partition(0, "m-b")
        assert pause > 0.0
        assert engine.membership_view()["routing"]["owners"][0] == "m-b"
        assert engine.routing_version == 1
        assert engine.migrations == 1
        for event in events[400:]:
            engine.process(event)
        assert engine.results() == expected
        assert metrics.value("repro_migration_total") == 1
        assert metrics.value("repro_membership_routing_version") == 1
        assert metrics.flat()["repro_migration_pause_us_count"] == 1
    finally:
        engine.close()
        registry.close()


@pytest.mark.parametrize("path", ["revive", "migrate", "degrade"])
def test_every_restore_path_rebuilds_the_same_partition(path):
    """Revive after a SIGKILL, ``migrate_partition`` and degrade-to-fold
    are one recipe (checkpoint, then the journal suffix past it) aimed
    at three targets. From the same mid-stream point of one stream they
    leave the same journal tails and router event count behind, and all
    finish on the uninterrupted run's results."""
    from repro.engine.sharded import shard_of
    from repro.resilience.faults import kill_shard

    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 600)
    expected = _reference(events)
    shards = ENGINE_SETTINGS["shards"]

    def tails(upto):
        owned = [shard_of(event["g"], shards) for event in events[:upto]]
        return [owned.count(index) for index in range(shards)]

    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(
        registry,
        checkpoint_every_batches=2,
        restart_limit=0 if path == "degrade" else 3,
    )
    try:
        for event in events[:400]:
            engine.process(event)
        engine.flush()
        victim = engine._workers[0]
        assert victim.checkpoint is not None  # the cadence already fired
        if path == "migrate":
            engine.migrate_partition(0, "m-b")
        else:
            old_pid = victim.process.pid
            kill_shard(engine, 0)
            assert _wait_until(lambda: (
                victim.fold is not None if path == "degrade"
                else victim.process is not None
                and victim.process.pid not in (None, old_pid)
                and engine.shard_health()[0]["alive"]
            ))
        assert engine.degraded_shards == ({0} if path == "degrade" else set())
        assert [w.log.next_seq for w in engine._workers] == tails(400)
        for event in events[400:]:
            engine.process(event)
        assert engine.results() == expected
        assert engine.inspect()["events"] == len(events)
        final = tails(len(events))
        if path == "degrade":
            final[0] = tails(400)[0]  # a fold lane is fed, not journaled
        assert [w.log.next_seq for w in engine._workers] == final
    finally:
        engine.close()
        registry.close()


# ----- the differential churn matrix -----------------------------------------


def _churn_run(transport: str, seed: int) -> None:
    """Join at one third, graceful leave at two thirds, both handled by
    the live engine (heartbeat tick or direct poll), results exact."""
    plan = FaultPlan(seed)
    events = _stream(plan, 900)
    expected = _reference(events)
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(registry, transport=transport)
    try:
        for index, event in enumerate(events):
            engine.process(event)
            if index == 300:
                registry.register("m-c")
                engine.poll_membership()
            elif index == 600:
                registry.leave("m-a")
                engine.poll_membership()
        assert _wait_until(lambda: (
            engine.poll_membership() is not None
            and engine.migrations >= 2
        )), "membership churn never completed its migrations"
        owners = engine.membership_view()["routing"]["owners"]
        assert "m-a" not in owners, "a left member still owns partitions"
        assert engine.routing_version >= 2
        assert engine.results() == expected
    finally:
        engine.close()
        registry.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_membership_churn_is_exact_over_pipes(seed):
    _churn_run("pipe", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_membership_churn_is_exact_over_tcp(seed):
    _churn_run("tcp", seed)


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_dead_member_reroutes_exactly(transport):
    """A member declared permanently dead mid-stream: its partitions
    re-place from checkpoints + journal suffixes, results exact."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 900)
    expected = _reference(events)
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(registry, transport=transport)
    try:
        for index, event in enumerate(events):
            engine.process(event)
            if index == 450:
                registry.mark_dead("m-b")
        assert _wait_until(lambda: (
            engine.poll_membership() is not None
            and engine.migrations >= 2
        )), "dead-member evacuation never completed"
        owners = engine.membership_view()["routing"]["owners"]
        assert set(owners) == {"m-a"}
        assert engine.results() == expected
    finally:
        engine.close()
        registry.close()


def test_join_rebalance_moves_minimal_partitions():
    """A join pulls partitions only while the move strictly reduces
    imbalance — one migration for a 4-partition, 2→3 member fleet."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 400)
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(registry)
    try:
        for event in events[:200]:
            engine.process(event)
        registry.register("m-c")
        assert _wait_until(lambda: (
            engine.poll_membership() is not None
            and engine.migrations >= 1
        ))
        loads = _owner_loads(engine)
        assert loads == {"m-a": 1, "m-b": 2, "m-c": 1}
        # A second poll with no membership change moves nothing more.
        engine.poll_membership()
        assert engine.migrations == 1
        # And a second joiner with nothing to gain also moves nothing:
        # every donor is within one partition of the joiner.
        registry.register("m-d")
        assert _wait_until(lambda: (
            engine.poll_membership() is not None
            and _owner_loads(engine).get("m-d", 0) >= 1
        ))
        assert engine.migrations == 2
        assert max(_owner_loads(engine).values()) == 1
    finally:
        engine.close()
        registry.close()


def test_sigkilled_tcp_member_fails_over_exactly(tmp_path):
    """The real thing: external worker processes in a workers file, one
    hot-reload join, then SIGKILL of the most-loaded member mid-stream.
    The revive path marks it dead, the survivors absorb its partitions
    (least-loaded first), and merged results stay bit-identical."""
    plan = FaultPlan(SEEDS[2])
    events = _stream(plan, 900)
    expected = _reference(events)
    workers, addresses = [], []
    try:
        for _ in range(3):
            process, address = _spawn_worker("--orphan-timeout", "60")
            workers.append(process)
            addresses.append(address)
        workers_file = tmp_path / "workers.txt"
        workers_file.write_text("\n".join(addresses[:2]) + "\n")
        registry = WorkerRegistry(workers_file=workers_file)
        engine = _member_engine(registry, transport="tcp")
        try:
            killed = None
            for index, event in enumerate(events):
                engine.process(event)
                if index == 300:
                    # Hot-reload join: the third worker enters the file.
                    workers_file.write_text("\n".join(addresses) + "\n")
                    stamp = time.time() + 2
                    os.utime(workers_file, (stamp, stamp))
                elif index == 600:
                    owners = (
                        engine.membership_view()["routing"]["owners"]
                    )
                    killed = max(set(owners), key=owners.count)
                    victim = workers[addresses.index(killed)]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.wait(timeout=10)
            assert _wait_until(lambda: (
                engine.poll_membership() is not None
                and killed not in
                engine.membership_view()["routing"]["owners"]
            )), "the killed member still owns partitions"
            assert engine.results() == expected
            assert not engine.degraded_shards
            assert registry.get(killed).status == "dead"
            # Every partition landed on a live survivor (placement
            # balance is best-effort when two revives race; exactness
            # and liveness are the contract).
            owners = engine.membership_view()["routing"]["owners"]
            live = {m.member_id for m in registry.live_members()}
            assert set(owners) <= live
        finally:
            engine.close()
            registry.close()
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


# ----- routing table in router checkpoints -----------------------------------


def _crash_router(engine: ShardedStreamEngine) -> None:
    """Leave behind exactly what a SIGKILL'd router leaves (the same
    recipe as the router-recovery suite): dead workers, un-closed
    journals, no flush, no checkpoint."""
    monitor = engine._monitor
    if monitor is not None:
        monitor._revive = lambda shard, reason: None
        monitor.stop()
        engine._monitor = None
    for worker in engine._workers:
        process = worker.process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
    for worker in engine._workers:
        if worker.process is not None:
            worker.process.join(timeout=10)
    engine._closed = True


def test_routing_table_rides_router_checkpoints(tmp_path):
    """Routing-table versioning end to end: migrate, crash the router,
    recover with the same fleet — the recovered engine honors the
    checkpointed owners and version, and finishes the stream exactly."""
    plan = FaultPlan(SEEDS[0])
    events = _stream(plan, 900)
    expected = _reference(events)
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(
        registry,
        journal_dir=tmp_path / "shards",
        router_checkpoint_every=100,
    )
    engine.attach_router_log(EventJournal(tmp_path))
    for event in events[:300]:
        engine.process(event)
    registry.register("m-c")
    assert _wait_until(lambda: (
        engine.poll_membership() is not None and engine.migrations >= 1
    ))
    for event in events[300:600]:
        engine.process(event)
    engine.flush()
    owners_before = list(engine.membership_view()["routing"]["owners"])
    version_before = engine.routing_version
    assert version_before >= 1
    document = engine.router_checkpoint()
    assert document["router"]["routing"] == {
        "version": version_before, "owners": owners_before,
    }
    _crash_router(engine)
    registry.close()
    fleet = WorkerRegistry(members=["m-a", "m-b", "m-c"])
    settings = dict(ENGINE_SETTINGS)
    settings.pop("shards")
    recovered = recover_router(
        tmp_path, membership=fleet, **settings
    )
    try:
        assert recovered.routing_version >= version_before
        view = recovered.membership_view()
        assert view["routing"]["owners"] == owners_before
        for event in events[recovered.metrics.events:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()
        fleet.close()


def test_recovery_replaces_owners_that_never_returned(tmp_path):
    """Recovery with a *shrunken* fleet: owners missing from the new
    registry are re-placed round-robin over whoever is live, and the
    journals still replay every partition exactly."""
    plan = FaultPlan(SEEDS[1])
    events = _stream(plan, 700)
    expected = _reference(events)
    registry = WorkerRegistry(members=["m-a", "m-b"])
    engine = _member_engine(
        registry,
        journal_dir=tmp_path / "shards",
        router_checkpoint_every=100,
    )
    engine.attach_router_log(EventJournal(tmp_path))
    for event in events[:450]:
        engine.process(event)
    engine.flush()
    _crash_router(engine)
    registry.close()
    fleet = WorkerRegistry(members=["m-b", "m-z"])  # m-a never returns
    settings = dict(ENGINE_SETTINGS)
    settings.pop("shards")
    recovered = recover_router(tmp_path, membership=fleet, **settings)
    try:
        owners = recovered.membership_view()["routing"]["owners"]
        assert "m-a" not in owners
        assert set(owners) <= {"m-b", "m-z"}
        for event in events[recovered.metrics.events:]:
            recovered.process(event)
        assert recovered.results() == expected
    finally:
        recovered.close()
        fleet.close()
