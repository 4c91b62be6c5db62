"""The distributed observability plane of the sharded engine.

Per-shard metrics collection (worker snapshots merged into the router
registry under ``shard=`` labels, monotonic across SIGKILL + revive),
cross-process trace stitching, supervision-lifecycle spans, stale-
tolerant scrapes while a shard is mid-restart, and the supervision
health series (``repro_shard_*``).
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.engine import StreamEngine
from repro.engine.sharded import ShardedStreamEngine
from repro.engine.sinks import CallbackSink, Output
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.server import AdminServer
from repro.obs.tracing import Stage, TraceRecorder
from repro.query import parse_query
from repro.resilience.faults import kill_shard

QUERY = "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 60 ms GROUP BY g"


def _events(count: int, seed: int = 7, start_ts: int = 0) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for index in range(count):
        events.append(
            Event(
                "A" if index % 2 == 0 else "B",
                start_ts + index,
                {"g": rng.randrange(32), "v": rng.randrange(100)},
            )
        )
    return events


def _engine(registry=None, **overrides) -> ShardedStreamEngine:
    settings = dict(
        shards=4,
        batch_size=32,
        registry=registry,
        heartbeat_interval_s=0.05,
        heartbeat_max_missed=2,
        checkpoint_every_batches=4,
    )
    settings.update(overrides)
    engine = ShardedStreamEngine(**settings)
    engine.register(parse_query(QUERY), name="q")
    return engine


def _wait_for(predicate, timeout: float = 15.0, what: str = "condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for {what}")


def _shard_value(registry, name: str, shard: int) -> float | None:
    metric = registry.get(name, shard=str(shard))
    return None if metric is None else float(metric.value)


# ----- per-shard metrics collection -----------------------------------------


class TestShardMetricsCollection:
    def test_every_shard_exports_labeled_series(self):
        registry = MetricsRegistry()
        with _engine(registry) as engine:
            engine.run(iter(_events(2000)))
            engine.refresh_cost_metrics()
            text = to_prometheus(registry)
            for shard in range(4):
                assert f'events_ingested_total{{shard="{shard}"}}' in text
            # the router's own unlabeled supervision series coexist
            assert "shard_checkpoints_total" in text

    def test_scrape_pull_refreshes_series_without_heartbeats(self):
        """Unsupervised engines have no pongs to piggyback on: the
        scrape-time ``obs`` pull is the only shipment before a collect,
        and it must land in the merger (it used to be read as an
        envelope without an ``obs`` key and dropped)."""
        registry = MetricsRegistry()
        with _engine(registry, supervise=False) as engine:
            for event in _events(400):
                engine.process(event)
            engine.flush()
            engine.refresh_cost_metrics()
            text = to_prometheus(registry)
            for shard in range(4):
                assert f'events_ingested_total{{shard="{shard}"}}' in text

    def test_collection_off_without_registry(self):
        with _engine() as engine:  # NULL registry: no merger built
            engine.run(iter(_events(200)))
            engine.refresh_cost_metrics()  # must not raise
            assert engine._merger is None

    def test_counters_monotonic_across_sigkill_and_revive(self):
        registry = MetricsRegistry()
        with _engine(registry) as engine:
            engine.run(iter(_events(2000)))
            engine.refresh_cost_metrics()
            before = _shard_value(registry, "events_ingested_total", 1)
            assert before is not None and before > 0
            kill_shard(engine, 1)
            _wait_for(
                lambda: engine.shard_health()[1]["restarts"] >= 1
                and engine.shard_health()[1]["alive"],
                what="shard 1 revive",
            )
            engine.run(iter(_events(2000, seed=8, start_ts=10_000)))
            engine.refresh_cost_metrics()
            after = _shard_value(registry, "events_ingested_total", 1)
            assert after is not None
            assert after >= before, "counter went backwards across revive"

    def test_health_series_exported(self):
        registry = MetricsRegistry()
        with _engine(registry) as engine:
            engine.run(iter(_events(500)))
            kill_shard(engine, 2)
            _wait_for(
                lambda: engine.shard_health()[2]["restarts"] >= 1,
                what="shard 2 restart",
            )
            engine.refresh_cost_metrics()
            assert (
                _shard_value(registry, "repro_shard_restarts_total", 2) >= 1
            )
            assert _shard_value(registry, "repro_shard_degraded", 2) == 0.0
            age = registry.get(
                "repro_shard_heartbeat_age_seconds", shard="0"
            )
            assert age is not None

    def test_degraded_shard_folds_into_local_lane(self):
        registry = MetricsRegistry()
        with _engine(registry, restart_limit=0) as engine:
            engine.run(iter(_events(500)))
            kill_shard(engine, 3)
            _wait_for(
                lambda: 3 in engine.degraded_shards,
                what="shard 3 degrade",
            )
            engine.run(iter(_events(500, seed=9, start_ts=5_000)))
            engine.refresh_cost_metrics()
            assert _shard_value(registry, "repro_shard_degraded", 3) == 1.0
            # scrapes keep working; the merged export never raises
            assert "shards_degraded 1" in to_prometheus(registry)


# ----- cross-process tracing ------------------------------------------------


class TestCrossProcessTracing:
    def test_stitched_router_shard_merge_chains(self):
        trace = TraceRecorder(capacity=4096)
        with _engine(trace=trace, trace_sample=1) as engine:
            engine.run(iter(_events(600)))
            drained = engine.drain_trace()
        assert drained["enabled"] is True
        shards_seen = {span["shard"] for span in drained["spans"]}
        assert "router" in shards_seen
        assert any(isinstance(shard, int) for shard in shards_seen)
        complete = [
            chain for chain in drained["stitched"] if chain["complete"]
        ]
        assert complete, "no complete route→shard_ingest→merge chain"
        chain = complete[0]
        assert chain["stages"][0] == Stage.ROUTE
        assert Stage.SHARD_INGEST in chain["stages"]
        assert chain["stages"][-1] == Stage.MERGE

    def test_traced_batches_take_the_columnar_partition_step(
        self, monkeypatch
    ):
        """Trace sampling rides the same partition step as untraced
        batch ingest: the per-event entry point never runs, results
        match an untraced run, and the workers still stamp the
        sampled rows' ``shard_ingest`` spans."""
        events = _events(600)
        batches = [
            EventBatch.from_events(events[start:start + 100])
            for start in range(0, len(events), 100)
        ]
        with _engine() as engine:
            engine.run(iter(batches))
            expected = engine.results()

        def per_event(self, event):
            raise AssertionError("a traced batch went per event")

        monkeypatch.setattr(ShardedStreamEngine, "process", per_event)
        trace = TraceRecorder(capacity=4096)
        with _engine(trace=trace, trace_sample=1) as engine:
            engine.run(iter(batches))
            assert engine.results() == expected
            drained = engine.drain_trace()
        routed = [
            span for span in drained["spans"]
            if span["stage"] == Stage.ROUTE
        ]
        assert len(routed) == len(events)  # every keyed row, sample 1
        assert any(
            span["stage"] == Stage.SHARD_INGEST
            for span in drained["spans"]
        )
        assert any(chain["complete"] for chain in drained["stitched"])

    def test_drain_is_destructive(self):
        trace = TraceRecorder(capacity=4096)
        with _engine(trace=trace, trace_sample=1) as engine:
            engine.run(iter(_events(300)))
            first = engine.drain_trace()
            second = engine.drain_trace()
        assert first["spans"]
        assert second["spans"] == [] or len(second["spans"]) < len(
            first["spans"]
        )

    def test_disabled_trace_shape(self):
        with _engine() as engine:
            engine.run(iter(_events(100)))
            assert engine.drain_trace() == {
                "spans": [],
                "recorded_total": 0,
                "enabled": False,
            }

    def _wait_for_stage(self, engine, stage) -> None:
        # The revive thread records the span at the *end* of the
        # restart; accumulate destructive drains until it shows up.
        stages: set[str] = set()

        def seen() -> bool:
            stages.update(
                span["stage"] for span in engine.drain_trace()["spans"]
            )
            return stage in stages

        _wait_for(seen, what=f"{stage} span")

    def test_revive_records_lifecycle_span(self):
        trace = TraceRecorder(capacity=4096)
        with _engine(trace=trace) as engine:
            engine.run(iter(_events(500)))
            kill_shard(engine, 0)
            self._wait_for_stage(engine, Stage.SHARD_REVIVE)

    def test_degrade_records_lifecycle_span(self):
        trace = TraceRecorder(capacity=4096)
        with _engine(trace=trace, restart_limit=0) as engine:
            engine.run(iter(_events(500)))
            kill_shard(engine, 1)
            self._wait_for_stage(engine, Stage.SHARD_DEGRADE)


class TestSinkLifecycleSpans:
    def _flaky_sink(self, failures: int):
        attempts = {"left": failures}

        def emit(output: Output) -> None:
            if attempts["left"] > 0:
                attempts["left"] -= 1
                raise RuntimeError("sink down")

        return CallbackSink(emit)

    def test_sink_retry_span(self):
        trace = TraceRecorder(capacity=256)
        engine = StreamEngine(
            trace=trace, sink_retries=2, sink_retry_backoff_s=0.0
        )
        query = parse_query(
            "PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms"
        )
        engine.register(query, self._flaky_sink(1), name="q")
        for event in _events(50):
            engine.process(event)
        assert trace.spans(Stage.SINK_RETRY)

    def test_sink_dead_letter_span(self):
        from repro.resilience import DeadLetterQueue

        trace = TraceRecorder(capacity=256)
        engine = StreamEngine(
            trace=trace,
            sink_retries=1,
            sink_retry_backoff_s=0.0,
            sink_dlq=DeadLetterQueue(capacity=16),
        )
        query = parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms")
        engine.register(query, self._flaky_sink(10_000), name="q")
        for event in _events(50):
            engine.process(event)
        assert trace.spans(Stage.SINK_DEAD_LETTER)


# ----- stale-tolerant scrapes -----------------------------------------------


class TestStaleTolerantScrapes:
    def test_query_rows_marks_stale_when_shard_unreachable(self):
        with _engine(supervise=False) as engine:
            # A query with no GROUP BY runs in the local lane: a dead
            # shard must not smear its stale flag onto it.
            engine.register(
                parse_query("PATTERN SEQ(A, B) AGG COUNT WITHIN 60 ms"),
                name="local_q",
            )
            engine.run(iter(_events(1000)))
            fresh = engine.query_rows()
            assert fresh and not any(
                row.get("stale") for row in fresh
            )
            # Kill one worker outright; without supervision nothing
            # will revive it — the scrape must degrade, not raise.
            engine._workers[1].process.kill()
            engine._workers[1].process.join(5.0)
            rows = engine.query_rows()
            assert rows, "scrape returned nothing"
            by_name = {row["query"]: row for row in rows}
            assert by_name["q"].get("stale") is True
            assert not by_name["local_q"].get("stale")

    def test_scrape_during_revive_stays_up(self):
        registry = MetricsRegistry()
        engine = _engine(registry)
        admin = AdminServer(engine, registry=registry).start()
        statuses: list[tuple[str, int]] = []
        ingested: list[float] = []
        stop = threading.Event()

        def scrape(path: str) -> None:
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                        admin.url(path), timeout=10
                    ) as response:
                        body = response.read().decode()
                        statuses.append((path, response.status))
                        if path == "/metrics":
                            for line in body.splitlines():
                                if line.startswith(
                                    'events_ingested_total{shard="1"}'
                                ):
                                    ingested.append(
                                        float(line.rsplit(" ", 1)[1])
                                    )
                except urllib.error.HTTPError as error:
                    statuses.append((path, error.code))
                time.sleep(0.02)

        scrapers = [
            threading.Thread(target=scrape, args=(path,), daemon=True)
            for path in ("/metrics", "/queries")
        ]
        try:
            engine.run(iter(_events(2000)))
            for thread in scrapers:
                thread.start()
            kill_shard(engine, 1)
            _wait_for(
                lambda: engine.shard_health()[1]["restarts"] >= 1
                and engine.shard_health()[1]["alive"],
                what="shard 1 revive",
            )
            engine.run(iter(_events(1000, seed=11, start_ts=20_000)))
            time.sleep(0.3)  # a few scrapes of the revived fleet
        finally:
            stop.set()
            for thread in scrapers:
                thread.join(5.0)
            admin.stop()
            engine.close()
        served = {path for path, _ in statuses}
        assert served == {"/metrics", "/queries"}
        assert all(status == 200 for _, status in statuses), statuses
        # monotonic across every scrape, including mid-revive ones
        assert ingested == sorted(ingested), "per-shard counter dipped"
        # the revived shard's series reappeared after the restart
        assert ingested[-1] >= ingested[0]


# ----- scrape/ingest concurrency --------------------------------------------


class TestScrapeIngestConcurrency:
    def test_concurrent_scrape_flush_drops_no_events(self):
        """Regression: ``_try_flush`` on the scrape thread used to swap
        ``buffer``/``traced`` while the ingest thread appended without
        a lock — an append racing the swap landed in the orphaned list
        and was silently lost. Hammer both paths with a tiny batch size
        and pin the merged result against the single-process reference.
        """
        events = _events(6000, seed=13)
        reference = StreamEngine()
        reference.register(parse_query(QUERY), name="q")
        for event in events:
            reference.process(event)

        with _engine(batch_size=4) as engine:
            engine.run(iter(events[:16]))  # spawn workers first
            stop = threading.Event()
            errors: list[BaseException] = []

            def scrape() -> None:
                while not stop.is_set():
                    try:
                        engine.query_rows()
                    except BaseException as error:  # pragma: no cover
                        errors.append(error)
                        return

            scraper = threading.Thread(target=scrape, daemon=True)
            scraper.start()
            try:
                engine.run(iter(events[16:]))
            finally:
                stop.set()
                scraper.join(10.0)
            assert not errors, errors
            assert engine.result("q") == reference.result("q")
            assert not any(
                health["restarts"] for health in engine.shard_health()
            )


# ----- worker-side trace stamping -------------------------------------------


class TestWorkerTraceStamping:
    def test_corrupt_trace_offset_degrades_to_missing_span(self):
        """A malformed trace offset in a batch payload must cost the
        worker a span, not its life (and not a supervisor restart)."""
        trace = TraceRecorder(capacity=1024)
        with _engine(trace=trace, trace_sample=1) as engine:
            engine.run(iter(_events(200)))
            worker = engine._workers[0]
            with worker.lock:
                worker.conn.send(
                    (
                        "batch",
                        {
                            "c": EventBatch.from_events(
                                [Event("A", 1, {"g": 1, "v": 1})]
                            ).to_wire(),
                            "n": 1,
                            "t": [(99, "t-oob"), (-7, "t-neg"),
                                  ("x", "t-type")],
                        },
                    )
                )
            engine.run(iter(_events(200, seed=21, start_ts=5_000)))
            assert engine.results()["q"] is not None
            assert engine.shard_health()[0]["restarts"] == 0


# ----- stale-reply salvage --------------------------------------------------


class TestStaleReplySalvage:
    def test_salvaged_pong_spans_reach_trace_drain(self):
        """Spans riding a discarded stale pong are ingested, not lost:
        worker-side span drains are destructive, so the drain loops
        salvage the obs shipment before dropping the message."""
        trace = TraceRecorder(capacity=1024)
        with _engine(trace=trace, trace_sample=1) as engine:
            engine.run(iter(_events(100)))
            worker = engine._workers[0]
            stale_pong = (
                "pong",
                {
                    "events": 0,
                    "failure": None,
                    "obs": {
                        "wall": time.time(),
                        "spans": [
                            (
                                123,
                                Stage.SHARD_INGEST,
                                "A",
                                "shard=0",
                                "t-stale",
                                time.time(),
                            )
                        ],
                    },
                },
            )
            engine._salvage_reply(worker, stale_pong)
            drained = engine.drain_trace()
            assert any(
                span["trace_id"] == "t-stale"
                for span in drained["spans"]
            )

    def test_salvage_ignores_malformed_messages(self):
        with _engine() as engine:
            engine.run(iter(_events(10)))
            worker = engine._workers[0]
            engine._salvage_reply(worker, None)
            engine._salvage_reply(worker, ("ok",))
            engine._salvage_reply(worker, ("ok", [1, 2]))
            engine._salvage_reply(worker, ("ok", {"unrelated": 1}))


# ----- admin endpoints ------------------------------------------------------


class TestAdminEndpoints:
    def _get(self, admin, path: str) -> tuple[int, str]:
        with urllib.request.urlopen(admin.url(path), timeout=10) as resp:
            return resp.status, resp.read().decode()

    def test_dashboard_and_profile_wiring(self):
        from repro.obs.history import default_history

        registry = MetricsRegistry()
        with _engine(registry, profile=True) as engine:
            history = default_history(registry, interval_s=0.05).start()
            admin = AdminServer(
                engine, registry=registry, history=history
            ).start()
            try:
                engine.run(iter(_events(2000)))
                _wait_for(
                    lambda: history.samples_taken >= 3,
                    what="history samples",
                )
                status, body = self._get(admin, "/dashboard.json")
                payload = json.loads(body)
                assert status == 200 and payload["enabled"] is True
                status, body = self._get(admin, "/dashboard")
                assert status == 200
                status, body = self._get(admin, "/profile")
                assert status == 200
                assert "router;" in body or "no samples" in body
            finally:
                admin.stop()
                history.stop()

    def test_profile_404_when_off(self):
        registry = MetricsRegistry()
        with _engine(registry) as engine:
            admin = AdminServer(engine, registry=registry).start()
            try:
                engine.run(iter(_events(100)))
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._get(admin, "/profile")
                assert excinfo.value.code == 404
            finally:
                admin.stop()

    def test_trace_endpoint_serves_stitched_chains(self):
        registry = MetricsRegistry()
        trace = TraceRecorder(capacity=4096)
        with _engine(registry, trace=trace, trace_sample=1) as engine:
            admin = AdminServer(
                engine, registry=registry, trace=trace
            ).start()
            try:
                engine.run(iter(_events(600)))
                status, body = self._get(admin, "/trace")
                payload = json.loads(body)
                assert status == 200 and payload["enabled"] is True
                assert any(
                    chain["complete"] for chain in payload["stitched"]
                )
            finally:
                admin.stop()
