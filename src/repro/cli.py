"""Command-line interface: run a CEP aggregation query over a stream.

Examples::

    # a query over a trace file (the paper's dataset format)
    python -m repro --query "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT \\
        WITHIN 1 s" --trace trades.txt

    # the same over a generated stream, comparing engines
    python -m repro --query-file q.cep --generate stock --events 50000 \\
        --engine both

    # a multi-query workload file, shared execution
    python -m repro --workload-file funnels.cep --generate clicks \\
        --events 20000 --shared
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Iterable, Iterator

from repro.baseline.twostep import TwoStepEngine
from repro.core.executor import ASeqEngine
from repro.datagen.clicks import ClickStreamGenerator
from repro.datagen.security import LoginStreamGenerator
from repro.datagen.stock import StockTradeGenerator
from repro.datagen.tracefile import read_trace, read_trace_batches
from repro.errors import ReproError
from repro.events.batch import EventBatch, batches_from_events
from repro.events.event import Event
from repro.events.reorder import reordered
from repro.multi.unshared import UnsharedEngine
from repro.multi.workload import WorkloadEngine
from repro.obs.explain import explain_engine, render_explain
from repro.obs.export import write_json_snapshot, write_prometheus
from repro.obs.funnel import FunnelRecorder, set_default_funnel
from repro.obs.history import HistoryRecorder, default_history
from repro.obs.logging import LogConfig, get_logger, install_config
from repro.obs.profile import SamplingProfiler, collapsed_text
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    set_default_registry,
)
from repro.obs.server import AdminServer
from repro.obs.tracing import NULL_TRACER, TraceRecorder
from repro.obs.workload_profile import write_workload_profile
from repro.query.parser import parse_query, parse_workload

_log = get_logger("cli")

_GENERATORS = {
    "stock": lambda seed: StockTradeGenerator(mean_gap_ms=1, seed=seed),
    "clicks": lambda seed: ClickStreamGenerator(seed=seed),
    "logins": lambda seed: LoginStreamGenerator(seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Online aggregation of stream sequence patterns (A-Seq).",
    )
    source = parser.add_argument_group("query source (exactly one)")
    source.add_argument("--query", help="query text")
    source.add_argument("--query-file", help="file containing one query")
    source.add_argument(
        "--workload-file",
        help="file of named queries ('name: PATTERN ...;')",
    )
    stream = parser.add_argument_group("event source (exactly one)")
    stream.add_argument("--trace", help="trace file to replay")
    stream.add_argument(
        "--generate",
        choices=sorted(_GENERATORS),
        help="generate a synthetic stream instead of reading a trace",
    )
    parser.add_argument(
        "--events", type=int, default=20_000,
        help="events to generate (with --generate; default 20000)",
    )
    parser.add_argument(
        "--seed", type=int, default=17, help="generator seed (default 17)"
    )
    parser.add_argument(
        "--engine",
        choices=("aseq", "vectorized", "twostep", "both"),
        default="aseq",
        help="single-query engine (default aseq); 'both' cross-checks "
        "A-Seq against the stack-based baseline",
    )
    parser.add_argument(
        "--shared",
        action="store_true",
        help="run a workload with Chop-Connect sharing (default: unshared)",
    )
    parser.add_argument(
        "--reorder-slack-ms",
        type=int,
        default=0,
        help="tolerate out-of-order input up to this slack",
    )
    parser.add_argument(
        "--emit",
        choices=("final", "every", "none"),
        default="final",
        help="print every fresh aggregate, only the final one, or none",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="enable instrumentation and write a Prometheus text "
        "exposition to FILE plus a JSON snapshot to FILE.json",
    )
    obs.add_argument(
        "--stats-every",
        type=int,
        metavar="N",
        default=0,
        help="print a one-line stats report to stderr every N events "
        "(enables instrumentation; 0 disables)",
    )
    obs.add_argument(
        "--dump-trace",
        action="store_true",
        help="record event-lifecycle spans and dump the trace ring "
        "buffer to stderr at the end of the run",
    )
    obs.add_argument(
        "--trace-capacity",
        type=int,
        metavar="N",
        default=256,
        help="trace ring buffer capacity (default 256)",
    )
    obs.add_argument(
        "--trace-sample",
        type=int,
        metavar="N",
        default=64,
        help="with --shards and --dump-trace, stamp a cross-process "
        "trace id on every Nth routed event (default 64)",
    )
    obs.add_argument(
        "--history-every",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="sample a time-series history of key metrics every this "
        "many seconds, served at /dashboard.json and /dashboard "
        "(enables instrumentation; 0 disables)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="run a sampling profiler over the engine stages and serve "
        "the collapsed-stack profile at /profile (per process under "
        "--shards)",
    )
    obs.add_argument(
        "--profile-out",
        metavar="FILE",
        help="write the collapsed-stack profile to FILE at the end of "
        "the run (implies --profile)",
    )
    obs.add_argument(
        "--admin-port",
        type=int,
        metavar="PORT",
        help="serve a live admin endpoint (/metrics, /healthz, "
        "/queries, ...) on 127.0.0.1:PORT while the run is in flight "
        "(enables instrumentation; 0 picks a free port)",
    )
    obs.add_argument(
        "--admin-linger",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="keep the admin endpoint up this long after the run "
        "finishes, so scrapers can collect the final state "
        "(requires --admin-port; default 0)",
    )
    obs.add_argument(
        "--explain",
        action="store_true",
        help="print the EXPLAIN plan (execution path, sharing "
        "strategy, cost estimate) to stderr before ingest starts; "
        "see also the offline 'python -m repro explain' subcommand",
    )
    obs.add_argument(
        "--funnel",
        action="store_true",
        help="record the per-query match funnel (events routed -> "
        "predicate pass -> runs extended/expired/blocked -> matches "
        "emitted) plus sampled per-stage latency",
    )
    obs.add_argument(
        "--workload-profile",
        metavar="FILE",
        help="write a versioned workload profile (EXPLAIN plan + "
        "funnel + state watermarks + cost drift) to FILE at the end "
        "of the run (implies --funnel)",
    )
    obs.add_argument(
        "--log-json",
        action="store_true",
        help="emit runtime diagnostics as JSON log lines instead of "
        "'# '-prefixed text",
    )
    perf = parser.add_argument_group("performance")
    perf.add_argument(
        "--batch-size",
        type=int,
        metavar="N",
        default=0,
        help="ingest in micro-batches of N events through the routed "
        "fast path (0 = reference per-event path; results are "
        "identical, see docs/PERFORMANCE.md)",
    )
    perf.add_argument(
        "--columnar",
        action="store_true",
        help="ingest as struct-of-arrays event batches through the "
        "zero-object columnar lane (implies the routed vectorized "
        "engine; a --trace file is parsed straight into batches; "
        "non-vectorizable queries fall back per batch with "
        "identical results; composes with --shards via the "
        "flat-buffer shard wire)",
    )
    perf.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=0,
        help="run N worker processes, hash-partitioned on the GROUP "
        "BY / equivalence attribute; non-partitionable queries run "
        "in-process (0 = single process)",
    )
    perf.add_argument(
        "--transport",
        choices=("pipe", "tcp"),
        default="pipe",
        help="shard transport: forked processes over pipes (default) "
        "or framed TCP workers spawned locally / connected via "
        "--shard-worker",
    )
    perf.add_argument(
        "--shard-worker",
        action="append",
        metavar="HOST:PORT",
        help="connect to a pre-started networked worker "
        "(python -m repro.shard_worker --listen HOST:PORT) instead of "
        "spawning one; repeat once per shard (implies --transport tcp)",
    )
    perf.add_argument(
        "--workers-file",
        metavar="FILE",
        help="elastic worker membership: one HOST:PORT (or bare local "
        "member name) per line, hot-reloaded on change — added lines "
        "join the fleet, removed lines leave gracefully; partitions "
        "migrate live with exact state handoff (--shards only; "
        "HOST:PORT entries imply --transport tcp)",
    )
    perf.add_argument(
        "--membership-listen",
        metavar="HOST:PORT",
        help="open a worker self-registration listener so "
        "'python -m repro.shard_worker --listen ... --advertise "
        "HOST:PORT' can join the fleet without editing the workers "
        "file (--shards only; port 0 picks a free port)",
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--journal",
        metavar="DIR",
        help="run under the supervised fault-tolerant engine, "
        "journaling every event to DIR before dispatch",
    )
    resilience.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=0,
        help="write an engine-wide checkpoint to the journal directory "
        "every N events (0 disables; requires --journal)",
    )
    resilience.add_argument(
        "--recover",
        action="store_true",
        help="recover engine state from the latest checkpoint in the "
        "--journal directory and replay the journal suffix before "
        "processing the stream",
    )
    resilience.add_argument(
        "--fsync",
        choices=("never", "interval", "always"),
        default="never",
        help="journal fsync policy (default never; all policies "
        "survive process crashes, stricter ones survive power loss)",
    )
    resilience.add_argument(
        "--quarantine-after",
        type=int,
        metavar="K",
        default=5,
        help="quarantine a query after K consecutive executor "
        "failures (supervised engine only; default 5)",
    )
    resilience.add_argument(
        "--sink-retries",
        type=int,
        metavar="N",
        default=0,
        help="retry a failing sink delivery up to N times with "
        "exponential backoff before dead-lettering it (supervised "
        "engine only; default 0 = fail once, count, move on)",
    )
    resilience.add_argument(
        "--heartbeat-interval",
        type=float,
        metavar="S",
        default=0.5,
        help="shard heartbeat ping interval in seconds; 0 disables "
        "shard supervision entirely (--shards only; default 0.5)",
    )
    resilience.add_argument(
        "--shard-restart-limit",
        type=int,
        metavar="N",
        default=3,
        help="restarts granted to a failing shard before its "
        "key-range degrades into the local process (--shards only; "
        "default 3)",
    )
    resilience.add_argument(
        "--shard-journal",
        metavar="DIR",
        help="keep each shard's delivery journal and checkpoints on "
        "disk under DIR/shard-NN instead of in memory (--shards only)",
    )
    resilience.add_argument(
        "--router-journal",
        metavar="DIR",
        help="write-ahead journal every ingested event to DIR/lane-NN "
        "before routing, so the router itself survives a crash "
        "(--shards only; with --recover, resume from DIR); shard "
        "journals default to DIR/shards",
    )
    resilience.add_argument(
        "--router-checkpoint-every",
        type=int,
        metavar="N",
        default=0,
        help="persist the router's progress document every N ingested "
        "events, bounding recovery replay (0 disables; requires "
        "--router-journal)",
    )
    resilience.add_argument(
        "--ingest-lanes",
        type=int,
        metavar="N",
        default=1,
        help="partition the router WAL into N independent ingest "
        "lanes, each owning a key range with its own journal "
        "position (requires --router-journal; default 1)",
    )
    return parser


def _load_queries(args: argparse.Namespace) -> list:
    sources = [args.query, args.query_file, args.workload_file]
    if sum(s is not None for s in sources) != 1:
        raise SystemExit(
            "exactly one of --query / --query-file / --workload-file "
            "is required"
        )
    if args.query is not None:
        return [parse_query(args.query, name="q")]
    if args.query_file is not None:
        with open(args.query_file, "r", encoding="utf-8") as handle:
            return [parse_query(handle.read(), name="q")]
    with open(args.workload_file, "r", encoding="utf-8") as handle:
        return parse_workload(handle.read())


def _load_events(args: argparse.Namespace) -> Iterable[Event]:
    if (args.trace is None) == (args.generate is None):
        raise SystemExit("exactly one of --trace / --generate is required")
    if args.trace is not None:
        events: Iterable[Event] = read_trace(
            args.trace, enforce_order=args.reorder_slack_ms == 0
        )
    else:
        generator = _GENERATORS[args.generate](args.seed)
        events = generator.events(args.events)
    if args.reorder_slack_ms:
        events = reordered(events, slack_ms=args.reorder_slack_ms)
    return events


def _columnar_batch_size(args: argparse.Namespace) -> int:
    return args.batch_size if args.batch_size > 1 else 4096


def _load_batches(args: argparse.Namespace) -> Iterator[EventBatch]:
    """The ``--columnar`` event source.

    A trace file is parsed straight into columns — no ``Event`` and no
    ``EventStream``; the engine's vectorised per-batch check enforces
    stream order instead. The reorder buffer and the generators produce
    events, so those are columnarized from events as before.
    """
    batch_size = _columnar_batch_size(args)
    if (
        args.trace is not None
        and args.generate is None
        and not args.reorder_slack_ms
    ):
        return read_trace_batches(args.trace, batch_size)
    return batches_from_events(_load_events(args), batch_size)


def _build_engine(
    args: argparse.Namespace,
    queries: list,
    registry: MetricsRegistry,
    trace: TraceRecorder,
) -> Any:
    if len(queries) > 1 or args.workload_file is not None:
        if args.shared:
            engine = WorkloadEngine(queries, registry=registry)
            _log.info(
                "workload_plan",
                message=engine.describe().replace("\n", "\n# "),
                queries=len(queries),
            )
            return engine
        return UnsharedEngine(queries, registry=registry)
    (query,) = queries
    if args.engine == "twostep":
        return TwoStepEngine(query, registry=registry)
    if args.engine == "vectorized":
        return ASeqEngine(query, vectorized=True, registry=registry)
    return ASeqEngine(query, registry=registry, trace=trace)


def _explain_plan(engine: Any) -> dict[str, Any]:
    hook = getattr(engine, "explain", None)
    return hook() if callable(hook) else explain_engine(engine)


def _print_explain(engine: Any) -> None:
    """``--explain`` in run mode: plan to stderr, results stay clean."""
    print(render_explain(_explain_plan(engine)), file=sys.stderr, end="")


def _open_run(
    args: argparse.Namespace,
    engine: Any,
    registry: MetricsRegistry,
    trace: TraceRecorder,
    history: HistoryRecorder | None,
    profiler: SamplingProfiler | None = None,
) -> AdminServer | None:
    """What every lane does between building its engine and ingesting:
    ``--explain`` to stderr, the history recorder's cost refresher, the
    admin endpoint (returned for :func:`_stop_admin`)."""
    if args.explain:
        _print_explain(engine)
    if history is not None:
        refresh = getattr(engine, "refresh_cost_metrics", None)
        if callable(refresh):
            history.set_refresher(refresh)
    if args.admin_port is None:
        return None
    admin = AdminServer(
        engine,
        registry=registry,
        trace=trace,
        history=history,
        profiler=profiler,
        port=args.admin_port,
    )
    admin.start()
    return admin


def _finish_run(
    args: argparse.Namespace,
    engine: Any,
    registry: MetricsRegistry,
    trace: TraceRecorder,
    processed: int,
    elapsed: float,
    detail: str,
    results: dict[str, Any] | None = None,
    written: str | None = None,
    **fields: Any,
) -> None:
    """What every lane does once ingest is over: print the final
    aggregates, log ``run_complete``, write ``--metrics-out`` (Prometheus
    text and JSON snapshot), ``--dump-trace`` and the workload profile.

    ``detail`` finishes the ``run_complete`` sentence; ``fields`` ride in
    that record and in the snapshot's ``run`` section; ``written`` is
    what the lane appends to its "wrote metrics" line (None: it logs
    none).
    """
    if results is not None and args.emit != "none":
        for name, value in results.items():
            print(f"result\t{name}\t{value}")
    rate = processed / elapsed if elapsed else 0.0
    _log.info(
        "run_complete",
        message=f"{processed:,} events in {elapsed:.2f}s "
        f"({rate:,.0f} ev/s){detail}",
        events=processed,
        **fields,
        elapsed_s=round(elapsed, 3),
    )
    if args.metrics_out:
        write_prometheus(registry, args.metrics_out)
        write_json_snapshot(
            registry,
            args.metrics_out + ".json",
            run={
                "events": processed,
                **fields,
                "elapsed_s": elapsed,
                "events_per_s": rate,
            },
        )
        if written is not None:
            _log.info(
                "metrics_written",
                message=f"wrote metrics to {args.metrics_out}{written}",
                path=args.metrics_out,
            )
    if args.dump_trace:
        print(trace.format(), file=sys.stderr)
    if args.workload_profile:
        refresh = getattr(engine, "refresh_cost_metrics", None)
        if callable(refresh):
            try:
                refresh()  # pull-based gauges (drift, watermarks) go stale
            except Exception:
                pass
        write_workload_profile(engine, args.workload_profile)
        _log.info(
            "workload_profile_written",
            message=f"wrote workload profile to {args.workload_profile}",
            path=args.workload_profile,
        )


def _stop_admin(admin: AdminServer | None, linger: float) -> None:
    if admin is None:
        return
    if linger > 0:
        _log.info(
            "admin_linger",
            message=f"admin endpoint lingering {linger:g}s at "
            f"{admin.url()}",
            seconds=linger,
        )
        time.sleep(linger)
    admin.stop()


def _run_resilient(
    args: argparse.Namespace,
    queries: list,
    events: Iterable[Event],
    registry: MetricsRegistry,
    trace: TraceRecorder,
    history: HistoryRecorder | None = None,
    profiler: SamplingProfiler | None = None,
) -> int:
    """The ``--journal``/``--recover`` path: supervised engine run."""
    from repro.engine.sinks import CallbackSink
    from repro.resilience import (
        Checkpointer,
        EventJournal,
        SupervisedStreamEngine,
        recover,
    )

    if args.journal is None:
        raise SystemExit("--recover requires --journal DIR")
    if args.engine in ("twostep", "both"):
        raise SystemExit(
            "--journal needs checkpointable executors; "
            "--engine twostep/both is not supported here"
        )
    sinks: dict[str, list] = {}
    if args.emit == "every":
        printer = CallbackSink(
            lambda output: print(
                f"{output.ts}\t{output.query_name}\t{output.value}"
            )
        )
        sinks = {
            (query.name or f"q{index}"): [printer]
            for index, query in enumerate(queries)
        }
    checkpoint_every = args.checkpoint_every or None
    if args.recover:
        engine = recover(
            args.journal,
            sinks=sinks,
            queries=queries,
            registry=registry,
            trace=trace,
            checkpoint_every_events=checkpoint_every,
            fsync=args.fsync,
            quarantine_after=args.quarantine_after,
        )
        _log.info(
            "recovered",
            message=f"recovered: {len(engine.query_names)} queries, "
            f"{engine.events_replayed} journal events replayed",
            queries=len(engine.query_names),
            events_replayed=engine.events_replayed,
        )
    else:
        engine = SupervisedStreamEngine(
            vectorized=args.engine == "vectorized",
            registry=registry,
            trace=trace,
            quarantine_after=args.quarantine_after,
            routed=args.batch_size > 1,
            batch_size=max(0, args.batch_size),
            sink_retries=max(0, args.sink_retries),
        )
        journal = EventJournal(
            args.journal, fsync=args.fsync, registry=registry
        )
        engine.attach_journal(journal)
        if checkpoint_every:
            engine.attach_checkpointer(
                Checkpointer(
                    args.journal,
                    engine,
                    journal=journal,
                    every_events=checkpoint_every,
                    registry=registry,
                )
            )
        for index, query in enumerate(queries):
            name = query.name or f"q{index}"
            engine.register(query, *sinks.get(name, ()), name=name)

    admin = _open_run(args, engine, registry, trace, history, profiler)
    try:
        started = time.perf_counter()
        processed = engine.run(events, batch_size=args.batch_size or None)
        elapsed = time.perf_counter() - started

        if engine.checkpointer is not None:
            engine.checkpointer.checkpoint_now()
        if engine.journal is not None:
            engine.journal.close()

        quarantined = engine.quarantined()
        if quarantined or len(engine.dlq):
            _log.warning(
                "quarantine_summary",
                message=f"quarantined={quarantined} "
                f"dead_letters={len(engine.dlq)}",
                quarantined=quarantined,
                dead_letters=len(engine.dlq),
            )
        _finish_run(
            args, engine, registry, trace, processed, elapsed,
            f", {engine.metrics.outputs:,} outputs "
            f"(lifetime {engine.metrics.events:,} events)",
            results=engine.results(),
            written="",
            outputs=engine.metrics.outputs,
        )
        return 0
    finally:
        _stop_admin(admin, args.admin_linger)


def _run_sharded(
    args: argparse.Namespace,
    queries: list,
    events: Iterable[Event] | Iterable[EventBatch],
    registry: MetricsRegistry,
    trace: TraceRecorder,
    history: HistoryRecorder | None = None,
) -> int:
    """The ``--shards N`` path: hash-partitioned worker processes."""
    from repro.engine.sharded import ShardedStreamEngine
    from repro.engine.sinks import CallbackSink

    if args.journal:
        raise SystemExit(
            "--shards cannot be combined with --journal; the supervised "
            "engine is single-process (use --router-journal for a "
            "crash-safe router)"
        )
    if args.recover and not args.router_journal:
        raise SystemExit(
            "--shards --recover needs --router-journal DIR (the router "
            "WAL to resume from)"
        )
    if args.engine in ("twostep", "both"):
        raise SystemExit(
            "--shards runs A-Seq executors; --engine twostep/both is "
            "not supported here"
        )
    if args.shared:
        raise SystemExit("--shards and --shared are mutually exclusive")
    if args.ingest_lanes < 1:
        raise SystemExit("--ingest-lanes must be >= 1")
    supervise = args.heartbeat_interval > 0
    transport = args.transport
    if args.shard_worker:
        transport = "tcp"
    membership = None
    if args.workers_file or args.membership_listen:
        from repro.resilience.membership import (
            WorkerRegistry,
            registry_from_cli,
        )

        if not supervise:
            raise SystemExit(
                "--workers-file/--membership-listen need shard "
                "supervision (--heartbeat-interval > 0)"
            )
        if args.workers_file:
            membership = registry_from_cli(
                args.workers_file, metrics=registry
            )
        else:
            membership = WorkerRegistry(registry=registry)
        if any(m.address for m in membership.live_members()):
            transport = "tcp"  # networked members need framed TCP
        if args.membership_listen:
            host, _, port = args.membership_listen.rpartition(":")
            bound = membership.listen(host or "127.0.0.1", int(port or 0))
            transport = "tcp"  # advertised members arrive as HOST:PORT
            _log.info(
                "membership_listening",
                message=(
                    f"worker self-registration listener on "
                    f"{bound[0]}:{bound[1]}"
                ),
                host=bound[0],
                port=bound[1],
            )
    shard_journal = args.shard_journal
    if args.router_journal and not shard_journal:
        # Router recovery reconciles against durable shard journals;
        # keep both under one directory when only the WAL is named.
        from pathlib import Path

        shard_journal = str(Path(args.router_journal) / "shards")
    sinks: tuple = ()
    if args.emit == "every":
        sinks = (
            CallbackSink(
                lambda output: print(
                    f"{output.ts}\t{output.query_name}\t{output.value}"
                )
            ),
        )
    engine_kwargs = dict(
        batch_size=args.batch_size if args.batch_size > 1 else 256,
        vectorized=args.engine == "vectorized",
        registry=registry,
        supervise=supervise,
        heartbeat_interval_s=args.heartbeat_interval if supervise else 0.5,
        restart_limit=max(0, args.shard_restart_limit),
        trace=trace if trace.enabled else None,
        trace_sample=max(1, args.trace_sample),
        profile=args.profile or bool(args.profile_out),
        transport=transport,
        worker_addresses=args.shard_worker,
        router_checkpoint_every=max(0, args.router_checkpoint_every),
        membership=membership,
    )
    if args.recover:
        from repro.resilience.router_recovery import recover_router

        named_sinks = {
            (query.name or f"q{index}"): list(sinks)
            for index, query in enumerate(queries)
        }
        engine = recover_router(
            args.router_journal,
            queries=queries,
            sinks=named_sinks,
            shards=args.shards,
            journal_dir=shard_journal,
            lanes=args.ingest_lanes if args.ingest_lanes > 1 else None,
            fsync=args.fsync,
            **engine_kwargs,
        )
        _log.info(
            "router_recovered",
            message=f"router recovered: {engine.events_replayed} lane "
            f"events replayed",
            events_replayed=engine.events_replayed,
        )
    else:
        engine = ShardedStreamEngine(
            shards=args.shards,
            journal_dir=shard_journal,
            **engine_kwargs,
        )
        for index, query in enumerate(queries):
            engine.register(query, *sinks, name=query.name or f"q{index}")
        if args.router_journal:
            from repro.resilience.router_recovery import RouterLog

            engine.attach_router_log(
                RouterLog(
                    args.router_journal,
                    lanes=args.ingest_lanes,
                    fsync=args.fsync,
                    registry=registry,
                )
            )
    admin = _open_run(args, engine, registry, trace, history)
    try:
        started = time.perf_counter()
        # With --columnar the items are EventBatches: the run loop takes
        # them natively and ships each worker its partition as a flat
        # buffer.
        processed = engine.run(events)
        elapsed = time.perf_counter() - started
        results = engine.results()
        state = engine.inspect()
        if engine.degraded_shards or engine.shed_events:
            _log.warning(
                "shard_summary",
                message=f"degraded_shards={sorted(engine.degraded_shards)} "
                f"shed_events={engine.shed_events}",
                degraded_shards=sorted(engine.degraded_shards),
                shed_events=engine.shed_events,
            )
        _finish_run(
            args, engine, registry, trace, processed, elapsed,
            f" across {args.shards} shards "
            f"(sharded={state['sharded_queries']} "
            f"local={state['local_queries']})",
            results=results,
            shards=args.shards,
        )
        if args.profile_out:
            profile = engine.collapsed_profile() or ""
            with open(args.profile_out, "w", encoding="utf-8") as handle:
                handle.write(profile)
            _log.info(
                "profile_written",
                message=f"wrote fleet profile to {args.profile_out}",
                path=args.profile_out,
            )
        return 0
    finally:
        # Workers stay up through the linger so /queries and
        # /queries/<id>/state can still reach them.
        _stop_admin(admin, args.admin_linger)
        engine.close()
        if membership is not None:
            membership.close()


def _run_columnar(
    args: argparse.Namespace,
    queries: list,
    batches: Iterator[EventBatch],
    registry: MetricsRegistry,
    trace: TraceRecorder,
    history: HistoryRecorder | None = None,
    profiler: SamplingProfiler | None = None,
) -> int:
    """The ``--columnar`` path: struct-of-arrays batches through the
    routed vectorized engine's zero-object lane."""
    from repro.engine.engine import StreamEngine
    from repro.engine.sinks import CallbackSink

    if args.engine in ("twostep", "both"):
        raise SystemExit(
            "--columnar runs A-Seq executors; --engine twostep/both is "
            "not supported here"
        )
    if args.shared:
        raise SystemExit(
            "--columnar and --shared are mutually exclusive (shared "
            "plans consume events per-TRIG)"
        )
    engine = StreamEngine(
        routed=True,
        vectorized=True,
        registry=registry,
        trace=trace if trace.enabled else None,
        stream_name="columnar",
    )
    sinks: tuple = ()
    if args.emit == "every":
        sinks = (
            CallbackSink(
                lambda output: print(f"{output.ts}\t{output.value}")
            ),
        )
    for index, query in enumerate(queries):
        engine.register(query, *sinks, name=query.name or f"q{index}")
    admin = _open_run(args, engine, registry, trace, history, profiler)
    try:
        started = time.perf_counter()
        if args.stats_every > 0:
            batches = _stats_between_batches(
                batches, args.stats_every, started, engine, registry
            )
        processed = engine.run(batches)
        elapsed = time.perf_counter() - started
        _finish_run(
            args, engine, registry, trace, processed, elapsed,
            f" through the columnar lane "
            f"(batch size {_columnar_batch_size(args)})",
            results=engine.results(),
            outputs=engine.metrics.outputs,
        )
        return 0
    finally:
        _stop_admin(admin, args.admin_linger)


def _stats_between_batches(
    batches: Iterator[EventBatch],
    stats_every: int,
    started: float,
    engine: Any,
    registry: MetricsRegistry,
) -> Iterator[EventBatch]:
    """Pass batches through, logging a stats line whenever one carried
    the event count across a multiple of ``stats_every`` (the rule of
    the ``--batch-size`` loop in :func:`main`)."""
    processed = 0
    for batch in batches:
        yield batch
        # Resumed when the engine asks for the next batch, i.e. after
        # it has consumed this one.
        previous = processed
        processed += len(batch)
        if processed // stats_every != previous // stats_every:
            _log.info(
                "stats",
                message=_stats_line(
                    processed, engine.metrics.outputs,
                    time.perf_counter() - started, engine, registry,
                ),
            )


def _stats_line(
    processed: int,
    outputs: int,
    elapsed: float,
    engine: Any,
    registry: MetricsRegistry,
) -> str:
    rate = processed / elapsed if elapsed else 0.0
    parts = [
        f"events={processed:,}",
        f"outputs={outputs:,}",
        f"rate={rate:,.0f}/s",
    ]
    probe = getattr(engine, "current_objects", None)
    if probe is not None:
        parts.append(f"live_objects={probe():,}")
    if registry.enabled:
        for name, short in (
            ("sem_counters_created_total", "counters_created"),
            ("sem_counters_expired_total", "counters_expired"),
            ("sem_recount_resets_total", "recount_resets"),
            ("hpc_partitions_live", "partitions"),
        ):
            value = registry.value(name)
            if value:
                parts.append(f"{short}={value:,.0f}")
    return "stats " + " ".join(parts)


def _explain_main(argv: list[str]) -> int:
    """``python -m repro explain``: parse, plan, estimate — offline.

    Engines are constructed (compilation is cheap) but no events are
    ingested and no worker processes are spawned, so this works with
    no stream at hand: paste a query, read the plan, exit 0.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Show the EXPLAIN plan (execution path, sharing "
        "strategy, cost estimate) for a query or workload without "
        "running any events.",
    )
    parser.add_argument(
        "query_text",
        nargs="?",
        metavar="QUERY",
        help="query text (or use --query-file / --workload-file)",
    )
    parser.add_argument("--query-file", help="file containing one query")
    parser.add_argument(
        "--workload-file",
        help="file of named queries ('name: PATTERN ...;')",
    )
    parser.add_argument(
        "--engine",
        choices=("aseq", "vectorized", "twostep"),
        default="aseq",
        help="single-query engine to plan for (default aseq)",
    )
    parser.add_argument(
        "--shared",
        action="store_true",
        help="plan a workload with Chop-Connect sharing",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured plan as JSON instead of text",
    )
    args = parser.parse_args(argv)
    sources = [args.query_text, args.query_file, args.workload_file]
    if sum(s is not None for s in sources) != 1:
        parser.error(
            "exactly one of QUERY / --query-file / --workload-file "
            "is required"
        )
    try:
        if args.query_text is not None:
            queries = [parse_query(args.query_text, name="q")]
        elif args.query_file is not None:
            with open(args.query_file, "r", encoding="utf-8") as handle:
                queries = [parse_query(handle.read(), name="q")]
        else:
            with open(args.workload_file, "r", encoding="utf-8") as handle:
                queries = parse_workload(handle.read())
        if len(queries) > 1 or args.workload_file is not None:
            engine: Any = (
                WorkloadEngine(queries)
                if args.shared
                else UnsharedEngine(queries)
            )
        elif args.engine == "twostep":
            engine = TwoStepEngine(queries[0])
        else:
            engine = ASeqEngine(
                queries[0], vectorized=args.engine == "vectorized"
            )
        plan = _explain_plan(engine)
    except (ReproError, OSError) as error:
        _log.error(
            "explain_failed",
            message=f"error: {error}",
            error=type(error).__name__,
        )
        return 1
    try:
        if args.json:
            print(json.dumps(plan, indent=2, sort_keys=True))
        else:
            print(render_explain(plan), end="")
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream closed early (`| head`, `| grep -q`): not an error.
        # Point stdout at devnull so interpreter-exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return _explain_main(argv[1:])
    args = build_parser().parse_args(argv)

    instrument = (
        bool(args.metrics_out)
        or args.stats_every > 0
        or args.admin_port is not None
        or args.history_every > 0
    )
    funnel_on = args.funnel or bool(args.workload_profile)
    registry = MetricsRegistry() if instrument else NULL_REGISTRY
    trace = (
        TraceRecorder(capacity=args.trace_capacity)
        if args.dump_trace
        else NULL_TRACER
    )
    previous_default = set_default_registry(registry if instrument else None)
    # Every engine build below resolves the default funnel, so one
    # install covers the inline, resilient, and sharded paths alike
    # (the FunnelRecorder brings its own registry when the shared one
    # is disabled, e.g. --workload-profile without --metrics-out).
    previous_funnel = set_default_funnel(
        FunnelRecorder(registry) if funnel_on else None
    )
    previous_log = install_config(LogConfig(json_mode=args.log_json))
    admin = None
    history: HistoryRecorder | None = None
    profiler: SamplingProfiler | None = None
    profile_on = args.profile or bool(args.profile_out)
    try:
        queries = _load_queries(args)
        events = (
            _load_batches(args) if args.columnar else _load_events(args)
        )
        if args.history_every > 0:
            history = default_history(
                registry, interval_s=args.history_every
            ).start()
        if args.shards > 0:
            # The sharded engine owns its profilers (one per process).
            return _run_sharded(
                args, queries, events, registry, trace, history
            )
        if args.shard_journal:
            raise SystemExit("--shard-journal requires --shards N")
        if args.router_journal:
            raise SystemExit("--router-journal requires --shards N")
        if args.transport != "pipe" or args.shard_worker:
            raise SystemExit(
                "--transport/--shard-worker require --shards N"
            )
        if args.workers_file or args.membership_listen:
            raise SystemExit(
                "--workers-file/--membership-listen require --shards N"
            )
        if profile_on:
            profiler = SamplingProfiler().start()
        if args.journal or args.recover:
            if args.columnar:
                raise SystemExit(
                    "--columnar is not supported with --journal/"
                    "--recover (the supervised engine journals "
                    "per-event)"
                )
            return _run_resilient(
                args, queries, events, registry, trace, history, profiler
            )
        if args.columnar:
            return _run_columnar(
                args, queries, events, registry, trace, history, profiler
            )
        engine = _build_engine(args, queries, registry, trace)
        admin = _open_run(args, engine, registry, trace, history, profiler)

        cross_check = None
        if args.engine == "both" and len(queries) == 1:
            cross_check = TwoStepEngine(queries[0], registry=NULL_REGISTRY)

        stats_every = max(0, args.stats_every)
        m_ingested = registry.counter(
            "events_ingested_total", "events pumped through the run loop"
        )
        m_latency = registry.histogram(
            "event_latency_us", "per-event processing latency (µs)"
        )
        processed = 0
        outputs = 0
        started = time.perf_counter()
        batch_size = args.batch_size
        if batch_size > 1 and hasattr(engine, "process_batch"):
            from itertools import islice

            iterator = iter(events)
            while True:
                chunk = list(islice(iterator, batch_size))
                if not chunk:
                    break
                if instrument:
                    chunk_started = time.perf_counter()
                    emitted = engine.process_batch(chunk)
                    m_latency.observe(
                        (time.perf_counter() - chunk_started)
                        * 1e6 / len(chunk)
                    )
                    m_ingested.inc(len(chunk))
                else:
                    emitted = engine.process_batch(chunk)
                if cross_check is not None:
                    for event in chunk:
                        cross_check.process(event)
                previous = processed
                processed += len(chunk)
                outputs += len(emitted)
                if args.emit == "every":
                    for event, fresh in emitted:
                        print(f"{event.ts}\t{fresh}")
                if stats_every and (
                    processed // stats_every != previous // stats_every
                ):
                    _log.info(
                        "stats",
                        message=_stats_line(
                            processed, outputs,
                            time.perf_counter() - started, engine, registry,
                        ),
                    )
        else:
            for event in events:
                if instrument:
                    event_started = time.perf_counter()
                    fresh = engine.process(event)
                    m_latency.observe(
                        (time.perf_counter() - event_started) * 1e6
                    )
                    m_ingested.inc()
                else:
                    fresh = engine.process(event)
                if cross_check is not None:
                    cross_check.process(event)
                processed += 1
                if fresh is not None:
                    outputs += 1
                    if args.emit == "every":
                        print(f"{event.ts}\t{fresh}")
                if stats_every and processed % stats_every == 0:
                    _log.info(
                        "stats",
                        message=_stats_line(
                            processed, outputs,
                            time.perf_counter() - started, engine, registry,
                        ),
                    )
        elapsed = time.perf_counter() - started

        final = engine.result()
        if args.emit != "none":
            print(f"result\t{final}")
        if cross_check is not None:
            baseline = cross_check.result()
            status = "AGREE" if baseline == final else "DISAGREE"
            _log.info(
                "cross_check",
                message=f"cross-check (two-step)\t{baseline}\t{status}",
                baseline=str(baseline),
                status=status,
            )
            if baseline != final:
                return 2
        _finish_run(
            args, engine, registry, trace, processed, elapsed,
            f", {outputs:,} outputs",
            written=f" (+ {args.metrics_out}.json)",
            outputs=outputs,
        )
        return 0
    except (ReproError, OSError) as error:
        _log.error(
            "run_failed",
            message=f"error: {error}",
            error=type(error).__name__,
        )
        return 1
    finally:
        _stop_admin(admin, args.admin_linger)
        if profiler is not None:
            profiler.stop()
            if args.profile_out:
                with open(
                    args.profile_out, "w", encoding="utf-8"
                ) as handle:
                    handle.write(
                        collapsed_text(profiler.counts(), root="main")
                    )
                _log.info(
                    "profile_written",
                    message=f"wrote profile to {args.profile_out}",
                    path=args.profile_out,
                )
        if history is not None:
            history.stop()
        install_config(previous_log)
        set_default_funnel(previous_funnel)
        set_default_registry(previous_default)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
