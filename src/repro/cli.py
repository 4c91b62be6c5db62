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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.baseline.twostep import TwoStepEngine
from repro.core.executor import ASeqEngine
from repro.datagen.clicks import ClickStreamGenerator
from repro.datagen.security import LoginStreamGenerator
from repro.datagen.stock import StockTradeGenerator
from repro.datagen.tracefile import read_trace, read_trace_batches
from repro.engine.engine import StreamEngine
from repro.engine.sinks import CallbackSink
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
from repro.obs.tracing import NULL_TRACER, TraceRecorder
from repro.obs.workload_profile import write_workload_profile
from repro.query.parser import parse_query, parse_workload

if TYPE_CHECKING:
    from repro.obs.server import AdminServer

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
        "trace id on every Nth keyed row the router sends to a shard, "
        "batch or per-event ingest alike (default 64)",
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
        "single-process zero-object columnar lane (implies the routed "
        "vectorized engine; a --trace file is parsed straight into "
        "batches; non-vectorizable queries fall back per batch with "
        "identical results; --shards always ingests this way, so it "
        "changes nothing there)",
    )
    perf.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=0,
        help="run N worker processes, hash-partitioned on the GROUP "
        "BY / equivalence attribute; non-partitionable queries run "
        "in-process (0 = single process); the source is read as "
        "columnar batches, shipped to workers as flat buffers",
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
        help="write-ahead journal every ingested event to DIR (one "
        "journal, committed before each batch send) so the router "
        "itself survives a crash (--shards only; with --recover, "
        "resume from DIR); shard journals default to DIR/shards",
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
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """The one flag-compatibility table: refuse, with the first message
    that applies, before any source is opened or thread started."""
    sharded = args.shards > 0
    supervised = not sharded and bool(args.journal or args.recover)
    baseline = args.engine in ("twostep", "both")
    fleet = args.workers_file or args.membership_listen
    query_sources = (args.query, args.query_file, args.workload_file)
    refusals = (
        (
            sum(s is not None for s in query_sources) != 1,
            "exactly one of --query / --query-file / --workload-file "
            "is required",
        ),
        (
            (args.trace is None) == (args.generate is None),
            "exactly one of --trace / --generate is required",
        ),
        (
            sharded and args.journal,
            "--shards cannot be combined with --journal; the supervised "
            "engine is single-process (use --router-journal for a "
            "crash-safe router)",
        ),
        (
            sharded and args.recover and not args.router_journal,
            "--shards --recover needs --router-journal DIR (the router "
            "WAL to resume from)",
        ),
        (
            sharded and baseline,
            "--shards runs A-Seq executors; --engine twostep/both is "
            "not supported here",
        ),
        (
            sharded and args.shared,
            "--shards and --shared are mutually exclusive",
        ),
        (
            sharded and fleet and args.heartbeat_interval <= 0,
            "--workers-file/--membership-listen need shard supervision "
            "(--heartbeat-interval > 0)",
        ),
        (
            not sharded and args.shard_journal,
            "--shard-journal requires --shards N",
        ),
        (
            not sharded and args.router_journal,
            "--router-journal requires --shards N",
        ),
        (
            not sharded and (args.transport != "pipe" or args.shard_worker),
            "--transport/--shard-worker require --shards N",
        ),
        (
            not sharded and fleet,
            "--workers-file/--membership-listen require --shards N",
        ),
        (
            not args.journal and args.checkpoint_every,
            "--checkpoint-every requires --journal",
        ),
        (
            not args.router_journal and args.router_checkpoint_every,
            "--router-checkpoint-every requires --router-journal",
        ),
        (
            args.admin_port is None and args.admin_linger,
            "--admin-linger requires --admin-port",
        ),
        (
            supervised and args.journal is None,
            "--recover requires --journal DIR",
        ),
        (
            supervised and baseline,
            "--journal needs checkpointable executors; --engine "
            "twostep/both is not supported here",
        ),
        (
            args.columnar and baseline,
            "--columnar runs A-Seq executors; --engine twostep/both is "
            "not supported here",
        ),
        (
            args.columnar and args.shared,
            "--columnar and --shared are mutually exclusive (shared "
            "plans consume events per-TRIG)",
        ),
    )
    for refused, message in refusals:
        if refused:
            raise SystemExit(message)


def _load_queries(args: argparse.Namespace) -> list:
    if args.query is not None:
        return [parse_query(args.query, name="q")]
    if args.query_file is not None:
        with open(args.query_file, "r", encoding="utf-8") as handle:
            return [parse_query(handle.read(), name="q")]
    with open(args.workload_file, "r", encoding="utf-8") as handle:
        return parse_workload(handle.read())


def _columnar_batch_size(args: argparse.Namespace) -> int:
    return args.batch_size if args.batch_size > 1 else 4096


def _ingests_batches(args: argparse.Namespace) -> bool:
    """Whether the lane is fed ``EventBatch``es: ``--columnar`` and
    ``--shards N`` always, the ``--journal``/``--recover`` lane when
    ``--batch-size`` > 1. The one condition behind the source and the
    supervised engine's routing and vectorized executors."""
    journaled = bool(args.journal or args.recover)
    return (
        args.columnar or args.shards > 0
        or (journaled and args.batch_size > 1)
    )


def _load_source(
    args: argparse.Namespace,
) -> Iterable[Event] | Iterator[EventBatch]:
    """The event source: ``EventBatch``es when the lane ingests batches
    (:func:`_ingests_batches`), else ``Event``s.

    A batch-lane trace file is parsed straight into columns — no
    ``Event`` and no ``EventStream``; the engine's vectorised per-batch
    check enforces stream order instead. On the ``--journal`` lane each
    batch is then journaled as itself. The reorder buffer and the
    generators produce events, so those are columnarized from events.
    """
    batched = _ingests_batches(args)
    if args.trace is not None:
        if batched and not args.reorder_slack_ms:
            return read_trace_batches(args.trace, _columnar_batch_size(args))
        events: Iterable[Event] = read_trace(
            args.trace, enforce_order=args.reorder_slack_ms == 0
        )
    else:
        generator = _GENERATORS[args.generate](args.seed)
        events = generator.events(args.events)
    if args.reorder_slack_ms:
        events = reordered(events, slack_ms=args.reorder_slack_ms)
    if batched:
        return batches_from_events(events, _columnar_batch_size(args))
    return events


def _build_executor(
    args: argparse.Namespace,
    queries: list,
    registry: MetricsRegistry | None = None,
    trace: TraceRecorder | None = None,
) -> Any:
    """The executor the default lane hosts and offline ``explain`` plans
    for (reads ``workload_file`` / ``shared`` / ``engine`` only)."""
    if len(queries) > 1 or args.workload_file is not None:
        if args.shared:
            return WorkloadEngine(queries, registry=registry)
        return UnsharedEngine(queries, registry=registry)
    (query,) = queries
    if args.engine == "twostep":
        return TwoStepEngine(query, registry=registry)
    if args.engine == "vectorized":
        return ASeqEngine(query, vectorized=True, registry=registry)
    return ASeqEngine(query, registry=registry, trace=trace)


@dataclass
class _Lane:
    """What a lane adds to the run spine besides its engine: how its
    lines read and what it must close — data, not a code path."""

    engine: Any
    #: Finishes the ``run_complete`` sentence; read once ingest is over.
    detail: Callable[[], str]
    #: ``result`` line shape (the default lane's carries no name).
    result_line: str = "result\t{name}\t{value}"
    #: Success-only duties between ingest and the final aggregates
    #: (last checkpoint, journal close), returning those aggregates.
    settle: Callable[[], dict[str, Any]] | None = None
    #: Suffix of the "wrote metrics" line (None: the lane logs none).
    written: str | None = None
    #: What ``--explain`` plans (None: the engine).
    explained: Any = None
    #: Registration that cross-checks the other one (``--engine both``).
    cross_check: str | None = None
    #: Extra ``run_complete`` / snapshot fields (None: the output count).
    fields: dict[str, Any] | None = None
    #: The fleet's ``--profile-out`` text (the sharded engine owns its
    #: profilers, one per process).
    fleet_profile: Callable[[], str] | None = None
    #: Run after the admin endpoint stops, however the run ended.
    closers: tuple[Callable[[], None], ...] = ()


def _names(queries: list) -> list[str]:
    return [query.name or f"q{index}" for index, query in enumerate(queries)]


def _build_engine(
    args: argparse.Namespace,
    queries: list,
    registry: MetricsRegistry,
    trace: TraceRecorder,
) -> _Lane:
    """Flags to a ``StreamEngine``-family engine plus its lane record."""
    supervised = bool(args.journal or args.recover)
    sinks: tuple = ()
    if args.emit == "every":
        # ledger/check.py and the paced driver parse both line shapes.
        sinks = (
            CallbackSink(
                (lambda o: print(f"{o.ts}\t{o.query_name}\t{o.value}"))
                if args.shards > 0 or supervised
                else (lambda o: print(f"{o.ts}\t{o.value}"))
            ),
        )
    if args.shards > 0:
        return _build_sharded(args, queries, sinks, registry, trace)
    if supervised:
        return _build_supervised(args, queries, sinks, registry, trace)
    if args.columnar:
        engine = StreamEngine(
            routed=True,
            vectorized=True,
            registry=registry,
            trace=trace if trace.enabled else None,
            stream_name="columnar",
        )
        for name, query in zip(_names(queries), queries):
            engine.register(query, *sinks, name=name)
        return _Lane(
            engine,
            lambda: f" through the columnar lane "
            f"(batch size {_columnar_batch_size(args)})",
        )
    executor = _build_executor(args, queries, registry, trace)
    if isinstance(executor, WorkloadEngine):
        _log.info(
            "workload_plan",
            message=executor.describe().replace("\n", "\n# "),
            queries=len(queries),
        )
    # The reference per-event path (chunked under --batch-size); the
    # hosted executor records its own trace spans.
    engine = StreamEngine(
        registry=registry, batch_size=max(0, args.batch_size)
    )
    engine.register_executor(
        "q" if args.workload_file is None else "workload", executor, *sinks
    )
    cross_check = None
    if args.engine == "both" and len(queries) == 1:
        cross_check = "cross_check"
        engine.register_executor(
            cross_check, TwoStepEngine(queries[0], registry=NULL_REGISTRY)
        )
    return _Lane(
        engine,
        lambda: f", {engine.metrics.outputs:,} outputs",
        result_line="result\t{value}",
        written=f" (+ {args.metrics_out}.json)",
        explained=executor,
        cross_check=cross_check,
    )


def _build_supervised(
    args: argparse.Namespace,
    queries: list,
    sinks: tuple,
    registry: MetricsRegistry,
    trace: TraceRecorder,
) -> _Lane:
    """The ``--journal``/``--recover`` lane: the supervised engine."""
    from repro.resilience import (
        Checkpointer,
        EventJournal,
        SupervisedStreamEngine,
        recover,
    )

    names = _names(queries)
    checkpoint_every = args.checkpoint_every or None
    # One engine configuration for a fresh run and a recovered one. A
    # lane that ingests batches runs the executors --columnar runs.
    batched = _ingests_batches(args)
    engine_kwargs = dict(
        vectorized=batched or args.engine == "vectorized",
        registry=registry,
        trace=trace,
        quarantine_after=args.quarantine_after,
        routed=batched,
        batch_size=max(0, args.batch_size),
        sink_retries=max(0, args.sink_retries),
    )
    if args.recover:
        engine = recover(
            args.journal,
            sinks={name: list(sinks) for name in names},
            queries=queries,
            checkpoint_every_events=checkpoint_every,
            fsync=args.fsync,
            **engine_kwargs,
        )
        _log.info(
            "recovered",
            message=f"recovered: {len(engine.query_names)} queries, "
            f"{engine.events_replayed} journal events replayed",
            queries=len(engine.query_names),
            events_replayed=engine.events_replayed,
        )
    else:
        engine = SupervisedStreamEngine(**engine_kwargs)
        journal = EventJournal(
            args.journal, fsync=args.fsync, registry=registry
        )
        engine.attach_journal(journal)
        if checkpoint_every:
            engine.attach_checkpointer(
                Checkpointer(
                    engine,
                    journal,
                    every_events=checkpoint_every,
                    registry=registry,
                )
            )
        for name, query in zip(names, queries):
            engine.register(query, *sinks, name=name)

    def settle() -> dict[str, Any]:
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
        return engine.results()

    return _Lane(
        engine,
        lambda: f", {engine.metrics.outputs:,} outputs "
        f"(lifetime {engine.metrics.events:,} events)",
        settle=settle,
        written="",
        closers=(engine.journal.close,),
    )


def _build_sharded(
    args: argparse.Namespace,
    queries: list,
    sinks: tuple,
    registry: MetricsRegistry,
    trace: TraceRecorder,
) -> _Lane:
    """The ``--shards N`` lane: hash-partitioned worker processes. Its
    run loop takes the source's batches natively and ships each worker
    its partition of a batch as one flat buffer."""
    from repro.engine.sharded import ShardedStreamEngine

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
    names = _names(queries)
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

        engine = recover_router(
            args.router_journal,
            queries=queries,
            sinks={name: list(sinks) for name in names},
            shards=args.shards,
            journal_dir=shard_journal,
            fsync=args.fsync,
            **engine_kwargs,
        )
        _log.info(
            "router_recovered",
            message=f"router recovered: {engine.events_replayed} WAL "
            f"events replayed",
            events_replayed=engine.events_replayed,
        )
    else:
        engine = ShardedStreamEngine(
            shards=args.shards,
            journal_dir=shard_journal,
            **engine_kwargs,
        )
        for name, query in zip(names, queries):
            engine.register(query, *sinks, name=name)
        if args.router_journal:
            from repro.resilience.journal import EventJournal

            engine.attach_router_log(
                EventJournal(
                    args.router_journal,
                    fsync=args.fsync,
                    registry=registry,
                )
            )

    def settle() -> dict[str, Any]:
        results = engine.results()
        if engine.degraded_shards or engine.shed_events:
            _log.warning(
                "shard_summary",
                message=f"degraded_shards={sorted(engine.degraded_shards)} "
                f"shed_events={engine.shed_events}",
                degraded_shards=sorted(engine.degraded_shards),
                shed_events=engine.shed_events,
            )
        return results

    def detail() -> str:
        state = engine.inspect()
        return (
            f" across {args.shards} shards "
            f"(sharded={state['sharded_queries']} "
            f"local={state['local_queries']})"
        )

    # Closed after the admin linger, so /queries and /queries/<id>/state
    # can still reach the workers through it.
    closers = [engine.close]
    if membership is not None:
        closers.append(membership.close)
    return _Lane(
        engine,
        detail,
        settle=settle,
        fields={"shards": args.shards},
        fleet_profile=lambda: engine.collapsed_profile() or "",
        closers=tuple(closers),
    )


def _explain_plan(engine: Any) -> dict[str, Any]:
    hook = getattr(engine, "explain", None)
    return hook() if callable(hook) else explain_engine(engine)


def _open_run(
    args: argparse.Namespace,
    lane: _Lane,
    registry: MetricsRegistry,
    trace: TraceRecorder,
    history: HistoryRecorder | None,
    profiler: SamplingProfiler | None,
) -> AdminServer | None:
    """Between building the engine and ingesting: ``--explain`` to
    stderr (results stay clean), the history recorder's cost refresher,
    the admin endpoint (returned for :func:`_stop_admin`)."""
    engine = lane.engine
    if args.explain:
        plan = _explain_plan(lane.explained or engine)
        print(render_explain(plan), file=sys.stderr, end="")
    if history is not None:
        history.set_refresher(engine.refresh_cost_metrics)
    if args.admin_port is None:
        return None
    # Imported here: the HTTP server modules cost every start-up that
    # asks for no admin port.
    from repro.obs.server import AdminServer

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
    lane: _Lane,
    registry: MetricsRegistry,
    trace: TraceRecorder,
    processed: int,
    elapsed: float,
) -> int:
    """Once ingest is over: settle the lane, print the final aggregates,
    give the cross-check's verdict (exit code 2 on a disagreement, and
    nothing further), log ``run_complete``, write ``--metrics-out``
    (Prometheus text and JSON snapshot), ``--dump-trace``, the workload
    profile and the fleet profile."""
    engine = lane.engine
    results = (lane.settle or engine.results)()
    baseline = results.pop(lane.cross_check, None)
    if args.emit != "none":
        for name, value in results.items():
            print(lane.result_line.format(name=name, value=value))
    if lane.cross_check is not None:
        (final,) = results.values()
        status = "AGREE" if baseline == final else "DISAGREE"
        _log.info(
            "cross_check",
            message=f"cross-check (two-step)\t{baseline}\t{status}",
            baseline=str(baseline),
            status=status,
        )
        if baseline != final:
            return 2
    fields = lane.fields or {"outputs": engine.metrics.outputs}
    rate = processed / elapsed if elapsed else 0.0
    _log.info(
        "run_complete",
        message=f"{processed:,} events in {elapsed:.2f}s "
        f"({rate:,.0f} ev/s){lane.detail()}",
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
        if lane.written is not None:
            _log.info(
                "metrics_written",
                message=f"wrote metrics to {args.metrics_out}{lane.written}",
                path=args.metrics_out,
            )
    if args.dump_trace:
        print(trace.format(), file=sys.stderr)
    if args.workload_profile:
        try:
            # Pull-based gauges (drift, watermarks) go stale.
            engine.refresh_cost_metrics()
        except Exception:
            pass
        write_workload_profile(engine, args.workload_profile)
        _log.info(
            "workload_profile_written",
            message=f"wrote workload profile to {args.workload_profile}",
            path=args.workload_profile,
        )
    if args.profile_out and lane.fleet_profile is not None:
        _write_profile(args.profile_out, lane.fleet_profile(), "fleet profile")
    return 0


def _write_profile(path: str, text: str, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    _log.info("profile_written", message=f"wrote {what} to {path}", path=path)


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


def _stats_ticker(
    stats_every: int, started: float, engine: Any, registry: MetricsRegistry
) -> Callable[[], None]:
    """``--stats-every``: a ``tick()`` that logs a stats line whenever
    the engine's ingest count has crossed a multiple of ``stats_every``
    since the previous tick — at every event on a per-event lane, at
    the batch that carried it across on a batch lane."""
    base = engine.metrics.events  # a recovered engine starts above zero
    seen = 0

    def tick() -> None:
        nonlocal seen
        previous, seen = seen, engine.metrics.events - base
        if seen // stats_every == previous // stats_every:
            return
        elapsed = time.perf_counter() - started
        parts = [
            f"events={seen:,}",
            f"outputs={engine.metrics.outputs:,}",
            f"rate={seen / elapsed if elapsed else 0.0:,.0f}/s",
        ]
        probe = getattr(engine, "current_objects", None)
        if probe is not None:
            parts.append(f"live_objects={probe():,}")
        for name, short in (
            ("sem_counters_created_total", "counters_created"),
            ("sem_counters_expired_total", "counters_expired"),
            ("sem_recount_resets_total", "recount_resets"),
            ("hpc_partitions_live", "partitions"),
        ):
            value = registry.value(name)
            if value:
                parts.append(f"{short}={value:,.0f}")
        _log.info("stats", message="stats " + " ".join(parts))

    return tick


def _stats_between_batches(
    source: Iterable[Any], tick: Callable[[], None]
) -> Iterator[Any]:
    """Pass events or batches through, ticking between them."""
    for item in source:
        yield item
        # Resumed when the engine asks for the next item, i.e. after it
        # has consumed this one — or, chunking events under
        # --batch-size, the chunks before this one; main() ticks once
        # more for the last chunk.
        tick()


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
        "query",
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
    sources = [args.query, args.query_file, args.workload_file]
    if sum(s is not None for s in sources) != 1:
        parser.error(
            "exactly one of QUERY / --query-file / --workload-file "
            "is required"
        )
    try:
        plan = _explain_plan(_build_executor(args, _load_queries(args)))
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
    _check_flags(args)

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
    # install covers every lane (the FunnelRecorder brings its own
    # registry when the shared one is disabled, e.g. --workload-profile
    # without --metrics-out).
    previous_funnel = set_default_funnel(
        FunnelRecorder(registry) if funnel_on else None
    )
    previous_log = install_config(LogConfig(json_mode=args.log_json))
    admin = None
    lane: _Lane | None = None
    history: HistoryRecorder | None = None
    profiler: SamplingProfiler | None = None
    try:
        queries = _load_queries(args)
        source = _load_source(args)
        if args.history_every > 0:
            history = default_history(
                registry, interval_s=args.history_every
            ).start()
        if (args.profile or args.profile_out) and args.shards <= 0:
            profiler = SamplingProfiler().start()
        lane = _build_engine(args, queries, registry, trace)
        engine = lane.engine
        admin = _open_run(args, lane, registry, trace, history, profiler)
        started = time.perf_counter()
        tick = None
        if args.stats_every > 0:
            tick = _stats_ticker(args.stats_every, started, engine, registry)
            source = _stats_between_batches(source, tick)
        processed = engine.run(source)
        if tick is not None:
            tick()
        elapsed = time.perf_counter() - started
        return _finish_run(args, lane, registry, trace, processed, elapsed)
    except (ReproError, OSError) as error:
        _log.error(
            "run_failed",
            message=f"error: {error}",
            error=type(error).__name__,
        )
        return 1
    finally:
        _stop_admin(admin, args.admin_linger)
        for close in lane.closers if lane is not None else ():
            close()
        if profiler is not None:
            profiler.stop()
            if args.profile_out:
                _write_profile(
                    args.profile_out,
                    collapsed_text(profiler.counts(), root="main"),
                    "profile",
                )
        if history is not None:
            history.stop()
        install_config(previous_log)
        set_default_funnel(previous_funnel)
        set_default_registry(previous_default)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
