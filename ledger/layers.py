"""The traced run: per-layer cost of one workload, from outside.

``--trace 1`` rebuilds the chain from the layers' public functions and
runs it a stage at a time over chunks of a fixed-size sample of the
workload's input, so no stage holds more than a chunk of objects:

    trace file -> decode -> order check -> columnarize -> ingest -> results

with journal, wire, transport, the sharded engine and the paced CLI
beside it. Every call into a layer is one span (name, start, end, parent,
pass id); counts are taken at the same boundaries. A stage named in the
workload's ``chain`` sits directly under its pass's root and is *on the
path*: those spans add up to what the program does. Every other stage is
timed on the same data under a ``harness.isolated`` span, off the path:
either because it only runs inside another layer's call and cannot be
bracketed there (mask and kernel inside ``process_event_batch``, journal
append inside the supervised engine, the wire codec inside the router),
or because this workload's program does not call it at all, in which case
the number says what that layer would cost on this input.

``harness.coverage`` is the on-path total over the untraced program time
on the same sample; outside [0.8, 1.25] the chain does not represent the
program and the per-layer numbers are reported as unresolved.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

import numpy as np

import check
import drivers
from drivers import Env, Report
from hostspeed import Passes, host_speed, reference_loop
from workloads import (
    PACED_RATE, Columns, event_batches, fresh, generate, write_trace_file,
)

SAMPLE_EVENTS = 20_000
SUB_BATCH = 256  # events per process_batch / journal append call
BASELINE_PREFIX = 5_000
COVERAGE_BAND = (0.8, 1.25)
ISOLATED = "harness.isolated"
NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory spans, written out when the run ends."""

    def __init__(self, chain: tuple[str, ...]) -> None:
        self.chain = frozenset(chain)
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._pass: str | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self._pass,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def traced_pass(self, pass_id: str) -> Iterator[dict[str, Any]]:
        self._pass = pass_id
        try:
            with self.span("pass") as root:
                yield root
        finally:
            self._pass = None

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[dict[str, Any]]:
        """One call into a layer: on the path when the workload's chain
        names it, under ``harness.isolated`` otherwise."""
        if name in self.chain:
            with self.span(name) as record:
                yield record
        else:
            with self.span(ISOLATED), self.span(name) as record:
                yield record

    @staticmethod
    def cost_per_span(samples: int = 2_000) -> float:
        """Seconds one empty span costs: what tracing adds per call."""
        probe = Tracer(())
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / samples

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


class StageTable:
    """Per-pass totals of span time and counts, in nominal units."""

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        #: Per kind of pass ("pipeline", "sharded"): what its on-path
        #: spans add up to, and how many of them there were.
        self.path_seconds: dict[str, list[float]] = defaultdict(list)
        self.path_spans: dict[str, int] = {}

    def add_pass(
        self, kind: str, tracer: Tracer, root: dict[str, Any], speed: float
    ) -> None:
        totals: dict[str, float] = defaultdict(float)
        on_path = 0.0
        path_spans = 0
        for span in tracer.spans[root["id"] + 1:]:
            if span["name"] == ISOLATED:
                continue
            duration = span["end"] - span["start"]
            totals[span["name"]] += duration
            if span["parent"] == root["id"]:
                on_path += duration
                path_spans += 1
        for name, total in totals.items():
            self.seconds[name].append(total * speed)
        self.path_seconds[kind].append(on_path * speed)
        self.path_spans[kind] = path_spans

    def median(self, name: str) -> float:
        """Median nominal seconds per pass spent in ``name`` (0 when no
        pass ran it)."""
        values = self.seconds.get(name)
        return statistics.median(values) if values else 0.0


class _Refill:
    """An iterator the pipeline reloads per chunk, so one EventStream
    checks order across the whole pass."""

    def __init__(self) -> None:
        self._items: Iterator[Any] = iter(())

    def load(self, items: list) -> None:
        self._items = iter(items)

    def __iter__(self) -> "_Refill":
        return self

    def __next__(self) -> Any:
        return next(self._items)


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """The cyclic collector is paused inside a traced pass and run between
    chunks: left on, it charges the harness's own live objects to whichever
    stage allocates most (+34 % on the fallback lane's engine.ingest, while
    the untraced program pays nothing comparable)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _sub_batches(events: list) -> Iterator[list]:
    for start in range(0, len(events), SUB_BATCH):
        yield events[start:start + SUB_BATCH]


def pipeline_pass(
    env: Env, tracer: Tracer, table: StageTable, trace: Path,
    expected: dict[str, Any], report: Report, pass_id: str,
) -> None:
    """One traced pass of every single-process layer over the sample."""
    from repro.core.columnar import columnar_capable, plan_for
    from repro.core.executor import ASeqEngine
    from repro.datagen.tracefile import iter_trace
    from repro.engine.engine import StreamEngine, relevant_types_of
    from repro.engine.sharded import shard_of
    from repro.engine.sinks import CallbackSink, CollectSink
    from repro.events.batch import EventBatch
    from repro.events.stream import EventStream
    from repro.query.parser import parse_query
    from repro.resilience import EventJournal, SupervisedStreamEngine
    from repro.resilience.checkpointer import engine_state, write_checkpoint

    workload = env.workload
    names = workload.query_names()
    stage = tracer.stage
    counts = table.counts
    scratch = env.directory / "stages"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    printed = io.StringIO()
    printer = CallbackSink(
        lambda output: print(f"{output.ts}\t{output.value}", file=printed)
    )
    before = reference_loop()
    with paused_gc(), tracer.traced_pass(pass_id) as root:
        queries = []
        for text, name in zip(workload.queries, names):
            with stage("parser.parse"):
                queries.append(parse_query(text, name=name))
        lane = StreamEngine(routed=True, vectorized=True)
        for query in queries:
            with stage("engine.register"):
                lane.register(query, name=query.name)
        batch_engine = StreamEngine(routed=True)
        event_engine = StreamEngine()
        collected = CollectSink()
        supervised = SupervisedStreamEngine(routed=True, batch_size=SUB_BATCH)
        journal = EventJournal(scratch / "journal", fsync="never")
        supervised.attach_journal(
            EventJournal(scratch / "supervised", fsync="never")
        )
        for query in queries:
            batch_engine.register(query, name=query.name)
            event_engine.register(query, collected, name=query.name)
            supervised.register(query, name=query.name)
        program = (
            supervised if "supervisor.ingest" in tracer.chain else lane
        )
        executors = [
            ASeqEngine(query, vectorized=workload.vectorized)
            for query in queries
        ]
        buckets = [relevant_types_of(executor) for executor in executors]
        kernels = [
            ASeqEngine(parse_query(text, name=name), vectorized=True)
            for text, name in zip(workload.kernel_queries, names)
        ]
        plans: list[Any] = []
        decoder = iter_trace(str(trace))
        refill = _Refill()
        stream = EventStream(refill)
        schema = None
        last_ts = None
        shard_memo: dict[int, int] = {}
        emitted = 0
        while True:
            with stage("tracefile.decode"):
                events = list(islice(decoder, workload.chunk))
            if not events:
                break
            rows = len(events)
            counts["events"] += rows
            refill.load(events)
            with stage("stream.order_check"):
                events = list(islice(stream, rows))
            with stage("batch.columnarize"):
                batch = EventBatch.from_events(events, schema=schema)
            if batch.schema is not schema:
                schema = batch.schema
                plans = []
                for kernel in kernels:
                    with stage("columnar.plan"):
                        plans.append(plan_for(kernel, schema))
                if None in plans:
                    raise RuntimeError("the kernel form is not columnar-capable")
                counts["plans"] += len(kernels)
            with stage("batch.order_check"):
                batch.ensure_in_order(last_ts)
            last_ts = batch.last_ts()
            with stage("engine.ingest"):
                lane.process_event_batch(batch)

            # Mask and kernel run inside that call; here they run again,
            # alone, on shadow executors that see the same batches.
            for kernel, plan in zip(kernels, plans):
                with stage("columnar.mask"):
                    selection = plan.evaluate(batch)
                if selection is None:
                    raise RuntimeError("the kernel form declined a batch")
                routed_idx, kept_idx = selection
                counts["kept_rows"] += kept_idx.size
                if not routed_idx.size:
                    continue
                if kept_idx.size:
                    codes = batch.codes[kept_idx].tolist()
                    stamps = batch.ts[kept_idx].tolist()
                    values = plan.values_for(batch, kept_idx)
                    with stage("vectorized.kernel"):
                        kernel.runtime.process_columns(
                            codes, stamps, plan, values
                        )
                kernel.runtime.advance_time(int(batch.ts[routed_idx[-1]]))

            # The fallback lane's two halves, alone.
            copy = batch.islice(0, rows)
            with stage("batch.materialize"):
                copy.to_events()
            for executor, types in zip(executors, buckets):
                if workload.kind == "paced":  # the per-event CLI lane
                    with stage("executor.process"):
                        for event in events:
                            executor.process(event)
                    continue
                bucket = [e for e in events if e.event_type in types]
                with stage("executor.process"):
                    executor.process_batch(bucket)

            with stage("engine.process_batch"):
                for sub in _sub_batches(events):
                    batch_engine.process_batch(sub)
            mark = len(collected.outputs)
            with stage("engine.process"):
                for event in events:
                    event_engine.process(event)
            with stage("sinks.emit"):
                for output in collected.outputs[mark:]:
                    printer.emit(output)
            emitted += len(collected.outputs) - mark
            del collected.outputs[:]

            with stage("journal.append"):
                for sub in _sub_batches(events):
                    journal.append_batch(sub)
            with stage("supervisor.ingest"):
                for sub in _sub_batches(events):
                    supervised.process_batch(sub)

            # What the sharded router does to a batch before the pipe.
            volumes = batch.cols["volume"].tolist()
            shard = np.fromiter(
                (
                    shard_memo[v] if v in shard_memo
                    else shard_memo.setdefault(v, shard_of(v, 2))
                    for v in volumes
                ),
                dtype=np.int8, count=rows,
            )
            for index in (0, 1):
                picked = np.flatnonzero(shard == index)
                counts[f"shard_rows_{index}"] += picked.size
                with stage("batch.take"):
                    part = batch.take(picked)
                with stage("batch.wire_encode"):
                    wire = part.to_wire()
                with stage("batch.wire_decode"):
                    EventBatch.from_wire(wire)
                counts["wire_bytes"] += len(wire)
            gc.collect()

        with stage("engine.results"):
            results = program.results()
        with stage("checkpointer.snapshot"):
            state = engine_state(supervised, supervised.journal.next_seq)
            written = write_checkpoint(scratch / "checkpoints", state)
    speed = host_speed(before, reference_loop())
    table.add_pass("pipeline", tracer, root, speed)
    counts["passes"] += 1
    counts["outputs"] += emitted
    counts["lane_outputs"] += lane.metrics.outputs
    counts["journal_bytes"] += journal.backlog_bytes
    counts["state_bytes"] += written.stat().st_size
    counts["live_objects"] += sum(e.current_objects() for e in executors)
    counts["kernel_lane"] = sum(
        columnar_capable(lane.executor_of(name)) for name in names
    ) / len(names)
    journal.close()
    supervised.journal.close()
    shutil.rmtree(scratch, ignore_errors=True)
    for what, engine in (
        ("columnar lane", lane), ("process_batch lane", batch_engine),
        ("per-event lane", event_engine), ("supervised lane", supervised),
    ):
        report.gate(check.compare(
            f"{pass_id} {what}", expected,
            results if engine is program else engine.results(),
        ))


# ----- the program, untraced, on the same sample --------------------------


def api_passes(env: Env, sample: Columns, count: int,
               expected: dict[str, Any], report: Report) -> Passes:
    queries = check.parse_queries(env.workload)
    batches = event_batches(sample, env.workload.chunk)
    passes = Passes()
    for number in range(count):
        engine = drivers.build_engine(queries)
        current = fresh(batches)

        def body() -> Any:
            for batch in current:
                engine.process_event_batch(batch)
            return engine.results()

        gc.collect()
        report.gate(check.compare(
            f"untraced pass {number}", expected, passes.run(body)
        ))
    return passes


def main_passes(
    env: Env, trace: Path, passes: Passes, expected: dict[str, Any],
    report: Report, metrics_out: bool = False,
) -> None:
    """One more ``repro.cli.main`` pass over the sample with the
    workload's flags."""
    journal = env.journal_dir()
    argv = env.cli_argv(str(trace), journal)
    if metrics_out:
        argv += ["--metrics-out", str(env.directory / "metrics.prom")]
    names = env.workload.query_names()
    if "--shards" in argv and passes.attempted >= 2:
        return  # each pass forks two workers: two passes are enough
    gc.collect()
    printed = passes.run(lambda: drivers.call_main(argv))
    if journal is not None:
        shutil.rmtree(journal, ignore_errors=True)
    report.gate(check.compare(
        f"main() pass {passes.attempted}", expected,
        None if printed is None
        else check.parse_result_lines(printed.splitlines(), names),
    ))


# ----- the sharded engine ---------------------------------------------------


def sharded_subrun(
    env: Env, tracer: Tracer, table: StageTable, sample: Columns,
    count: int, expected: dict[str, Any], report: Report,
) -> tuple[Passes, dict[str, float]]:
    """Two workers over pipes on the sample: ``count`` untraced passes
    (the program, for the sharded workload) and as many traced ones."""
    from repro.engine.sharded import ShardedStreamEngine

    queries = check.parse_queries(env.workload)
    batches = event_batches(sample, env.workload.chunk)
    stride = sample.span_ms() + 1_000
    events = len(sample)
    passes = Passes()
    facts: dict[str, float] = {}
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    router_cpu = [0.0]
    fed = 0
    started = time.perf_counter()
    engine = ShardedStreamEngine(shards=2, vectorized=True)
    try:
        for query in queries:
            engine.register(query, name=query.name)
        engine.process_event_batch(batches[0].islice(0, 1))
        engine.results()
        facts["spawn_ms"] = (time.perf_counter() - started) * 1e3
        for batch in fresh(batches, stride):
            engine.process_event_batch(batch)
        engine.results()
        fed += events + 1

        def one_pass(current: list, trace_it: bool) -> Any:
            cpu_before = time.process_time()
            for batch in current:
                with tracer.stage("sharded.ingest") if trace_it else NO_SPAN:
                    engine.process_event_batch(batch)
            with tracer.stage("sharded.collect") if trace_it else NO_SPAN:
                results = engine.results()
            router_cpu[0] += time.process_time() - cpu_before
            return results

        for number in range(count):
            for traced in (False, True):
                current = fresh(batches, (2 + 2 * number + traced) * stride)
                gc.collect()
                if traced:
                    before = reference_loop()
                    with tracer.traced_pass(f"sharded-{number}") as root:
                        results = one_pass(current, True)
                    table.add_pass(
                        "sharded", tracer, root,
                        host_speed(before, reference_loop()),
                    )
                else:
                    results = passes.run(lambda: one_pass(current, False))
                fed += events
                report.gate(check.compare(
                    f"sharded pass {number}{'t' if traced else ''}",
                    expected, results,
                ))
        closing = time.perf_counter()
    finally:
        engine.close()
    facts["close_ms"] = (time.perf_counter() - closing) * 1e3
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = (
        children.ru_utime + children.ru_stime
        - children_before.ru_utime - children_before.ru_stime
    )
    facts["worker_cpu_us_per_event"] = worker_cpu / fed * 1e6
    facts["router_cpu_us_per_event"] = (
        router_cpu[0] / (fed - events - 1) * 1e6
    )
    return passes, facts


# ----- small measurements ---------------------------------------------------


def import_seconds(env: Env) -> float:
    before = reference_loop()
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], check=True,
        env=env.subprocess_env(),
    )
    elapsed = time.perf_counter() - started
    return elapsed * host_speed(before, reference_loop())


def frame_roundtrip(batch: Any, repeats: int = 15) -> tuple[float, float]:
    """Nominal µs to ``send`` + ``recv`` one batch's wire payload through
    two FramedChannels over a socketpair, and the frame's bytes/event."""
    from repro.engine.transport import FramedChannel

    left, right = socket.socketpair()
    sender, receiver = FramedChannel(left), FramedChannel(right)
    payload = ("batch", {"c": batch.to_wire(), "n": len(batch)})
    got = threading.Semaphore(0)
    sizes: list[int] = []

    def drain() -> None:
        for _ in range(repeats):
            sizes.append(len(receiver.recv()[1]["c"]))
            got.release()

    thread = threading.Thread(target=drain, name="frame-drain")
    thread.start()
    samples = []
    try:
        for _ in range(repeats):
            before = reference_loop()
            started = time.perf_counter()
            sender.send(payload)
            got.acquire(timeout=30.0)
            elapsed = time.perf_counter() - started
            samples.append(elapsed * host_speed(before, reference_loop()))
    finally:
        thread.join(timeout=30.0)
        sender.close()
        receiver.close()
    if len(sizes) != repeats:
        raise RuntimeError("framed channel lost a frame")
    return statistics.median(samples) * 1e6, sizes[0] / len(batch)


def baseline(env: Env, sample: Columns) -> dict[str, float]:
    """Two-step (stack-based) execution of the first query on a prefix,
    beside A-Seq on the same prefix and the paper's Eq. 3 for the same
    per-window instance counts."""
    from repro.baseline.cost_model import aseq_cost, stack_based_cost
    from repro.baseline.twostep import TwoStepEngine
    from repro.core.executor import ASeqEngine
    from workloads import events_of

    query = check.parse_queries(env.workload)[0]
    prefix = events_of(sample.head(min(len(sample), BASELINE_PREFIX)))
    timings = {}
    for label, engine in (
        ("twostep", TwoStepEngine(query)), ("aseq", ASeqEngine(query)),
    ):
        gc.collect()
        before = reference_loop()
        started = time.perf_counter()
        for event in prefix:
            engine.process(event)
        elapsed = time.perf_counter() - started
        timings[label] = elapsed * host_speed(before, reference_loop())
    window_events = query.window.size_ms / (
        sample.span_ms() / max(1, len(sample) - 1)
    )
    per_type = window_events / sample.n_types
    instances = [per_type] * len(query.pattern.positive_types)
    return {
        "twostep_ns_per_event": timings["twostep"] / len(prefix) * 1e9,
        "speedup_measured_x": timings["twostep"] / timings["aseq"],
        "speedup_eq3_x": stack_based_cost(instances) / aseq_cost(instances),
    }


# ----- the traced run -------------------------------------------------------


def run_traced(env: Env, spans_out: str | None) -> Report:
    """Measure every layer on one workload's sample; see the module doc."""
    workload = env.workload
    report = Report()
    tracer = Tracer(workload.chain)
    table = StageTable()
    sample = generate(
        env.seed, env.count(min(workload.pass_events, SAMPLE_EVENTS)),
        workload.n_types,
    )
    trace = write_trace_file(sample, env.directory / "sample.trace")
    expected = check.reference(workload, sample)
    few = env.reps(5, 2)

    # The program itself, untraced: the coverage denominator.
    plain, with_obs = Passes(), Passes()
    for _ in range(few):  # alternate, so host drift hits both alike
        main_passes(env, trace, plain, expected, report)
        main_passes(env, trace, with_obs, expected, report, True)
    sharded, shard_facts = sharded_subrun(
        env, tracer, table, sample, few, expected, report
    )
    measured = [plain, with_obs, sharded]
    program = sharded if workload.kind == "sharded" else plain
    if workload.kind == "api":
        program = api_passes(env, sample, 3 * few, expected, report)
        measured.append(program)
    for passes in measured:
        report.failures.extend(passes.failures)
        if not passes.nominal_s:
            raise RuntimeError("; ".join(report.failures[:3]))

    deadline = time.perf_counter() + env.budget_s() / 2
    number = 0
    while number < few or time.perf_counter() < deadline:
        pipeline_pass(
            env, tracer, table, trace, expected, report, f"pipeline-{number}"
        )
        number += 1

    paced_seconds = drivers.PACED_WARMUP_S + max(1.0, env.seconds / 4)
    paced_columns = generate(
        env.seed, env.count(int(PACED_RATE * paced_seconds)), workload.n_types
    )
    paced = Report()
    paced_tail = drivers.paced_metrics(
        env, paced, paced_columns,
        drivers.paced_run(env, paced_columns, PACED_RATE),
        check.reference(workload, paced_columns),
    )
    report.attempted += paced.attempted
    report.failures.extend(paced.failures)
    report.notes.update(paced.notes)
    if workload.kind != "paced":
        # Only cli-paced-default's rate is sized to its lane; elsewhere a
        # late generator means "this query cannot take 40k ev/s per event".
        report.notes.pop("unresolved", None)

    put_stage_metrics(report, table, len(sample), len(workload.queries))
    put = report.put
    events = len(sample)
    put("cli.import_s", import_seconds(env))
    put("sharded.spawn_ms", shard_facts["spawn_ms"])
    put("sharded.close_ms", shard_facts["close_ms"])
    put("sharded.router_cpu_us_per_event",
        shard_facts["router_cpu_us_per_event"])
    put("sharded.worker_cpu_us_per_event",
        shard_facts["worker_cpu_us_per_event"])
    roundtrip_us, frame_bytes = frame_roundtrip(
        event_batches(sample, workload.chunk)[0]
    )
    put("transport.frame_roundtrip_us", roundtrip_us)
    put("transport.frame_bytes_per_event", frame_bytes)
    put("obs.registry_ns_per_event",
        (with_obs.median_s() - plain.median_s()) / events * 1e9)
    for name, value in baseline(env, sample).items():
        put(f"baseline.{name}", value)
    put("cli.main_ns_per_event", plain.median_s() / events * 1e9)
    for name in ("paced_latency_p90_ms", "paced_latency_p99_ms",
                 "paced_latency_max_ms", "paced_backlog_ms"):
        put(f"cli.{name}", paced_tail[name])
    put("harness.generator_late_p99_ms", paced_tail["generator_late_p99_ms"])
    put("harness.host_speed", program.median_speed())
    put("harness.pass_iqr_share", program.iqr_share())
    kind = "sharded" if workload.kind == "sharded" else "pipeline"
    path_s = statistics.median(table.path_seconds[kind])
    coverage = path_s / program.median_s()
    put("harness.coverage", coverage)
    put("harness.trace_overhead_share",
        table.path_spans[kind] * Tracer.cost_per_span() * program.median_speed()
        / program.median_s())
    report.notes.update(
        sample_events=events, traced_passes=int(table.counts["passes"]),
        spans=len(tracer.spans),
    )
    if not COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]:
        report.notes["unresolved"] = (
            f"coverage {coverage:.2f} is outside {COVERAGE_BAND}: the chain "
            f"does not represent the program; per-layer numbers unresolved"
        )
    if spans_out:
        tracer.write(spans_out)
    return report


def put_stage_metrics(
    report: Report, table: StageTable, events: int, queries: int
) -> None:
    """The metrics that come straight from the spans and counts of the
    traced passes: nominal time per event of the sample, per pass."""
    counts = table.counts
    put = report.put

    def per_event_ns(name: str) -> float:
        return table.median(name) / events * 1e9

    for name in (
        "tracefile.decode", "stream.order_check", "batch.columnarize",
        "batch.order_check", "batch.materialize", "batch.take",
        "batch.wire_encode", "batch.wire_decode", "columnar.mask",
        "vectorized.kernel", "executor.process", "engine.ingest",
        "engine.process", "engine.process_batch", "journal.append",
        "supervisor.ingest", "sharded.ingest",
    ):
        put(f"{name}_ns_per_event", per_event_ns(name))
    passes = counts["passes"]
    total_events = counts["events"]
    kernel_lane = counts["kernel_lane"]
    # The engine's self time: its whole call minus what runs inside it.
    inside = (
        per_event_ns("columnar.mask") + per_event_ns("vectorized.kernel")
        if kernel_lane == 1.0 else
        per_event_ns("batch.materialize") + per_event_ns("executor.process")
    )
    put("engine.route_ns_per_event", per_event_ns("engine.ingest") - inside)
    put("engine.kernel_lane_share", kernel_lane)
    put("engine.outputs_per_event", counts["lane_outputs"] / total_events)
    put("engine.results_us", table.median("engine.results") * 1e6)
    put("engine.register_us_per_query",
        table.median("engine.register") / queries * 1e6)
    put("parser.parse_us_per_query",
        table.median("parser.parse") / queries * 1e6)
    put("columnar.plan_us",
        table.median("columnar.plan") * passes / counts["plans"] * 1e6)
    put("columnar.kept_share", counts["kept_rows"] / total_events)
    put("vectorized.kernel_ns_per_kept_row",
        table.median("vectorized.kernel") * passes
        / max(1.0, counts["kept_rows"]) * 1e9)
    put("executor.live_objects", counts["live_objects"] / passes)
    put("sinks.emit_us_per_output",
        table.median("sinks.emit") * passes
        / max(1.0, counts["outputs"]) * 1e6)
    put("batch.wire_bytes_per_event", counts["wire_bytes"] / total_events)
    put("journal.bytes_per_event", counts["journal_bytes"] / total_events)
    put("checkpointer.snapshot_ms",
        table.median("checkpointer.snapshot") * 1e3)
    put("checkpointer.state_bytes", counts["state_bytes"] / passes)
    put("sharded.collect_ms", table.median("sharded.collect") * 1e3)
    rows = [counts["shard_rows_0"], counts["shard_rows_1"]]
    put("sharded.partition_skew", max(rows) / (sum(rows) / 2))
