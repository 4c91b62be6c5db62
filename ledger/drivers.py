"""The untraced run: end-to-end metrics of one workload (``--trace 0``).

Closed-loop workloads are measured as fixed-size passes, each bracketed
by the reference loop (hostspeed.py) and reported in nominal time; the
open-loop workload follows a wall-clock schedule and is reported as
measured. Every pass's answer goes through the correctness gate.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import check
from hostspeed import (
    Passes, grouped_percentile, host_speed, iqr_share, percentile,
    reference_loop,
)
from workloads import (
    LEDGER_DIR, PACED_RATE, PACED_WARMUP_S, Columns, Workload,
    event_batches, fresh, generate, input_columns, query_argv, scaled,
    trace_lines, write_trace_file,
)

ROOT = LEDGER_DIR.parent
SETUP_SPAWNS = 7
MIN_PASSES = 5
PASSES_PER_STRETCH = 10  # latency group where one pass is one sample
MAX_BACKLOG_MS = 1_000.0
MAX_GENERATOR_LATE_MS = 5.0


@dataclass
class Env:
    """What one invocation of run.py fixes for every driver."""

    workload: Workload
    seed: int
    seconds: float
    scale: float
    directory: Path
    #: A CPU this process may use besides the one it is pinned to.
    spare_cpu: int | None = None

    def subprocess_env(self, **extra: str) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.update(extra)
        return env

    def count(self, events: int) -> int:
        return scaled(events, self.scale)

    def columns(self) -> Columns:
        """The workload's full-size input for this seed."""
        return input_columns(self.workload, self.seed, self.seconds, self.scale)

    def reps(self, full: int, floor: int) -> int:
        """A repetition count, cut down with ``--scale`` (tests)."""
        return max(floor, round(full * min(1.0, self.scale * 10)))

    def budget_s(self) -> float:
        """How long a timed loop runs: ``--seconds``, cut down likewise."""
        return self.seconds * min(1.0, self.scale * 10)

    def cli_argv(self, trace: str, journal: Path | None = None) -> list[str]:
        argv = query_argv(self.workload, self.directory)
        argv += ["--trace", trace, *self.workload.cli_flags]
        if journal is not None:
            argv += ["--journal", str(journal)]
        return argv

    def journal_dir(self, name: str = "journal") -> Path | None:
        """Where a pass journals (the caller removes it after the pass),
        or None when the workload's flags do not journal."""
        if "--fsync" not in self.workload.cli_flags:
            return None
        return self.directory / name


@dataclass
class Report:
    """Metrics plus the operation count the final JSON line carries."""

    #: name -> value; units are BENCHMARK.json's (run.py attaches them).
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def gate(self, problems: list[str]) -> None:
        """One gate check: an attempted operation, failed on mismatch."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def timed_passes(env: Env, one_pass: Callable[[Passes], None]) -> Passes:
    """Repeat ``one_pass`` for the run length (at least MIN_PASSES times)."""
    passes = Passes()
    floor = env.reps(MIN_PASSES, 2)
    deadline = time.perf_counter() + env.budget_s()
    while time.perf_counter() < deadline or passes.attempted < floor:
        gc.collect()
        one_pass(passes)
        if len(passes.failures) >= 3:
            break  # a broken lane will not recover; do not burn the run
    if not passes.nominal_s:
        raise RuntimeError(
            "no pass completed: " + "; ".join(passes.failures[:3])
        )
    return passes


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident size of a live process, from its own ``mm`` (unlike
    ``ru_maxrss`` this does not inherit the parent's size across exec)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# ----- set-up time ----------------------------------------------------------


def measure_setup(env: Env) -> list[float]:
    """Nominal seconds from spawn to ready for the first event, per spawn.

    ``cli``/``paced``: the real CLI with the workload's flags over an
    empty trace, spawn to exit. ``api``/``sharded``: a child that
    imports, parses, builds and registers (and, sharded, gets a first
    one-row batch acknowledged by its workers), spawn to its ``ready``
    line.
    """
    workload = env.workload
    samples = []
    for index in range(env.reps(SETUP_SPAWNS, 3)):
        journal = None
        if workload.kind in ("cli", "paced"):
            empty = env.directory / "empty.trace"
            empty.write_bytes(b"")
            journal = env.journal_dir(f"setup-journal-{index}")
            command = [
                sys.executable, "-m", "repro", *env.cli_argv(str(empty), journal),
            ]
        else:
            command = [
                sys.executable, str(LEDGER_DIR / "run.py"), "--setup-probe",
                "--workload", workload.name,
            ]
        before = reference_loop()
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env.subprocess_env(),
        )
        try:
            first = process.stdout.readline()
            ready = time.perf_counter()
            process.stdout.read()
            code = process.wait()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        if workload.kind in ("cli", "paced"):
            ready = time.perf_counter()  # no ready signal: spawn to exit
        speed = host_speed(before, reference_loop())
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
        if code != 0 or not first:
            raise RuntimeError(
                f"set-up spawn exited with {code}: {' '.join(command)}"
            )
        samples.append((ready - started) * speed)
    return samples


def setup_probe(workload: Workload) -> None:
    """The child side of :func:`measure_setup` for API workloads."""
    from repro.engine.engine import StreamEngine

    queries = check.parse_queries(workload)
    if workload.kind == "sharded":
        from repro.engine.sharded import ShardedStreamEngine

        engine = ShardedStreamEngine(shards=2, vectorized=True)
        try:
            for query in queries:
                engine.register(query, name=query.name)
            one_row = event_batches(generate(0, 1, workload.n_types))[0]
            engine.process_event_batch(one_row)
            engine.results()
            print("ready", flush=True)
        finally:
            engine.close()
        return
    engine = StreamEngine(routed=True, vectorized=True)
    for query in queries:
        engine.register(query, name=query.name)
    print("ready", flush=True)


def put_setup(report: Report, samples: list[float]) -> None:
    report.put("setup_s", statistics.median(samples))
    report.notes["setup_spawns"] = len(samples)
    report.notes["setup_iqr_share"] = iqr_share(samples)


# ----- shared reporting -----------------------------------------------------


def put_throughput(
    report: Report, passes: Passes, events: int, latencies_s: list[float],
    group: int,
) -> None:
    """``latencies_s`` are nominal, in the order they were taken, ``group``
    of them to a pass (or to a stretch of passes)."""
    report.attempted += passes.attempted
    report.failures.extend(passes.failures)
    report.put("events_per_s", events / passes.median_s())
    report.put(
        "latency_p50_ms", grouped_percentile(latencies_s, group, 0.5) * 1e3
    )
    report.notes.update(
        passes=len(passes.nominal_s),
        events_per_pass=events,
        latency_samples=len(latencies_s),
        latency_p90_ms=grouped_percentile(latencies_s, group, 0.9) * 1e3,
        host_speed=passes.median_speed(),
        pass_iqr_share=passes.iqr_share(),
    )


def expected_answers(
    env: Env, report: Report, columns: Columns
) -> dict[str, Any]:
    """What the gate compares with, and a note of where it came from: the
    committed file only covers the default seed at full size."""
    expected = check.expected_for(env.workload, env.seed, columns)
    report.notes["expected"] = expected["source"]
    return expected


# ----- api-* (single process) ---------------------------------------------


def build_engine(queries: list, *sinks: Any) -> Any:
    from repro.engine.engine import StreamEngine

    engine = StreamEngine(routed=True, vectorized=True)
    for query in queries:
        engine.register(query, *sinks, name=query.name)
    return engine


def run_api(env: Env) -> Report:
    """Prebuilt batches into ``process_event_batch``, then ``results()``.

    Latency here is the service time of one ingest call: how long a
    4096-row batch is inside the engine before its results are readable.
    The percentiles are taken per pass and the median over passes is
    reported (``grouped_percentile``).
    """
    workload = env.workload
    report = Report()
    put_setup(report, measure_setup(env))
    columns = env.columns()
    batches = event_batches(columns, workload.chunk)
    queries = check.parse_queries(workload)
    latencies: list[float] = []
    answers: list[tuple[dict, int]] = []

    def one_pass(passes: Passes) -> None:
        engine = build_engine(queries)
        current = fresh(batches)
        calls: list[float] = []

        def body() -> Any:
            clock = time.perf_counter
            for batch in current:
                started = clock()
                engine.process_event_batch(batch)
                calls.append(clock() - started)
            return engine.results()

        results = passes.run(body)
        if results is not None:
            latencies.extend(t * passes.last_speed for t in calls)
            answers.append((results, engine.metrics.outputs))

    passes = timed_passes(env, one_pass)
    report.put("peak_rss_mb", vm_hwm_mb())
    put_throughput(report, passes, len(columns), latencies, len(batches))

    # One more pass, untimed, with a sink: the whole output sequence.
    digest = check.OutputDigest()
    engine = build_engine(queries, digest)
    for batch in fresh(batches):
        engine.process_event_batch(batch)
    expected = expected_answers(env, report, columns)
    report.gate(check.compare(
        "sink pass", expected, engine.results(), digest.count,
        digest.hexdigest(),
    ))
    for index, (results, outputs) in enumerate(answers):
        report.gate(check.compare(f"pass {index}", expected, results, outputs))
    return report


# ----- cli-* (closed loop) --------------------------------------------------


def call_main(argv: list[str]) -> str:
    """``repro.cli.main(argv)`` with stdout captured and stderr dropped;
    returns what it printed. A non-zero return code raises."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"main() returned {code}: {err.getvalue()[-300:]}")
    return out.getvalue()


def launch(
    env: Env, report_path: Path, argv: list[str], cpu: int | None = None,
    **popen: Any,
) -> subprocess.Popen:
    """Start ``python -m repro ARGV`` under the bare launcher."""
    command = [sys.executable, "-S", str(LEDGER_DIR / "launch.py"),
               str(report_path)]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    command += ["--", sys.executable, "-m", "repro", *argv]
    # A session of its own: stopping the launcher must stop the program.
    return subprocess.Popen(
        command, env=env.subprocess_env(PYTHONUNBUFFERED="1"),
        start_new_session=True, **popen
    )


def stop(process: subprocess.Popen) -> None:
    """Kill a launched program (and its launcher) if it still runs."""
    if process.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
    process.wait()


def read_launch_report(path: Path) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(env: Env) -> Report:
    """Trace file on disk to results on stdout through ``main(argv)``.

    The CLI shows nothing finer than the finished run from outside, so
    latency here is time from input to complete result: the pass times
    again, an alias of ``events_per_s`` that compare.py does not judge.
    """
    workload = env.workload
    report = Report()
    put_setup(report, measure_setup(env))
    columns = env.columns()
    trace = write_trace_file(columns, env.directory / "pass.trace")
    names = workload.query_names()
    outputs: list[str] = []
    journal = env.journal_dir()

    def one_pass(passes: Passes) -> None:
        argv = env.cli_argv(str(trace), journal)
        printed = passes.run(lambda: call_main(argv))
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
        if printed is not None:
            outputs.append(printed)

    passes = timed_passes(env, one_pass)
    put_throughput(
        report, passes, len(columns), passes.nominal_s, PASSES_PER_STRETCH
    )

    # The real program once: stdout for the gate, peak RSS.
    launch_report = env.directory / "launch.json"
    process = launch(
        env, launch_report, env.cli_argv(str(trace), journal),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        real_stdout, _ = process.communicate()
    finally:
        stop(process)
    if journal is not None:
        shutil.rmtree(journal, ignore_errors=True)
    usage = read_launch_report(launch_report)
    report.put("peak_rss_mb", usage["maxrss_kb"] / 1024.0)

    expected = expected_answers(env, report, columns)
    report.gate(check.compare(
        "python -m repro", expected,
        check.parse_result_lines(real_stdout.splitlines(), names)
        if usage["returncode"] == 0 else None,
    ))
    for index, printed in enumerate(outputs):
        report.gate(check.compare(
            f"pass {index}", expected,
            check.parse_result_lines(printed.splitlines(), names),
        ))
    return report


# ----- api-sharded ------------------------------------------------------------


TRIPS_PER_PASS = 10


def run_sharded(env: Env) -> Report:
    """One two-worker engine over pipes, built once; each pass replays the
    slice with timestamps moved past the window, so every pass does the
    same work and has the same answer, and ends at ``results()``.

    Router and workers share the one pinned CPU. Spread over this host's
    two CPUs the pass does not scale with either CPU's speed (their slow
    regimes are independent) and ten runs spread by 13 %; on one CPU they
    spread by 3 %. The figure is therefore the *work* of the sharded path
    per event - hash, take, wire, pipe, decode, worker engines, merge -
    and says nothing about parallel speed-up.

    An ingest call returns when the rows are on the pipes, not when their
    results are readable, so latency here is a round trip of its own: one
    4096-row batch handed over to merged ``results()`` returned, with
    nothing else in flight. TRIPS_PER_PASS of them follow every pass and
    make one group of ``grouped_percentile`` (about one trip in twelve
    meets a scheduling hiccup between the three processes, which puts the
    pooled 90th percentile on the knee of the tail: 15 % between runs).
    """
    import multiprocessing

    from repro.engine.sharded import ShardedStreamEngine

    workload = env.workload
    report = Report()
    put_setup(report, measure_setup(env))
    columns = env.columns()
    batches = event_batches(columns, workload.chunk)
    queries = check.parse_queries(workload)
    stride = columns.span_ms() + 1_000  # > any window: passes independent
    answers: list[dict] = []
    trip_answers: list[dict] = []
    trips = Passes()
    trip_s: list[float] = []
    engine = ShardedStreamEngine(shards=2, vectorized=True)
    try:
        for query in queries:
            engine.register(query, name=query.name)
        for batch in fresh(batches):  # warm-up pass: spawns the workers
            engine.process_event_batch(batch)
        engine.results()
        replays = [0]

        def replay(what: list) -> list:
            """``what`` once more, later than everything fed so far."""
            replays[0] += 1
            return fresh(what, replays[0] * stride)

        def one_pass(passes: Passes) -> None:
            current = replay(batches)

            def body() -> Any:
                for batch in current:
                    engine.process_event_batch(batch)
                return engine.results()

            results = passes.run(body)
            if results is not None:
                answers.append(results)
            singles = [
                replay(batches[:1])[0] for _ in range(TRIPS_PER_PASS)
            ]

            def round_trips() -> Any:
                clock = time.perf_counter
                taken = []
                for single in singles:
                    started = clock()
                    engine.process_event_batch(single)
                    results = engine.results()
                    taken.append(clock() - started)
                return taken, results

            kept = trips.run(round_trips)
            if kept is not None:
                trip_s.extend(t * trips.last_speed for t in kept[0])
                trip_answers.append(kept[1])

        passes = timed_passes(env, one_pass)
        workers = [child.pid for child in multiprocessing.active_children()]
        rss = vm_hwm_mb() + sum(vm_hwm_mb(pid) for pid in workers)
        report.notes["worker_processes"] = len(workers)
    finally:
        engine.close()
    report.put("peak_rss_mb", rss)
    report.attempted += trips.attempted
    report.failures.extend(trips.failures)
    if not trip_s:
        raise RuntimeError("no round trip completed")
    put_throughput(report, passes, len(columns), trip_s, TRIPS_PER_PASS)
    expected = expected_answers(env, report, columns)
    for number, results in enumerate(answers):
        report.gate(check.compare(f"pass {number}", expected, results))
    one_batch = check.reference(workload, columns.head(workload.chunk))
    for number, results in enumerate(trip_answers):
        report.gate(check.compare(f"round trip {number}", one_batch, results))
    return report


# ----- cli-paced (open loop) -----------------------------------------------


@dataclass
class PacedRun:
    """Raw observations of one open-loop run."""

    due: np.ndarray  # per event: when it was due to be sent
    late_ms: list[float]  # per tick: how late the generator wrote
    receipts: list[tuple[float, bytes]]  # (stamp, chunk) from stdout
    usage: dict[str, Any]


def paced_run(
    env: Env, columns: Columns, rate: int, priming: int = 256
) -> PacedRun:
    """Feed the real CLI's per-event lane (``--emit every``, whatever the
    workload's own flags) over stdin on a 1 ms tick schedule.

    The first ``priming`` events go in at once and the schedule starts
    when their first output comes back: the program is then known to be
    past its imports and reading, so the open loop starts against a
    ready system and not against interpreter start-up.
    """
    lines = trace_lines(columns)
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(line) for line in lines], out=offsets[1:])
    blob = b"".join(lines)
    launch_report = env.directory / "paced-launch.json"
    argv = query_argv(env.workload, env.directory)
    process = launch(
        env, launch_report, [*argv, "--trace", "/dev/stdin", "--emit", "every"],
        # A CPU of its own when there is one: the generator must not
        # compete with what it is timing.
        cpu=env.spare_cpu,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, bufsize=0,
    )
    receipts: list[tuple[float, bytes]] = []
    primed = threading.Event()

    def reader() -> None:
        fd = process.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            stamp = time.perf_counter()
            if not chunk:
                primed.set()
                return
            receipts.append((stamp, chunk))
            primed.set()

    thread = threading.Thread(target=reader, name="paced-reader")
    thread.start()
    count = len(lines)
    due = np.zeros(count)
    late_ms: list[float] = []
    try:
        stdin = process.stdin.fileno()
        os.write(stdin, blob[:offsets[priming]])
        if not primed.wait(timeout=60.0):
            raise RuntimeError("no output from the primed program in 60 s")
        per_tick = rate / 1000.0
        start = time.perf_counter() + 0.005
        due[:priming] = start
        due[priming:] = start + np.arange(count - priming) / rate
        sent = priming
        tick = 0
        while sent < count:
            tick += 1
            target = start + tick / 1000.0
            wait = target - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            upto = min(count, priming + int(tick * per_tick))
            late_ms.append((time.perf_counter() - target) * 1e3)
            if upto > sent:
                view = memoryview(blob)[offsets[sent]:offsets[upto]]
                while view:
                    view = view[os.write(stdin, view):]
                sent = upto
        process.stdin.close()
        thread.join(timeout=90.0)
        process.wait(timeout=30.0)
    finally:
        stop(process)
        thread.join(timeout=10.0)
        process.stdout.close()
        if not process.stdin.closed:
            process.stdin.close()
    return PacedRun(due, late_ms, receipts, read_launch_report(launch_report))


def paced_outputs(
    run: PacedRun,
) -> tuple[list[tuple[float, bytes]], list[str]]:
    """Split what the program printed into stamped ``ts<TAB>value`` lines
    and the final ``result`` lines. A line's stamp is the receipt time
    of the chunk that completed it."""
    stamped: list[tuple[float, bytes]] = []
    results: list[str] = []
    tail = b""
    for stamp, chunk in run.receipts:
        pieces = (tail + chunk).split(b"\n")
        tail = pieces.pop()
        for line in pieces:
            if line.startswith(b"result"):
                results.append(line.decode("utf-8"))
            elif line:
                stamped.append((stamp, line))
    return stamped, results


def run_paced(env: Env) -> Report:
    """Open loop at a fixed rate; latency runs from when the triggering
    event was *due*, so a stall charges every event it delays."""
    workload = env.workload
    report = Report()
    put_setup(report, measure_setup(env))
    columns = env.columns()
    run = paced_run(env, columns, PACED_RATE)
    report.notes.update(paced_metrics(
        env, report, columns, run,
        expected_answers(env, report, columns),
    ))
    report.put("peak_rss_mb", run.usage["maxrss_kb"] / 1024.0)
    return report


def paced_metrics(
    env: Env, report: Report, columns: Columns, run: PacedRun,
    expected: dict[str, Any],
) -> dict[str, float]:
    """Latencies, delivered rate and the gate for one paced run. The
    end-to-end metrics go into ``report``; the ungated tail, backlog and
    generator lateness are returned (the traced run reports them).

    The median and the 90th percentile are taken per measured second and
    the median over the seconds is reported, so one stalled second (the
    hypervisor's, usually) moves the p99 and the maximum and not these.
    """
    workload = env.workload
    stamped, result_lines = paced_outputs(run)
    warm = min(len(columns) // 2, env.count(int(PACED_RATE * PACED_WARMUP_S)))
    digest = check.OutputDigest()
    samples: list[float] = []
    ts_column = columns.ts
    last_due = float(run.due[-1])
    last_receipt = last_due
    name = workload.query_names()[0]
    single = len(workload.queries) == 1
    for stamp, line in stamped:
        ts_text, _, value = line.partition(b"\t")
        ts = int(ts_text)
        if single:
            digest.add(name, ts, check.literal(value.decode("utf-8")))
        index = int(np.searchsorted(ts_column, ts))
        if index >= warm:
            samples.append(stamp - run.due[index])
        last_receipt = stamp
    report.attempted += 1
    if len(samples) < 20:
        raise RuntimeError(
            f"the paced run gave {len(samples)} latency samples "
            f"({len(stamped)} output lines)"
        )
    report.put(
        "events_per_s",
        (len(columns) - warm) / (last_receipt - run.due[warm]))
    measured_s = (len(columns) - warm) / PACED_RATE
    per_second = max(1, int(len(samples) / max(1.0, measured_s)))
    report.put(
        "latency_p50_ms", grouped_percentile(samples, per_second, 0.5) * 1e3
    )
    backlog = max(0.0, last_receipt - last_due) * 1e3
    late = percentile(run.late_ms, 0.99) if run.late_ms else 0.0
    report.notes.update(latency_samples=len(samples), offered_rate=PACED_RATE)
    # Neither is a failed operation: every output still has to be right
    # (the gate below), but a host that steals the CPU for seconds must
    # not turn a latency sample into a wrong answer.
    if backlog > MAX_BACKLOG_MS:
        report.notes["unresolved"] = (
            f"backlog {backlog:.0f} ms: the offered rate was not sustained"
        )
    elif late > MAX_GENERATOR_LATE_MS:
        report.notes["unresolved"] = (
            f"generator ran {late:.1f} ms late at p99: the latencies are "
            f"the harness's, not the program's"
        )
    results = None
    if run.usage["returncode"] == 0:
        results = check.parse_result_lines(
            result_lines, workload.query_names()
        )
    report.gate(check.compare(
        "python -m repro (paced)", expected, results,
        digest.count if single else None,
        digest.hexdigest() if single else None,
    ))
    return {
        "paced_latency_p90_ms":
            grouped_percentile(samples, per_second, 0.9) * 1e3,
        "paced_latency_p99_ms": percentile(samples, 0.99) * 1e3,
        "paced_latency_max_ms": max(samples) * 1e3,
        "paced_backlog_ms": backlog,
        "generator_late_p99_ms": late,
    }


DRIVERS: dict[str, Callable[[Env], Report]] = {
    "api": run_api,
    "cli": run_cli,
    "sharded": run_sharded,
    "paced": run_paced,
}
