"""Deterministic, seeded fault injection for the resilience suite.

Everything here is reproducible from one integer seed (the
``REPRO_FAULT_SEED`` environment variable in CI, see the ``chaos``
job): crash points, torn journal tails, corrupted checkpoint bytes,
executor failures and sink failure bursts are all drawn from one
:class:`random.Random`. A failing chaos run is re-run locally with the
same seed and replays byte-for-byte.

The injectable faults mirror the failure modes the runtime claims to
survive:

* :class:`FaultyExecutor` — wraps any executor and raises
  :class:`InjectedFault` at chosen event ordinals (or on every event —
  a poison registration exercising quarantine);
* :class:`BurstySink` — a sink failing in seeded bursts (exercises the
  sink isolation PR 1 added, now measurable under load);
* :func:`tear_journal_tail` — truncates the last journal segment
  mid-record, the on-disk shape of a crash during an append;
* :func:`corrupt_checkpoint` / :func:`corrupt_latest_checkpoint` —
  overwrites bytes inside a checkpoint generation, exercising the
  fall-back-to-older-generation path;
* :func:`kill_shard` / :class:`ShardKill` — SIGKILL a sharded worker
  process outright, immediately or after *k* more ingested events
  (exercises supervised restart + exact re-seed);
* :func:`stall_shard` — make a worker stop answering heartbeats for a
  while (``hard=True`` also ignores SIGTERM, exercising the router's
  terminate→kill escalation);
* :func:`hang_shard_pipe` — make a worker sleep on its *data* lane so
  the pipe backs up (exercises the backpressure policies while
  heartbeats stay green);
* :class:`FaultPlan` — the seeded facade the tests draw all of the
  above from.
"""

from __future__ import annotations

import os
import random
import signal
from pathlib import Path

from repro.engine.sinks import Output, ResultSink
from repro.events.event import Event
from repro.resilience.checkpointer import list_checkpoints
from repro.resilience.journal import iter_records, list_segments

ENV_SEED = "REPRO_FAULT_SEED"


def fault_seed(default: int = 0) -> int:
    """The chaos seed: ``REPRO_FAULT_SEED`` env var, else ``default``."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_SEED} must be an integer, got {raw!r}"
        ) from None


class InjectedFault(RuntimeError):
    """The exception every injected failure raises (never caught by
    accident: it does not derive from ReproError)."""


class FaultyExecutor:
    """Wrap an executor; raise :class:`InjectedFault` on chosen events.

    ``fail_at`` is a collection of 0-based ordinals of *offered* events
    to fail on; ``poison=True`` fails on every event. The underlying
    executor does not see the failed event at all (failure happens
    before delegation), matching a crash inside ``process``.
    """

    def __init__(
        self,
        executor,
        fail_at=(),
        poison: bool = False,
    ):
        self._executor = executor
        self._fail_at = frozenset(fail_at)
        self._poison = poison
        self.offered = 0
        self.failures = 0

    def process(self, event: Event):
        ordinal = self.offered
        self.offered += 1
        if self._poison or ordinal in self._fail_at:
            self.failures += 1
            raise InjectedFault(
                f"injected executor failure at event #{ordinal}"
            )
        return self._executor.process(event)

    def result(self):
        return self._executor.result()

    def current_objects(self) -> int:
        probe = getattr(self._executor, "current_objects", None)
        return probe() if probe is not None else 0

    @property
    def query(self):
        return self._executor.query

    @property
    def runtime(self):
        return self._executor.runtime


class BurstySink(ResultSink):
    """A sink that fails for ``burst_len`` consecutive emits, every
    ``period`` emits (deterministic given the constructor arguments)."""

    def __init__(self, period: int = 10, burst_len: int = 3):
        if period < 1 or burst_len < 0:
            raise ValueError("period must be >= 1 and burst_len >= 0")
        self._period = period
        self._burst_len = burst_len
        self._emits = 0
        self.delivered: list[Output] = []
        self.failures = 0

    def emit(self, output: Output) -> None:
        ordinal = self._emits
        self._emits += 1
        if ordinal % self._period < self._burst_len:
            self.failures += 1
            raise InjectedFault(
                f"injected sink failure at emit #{ordinal}"
            )
        self.delivered.append(output)


def tear_journal_tail(
    directory: str | Path, drop_bytes: int | None = None,
    rng: random.Random | None = None,
) -> int:
    """Truncate the last journal segment mid-record (a torn write).

    Removes ``drop_bytes`` from the end (default: a seeded amount that
    is guaranteed to land inside the final record, so the tear is
    always "partial last line", never "clean end"). Returns the number
    of bytes dropped (0 when there is nothing to tear).
    """
    segments = list_segments(directory)
    if not segments:
        return 0
    last = segments[-1]
    data = last.read_bytes()
    if not data:
        return 0
    # Size of the final record: from the last record boundary before
    # EOF (a frame record's bytes may hold newlines of their own).
    ends = [0] + [end for end, _, _ in iter_records(data)]
    final_start = ends[-1] if ends[-1] < len(data) else ends[-2]
    final_record_len = len(data) - final_start
    if final_record_len <= 1:
        return 0
    if drop_bytes is None:
        rng = rng if rng is not None else random.Random(0)
        drop_bytes = rng.randint(1, final_record_len - 1)
    drop_bytes = max(1, min(drop_bytes, final_record_len - 1))
    with open(last, "r+b") as handle:
        handle.truncate(len(data) - drop_bytes)
    return drop_bytes


def corrupt_checkpoint(
    path: str | Path, rng: random.Random | None = None
) -> None:
    """Overwrite a few bytes in the middle of one checkpoint file."""
    rng = rng if rng is not None else random.Random(0)
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        path.write_bytes(b"\x00")
        return
    for _ in range(min(8, len(data))):
        data[rng.randrange(len(data))] = rng.randrange(256)
    path.write_bytes(bytes(data))


def corrupt_latest_checkpoint(
    directory: str | Path, rng: random.Random | None = None
) -> Path | None:
    """Corrupt the newest checkpoint generation; returns its path."""
    checkpoints = list_checkpoints(directory)
    if not checkpoints:
        return None
    corrupt_checkpoint(checkpoints[-1], rng=rng)
    return checkpoints[-1]


class ShardKill:
    """An armed process kill against one shard of a sharded engine.

    ``tick()`` once per ingested event; the kill fires (once) when the
    countdown reaches zero. ``fire()`` triggers it immediately. The
    signal goes to whatever process currently serves the shard, so a
    ``tick``-driven kill can also hit a restarted generation.
    """

    def __init__(self, engine, shard: int, after_events: int = 0,
                 sig: int = signal.SIGKILL):
        self._engine = engine
        self.shard = shard
        self._remaining = after_events
        self._sig = sig
        self.fired = False

    def tick(self, count: int = 1) -> bool:
        """Count ingested events; returns True when this call fired."""
        if self.fired:
            return False
        self._remaining -= count
        if self._remaining > 0:
            return False
        return self.fire()

    def fire(self) -> bool:
        """Kill the shard's current worker process now (once)."""
        if self.fired:
            return False
        self.fired = True
        process = self._engine._workers[self.shard].process
        if process is None or process.pid is None:
            return False
        try:
            os.kill(process.pid, self._sig)
        except ProcessLookupError:
            return False
        return True


def kill_shard(engine, shard: int, after_events: int = 0,
               sig: int = signal.SIGKILL) -> ShardKill:
    """Arm a kill of one shard worker; fires immediately when
    ``after_events`` is 0, else after ``after_events`` ``tick()``s."""
    kill = ShardKill(engine, shard, after_events=after_events, sig=sig)
    if after_events <= 0:
        kill.fire()
    return kill


def stall_shard(engine, shard: int, seconds: float,
                hard: bool = False) -> None:
    """Make one worker unresponsive to heartbeats for ``seconds``.

    Sends a stall command down the *control* pipe, so the worker stops
    answering pings without its data pipe breaking — the shape of a
    worker wedged in a long computation. ``hard=True`` additionally
    makes the worker ignore SIGTERM, so only the router's ``kill()``
    escalation can remove it.
    """
    worker = engine._workers[shard]
    command = "stall_hard" if hard else "stall"
    with worker.lock:
        worker.control.send((command, float(seconds)))


def hang_shard_pipe(engine, shard: int, seconds: float) -> None:
    """Make one worker sleep on its *data* lane for ``seconds`` so the
    pipe buffer fills — heartbeats keep flowing, sends back up."""
    worker = engine._workers[shard]
    with worker.lock:
        worker.conn.send(("hang", float(seconds)))


class FaultPlan:
    """One seeded source for every random choice a chaos test makes."""

    def __init__(self, seed: int | None = None):
        self.seed = seed if seed is not None else fault_seed()
        self.rng = random.Random(self.seed)

    def crash_point(self, n_events: int) -> int:
        """An event index to 'crash' at (at least 1, at most n-1)."""
        if n_events < 2:
            return 1
        return self.rng.randint(1, n_events - 1)

    def shard_to_kill(self, shards: int) -> int:
        """A seeded victim shard for a process-level kill."""
        return self.rng.randrange(shards)

    def failure_ordinals(self, n_events: int, count: int) -> frozenset[int]:
        """``count`` distinct event ordinals for injected failures."""
        count = min(count, n_events)
        return frozenset(self.rng.sample(range(n_events), count))

    def faulty(self, executor, n_events: int, count: int) -> FaultyExecutor:
        return FaultyExecutor(
            executor, fail_at=self.failure_ordinals(n_events, count)
        )

    def poison(self, executor) -> FaultyExecutor:
        return FaultyExecutor(executor, poison=True)

    def bursty_sink(self) -> BurstySink:
        return BurstySink(
            period=self.rng.randint(5, 20),
            burst_len=self.rng.randint(1, 4),
        )

    def tear_journal(self, directory: str | Path) -> int:
        return tear_journal_tail(directory, rng=self.rng)

    def corrupt_latest_checkpoint(
        self, directory: str | Path
    ) -> Path | None:
        return corrupt_latest_checkpoint(directory, rng=self.rng)
