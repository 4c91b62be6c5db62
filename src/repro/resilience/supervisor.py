"""Supervised stream engine: failure isolation one level above sinks.

PR 1 made a raising *sink* non-fatal; this module does the same for a
raising *executor*. A :class:`SupervisedStreamEngine` is a policy on
:class:`~repro.engine.engine.StreamEngine`'s event loop (it has none of
its own — see "supervision hooks" there) such that:

* every ingested event — through ``process``, ``process_batch`` or
  ``process_event_batch`` alike — is appended to the journal (when
  attached) *before* any executor sees it: the WAL discipline recovery
  depends on (a columnar batch is journaled as itself);
* a columnar batch runs the columnar kernel, one whole-batch call per
  registration that binds a plan; a kernel call commits all of the
  batch or nothing, so when it raises — or the registration declines
  or is quarantined — that registration's routed rows are made events
  and offered one at a time instead;
* an executor that raises on an event gets that event routed to a
  bounded :class:`DeadLetterQueue` (event + exception + registration
  name) while every other registration still receives it — except a
  :class:`~repro.errors.CounterOverflowError`, a count past the
  columnar runtime's int64 ring, which belongs to the workload rather
  than to the event and is raised, from the kernel and the per-event
  lanes alike, as the unsupervised engine raises it;
* after ``quarantine_after`` *consecutive* failures a registration is
  quarantined — skipped entirely — so a poison query cannot drag the
  loop's throughput down with per-event exception handling; healthy
  queries keep streaming;
* a quarantined registration can be restarted manually
  (:meth:`restart`), restored from the last engine checkpoint
  (:meth:`restart_from_checkpoint`), or automatically retried with
  doubling backoff (``auto_restart_events``);
* when the DLQ is full, the ``overload_policy`` decides:
  ``"shed_oldest"`` drops the oldest dead letter, ``"raise"`` raises
  :class:`~repro.errors.OverloadError`, and ``"block"`` invokes a
  user-supplied ``on_full`` drain hook (raising if the hook does not
  make room — in a synchronous loop there is nobody else to wait for);
* a journal durability backlog above ``max_journal_backlog_bytes``
  forces an fsync, bounding how much a power failure can lose
  regardless of the fsync policy.

All of it is observable: ``executor_failures_total`` (per query),
``dead_letters_total``, ``dlq_depth`` / ``dlq_shed_total``,
``quarantines_total`` and the ``quarantined_queries`` gauge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import CheckpointError, EngineError, OverloadError
from repro.engine.engine import StreamEngine
from repro.engine.sinks import ResultSink
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.tracing import Stage, TraceRecorder
from repro.resilience.checkpointer import (
    Checkpointer,
    apply_engine_state,
    load_latest_checkpoint,
)
from repro.resilience.journal import EventJournal

_log = get_logger("supervisor")

OVERLOAD_POLICIES = ("shed_oldest", "block", "raise")


@dataclass(frozen=True)
class DeadLetter:
    """One undeliverable payload: an event an executor failed on, or —
    when ``output`` is set — an aggregate no sink would accept after the
    engine's bounded retry (``sink_retries``) was exhausted."""

    query_name: str
    event: Event | None
    error: BaseException
    journal_seq: int = -1
    output: Any = None


class DeadLetterQueue:
    """Bounded FIFO of :class:`DeadLetter` records.

    ``policy`` governs what happens when a push finds the queue full —
    see the module docstring. ``on_full`` is only consulted under
    ``"block"``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        policy: str = "shed_oldest",
        on_full: Callable[["DeadLetterQueue"], None] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if capacity <= 0:
            raise ValueError("DLQ capacity must be positive")
        if policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"policy must be one of {OVERLOAD_POLICIES}, got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self._on_full = on_full
        self._letters: deque[DeadLetter] = deque()
        self.shed = 0
        registry = resolve_registry(registry)
        self._m_letters = registry.counter(
            "dead_letters_total", "events routed to the dead-letter queue"
        )
        self._m_shed = registry.counter(
            "dlq_shed_total", "dead letters dropped by the overload policy"
        )
        self._g_depth = registry.gauge(
            "dlq_depth", "dead letters currently queued"
        )

    def push(self, letter: DeadLetter) -> None:
        if len(self._letters) >= self.capacity:
            if self.policy == "shed_oldest":
                self._letters.popleft()
                self.shed += 1
                self._m_shed.inc()
            elif self.policy == "block":
                if self._on_full is not None:
                    self._on_full(self)
                if len(self._letters) >= self.capacity:
                    raise OverloadError(
                        f"dead-letter queue full ({self.capacity}) and "
                        f"the on_full hook did not drain it"
                    )
            else:  # raise
                raise OverloadError(
                    f"dead-letter queue full ({self.capacity})"
                )
        self._letters.append(letter)
        self._m_letters.inc()
        self._g_depth.set(len(self._letters))

    def drain(self) -> list[DeadLetter]:
        """Remove and return everything queued."""
        letters = list(self._letters)
        self._letters.clear()
        self._g_depth.set(0)
        return letters

    def peek(self) -> DeadLetter | None:
        return self._letters[0] if self._letters else None

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._letters)


@dataclass
class _Health:
    """Per-registration failure-tracking state."""

    consecutive_failures: int = 0
    failures_total: int = 0
    quarantined: bool = False
    retry_at_event: int | None = None
    backoff_events: int = 0
    m_failures: Any = field(default=None, repr=False)


class SupervisedStreamEngine(StreamEngine):
    """A :class:`StreamEngine` with durability and failure isolation.

    Drop-in: construct with the same arguments plus the resilience
    knobs, or attach a journal/checkpointer later via
    :meth:`attach_journal` / :meth:`attach_checkpointer` (recovery does
    exactly that, so replayed events are not re-journaled).
    """

    _guarded = True

    def __init__(
        self,
        vectorized: bool = False,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
        journal: EventJournal | None = None,
        checkpointer: Checkpointer | None = None,
        dlq: DeadLetterQueue | None = None,
        dlq_capacity: int = 1024,
        overload_policy: str = "shed_oldest",
        quarantine_after: int = 5,
        auto_restart_events: int | None = None,
        max_journal_backlog_bytes: int | None = None,
        stream_name: str = "default",
        cost_sample_every: int = 64,
        routed: bool = False,
        batch_size: int = 0,
        sink_retries: int = 0,
        sink_retry_backoff_s: float = 0.05,
    ):
        super().__init__(
            vectorized=vectorized,
            registry=registry,
            trace=trace,
            stream_name=stream_name,
            cost_sample_every=cost_sample_every,
            routed=routed,
            batch_size=batch_size,
            sink_retries=sink_retries,
            sink_retry_backoff_s=sink_retry_backoff_s,
        )
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")
        if auto_restart_events is not None and auto_restart_events < 1:
            raise ValueError("auto_restart_events must be at least 1")
        self._journal = journal
        self._checkpointer = checkpointer
        self.dlq = dlq if dlq is not None else DeadLetterQueue(
            capacity=dlq_capacity,
            policy=overload_policy,
            registry=self.obs_registry,
        )
        # Retried-and-still-failing sink deliveries land in the same
        # DLQ as executor failures (as DeadLetters carrying the output).
        if sink_retries > 0 and self.sink_dlq is None:
            self.sink_dlq = self.dlq
        self._quarantine_after = quarantine_after
        self._auto_restart_events = auto_restart_events
        self._max_backlog = max_journal_backlog_bytes
        # REPRO_FORCE_COLUMNAR reroutes process_batch through
        # process_event_batch; here both entry points journal what they
        # are given, so the hook would journal a batch twice.
        self._force_columnar = False
        self.events_replayed = 0
        obs = self.obs_registry
        self._g_quarantined = obs.gauge(
            "quarantined_queries", "registrations currently quarantined"
        )
        self._m_quarantines = obs.counter(
            "quarantines_total", "registrations put into quarantine"
        )

    # ----- wiring ----------------------------------------------------------

    def attach_journal(self, journal: EventJournal) -> None:
        self._journal = journal

    def attach_checkpointer(self, checkpointer: Checkpointer) -> None:
        self._checkpointer = checkpointer

    @property
    def journal(self) -> EventJournal | None:
        return self._journal

    @property
    def checkpointer(self) -> Checkpointer | None:
        return self._checkpointer

    def register_executor(
        self, name: str, executor: Any, *sinks: ResultSink
    ) -> None:
        super().register_executor(name, executor, *sinks)
        self._registrations[name].health = _Health(
            m_failures=self.obs_registry.counter(
                "executor_failures_total",
                "executor process() calls that raised",
                query=name,
            )
        )

    def deregister(self, name: str) -> None:
        registration = self._registrations.get(name)
        super().deregister(name)
        if registration.health.quarantined:
            self._g_quarantined.dec()

    # ----- event loop ------------------------------------------------------
    #
    # The loops are StreamEngine's. Each entry point here is the three
    # supervision hooks around it: write ahead, dispatch guarded (the
    # health records set above switch that on), tick the checkpoint
    # schedule.

    def process(self, event: Event) -> None:
        """Journal, then dispatch with per-registration isolation."""
        # Named base call: zero-argument super() costs this per-event
        # lane about 140 ns an event on CPython 3.11.
        StreamEngine.process(
            self,
            event,
            -1 if self._journal is None else self._write_ahead([event]),
        )
        if self._checkpointer is not None:
            self._checkpointer.maybe_checkpoint()

    def process_batch(self, events) -> int:
        """Journal a micro-batch in one write (one fsync under
        ``fsync=interval``/``always``), then dispatch with the same
        per-event failure isolation as :meth:`process`.

        Executor dispatch stays per-event inside an event list — a
        raising executor must dead-letter exactly the poison event with
        its own journal sequence — so batching here buys the WAL
        write/fsync, the engine-level bookkeeping, and the
        checkpoint-schedule check, not the dispatch loop itself. The
        whole-batch kernel call, with the per-event walk only as its
        fallback, is :meth:`process_event_batch`'s.
        """
        if not isinstance(events, list):
            events = list(events)
        if not events:
            return 0
        count = super().process_batch(events, self._write_ahead(events))
        if self._checkpointer is not None:
            self._checkpointer.maybe_checkpoint(count)
        return count

    def process_event_batch(
        self, batch: EventBatch, enforce_order: bool = True
    ) -> int:
        """Supervise a columnar batch, keeping it columnar through the
        guard: the order gate first (a rejected batch must never reach
        the journal), then the batch itself as one WAL record, then
        :meth:`StreamEngine.process_event_batch`'s guarded lane. Each
        registration that binds a plan and is not quarantined runs the
        columnar kernel on the whole batch, and a success resets its
        run of consecutive failures as a per-event success does. The
        rest — a plan that declines (counted under its reason), a
        quarantined registration or a kernel call that raised, which
        commits nothing (both counted as ``supervised``) — walk their
        routed rows, made events only then, one at a time at their
        positions in the batch. So journal sequences, dead letters,
        quarantine ordinals and the checkpoint cadence are
        :meth:`process_batch`'s, and a sink that refuses a kernel output
        dead-letters it under its row's journal sequence. A
        :class:`~repro.errors.CounterOverflowError` is raised, never
        walked: past int64 the walk would count no better."""
        count = len(batch)
        if not count:
            return 0
        self._check_batch_order(batch, enforce_order)
        StreamEngine.process_event_batch(
            self, batch, False, self._write_ahead(batch)
        )
        if self._checkpointer is not None:
            self._checkpointer.maybe_checkpoint(count)
        return count

    def _write_ahead(self, rows: list[Event] | EventBatch) -> int:
        """Append ``rows`` — an event list through ``append_batch``, a
        batch through ``append_event_batch`` — to the journal before
        anything sees them; returns the first one's sequence (-1 with
        no journal)."""
        journal = self._journal
        if journal is None:
            return -1
        if isinstance(rows, EventBatch):
            first_seq = journal.append_event_batch(rows)
        else:
            first_seq = journal.append_batch(rows)
        if (
            self._max_backlog is not None
            and journal.backlog_bytes > self._max_backlog
        ):
            journal.sync()
        if self._trace_on:
            if isinstance(rows, EventBatch):
                last_ts = rows.last_ts()
                last_type = rows.schema.types[rows.codes[-1]]
            else:
                last_ts, last_type = rows[-1].ts, rows[-1].event_type
            last_seq = first_seq + len(rows) - 1
            self._trace.record(
                Stage.JOURNAL, last_ts, last_type,
                f"seq={first_seq}"
                + (f"..{last_seq}" if last_seq > first_seq else ""),
            )
        return first_seq

    # ----- the guard -------------------------------------------------------

    def _executor_failed(
        self,
        registration: Any,
        event: Event,
        error: Exception,
        journal_seq: int,
        events_seen: int,
    ) -> None:
        """Dead-letter the poison event; quarantine after K in a row."""
        name = registration.name
        health = registration.health
        health.consecutive_failures += 1
        health.failures_total += 1
        health.m_failures.inc()
        self.dlq.push(DeadLetter(name, event, error, journal_seq))
        if self._trace_on:
            self._trace.record(
                Stage.DEAD_LETTER, event.ts, event.event_type,
                f"query={name} error={type(error).__name__}",
            )
        if (
            not health.quarantined
            and health.consecutive_failures >= self._quarantine_after
        ):
            health.quarantined = True
            if self._auto_restart_events is not None:
                health.backoff_events = (
                    health.backoff_events * 2
                    if health.backoff_events
                    else self._auto_restart_events
                )
                health.retry_at_event = events_seen + health.backoff_events
            self._g_quarantined.inc()
            self._m_quarantines.inc()
            _log.warning(
                "quarantine",
                message=(
                    f"quarantined query {name!r} after "
                    f"{health.consecutive_failures} consecutive failures"
                ),
                query=name,
                consecutive_failures=health.consecutive_failures,
                error=type(error).__name__,
                retry_at_event=health.retry_at_event,
            )
            if self._trace_on:
                self._trace.record(
                    Stage.QUARANTINE, event.ts, event.event_type,
                    f"query={name} after "
                    f"{health.consecutive_failures} failures",
                )

    def _readmit(self, registration: Any, events_seen: int) -> bool:
        """Once the backoff has expired, give the registration another
        chance — from the newest checkpoint when there is one."""
        retry_at = registration.health.retry_at_event
        if retry_at is None or events_seen < retry_at:
            return False
        try:
            self.restart_from_checkpoint(registration.name)
        except EngineError:
            self.restart(registration.name)
        return True

    # ----- quarantine management -------------------------------------------

    def quarantined(self) -> list[str]:
        """Names of the registrations currently quarantined."""
        return [
            name
            for name, registration in self._registrations.items()
            if registration.health.quarantined
        ]

    def _health_of(self, name: str) -> _Health:
        registration = self._registrations.get(name)
        if registration is None:
            raise EngineError(f"unknown query {name!r}")
        return registration.health

    def health_of(self, name: str) -> dict[str, Any]:
        """Failure-tracking snapshot for one registration."""
        health = self._health_of(name)
        return {
            "quarantined": health.quarantined,
            "consecutive_failures": health.consecutive_failures,
            "failures_total": health.failures_total,
            "retry_at_event": health.retry_at_event,
        }

    def restart(self, name: str) -> None:
        """Lift quarantine, keeping the executor's current state."""
        health = self._health_of(name)
        if health.quarantined:
            health.quarantined = False
            self._g_quarantined.dec()
            _log.info(
                "restart",
                message=f"restarted quarantined query {name!r}",
                query=name,
                failures_total=health.failures_total,
            )
        health.consecutive_failures = 0
        health.retry_at_event = None

    def restart_from_checkpoint(self, name: str) -> None:
        """Lift quarantine and restore the executor from the newest
        engine checkpoint (its state as of that checkpoint; events since
        are lost to this registration unless the caller replays them).
        """
        if self._checkpointer is None:
            raise EngineError(
                "no checkpointer attached; use restart() instead"
            )
        self._health_of(name)
        state, _ = load_latest_checkpoint(
            self._checkpointer.journal.directory
        )
        if state is None:
            raise CheckpointError("no loadable engine checkpoint found")
        apply_engine_state(self, state, only=name)
        self.restart(name)

    # ----- introspection ----------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        """Engine summary plus supervision state (health, DLQ, journal)."""
        state = super().inspect()
        journal = self._journal
        state.update(
            health={name: self.health_of(name) for name in self.query_names},
            quarantined=self.quarantined(),
            dlq_depth=len(self.dlq),
            dlq_shed=self.dlq.shed,
            journal_backlog_bytes=(
                int(journal.backlog_bytes) if journal is not None else 0
            ),
            events_replayed=self.events_replayed,
        )
        return state
