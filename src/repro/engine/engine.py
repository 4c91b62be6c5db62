"""The stream engine: many queries, one event loop.

:class:`StreamEngine` owns a set of registered query executors (A-Seq
by default; any object with the ``process``/``result`` surface works,
including the baseline and the shared multi-query engines) and pumps an
event stream through all of them, delivering fresh aggregates to the
sinks attached at registration time.

Two execution paths coexist, selected at construction time:

* the **reference path** (default) offers every event to every
  registration, one event at a time — the correctness oracle every
  other path is differentially pinned against;
* the **fast path** — type-indexed routing (``routed=True``) so an
  arrival only touches registrations whose pattern can react to its
  event type, and micro-batch ingestion (:meth:`process_batch`, or
  ``batch_size=N`` to have :meth:`run` chunk the stream) so per-event
  bookkeeping (metrics, watermarks, traces) is paid once per batch.
"""

from __future__ import annotations

import operator
import os
import random
import time
from itertools import chain, islice, repeat
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import CounterOverflowError, EngineError
from repro.events.batch import EventBatch
from repro.events.event import Event
from repro.core.columnar import GroupPlan
from repro.core.executor import (
    ASeqEngine,
    process_columnar_group,
    process_each,
)
from repro.core.vectorized import emitted_rows
from repro.engine.metrics import EngineMetrics
from repro.engine.sinks import Output, ResultSink
from repro.obs.funnel import FunnelRecorder, resolve_funnel
from repro.obs.inspect import cost_summary
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    resolve_registry,
)
from repro.obs.tracing import Stage, TraceRecorder, resolve_tracer
from repro.query.ast import Query


def relevant_types_of(executor: Any) -> frozenset[str] | None:
    """The event types ``executor`` can react to, or None when unknown.

    Discovered from the executor's compiled :class:`PatternLayout`
    (update/reset slots cover START/UPD/TRIG and negated types) with the
    query AST's ``relevant_types`` as a fallback. Executors exposing
    neither (e.g. ad-hoc objects registered via
    :meth:`StreamEngine.register_executor`) return None and land in the
    routing index's catch-all bucket: they keep seeing every event.
    """
    layout = getattr(executor, "layout", None)
    if layout is not None:
        update_slots = getattr(layout, "update_slots", None)
        reset_slot = getattr(layout, "reset_slot", None)
        if update_slots is not None and reset_slot is not None:
            return frozenset(update_slots) | frozenset(reset_slot)
    query = getattr(executor, "query", None)
    types = getattr(query, "relevant_types", None)
    if types:
        return frozenset(types)
    return None


class _Registration:
    __slots__ = (
        "name", "executor", "sinks", "types",
        "m_events", "m_outputs", "m_latency", "columnar", "health",
    )

    def __init__(
        self,
        name: str,
        executor: Any,
        sinks: list[ResultSink],
        types: frozenset[str] | None,
        m_events: Counter,
        m_outputs: Counter,
        m_latency: Histogram,
    ):
        self.name = name
        self.executor = executor
        self.sinks = sinks
        #: Event types this registration reacts to (None = catch-all).
        self.types = types
        self.m_events = m_events
        self.m_outputs = m_outputs
        self.m_latency = m_latency
        #: Single-entry columnar-plan cache: (schema, plan-or-None,
        #: decline-reason-or-None, executor). Schemas are shared across
        #: a generator's batches, so one entry covers the steady state;
        #: a checkpoint restore swaps the executor, which misses it. A
        #: None plan means "materialize", the reason says why.
        self.columnar: tuple[Any, Any, str | None, Any] | None = None
        #: Failure-tracking record a supervising engine attaches (see
        #: "supervision hooks" on :class:`StreamEngine`); None on a
        #: plain engine, whose executors' exceptions propagate.
        self.health: Any = None


class _Walk:
    """One batch's rows as events for the guarded walk: made on first
    use, each row at most once, and only the rows a walking
    registration reads."""

    __slots__ = ("batch", "events", "made")

    def __init__(self, batch: EventBatch):
        self.batch = batch
        self.events: list[Any] = [None] * len(batch)
        self.made = np.zeros(len(batch), dtype=bool)

    def rows(
        self, lut: np.ndarray | None
    ) -> tuple[list[Event], list[int] | None]:
        """``(events, rows)`` for the rows whose type code ``lut``
        selects: ``events[i]`` sits at position ``rows[i]`` of the
        batch (``rows`` None: every row, ``lut`` None)."""
        batch = self.batch
        need = (
            np.ones(len(batch), dtype=bool) if lut is None
            else lut[batch.codes]
        )
        missing = np.flatnonzero(need & ~self.made)
        if missing.size:
            made = (
                batch if missing.size == len(batch) else batch.take(missing)
            ).to_events()
            events = self.events
            for row, event in zip(missing.tolist(), made):
                events[row] = event
            self.made |= need
        if lut is None:
            return self.events, None
        rows = np.flatnonzero(need).tolist()
        events = self.events
        return [events[row] for row in rows], rows


class StreamEngine:
    """Multi-query streaming runtime.

    >>> from repro.query import seq
    >>> from repro.engine.sinks import CollectSink
    >>> engine = StreamEngine()
    >>> sink = CollectSink()
    >>> _ = engine.register(
    ...     seq("A", "B").count().within(ms=10).named("ab").build(),
    ...     sink)
    >>> engine.run([Event("A", 1), Event("B", 2)])
    2
    >>> sink.values()
    [1]
    """

    def __init__(
        self,
        vectorized: bool = False,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
        stream_name: str = "default",
        cost_sample_every: int = 64,
        routed: bool = False,
        batch_size: int = 0,
        sink_retries: int = 0,
        sink_retry_backoff_s: float = 0.05,
        sink_dlq: Any = None,
        funnel: FunnelRecorder | None = None,
    ):
        if cost_sample_every < 0:
            raise ValueError("cost_sample_every must be >= 0")
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if sink_retries < 0:
            raise ValueError("sink_retries must be >= 0")
        if sink_retry_backoff_s < 0:
            raise ValueError("sink_retry_backoff_s must be >= 0")
        self._registrations: dict[str, _Registration] = {}
        #: Registration list in insertion order (hot-path iteration).
        self._all: list[_Registration] = []
        #: Type-indexed routing: event type -> registrations that can
        #: react to it (catch-all registrations included in every list).
        self._routed = routed
        self._routes: dict[str, list[_Registration]] = {}
        self._catch_all: list[_Registration] = []
        #: Closed-form groups of the columnar lane: (schema, executors,
        #: groups), see :meth:`_closed_form_groups`.
        self._groups: tuple[Any, list[Any], list[Any]] | None = None
        #: Walked-row LUTs of the guarded lane: (schema, registration
        #: -> bool per type code), see :meth:`_walk_lut`.
        self._row_lut: tuple[Any, dict] | None = None
        self._vectorized = vectorized
        self._batch_size = batch_size
        self.metrics = EngineMetrics()
        self.stream_name = stream_name
        registry = resolve_registry(registry)
        self.obs_registry = registry
        self._obs_on = registry.enabled
        self._m_events = registry.counter(
            "events_ingested_total", "events pumped through the stream engine"
        )
        self._m_outputs = registry.counter(
            "outputs_emitted_total", "fresh aggregates delivered to sinks"
        )
        self._m_sink_errors = registry.counter(
            "sink_errors_total", "sink emit() calls that raised"
        )
        self._m_sink_retries = registry.counter(
            "sink_retries_total", "sink emit() calls retried after a failure"
        )
        self._m_sink_dead = registry.counter(
            "sink_dead_letters_total",
            "outputs routed to the dead-letter queue after retry exhaustion",
        )
        #: Bounded sink-delivery retry: 0 keeps the fire-and-forget
        #: behavior (count the error, drop the emission); N retries each
        #: failed emit with exponential backoff + seeded jitter, then
        #: dead-letters the output when ``sink_dlq`` is attached.
        self._sink_retries = sink_retries
        self._sink_backoff_s = sink_retry_backoff_s
        self.sink_dlq = sink_dlq
        self._sink_rng: random.Random | None = None
        self._m_latency = registry.histogram(
            "event_latency_us",
            "per-event processing latency across all registrations (µs)",
        )
        # Event-time watermark tracking: the max event timestamp seen,
        # and how far wall-clock progress lags event-time progress since
        # the first arrival (negative = faster-than-real-time replay).
        self._g_watermark = registry.gauge(
            "repro_event_time_watermark_ms",
            "max event timestamp observed on this stream (ms)",
            stream=stream_name,
        )
        self._g_lag = registry.gauge(
            "repro_event_time_lag_seconds",
            "wall-clock seconds behind event time, anchored at the "
            "first arrival (negative when replaying faster than "
            "real time)",
            stream=stream_name,
        )
        self._watermark_ms = float("-inf")
        self._time_anchor: tuple[float, int] | None = None
        #: Engine clock: the newest timestamp ingested through any entry
        #: point (or pushed by :meth:`advance_clock`). The columnar
        #: lane's order gate checks batches against it, and routed mode
        #: brings executors skipped for irrelevant arrivals up to it
        #: before a result read.
        self._clock_ms: int | None = None
        #: Sample per-registration latency every Nth event (0 disables);
        #: sampling keeps the two extra clock reads per registration off
        #: the common hot path.
        self._cost_sample_every = cost_sample_every
        tracer = resolve_tracer(trace)
        self._trace = tracer
        self._trace_on = tracer.enabled
        #: Nothing to count, trace or guard: process() may take its
        #: dispatch-only fast path.
        self._bare = not (self._obs_on or self._trace_on or self._guarded)
        funnel = resolve_funnel(funnel)
        self.funnel = funnel
        self._funnel_on = funnel.enabled
        #: REPRO_FORCE_COLUMNAR=1 reroutes process_batch through the
        #: columnar lane (events → EventBatch → lane), pinning the
        #: batch→Event fallback materializer under every existing
        #: differential suite.
        self._force_columnar = (
            os.environ.get("REPRO_FORCE_COLUMNAR") == "1"
        )

    # ----- registration ------------------------------------------------------

    def register(
        self,
        query: Query,
        *sinks: ResultSink,
        name: str | None = None,
    ) -> ASeqEngine:
        """Register a query on a fresh A-Seq executor; returns the executor."""
        executor = ASeqEngine(
            query,
            vectorized=self._vectorized,
            registry=self.obs_registry,
            trace=self._trace,
            funnel=self.funnel,
        )
        self.register_executor(
            name or query.name or f"q{len(self._registrations)}",
            executor,
            *sinks,
        )
        return executor

    def register_executor(
        self, name: str, executor: Any, *sinks: ResultSink
    ) -> None:
        """Register any engine exposing ``process``/``result``."""
        if name in self._registrations:
            raise EngineError(f"duplicate query name {name!r}")
        registry = self.obs_registry
        self._registrations[name] = _Registration(
            name,
            executor,
            list(sinks),
            relevant_types_of(executor),
            registry.counter(
                "query_events_total", "events offered to one registration",
                query=name,
            ),
            registry.counter(
                "query_outputs_total", "fresh aggregates from one registration",
                query=name,
            ),
            registry.histogram(
                "query_latency_us",
                "sampled per-event executor latency of one registration (µs)",
                query=name,
            ),
        )
        self._rebuild_routes()

    def deregister(self, name: str) -> None:
        if name not in self._registrations:
            raise EngineError(f"unknown query {name!r}")
        del self._registrations[name]
        self._rebuild_routes()

    def _rebuild_routes(self) -> None:
        """Recompute the hot-path dispatch structures.

        The routing index maps every event type any registration reacts
        to onto the registrations that must see it; catch-all
        registrations (no discoverable layout) appear in every list and
        in :attr:`_catch_all`, which also serves arrivals of types no
        pattern mentions.
        """
        registrations = list(self._registrations.values())
        self._all = registrations
        self._groups = None
        if not self._routed:
            self._routes = {}
            self._catch_all = registrations
            return
        self._catch_all = [r for r in registrations if r.types is None]
        known: set[str] = set()
        for registration in registrations:
            if registration.types is not None:
                known.update(registration.types)
        self._routes = {
            event_type: [
                r
                for r in registrations
                if r.types is None or event_type in r.types
            ]
            for event_type in known
        }

    # ----- event loop -------------------------------------------------------

    # ----- supervision hooks ------------------------------------------------
    #
    # Routing, executor invocation and sink delivery live in this class
    # alone. A supervising subclass (1) writes ahead: journals, then
    # calls the entry point with the sequence numbers; (2) guards: sets
    # ``_guarded`` and gives each registration a health record, so the
    # loops below skip it while quarantined and hand its exceptions to
    # ``_executor_failed`` instead of raising; (3) ticks its checkpoint
    # schedule once the entry point returns.

    _guarded = False

    def _readmit(self, registration: _Registration, events_seen: int) -> bool:
        """Whether a quarantined registration may see the arrival that
        brought the stream to ``events_seen`` events."""
        return False

    def _executor_failed(
        self,
        registration: _Registration,
        event: Event,
        error: Exception,
        journal_seq: int,
        events_seen: int,
    ) -> None:
        """``registration``'s executor raised ``error`` on ``event``;
        returning isolates it (the loop moves to the next registration)."""
        raise error

    def process(self, event: Event, journal_seq: int = -1) -> None:
        """Push one event through every registered executor.

        A sink that raises does not abort the loop: the error is counted
        (``sink_errors_total``) and the remaining sinks and registrations
        keep receiving the event. ``journal_seq`` is the sequence number
        a write-ahead log gave the event (-1: not journaled); it rides
        into any dead letter the event causes.
        """
        ts = event.ts
        if self._clock_ms is None or ts > self._clock_ms:
            self._clock_ms = ts
        if self._routed:
            targets = self._routes.get(event.event_type)
            if targets is None:
                targets = self._catch_all
        else:
            targets = self._all
        self.metrics.events += 1
        if self._bare:
            # Fast path: no clock reads, no counter bumps, no sampling
            # arithmetic — just dispatch.
            for registration in targets:
                fresh = registration.executor.process(event)
                if fresh is None:
                    continue
                self.metrics.outputs += 1
                if registration.sinks:
                    self._deliver(
                        registration.name,
                        registration.sinks,
                        Output(registration.name, event.ts, fresh),
                        event=event,
                    )
            return
        obs_on = self._obs_on
        if obs_on:
            started = time.perf_counter()
            self._m_events.inc()
        events_seen = self.metrics.events
        sample = self._cost_sample_every
        timed = obs_on and sample and events_seen % sample == 0
        for registration in targets:
            health = registration.health
            if (
                health is not None
                and health.quarantined
                and not self._readmit(registration, events_seen)
            ):
                continue
            if obs_on:
                registration.m_events.inc()
            try:
                if timed:
                    t0 = time.perf_counter()
                    fresh = registration.executor.process(event)
                    registration.m_latency.observe(
                        (time.perf_counter() - t0) * 1e6
                    )
                else:
                    fresh = registration.executor.process(event)
            except CounterOverflowError:
                raise
            except Exception as error:
                self._executor_failed(
                    registration, event, error, journal_seq, events_seen
                )
                continue
            if health is not None and health.consecutive_failures:
                health.consecutive_failures = 0
            if fresh is None:
                continue
            self.metrics.outputs += 1
            if obs_on:
                self._m_outputs.inc()
                registration.m_outputs.inc()
            if self._trace_on:
                self._trace.record(
                    Stage.EMIT, event.ts, event.event_type,
                    f"query={registration.name} value={fresh!r}",
                )
            if registration.sinks:
                self._deliver(
                    registration.name,
                    registration.sinks,
                    Output(registration.name, event.ts, fresh),
                    event=event,
                    journal_seq=journal_seq,
                )
        if obs_on:
            finished = time.perf_counter()
            self._m_latency.observe((finished - started) * 1e6)
            self._note_event_time(event.ts, finished)

    def process_batch(
        self, events: Sequence[Event], first_seq: int = -1
    ) -> int:
        """Push a micro-batch through the registrations; returns its size.

        Semantically equivalent to calling :meth:`process` per event on
        an in-order stream (the differential suite pins this), but the
        engine-level bookkeeping — ingest counters, latency histogram,
        watermark, trace — is flushed once per batch, and each
        registration receives its events through the executor's own
        ``process_batch`` when it has one. ``first_seq`` is the journal
        sequence of ``events[0]`` when a write-ahead log holds the batch
        (event *i* is ``first_seq + i``; -1: not journaled).
        """
        if not isinstance(events, list):
            events = list(events)
        if not events:
            return 0
        if self._force_columnar:
            return self.process_event_batch(
                EventBatch.from_events(events), enforce_order=False
            )
        return self._ingest(events, len(events), events[-1].ts, first_seq)

    def _ingest(
        self,
        events: list[Event],
        count: int,
        last_ts: int,
        first_seq: int = -1,
    ) -> int:
        """:meth:`process_batch`'s body, for ``count`` events ending at
        ``last_ts``."""
        self.metrics.events += count
        if self._clock_ms is None or last_ts > self._clock_ms:
            self._clock_ms = last_ts
        obs_on = self._obs_on
        if obs_on:
            started = time.perf_counter()
            self._m_events.inc(count)
        if self._routed and not self._guarded:
            # One pass over the batch splits it per registration through
            # the route index — O(batch x reacting queries), independent
            # of how many registrations the engine carries.
            buckets: dict[int, list[Event]] = {}
            routes = self._routes
            catch_all = self._catch_all
            for event in events:
                for registration in routes.get(event.event_type, catch_all):
                    bucket = buckets.get(id(registration))
                    if bucket is None:
                        buckets[id(registration)] = bucket = []
                    bucket.append(event)
            for registration in self._all:
                sub = buckets.get(id(registration))
                if sub is not None:
                    self._drive_batch(registration, sub, obs_on)
        else:
            # Unrouted — or guarded, where every registration walks the
            # whole batch (routing by its own types) so that each event
            # keeps its position: its journal sequence and its ordinal
            # in the stream.
            for registration in self._all:
                self._drive_batch(registration, events, obs_on, first_seq)
        if obs_on:
            finished = time.perf_counter()
            self._m_latency.observe((finished - started) * 1e6 / count)
            self._note_event_time(last_ts, finished)
        return count

    def _check_batch_order(
        self, batch: EventBatch, enforce_order: bool
    ) -> int:
        """The columnar lane's order gate — against the newest timestamp
        ingested through any entry point; returns the batch's last
        timestamp. Nothing of a rejected batch has been ingested."""
        if enforce_order:
            batch.ensure_in_order(self._clock_ms)
        return batch.last_ts()

    def _walk_lut(
        self, schema: Any, registration: _Registration
    ) -> np.ndarray | None:
        """Bool per type code of ``schema``: the rows of a batch that
        ``registration``'s guarded walk reads (None = every row:
        unrouted, or a catch-all), cached per schema."""
        types = registration.types
        if not self._routed or types is None:
            return None
        cached = self._row_lut
        if cached is None or cached[0] is not schema:
            self._row_lut = cached = (schema, {})
        lut = cached[1].get(registration)
        if lut is None:
            lut = cached[1][registration] = np.fromiter(
                (name in types for name in schema.types), dtype=bool,
                count=len(schema.types),
            )
        return lut

    def _count_decline(self, registration: _Registration, reason: str) -> None:
        self.obs_registry.counter(
            "repro_columnar_declined_total",
            "batches a registration took through the batch→Event "
            "materializer instead of the columnar kernel, by reason",
            query=registration.name,
            reason=reason,
        ).inc()

    def process_event_batch(
        self,
        batch: EventBatch,
        enforce_order: bool = True,
        first_seq: int = -1,
    ) -> int:
        """Push one columnar batch through the registrations; returns
        its size.

        The zero-object lane: registrations whose executor binds a
        :class:`~repro.core.columnar.ColumnarPlan` to this batch's
        schema consume the column arrays directly (type-code LUT
        routing, boolean predicate masks, the scalar counting kernel —
        negation included, single-attribute GROUP BY as one kernel call
        for every partition the batch touches). Flat-COUNT
        registrations of one pattern length are routed together and
        share one closed-form scan
        (:func:`~repro.core.executor.process_columnar_group`); outputs
        still reach sinks in registration order. Everything else —
        Kleene, scalar equivalence, composite keys, unwindowed or
        non-vectorized runtimes, shared plans, ad-hoc executors,
        tracing, or a batch a plan cannot evaluate exactly (a missing
        attribute or partition key) —
        receives the memoized ``batch.to_events()`` materialization
        through the same ``_drive_batch`` path ``process_batch`` uses,
        so results stay bit-identical to the reference engine either
        way. Each such decline is counted, per batch, in
        ``repro_columnar_declined_total{query=,reason=}``.

        A registration with a health record (see "supervision hooks")
        runs the kernel alone, inside ``try``: a kernel call commits its
        whole batch or nothing, so when it raises — or the registration
        is quarantined — the guarded branch of ``_drive_batch`` walks
        that registration's rows one event at a time at their positions
        in the batch, and a poison row is dead-lettered under
        ``first_seq`` plus its position (counted as a ``supervised``
        decline). Only the rows a walking registration reads are ever
        materialised, each at most once per batch. A
        :class:`~repro.errors.CounterOverflowError` is the workload's,
        not a row's: it is raised, as on the unguarded lane.

        ``enforce_order=True`` rejects in-batch and cross-batch
        timestamp regressions with the same
        :class:`~repro.errors.OutOfOrderError` the per-event
        :class:`~repro.events.stream.EventStream` raises (the batch
        emitters are the stream's columnar analog); the
        ``REPRO_FORCE_COLUMNAR`` hook disables it to match
        ``process_batch``'s trust-the-caller contract. ``first_seq`` is
        the journal sequence of row 0 when a write-ahead log holds the
        batch (-1: not journaled).
        """
        count = len(batch)
        if not count:
            return 0
        last_ts = self._check_batch_order(batch, enforce_order)
        self.metrics.events += count
        if self._clock_ms is None or last_ts > self._clock_ms:
            self._clock_ms = last_ts
        obs_on = self._obs_on
        if obs_on:
            started = time.perf_counter()
            self._m_events.inc(count)
        routed = self._routed
        materialized: list[Event] | None = None
        walk: _Walk | None = None
        grouped: dict[_Registration, Any] = {}
        if not self._guarded:
            # A shared scan spans registrations; a guarded one must
            # fail alone.
            for registrations, group in self._closed_form_groups(
                batch.schema
            ):
                grouped.update(zip(registrations, process_columnar_group(
                    [registration.executor for registration in registrations],
                    group, batch, routed=routed,
                )))
        for registration in self._all:
            plan, reason = self._bind_columnar(registration, batch.schema)
            health = registration.health
            outcome = None
            if registration in grouped:
                outcome = grouped[registration]
            elif plan is not None:
                if health is None:
                    outcome = registration.executor.run_columnar(
                        batch, plan, routed=routed
                    )
                elif health.quarantined:
                    # A readmission may fall on any row: walk them.
                    reason = "supervised"
                else:
                    try:
                        outcome = registration.executor.run_columnar(
                            batch, plan, routed=routed
                        )
                    except CounterOverflowError:
                        # The workload's, not a row's: raise it as the
                        # unguarded lane does.
                        raise
                    except Exception:
                        # Nothing of the batch was committed: the walk
                        # finds, and dead-letters, the row at fault.
                        reason = "supervised"
            if outcome is None:
                if reason is None:
                    reason = plan.last_decline
                if obs_on:
                    self._count_decline(registration, reason)
                if health is not None:
                    if walk is None:
                        walk = _Walk(batch)
                    events, rows = walk.rows(
                        self._walk_lut(batch.schema, registration)
                    )
                    self._drive_batch(
                        registration, events, obs_on, first_seq, rows, count
                    )
                    continue
                # Fallback: identical to the object path, bucketed the
                # way routed process_batch buckets (materialized once,
                # shared across every fallback registration).
                if materialized is None:
                    materialized = batch.to_events()
                if not routed or registration.types is None:
                    bucket = materialized
                else:
                    types = registration.types
                    bucket = [
                        event
                        for event in materialized
                        if event.event_type in types
                    ]
                if bucket:
                    self._drive_batch(registration, bucket, obs_on)
                continue
            emitted, offered, kept_idx = outcome
            if routed and not offered:
                continue  # empty bucket: skipped, like process_batch
            if health is not None and health.consecutive_failures:
                health.consecutive_failures = 0
            if obs_on:
                registration.m_events.inc(offered)
            positions = emitted[0]
            emit_count = len(positions)
            if not emit_count:
                continue
            self.metrics.outputs += emit_count
            if obs_on:
                self._m_outputs.inc(emit_count)
                registration.m_outputs.inc(emit_count)
            if registration.sinks:
                name = registration.name
                rows = kept_idx[positions].tolist()
                for (ts, fresh), row in zip(emitted_rows(emitted), rows):
                    self._deliver(
                        name,
                        registration.sinks,
                        Output(name, ts, fresh),
                        event=(batch, row),
                        journal_seq=first_seq + row if first_seq >= 0 else -1,
                    )
        if obs_on:
            finished = time.perf_counter()
            self._m_latency.observe((finished - started) * 1e6 / count)
            self._note_event_time(last_ts, finished)
        return count

    def _bind_columnar(
        self, registration: _Registration, schema: Any
    ) -> tuple[Any | None, str | None]:
        """The registration's ``(plan, decline reason)`` for ``schema``,
        cached by schema and executor identity; a None plan means "use the
        materialized fallback" and the reason slug says why."""
        cached = registration.columnar
        executor = registration.executor
        if (
            cached is None
            or cached[0] is not schema
            or cached[3] is not executor
        ):
            reason = (
                "tracing"
                if self._trace_on
                else getattr(executor, "columnar_decline", "not_vectorized")
            )
            plan = executor.columnar_plan(schema) if reason is None else None
            registration.columnar = cached = (schema, plan, reason, executor)
        return cached[1], cached[2]

    def _closed_form_groups(
        self, schema: Any
    ) -> list[tuple[list[_Registration], GroupPlan]]:
        """The registrations whose plans for ``schema`` may take the
        closed form, grouped by pattern length (groups of two or more;
        one alone runs its own call), cached by schema and executor
        identity."""
        if len(self._all) < 2:
            return []
        executors = [registration.executor for registration in self._all]
        cached = self._groups
        if (
            cached is not None
            and cached[0] is schema
            and all(map(operator.is_, cached[1], executors))
        ):
            return cached[2]
        by_length: dict[int, list[tuple[_Registration, Any]]] = {}
        for registration in self._all:
            plan, _ = self._bind_columnar(registration, schema)
            if (
                plan is not None
                and plan.key_attribute is None
                and plan.closed_form_decline is None
            ):
                by_length.setdefault(len(plan.slot_luts), []).append(
                    (registration, plan)
                )
        groups = [
            (
                [registration for registration, _ in members],
                GroupPlan([plan for _, plan in members]),
            )
            for members in by_length.values()
            if len(members) > 1
        ]
        self._groups = (schema, executors, groups)
        return groups

    def _drive_batch(
        self,
        registration: _Registration,
        events: list[Event],
        obs_on: bool,
        first_seq: int = -1,
        rows: list[int] | None = None,
        count: int | None = None,
    ) -> None:
        """Feed one registration its slice of a batch and fan out sinks.

        A registration with a health record takes the guarded branch:
        ``events`` is then the whole ingest batch of ``count`` events —
        or, with ``rows``, the routed ones at those positions of it —
        offered one event at a time so that a raising executor
        dead-letters exactly the poison event under its own journal
        sequence, and nothing more is offered once it is quarantined.
        A :class:`~repro.errors.CounterOverflowError` is raised instead.
        """
        health = registration.health
        if health is None:
            executor = registration.executor
            batch = getattr(executor, "process_batch", None)
            emitted = (
                batch(events)
                if batch is not None
                else process_each(executor, events)
            )
            offered = len(events)
            emitted_seqs: Iterable[int] = repeat(-1)
        else:
            types = registration.types if self._routed else None
            first_seen = self.metrics.events - (
                len(events) if count is None else count
            ) + 1
            emitted = []
            emitted_rows = []
            offered = 0
            for row, event in (
                enumerate(events) if rows is None else zip(rows, events)
            ):
                if types is not None and event.event_type not in types:
                    continue
                if health.quarantined and not self._readmit(
                    registration, first_seen + row
                ):
                    continue
                offered += 1
                try:
                    # Looked up per event: a readmission may have
                    # swapped in an executor restored from a checkpoint.
                    fresh = registration.executor.process(event)
                except CounterOverflowError:
                    raise
                except Exception as error:
                    self._executor_failed(
                        registration,
                        event,
                        error,
                        first_seq + row if first_seq >= 0 else -1,
                        first_seen + row,
                    )
                    continue
                if health.consecutive_failures:
                    health.consecutive_failures = 0
                if fresh is not None:
                    emitted.append((event, fresh))
                    emitted_rows.append(row)
            emitted_seqs = (
                [first_seq + row for row in emitted_rows]
                if first_seq >= 0
                else repeat(-1)
            )
        if obs_on:
            registration.m_events.inc(offered)
        count = len(emitted)
        if not count:
            return
        self.metrics.outputs += count
        if obs_on:
            self._m_outputs.inc(count)
            registration.m_outputs.inc(count)
        if self._trace_on:
            last = emitted[-1][0]
            self._trace.record(
                Stage.EMIT, last.ts, last.event_type,
                f"query={registration.name} batch_outputs={count}",
            )
        if registration.sinks:
            name = registration.name
            for (event, fresh), seq in zip(emitted, emitted_seqs):
                self._deliver(
                    name,
                    registration.sinks,
                    Output(name, event.ts, fresh),
                    event=event,
                    journal_seq=seq,
                )

    def _deliver(
        self,
        name: str,
        sinks: list[ResultSink],
        output: Output,
        event: Event | tuple[EventBatch, int] | None = None,
        journal_seq: int = -1,
    ) -> None:
        """Emit one output to each sink, with bounded retry + backoff.

        ``event`` is the arrival behind the output, or ``(batch, row)``
        naming it, which becomes an :class:`Event` only if a sink fails.

        A sink that raises never aborts delivery to its siblings. With
        ``sink_retries == 0`` (the default) a failed emit is counted and
        dropped, exactly the historical behavior. Otherwise each failing
        sink is retried up to N times with exponential backoff and
        deterministic jitter (seeded from ``REPRO_FAULT_SEED`` so chaos
        runs replay identically); when every attempt fails the output is
        pushed to :attr:`sink_dlq` (when attached) as a
        :class:`~repro.resilience.supervisor.DeadLetter` carrying the
        undelivered payload.
        """
        retries = self._sink_retries
        obs_on = self._obs_on
        for sink in sinks:
            try:
                sink.emit(output)
                continue
            except Exception as error:
                self.metrics.sink_errors += 1
                if obs_on:
                    self._m_sink_errors.inc()
                last_error = error
            if isinstance(event, tuple):
                batch, row = event
                event = batch.take(np.array([row])).to_events()[0]
            delivered = False
            for attempt in range(retries):
                delay = self._sink_backoff_s * (2 ** attempt)
                if delay > 0:
                    # Jitter in [0.5, 1.5) de-synchronizes concurrent
                    # retry storms without breaking seeded replay.
                    time.sleep(delay * (0.5 + self._jitter_rng().random()))
                if obs_on:
                    self._m_sink_retries.inc()
                if self._trace_on:
                    self._trace.record(
                        Stage.SINK_RETRY,
                        output.ts,
                        event.event_type if event is not None else "",
                        f"query={name} attempt={attempt + 1}/{retries}",
                    )
                try:
                    sink.emit(output)
                    delivered = True
                    break
                except Exception as error:
                    self.metrics.sink_errors += 1
                    if obs_on:
                        self._m_sink_errors.inc()
                    last_error = error
            if not delivered and self.sink_dlq is not None:
                from repro.resilience.supervisor import DeadLetter

                if obs_on:
                    self._m_sink_dead.inc()
                if self._trace_on:
                    self._trace.record(
                        Stage.SINK_DEAD_LETTER,
                        output.ts,
                        event.event_type if event is not None else "",
                        f"query={name}: {type(last_error).__name__}",
                    )
                self.sink_dlq.push(
                    DeadLetter(
                        name, event, last_error, journal_seq, output=output
                    )
                )

    def _jitter_rng(self) -> random.Random:
        if self._sink_rng is None:
            from repro.resilience.faults import fault_seed

            self._sink_rng = random.Random(fault_seed(0))
        return self._sink_rng

    def _note_event_time(self, ts: int, now_perf: float) -> None:
        """Advance the event-time watermark and the lag gauge.

        Lag is anchored at the first arrival: it compares wall-clock
        progress since then against event-time progress, so both epoch
        streams and synthetic (zero-based) streams report a meaningful
        number. See docs/OBSERVABILITY.md for the full semantics.
        """
        if ts > self._watermark_ms:
            self._watermark_ms = ts
            self._g_watermark.value = float(ts)
        anchor = self._time_anchor
        if anchor is None:
            self._time_anchor = (now_perf, ts)
        else:
            self._g_lag.value = (
                (now_perf - anchor[0])
                - (self._watermark_ms - anchor[1]) / 1000.0
            )

    def advance_clock(self, ts: int) -> None:
        """Move every executor's clock forward without an event.

        Used on idle streams and by the sharded runtime, whose workers
        see only a hash-partition of the stream: the coordinator pushes
        the global watermark down before collecting partial results so
        window expiry agrees with the single-process engine.
        """
        if self._clock_ms is None or ts > self._clock_ms:
            self._clock_ms = ts
        for registration in self._all:
            advance = getattr(registration.executor, "advance_time", None)
            if advance is not None:
                advance(ts)

    def _sync_executor_clock(self, executor: Any) -> None:
        """Routed mode: bring one executor up to the engine clock.

        Routing skips executors for irrelevant arrivals, so an executor
        asked for its result between triggers may not have seen the
        latest timestamps; windows must still slide on every event
        (paper Sec. 2.1), so the clock is pushed down lazily here.
        """
        clock = self._clock_ms
        if clock is None:
            return
        advance = getattr(executor, "advance_time", None)
        if advance is not None:
            advance(clock)

    def run(
        self, stream: Iterable[Event], batch_size: int | None = None
    ) -> int:
        """Drain a stream; returns the number of events processed.

        With a positive ``batch_size`` (or one set at construction) the
        stream is chunked through :meth:`process_batch`; otherwise every
        event takes the reference per-event path.
        """
        size = self._batch_size if batch_size is None else batch_size
        started = time.perf_counter()
        processed = 0
        iterator = iter(stream)
        first = next(iterator, None)
        if first is None:
            pass
        elif isinstance(first, EventBatch):
            # A stream of columnar batches (datagen batch emitters,
            # the shard wire): each batch is one ingest unit; the
            # batch_size chunking knob does not re-slice them.
            for batch in chain([first], iterator):
                processed += self.process_event_batch(batch)
        elif size and size > 1:
            iterator = chain([first], iterator)
            while True:
                chunk = list(islice(iterator, size))
                if not chunk:
                    break
                processed += self.process_batch(chunk)
        else:
            for event in chain([first], iterator):
                self.process(event)
                processed += 1
        self.metrics.elapsed_s += time.perf_counter() - started
        self.metrics.note_objects(self.current_objects())
        return processed

    # ----- results ---------------------------------------------------------------

    def result(self, name: str) -> Any:
        """Current aggregate of one registered query."""
        registration = self._registrations.get(name)
        if registration is None:
            raise EngineError(f"unknown query {name!r}")
        if self._routed:
            self._sync_executor_clock(registration.executor)
        return registration.executor.result()

    def results(self) -> dict[str, Any]:
        """Current aggregates of every registered query."""
        if self._routed:
            for registration in self._all:
                self._sync_executor_clock(registration.executor)
        return {
            name: registration.executor.result()
            for name, registration in self._registrations.items()
        }

    def current_objects(self) -> int:
        total = 0
        for registration in self._registrations.values():
            probe = getattr(registration.executor, "current_objects", None)
            if probe is not None:
                total += probe()
        return total

    @property
    def query_names(self) -> list[str]:
        return list(self._registrations)

    @property
    def routed(self) -> bool:
        """Whether the type-indexed routing fast path is active."""
        return self._routed

    def routes(self) -> dict[str, list[str]]:
        """The routing index as query names (diagnostics, tests)."""
        return {
            event_type: [r.name for r in registrations]
            for event_type, registrations in self._routes.items()
        }

    def executor_of(self, name: str) -> Any:
        """The executor behind one registration."""
        registration = self._registrations.get(name)
        if registration is None:
            raise EngineError(f"unknown query {name!r}")
        return registration.executor

    @property
    def watermark_ms(self) -> float | None:
        """Max event timestamp observed (None before the first event)."""
        mark = self._watermark_ms
        if mark == float("-inf"):
            clock = self._clock_ms
            return None if clock is None else float(clock)
        return mark

    def query_rows(self) -> list[dict[str, Any]]:
        """One cost-accounting row per registration (``/queries``).

        Safe to call from a scrape thread: the registration table is
        snapshotted before iteration and every probe reads live state
        without mutating it.
        """
        rows = []
        for registration in list(self._registrations.values()):
            row: dict[str, Any] = {
                "query": registration.name,
                "events_routed": int(registration.m_events.value),
                "outputs": int(registration.m_outputs.value),
            }
            row.update(cost_summary(registration.executor))
            latency = registration.m_latency
            if latency.count:
                row["latency_us_p50"] = latency.p50
                row["latency_us_p99"] = latency.p99
            rows.append(row)
        return rows

    def refresh_cost_metrics(self) -> None:
        """Publish pull-based per-query cost gauges into the registry.

        Live-object counts, HPC partition counts, CC snapshot rows and
        counter-update totals are expensive to maintain per event, so
        they are computed here — on scrape (the admin server calls this
        before rendering ``/metrics``) rather than on ingest.
        """
        registry = self.obs_registry
        if self._funnel_on:
            # Drift gauges live wherever the funnel series live (the
            # shared registry when instrumentation is on, the funnel's
            # private one otherwise).
            self._refresh_drift(self.funnel.registry)
        if not registry.enabled:
            return
        for row in self.query_rows():
            name = row["query"]
            registry.gauge(
                "query_live_objects",
                "live counting state held by one registration",
                query=name,
            ).set(float(row.get("live_objects") or 0))
            registry.gauge(
                "query_counter_updates",
                "prefix-counter slot updates performed by one registration",
                query=name,
            ).set(float(row.get("counter_updates") or 0))
            if row.get("hpc_partitions") is not None:
                registry.gauge(
                    "query_hpc_partitions",
                    "live HPC partition engines of one registration",
                    query=name,
                ).set(float(row["hpc_partitions"]))
            if row.get("cc_snapshot_rows") is not None:
                registry.gauge(
                    "query_cc_snapshot_rows",
                    "live Chop-Connect SnapShot rows of one registration",
                    query=name,
                ).set(float(row["cc_snapshot_rows"]))

    def _refresh_drift(self, registry: MetricsRegistry) -> None:
        """Estimated-vs-observed cost drift per registration.

        Compares the cost model's predicted prefix-counter updates per
        event against what the funnel measured, publishing the ratio as
        ``repro_query_cost_drift_ratio{query=}`` and warning (rate
        limited) when the model is off by more than 5x either way.
        """
        from repro.obs.explain import drift_from_funnel
        from repro.obs.logging import get_logger

        for registration in list(self._registrations.values()):
            executor = registration.executor
            query = getattr(executor, "query", None)
            handle = getattr(executor, "funnel_handle", None)
            if query is None or handle is None:
                continue
            drift = drift_from_funnel(query, handle.snapshot())
            if drift is None:
                continue
            ratio = drift["drift_ratio"]
            registry.gauge(
                "repro_query_cost_drift_ratio",
                "observed / cost-model-estimated per-event update cost",
                query=registration.name,
            ).set(ratio)
            if ratio > 5.0 or ratio < 0.2:
                get_logger("explain").warning(
                    "cost_drift",
                    query=registration.name,
                    drift_ratio=round(ratio, 3),
                    estimated=round(
                        drift["estimated_updates_per_event"], 3
                    ),
                    observed=round(drift["observed_updates_per_event"], 3),
                    message=(
                        f"cost model off by {ratio:.1f}x for "
                        f"{registration.name!r}"
                    ),
                )

    def explain(self) -> dict[str, Any]:
        """Structured plan for every registration (see
        :mod:`repro.obs.explain`)."""
        from repro.obs.explain import explain_engine
        return explain_engine(self)

    def inspect(self) -> dict[str, Any]:
        """JSON-serializable engine-wide state summary."""
        queries = {}
        for registration in list(self._registrations.values()):
            executor = registration.executor
            probe = getattr(executor, "inspect", None)
            queries[registration.name] = (
                probe() if probe is not None
                else {"kind": type(executor).__name__}
            )
        return {
            "kind": type(self).__name__,
            "stream": self.stream_name,
            "events": self.metrics.events,
            "outputs": self.metrics.outputs,
            "sink_errors": self.metrics.sink_errors,
            "watermark_ms": self.watermark_ms,
            "routed": self._routed,
            "batch_size": self._batch_size,
            "registrations": len(queries),
            "queries": queries,
        }
