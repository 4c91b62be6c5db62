"""The A-Seq query executor — the library's main entry point.

:class:`ASeqEngine` compiles a :class:`~repro.query.ast.Query` onto the
right runtime (DPC / SEM / vectorized SEM / HPC), applies the
ingestion-time local-predicate filter, and exposes the same
``process`` / ``result`` surface as the baseline
:class:`~repro.baseline.twostep.TwoStepEngine`, so the two are
interchangeable in examples, tests and benchmarks.

>>> from repro.query import parse_query
>>> from repro.events import Event
>>> engine = ASeqEngine(parse_query(
...     "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 100 ms"))
>>> for i, name in enumerate("ABBC"):
...     out = engine.process(Event(name, ts=i))
>>> out  # two matches: (a, b1, c), (a, b2, c)
2
"""

from __future__ import annotations

from itertools import accumulate
from time import perf_counter
from typing import Any

import numpy as np

from repro.events.event import Event
from repro.core.aggregates import PatternLayout
from repro.core.columnar import GroupPlan, decline_reason, plan_for
from repro.core.hpc import HPCEngine, flat_runtime, partition_attributes
from repro.core.partition_table import PartitionTable
from repro.core.vectorized import (
    NO_EMISSIONS,
    Emissions,
    VectorizedSemEngine,
    emitted_rows,
)
from repro.obs.funnel import FunnelRecorder, resolve_funnel
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.tracing import Stage, TraceRecorder, resolve_tracer
from repro.query.ast import Query
from repro.query.predicates import local_filter
from repro.query.validate import validate_query


def process_each(
    executor: Any, events: list[Event]
) -> list[tuple[Event, Any]]:
    """``executor.process`` over a batch: the ``(event, fresh)`` pairs of
    its TRIG arrivals, in stream order — the batch surface of anything
    that only has a per-event one."""
    process = executor.process
    return [
        (event, fresh)
        for event in events
        if (fresh := process(event)) is not None
    ]


def process_columnar_group(
    executors: list["ASeqEngine"],
    group: GroupPlan,
    batch: Any,
    routed: bool = True,
) -> list[tuple[Emissions, int, Any] | None]:
    """:meth:`ASeqEngine.process_columnar` for every member of
    ``group`` (``executors[m]`` bound through ``group.plans[m]``), with
    one routing pass and one closed-form scan; returns, member by
    member, what :meth:`ASeqEngine.run_columnar` would.

    A member with predicates still evaluates its own plan, and one its
    plan declines is left untouched (None), as alone.
    """
    rows, bounds = group.route(batch)
    outcomes: list[Any] = [None] * len(executors)
    admitted = []
    scanned: list[int] = []
    parts = []
    for member, (executor, plan) in enumerate(zip(executors, group.plans)):
        routed_idx = kept_idx = rows[bounds[member]:bounds[member + 1]]
        if not plan.routes_only:
            selection = plan.evaluate(batch)
            if selection is None:
                continue
            routed_idx, kept_idx = selection
        books = executor._admit_columns(batch, routed_idx, routed)
        if books is None:
            outcomes[member] = (NO_EMISSIONS, 0, None)
            continue
        admitted.append((member, routed_idx, kept_idx, *books))
        if kept_idx.size:
            scanned.append(member)
            parts.append(kept_idx)
    emitted: dict[int, Emissions] = {}
    kept = None
    if scanned:
        kept = np.concatenate(parts)
        sizes = [part.size for part in parts]
        codes = batch.codes[kept]
        stacked = None
        if len(scanned) > 1:
            step_codes = codes + np.repeat(
                np.array(scanned) * group.n_types, sizes
            )
            stacked = (group.slot_luts, group.trigger_lut, step_codes)
        emitted = dict(zip(scanned, VectorizedSemEngine._scan_group(
            [executors[member].runtime for member in scanned],
            [group.plans[member] for member in scanned],
            codes,
            batch.ts[kept],
            list(accumulate(sizes, initial=0)),
            stacked,
        )))
    for member, routed_idx, kept_idx, offered, horizon in admitted:
        outcomes[member] = executors[member]._settle_columns(
            batch, routed_idx, kept_idx, offered, horizon,
            emitted.get(member, NO_EMISSIONS), kept,
        )
    return outcomes


class ASeqEngine:
    """Match-free online aggregation of one CEP aggregation query.

    Parameters
    ----------
    query:
        The compiled query. Every feature of the dialect is accepted:
        negation, local predicates, one full-coverage equivalence
        chain, GROUP BY, any aggregate kind, windowed or not.
    vectorized:
        Use the columnar SEM runtime for windowed queries (a pure
        optimization; results are identical). Ignored for unwindowed
        queries, which already cost O(1) per event under DPC.
    """

    def __init__(
        self,
        query: Query,
        vectorized: bool = False,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
        funnel: FunnelRecorder | None = None,
    ):
        validate_query(query)
        self.query = query
        self.layout = PatternLayout.of(query)
        self._accepts = local_filter(query.predicates)
        self._relevant = query.relevant_types
        self._trigger_types = self.layout.trigger_types
        self._vectorized = vectorized
        registry = resolve_registry(registry)
        self.obs_registry = registry
        self._obs_on = registry.enabled
        self._m_events = registry.counter(
            "executor_events_total", "events offered to the executor"
        )
        self._m_filtered = registry.counter(
            "executor_events_filtered_total",
            "events dropped by type/local-predicate filtering",
        )
        self._m_emits = registry.counter(
            "executor_emits_total", "fresh aggregates returned on TRIG"
        )
        tracer = resolve_tracer(trace)
        self._trace = tracer
        self._trace_on = tracer.enabled
        funnel = resolve_funnel(funnel)
        self._funnel = funnel
        self._funnel_on = funnel.enabled
        self._fq = funnel.for_query(query.name or "q")
        #: Why this registration stays off the columnar kernel (a
        #: :func:`~repro.core.columnar.decline_reason` slug), or None.
        self.columnar_decline = decline_reason(
            query, vectorized, self._trace_on
        )
        self._runtime = self._compile()
        self.events_seen = 0
        self.peak_objects = 0

    def _compile(self) -> Any:
        query = self.query
        if partition_attributes(query):
            if self.columnar_decline is None:
                # Single-attribute GROUP BY on the kernel: one table.
                return PartitionTable(
                    query, registry=self.obs_registry, funnel=self._funnel
                )
            return HPCEngine(
                query,
                engine_factory=self._flat_runtime,
                registry=self.obs_registry,
                trace=self._trace,
                funnel=self._funnel,
            )
        return self._flat_runtime(query)

    def _flat_runtime(self, query: Query) -> Any:
        return flat_runtime(
            query,
            self.layout,
            vectorized=self._vectorized,
            registry=self.obs_registry,
            trace=self._trace,
            funnel=self._funnel,
        )

    # ----- ingestion -------------------------------------------------------

    def process(self, event: Event) -> Any | None:
        """Ingest one event; returns a fresh aggregate on TRIG arrivals.

        Events of irrelevant types or failing a local predicate are
        dropped here and never reach the counting state.
        """
        self.events_seen += 1
        if self._obs_on:
            self._m_events.inc()
        if self._trace_on:
            self._trace.record(
                Stage.INGEST, event.ts, event.event_type
            )
        funnel_on = self._funnel_on
        sampled = False
        if event.event_type in self._relevant:
            if funnel_on:
                fq = self._fq
                if fq.bump_routed(event.ts):
                    sampled = True
                    started = perf_counter()
                    accepted = self._accepts(event)
                    fq.latency["predicate"].observe(
                        (perf_counter() - started) * 1e6
                    )
                else:
                    accepted = self._accepts(event)
            else:
                accepted = self._accepts(event)
        else:
            accepted = False
        if not accepted:
            # The arrival still moves the clock: windows slide on every
            # event (paper Sec. 2.1), not only on relevant ones.
            self._runtime.advance_time(event.ts)
            if self._obs_on:
                self._m_filtered.inc()
            if self._trace_on:
                self._trace.record(
                    Stage.FILTER_DROP, event.ts, event.event_type
                )
            return None
        if funnel_on:
            fq = self._fq
            fq.passed.value += 1.0
            if sampled:
                started = perf_counter()
                output = self._runtime.process(event)
                fq.latency["extend"].observe(
                    (perf_counter() - started) * 1e6
                )
            else:
                output = self._runtime.process(event)
        else:
            output = self._runtime.process(event)
        current = self._runtime.current_objects()
        if current > self.peak_objects:
            self.peak_objects = current
        if output is not None:
            if funnel_on:
                self._fq.emitted.inc()
            if self._obs_on:
                self._m_emits.inc()
            if self._trace_on:
                self._trace.record(
                    Stage.EMIT, event.ts, event.event_type, f"{output!r}"
                )
        return output

    def process_batch(
        self, events: list[Event]
    ) -> list[tuple[Event, Any]]:
        """Ingest a micro-batch; returns ``(event, fresh)`` pairs for the
        TRIG arrivals, in stream order.

        Equivalent to per-event :meth:`process` on an in-order stream,
        but filtering happens before the runtime is touched, the clock
        advances once for a run of filtered events (each runtime expires
        at its *own* event timestamps when it does ingest, so window
        semantics are unchanged), and metric/trace flushes are batched.
        """
        runtime = self._runtime
        relevant = self._relevant
        accepts = self._accepts
        count = len(events)
        if not count:
            return []
        self.events_seen += count
        if self._funnel_on:
            fq = self._fq
            routed = [
                event for event in events if event.event_type in relevant
            ]
            kept = [event for event in routed if accepts(event)]
            if routed:
                fq.routed.inc(len(routed))
                # In-order stream: the slice ends are the span extremes.
                fq.note_ts(routed[0].ts)
                fq.note_ts(routed[-1].ts)
                fq.passed.inc(len(kept))
        else:
            kept = [
                event
                for event in events
                if event.event_type in relevant and accepts(event)
            ]
        if self._obs_on:
            self._m_events.inc(count)
            if len(kept) < count:
                self._m_filtered.inc(count - len(kept))
        emitted = process_each(runtime, kept)
        self._finish_batch(events[-1].ts, len(emitted))
        if emitted and self._trace_on:
            event, fresh = emitted[-1]
            self._trace.record(
                Stage.EMIT, event.ts, event.event_type,
                f"batch_outputs={len(emitted)} last={fresh!r}",
            )
        return emitted

    def _finish_batch(self, horizon: int, emits: int) -> None:
        """What both batch lanes do after the runtime saw the kept rows.

        The last offered arrival moves the clock even when it was
        filtered — windows slide on every event (paper Sec. 2.1) — then
        the memory peak is sampled and the emits are counted.
        """
        runtime = self._runtime
        runtime.advance_time(horizon)
        current = runtime.current_objects()
        if current > self.peak_objects:
            self.peak_objects = current
        if emits:
            if self._funnel_on:
                self._fq.emitted.inc(emits)
            if self._obs_on:
                self._m_emits.inc(emits)

    # ----- columnar lane ---------------------------------------------------

    def columnar_plan(self, schema: Any) -> Any | None:
        """Bind this executor to a batch schema (None = not capable,
        :attr:`columnar_decline` says why).

        The engine caches the returned plan per schema identity; a None
        return routes every batch of that schema through the
        batch→Event materializer instead.
        """
        return plan_for(self, schema)

    def process_columnar(
        self, batch: Any, plan: Any, routed: bool = True
    ) -> tuple[list[tuple[int, Any]], int] | None:
        """Ingest one :class:`~repro.events.batch.EventBatch` through
        the zero-object kernel; returns ``(emitted, offered)`` where
        ``emitted`` is ``(ts, fresh)`` pairs in stream order and
        ``offered`` is how many events this registration was offered
        (its routed bucket under ``routed=True``, the whole batch
        otherwise — mirroring :meth:`process_batch` accounting on the
        corresponding engine path). A None return means this particular
        batch cannot be evaluated columnar-exactly (``plan.last_decline``
        names the reason) and must go through the materialized
        fallback; the executor state is untouched.
        """
        outcome = self.run_columnar(batch, plan, routed)
        if outcome is None:
            return None
        emitted, offered, _ = outcome
        return list(emitted_rows(emitted)), offered

    def run_columnar(
        self, batch: Any, plan: Any, routed: bool = True
    ) -> tuple[Emissions, int, Any] | None:
        """:meth:`process_columnar` as ``(emitted, offered, kept_idx)``
        with the outputs still as
        :data:`~repro.core.vectorized.Emissions` columns: the ``k``-th
        arose on batch row ``kept_idx[positions[k]]``, for a caller
        that may have to name the arrival behind an output.

        The call commits the whole batch or nothing: a raise — from the
        kernel, or its int64 check — leaves the executor exactly as it
        was, so the caller may offer the same rows again one by one.
        """
        selection = plan.evaluate(batch)
        if selection is None:
            return None
        routed_idx, kept_idx = selection
        admitted = self._admit_columns(batch, routed_idx, routed)
        if admitted is None:
            return NO_EMISSIONS, 0, None
        return self._settle_columns(
            batch, routed_idx, kept_idx, *admitted,
            self._runtime.process_batch_columns(batch, kept_idx, plan)
            if kept_idx.size
            else NO_EMISSIONS,
            kept_idx,
        )

    def _admit_columns(
        self, batch: Any, routed_idx: Any, routed: bool
    ) -> tuple[int, int] | None:
        """How many events one batch offers this registration, and the
        timestamp its clock moves to; None when routing skips it (no
        routed row). Nothing is written."""
        if routed:
            if not routed_idx.size:
                # Parity with routed process_batch: a registration with
                # an empty bucket is skipped entirely.
                return None
            return int(routed_idx.size), int(batch.ts[routed_idx[-1]])
        return len(batch), int(batch.ts[-1])

    def _settle_columns(
        self,
        batch: Any,
        routed_idx: Any,
        kept_idx: Any,
        offered: int,
        horizon: int,
        emissions: Emissions,
        scan: Any,
    ) -> tuple[Emissions, int, Any]:
        """Book one batch once the runtime has committed its kept rows
        with ``emissions``, whose positions index ``scan`` (the kept
        rows of every registration the kernel call took); returns what
        :meth:`run_columnar` does."""
        routed_count = int(routed_idx.size)
        kept_count = int(kept_idx.size)
        self.events_seen += offered
        if self._funnel_on and routed_count:
            fq = self._fq
            fq.routed.inc(routed_count)
            # In-order batch: the slice ends are the span extremes.
            fq.note_ts(int(batch.ts[routed_idx[0]]))
            fq.note_ts(int(batch.ts[routed_idx[-1]]))
            fq.passed.inc(kept_count)
        if self._obs_on:
            self._m_events.inc(offered)
            if kept_count < offered:
                self._m_filtered.inc(offered - kept_count)
        self._finish_batch(horizon, len(emissions[0]))
        return emissions, offered, scan

    def result(self) -> Any:
        """Current aggregate (scalar, or per-key dict for GROUP BY)."""
        return self._runtime.result()

    def advance_time(self, now: int) -> None:
        """Move the clock without an event (idle/routed-skip expiry)."""
        self._runtime.advance_time(now)

    def count_and_wsum(self) -> tuple[int, float]:
        """COUNT and weighted-sum totals (AVG merge across shards)."""
        return self._runtime.count_and_wsum()

    def group_count_and_wsum(self) -> dict[Any, tuple[int, float]]:
        """Per-group COUNT/weighted-sum totals (GROUP BY AVG merge)."""
        return self._runtime.group_count_and_wsum()

    # ----- introspection ------------------------------------------------------

    @property
    def runtime(self) -> Any:
        """The underlying DPC/SEM/HPC runtime (tests, diagnostics)."""
        return self._runtime

    def current_objects(self) -> int:
        """Active PreCntr structures — the paper's memory metric."""
        return self._runtime.current_objects()

    @property
    def events_processed(self) -> int:
        """Events that survived filtering and reached the runtime."""
        return getattr(self._runtime, "events_processed", 0)

    @property
    def counter_updates(self) -> int:
        """Prefix-counter slot updates performed by the runtime."""
        return getattr(self._runtime, "counter_updates", 0)

    def funnel_counts(self) -> dict[str, int]:
        """This query's funnel stage totals (all zero when the funnel
        is off)."""
        return self._fq.counts()

    @property
    def funnel_handle(self) -> Any:
        """Live :class:`~repro.obs.funnel.QueryFunnel` handle (the
        shared null handle when the funnel is off)."""
        return self._fq

    @property
    def funnel(self) -> FunnelRecorder:
        """The funnel recorder (null recorder when instrumentation is
        off) — same public name as the multi-query engines."""
        return self._funnel

    def explain(self) -> dict[str, Any]:
        """Structured query plan (see :mod:`repro.obs.explain`)."""
        from repro.obs.explain import explain_engine
        return explain_engine(self)

    def inspect(self) -> Any:
        """JSON-serializable state summary: query, compiled runtime,
        cost totals, and the runtime's own structured dump (the admin
        ``/queries/<id>/state`` endpoint's payload).
        """
        runtime = self._runtime
        runtime_inspect = getattr(runtime, "inspect", None)
        return {
            "kind": "aseq",
            "query": str(self.query),
            "query_name": self.query.name,
            "runtime_kind": type(runtime).__name__,
            "vectorized": self._vectorized,
            "events_seen": self.events_seen,
            "events_processed": self.events_processed,
            "counter_updates": self.counter_updates,
            "current_objects": self.current_objects(),
            "peak_objects": self.peak_objects,
            "runtime": (
                runtime_inspect() if runtime_inspect is not None else None
            ),
        }
