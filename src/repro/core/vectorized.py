"""Columnar (structure-of-arrays) SEM runtime.

Semantically identical to :class:`~repro.core.sem.SemEngine`, but the
per-START prefix counters are stored column-wise in numpy arrays, so
the per-arrival "update one slot in every active counter" step of SEM
becomes a single vectorized addition over the live range. Counters
expire in creation order, so the live set is a ring slice ``[head,
tail)`` over the columns — expiry advances ``head``, a new START
appends at ``tail``.

The 2014 system was written in Java where the object-per-counter design
is fast enough; in Python the interpreter loop over counters dominates,
so this engine exists to keep the *measured* A-Seq curves shaped by the
algorithm rather than by interpreter overhead. The differential test
suite pins it to the reference engine.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import accumulate
from typing import Any, Iterator

import numpy as np

from repro.errors import CounterOverflowError, QueryError
from repro.events.event import Event
from repro.core.aggregates import PatternLayout
from repro.obs.funnel import FunnelRecorder, resolve_funnel
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.tracing import Stage, TraceRecorder, resolve_tracer
from repro.query.ast import AggKind, Query

#: Ring columns allocated at a runtime's first START. Kept small
#: because each partition of an ``HPCEngine`` owns a ring and typically
#: holds 0-2 live STARTs; a flat query outgrows it through the doubling
#: in ``_make_room`` and the ``process_columns`` write-back within its
#: first window.
_INITIAL_CAPACITY = 8

#: Kleene updates double counts; guard well below int64's 2^63 - 1.
_KLEENE_GUARD = 2**61

#: Kept rows per ``process_columns`` call from which the closed-form
#: COUNT kernel beats the row loop. Measured, not derived: the closed
#: form costs a fixed few dozen numpy calls per slice whatever its
#: size, the row loop ~25 ns per row per live counter (see
#: docs/PERFORMANCE.md, "Inside the kernel", for the sweep).
_CLOSED_FORM_MIN_ROWS = 48

#: True counter values and emitted totals must stay below this for the
#: closed form's wrapping int64 arithmetic to be exact.
_INT64_LIMIT = 2**63

#: Counts below this take one more per-event arrival without passing
#: int64, even on a Kleene slot (2a + b).
_HEADROOM = _INT64_LIMIT // 3

_PREFIX_OVERFLOW = (
    "prefix count exceeds int64 in the columnar runtime; use the "
    "reference engine (vectorized=False) for this workload"
)


def _bound_fits(
    ceilings: list[int], rows_per_slot: list[int], size0: int
) -> bool:
    """Whether one slice's true counts and totals provably fit int64.

    A counter's slot ``k`` ends at most at its carried-in value
    (``ceilings[k]``, the largest carried in) plus (rows updating ``k``
    while it lives) × (the most slot ``k - 1`` ever holds), and a total
    sums at most one such value per live counter.
    """
    bound = max(ceilings[0], 1)
    for ceiling, rows in zip(ceilings[1:], rows_per_slot[1:]):
        bound = ceiling + rows * bound
        if bound >= _INT64_LIMIT:
            return False
    # Slot 0's rows are the STARTs: no more counters are ever live
    # together than were carried in or born.
    return (size0 + rows_per_slot[0]) * bound < _INT64_LIMIT


def _int64_safe(
    window_ms: int, steps: np.ndarray, ts: np.ndarray, carried: np.ndarray
) -> bool:
    """Prove, in Python ints, that every counter value and emitted total
    of one kernel call stays below 2⁶³ (see :func:`_bound_fits`):
    ``steps`` marks the slots each row updates, ``ts`` (ascending) its
    times, ``carried`` the counts live before the call.

    "While it lives" is first taken as the whole call; only when that
    fails are the rows counted per window.
    """
    if int(ts[-1]) + window_ms >= _INT64_LIMIT:
        return False
    size0 = carried.shape[1]
    ceilings = (
        carried.max(axis=1).tolist() if size0 else [0] * len(carried)
    )
    if _bound_fits(ceilings, steps.sum(axis=1).tolist(), size0):
        return True
    # Rows of each slot inside the window ending at each row: all a
    # counter still live at that row can have seen.
    first = ts.searchsorted(ts - window_ms, side="right")
    seen = np.zeros((len(steps), len(ts) + 1), dtype=np.int64)
    steps.cumsum(axis=1, out=seen[:, 1:])
    return _bound_fits(
        ceilings, (seen[:, 1:] - seen[:, first]).max(axis=1).tolist(),
        size0,
    )


#: A kernel's emissions, in stream order, as columns ``(positions, ts,
#: values, labels)``: per TRIG arrival with a fresh aggregate, its index
#: into the slice (or the caller's row tag), its timestamp and its
#: aggregate, and for a GROUP BY the arriving row's key (``labels`` is
#: None for a flat kernel). Each column is an array or a list; the
#: ``(ts, fresh)`` objects are built from them only where something
#: reads them (:func:`emitted_rows`).
Emissions = tuple[Any, Any, Any, Any]

#: The emissions of a call with no TRIG arrival.
NO_EMISSIONS: Emissions = ((), (), (), None)


def _listed(column: Any) -> Any:
    return column.tolist() if isinstance(column, np.ndarray) else column


def emitted_rows(emitted: Emissions) -> Iterator[tuple[int, Any]]:
    """The ``(ts, fresh)`` pair of each emission, as per-event
    ``process`` returns it there: the aggregate, or ``{key: aggregate}``
    for a GROUP BY."""
    _, stamps, values, labels = emitted
    stamps, values = _listed(stamps), _listed(values)
    if labels is None:
        return zip(stamps, values)
    return (
        (ts, {label: value})
        for ts, label, value in zip(stamps, _listed(labels), values)
    )


@cache
def _no_ring(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-width ring columns ``(counts, exps, floats)``, shared by
    every runtime of a pattern length until it grows a ring of its own
    (nothing can be written into them)."""
    return (
        np.zeros((length, 0), dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros((length, 0), dtype=np.float64),
    )


def _moved(emitted: Emissions | None, rows: np.ndarray) -> Any:
    """``emitted``, whose positions index ``rows``, re-pointed at the
    rows ``rows`` index."""
    if emitted is None:
        return None
    positions, *columns = emitted
    return (rows[positions], *columns)


class VectorizedSemEngine:
    """Windowed A-Seq with columnar per-START counters."""

    def __init__(
        self,
        query: Query,
        layout: PatternLayout | None = None,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
        funnel: FunnelRecorder | None = None,
    ):
        if query.window is None:
            raise QueryError(
                "VectorizedSemEngine needs a WITHIN clause; use DPCEngine "
                "for unwindowed queries"
            )
        self.query = query
        self.layout = layout or PatternLayout.of(query)
        self._window_ms = query.window.size_ms
        # No ring until something is written into it: a runtime that
        # never holds a START needs no ring.
        self._head = 0
        self._tail = 0
        counts, exps, floats = _no_ring(self.layout.length)
        self._counts = counts
        self._exps = exps
        self._wsums = floats if self.layout.tracks_values else None
        if self.layout.tracks_extrema:
            self._extreme_identity = (
                -np.inf if self.layout.prefers_max else np.inf
            )
            self._extrema = floats
        else:
            self._extrema = None
        #: An upper bound on every live count in the ring, kept by
        #: per-event :meth:`process`; a kernel slice, which rewrites the
        #: counts wholesale, leaves it unknown (the limit), and a
        #: restore sets the restored maximum.
        self._count_bound = 1
        self._now = 0
        self.events_processed = 0
        self.peak_counters = 0
        #: Per-counter slot updates, matching SemEngine's accounting
        #: (each arrival touches every live counter once, even though
        #: the touch is a single vectorized addition here).
        self.counter_updates = 0
        #: ``process_columns`` slices per kernel (``closed_form``,
        #: ``row_loop``); why a slice the plan allowed on the closed form
        #: ran the row loop anyway (``small_slice``, ``bound``,
        #: ``unordered``); and how many registrations shared this
        #: runtime's last closed-form scan (``scan_width``: 1 = alone,
        #: 0 = no scan yet). One dict: a partition is one object of
        #: many, and a runtime with more attributes than Python shares
        #: keys for pays a whole dict of its own.
        self._kernel_stats = dict.fromkeys(
            ("closed_form", "row_loop", "small_slice", "bound",
             "unordered", "scan_width"),
            0,
        )
        registry = resolve_registry(registry)
        self.obs_registry = registry
        self._obs_on = registry.enabled
        self._m_created = registry.counter(
            "sem_counters_created_total", "PrefixCounters opened for STARTs"
        )
        self._m_expired = registry.counter(
            "sem_counters_expired_total",
            "PrefixCounters purged after their window closed",
        )
        self._m_resets = registry.counter(
            "sem_recount_resets_total",
            "prefix slots wiped by the Recounting Rule (negation)",
        )
        self._m_active = registry.gauge(
            "sem_active_counters", "live PrefixCounters (paper memory metric)"
        )
        trace = resolve_tracer(trace)
        self._trace = trace
        self._trace_on = trace.enabled
        funnel = resolve_funnel(funnel)
        self._funnel_on = funnel.enabled
        self._fq = funnel.for_query(query.name or "q")

    # ----- ingestion ----------------------------------------------------------

    def process(self, event: Event) -> Any | None:
        """Ingest one (pre-filtered) event; returns the aggregate on TRIG."""
        layout = self.layout
        self._now = max(self._now, event.ts)
        self._expire(event.ts)
        self.events_processed += 1
        event_type = event.event_type

        reset = layout.reset_slot.get(event_type)
        if reset is not None:
            head, tail = self._head, self._tail
            self._counts[reset, head:tail] = 0
            if self._wsums is not None:
                self._wsums[reset, head:tail] = 0.0
            if self._extrema is not None:
                self._extrema[reset, head:tail] = self._extreme_identity
            if self._obs_on:
                self._m_resets.inc(tail - head)
            if self._funnel_on:
                self._fq.blocked.inc(tail - head)
            if self._trace_on:
                self._trace.record(
                    Stage.RECOUNT_RESET, event.ts, event_type,
                    f"reset slot {reset} in {tail - head} counters",
                )
            return None

        slots = layout.update_slots.get(event_type)
        if not slots:
            return None
        needs_value = layout.value_slot >= 0 and layout.value_slot in slots
        value = layout.value_of(event) if needs_value else None

        head, tail = self._head, self._tail
        if tail > head:
            # One arrival at most triples the largest count (a Kleene
            # slot doubles and adds); a START it opens holds a 1.
            bound = self._count_bound
            if bound >= _HEADROOM:
                bound = self._check_headroom(slots, head, tail)
            self._count_bound = 3 * bound + 1
        self.counter_updates += tail - head
        if self._funnel_on:
            self._fq.extended.inc(tail - head)
        if self._trace_on and tail > head:
            self._trace.record(
                Stage.COUNTER_UPDATE, event.ts, event_type,
                f"slots={sorted(slots)} counters={tail - head}",
            )
        for slot in slots:  # descending
            if slot == 0:
                continue
            if slot in layout.kleene_slots:
                counts = self._counts
                # Kleene counts double per arrival and can exceed int64
                # within ~62 instances per window; fail loudly instead
                # of wrapping (the reference SemEngine uses Python's
                # arbitrary-precision integers and has no such limit).
                if tail > head and counts[slot, head:tail].max() > _KLEENE_GUARD:
                    raise CounterOverflowError(
                        "Kleene count exceeds int64 in the columnar "
                        "runtime; use the reference engine "
                        "(vectorized=False) for this workload"
                    )
                counts[slot, head:tail] *= 2
                counts[slot, head:tail] += counts[slot - 1, head:tail]
            else:
                self._update_slot(slot, head, tail, value)
        if event_type in layout.start_types:
            self._append_start(event)

        if event_type in layout.trigger_types:
            return self.result()
        return None

    def _check_headroom(
        self, slots: tuple[int, ...], head: int, tail: int
    ) -> int:
        """The largest live count, once :attr:`_count_bound` no longer
        clears an arrival; raises
        :class:`~repro.errors.CounterOverflowError` before an arrival
        whose slot sums would pass int64 (numpy would wrap them). The
        sums are checked slot by slot only when the maximum itself
        leaves no headroom.
        """
        counts = self._counts
        bound = int(counts[:, head:tail].max())
        if bound >= _HEADROOM:
            kleene = self.layout.kleene_slots
            for slot in slots:
                if slot == 0:
                    continue
                room = _INT64_LIMIT - 1 - counts[slot - 1, head:tail]
                if slot in kleene:
                    room //= 2
                if (counts[slot, head:tail] > room).any():
                    raise CounterOverflowError(_PREFIX_OVERFLOW)
        return bound

    def process_batch_columns(
        self, batch: Any, kept_idx: np.ndarray, plan: Any
    ) -> Emissions:
        """The kernel over the kept rows of one batch — the entry point
        a flat registration shares with
        :meth:`repro.core.partition_table.PartitionTable.process_batch_columns`.

        Returns its :data:`Emissions`, positions indexing ``kept_idx``.
        The whole batch is committed, or nothing of it.
        """
        return self._kernel(
            batch.codes[kept_idx],
            batch.ts[kept_idx],
            plan,
            plan.values_for(batch, kept_idx),
        )

    def process_columns(
        self,
        codes: np.ndarray | list[int],
        ts: np.ndarray | list[int],
        plan: Any,
        values: list[Any] | None = None,
    ) -> list[tuple[int, Any]]:
        """Ingest a pre-filtered columnar slice; returns ``(ts, fresh)``
        pairs for the TRIG arrivals.

        ``codes``/``ts`` (arrays or plain lists) and ``values`` (a list,
        when the aggregate reads an attribute) hold the rows that
        survived routing and predicate masks; ``plan`` is the
        registration's :class:`~repro.core.columnar.ColumnarPlan`
        (slot/START/TRIG lookup by type code). Semantically identical
        to per-event :meth:`process` over the same slice — the
        differential suites pin it — through either of two kernels that
        can alternate slice by slice:

        * the **closed form** (:meth:`_closed_form`) for flat COUNT
          plans (``plan.closed_form_decline is None``): no per-row
          Python at all. It runs when the slice is large enough to pay
          for its fixed cost, in order, and provably inside int64;
          :meth:`process_group` runs it over several registrations'
          slices at once;
        * the **row loop** (:meth:`_row_loop`) for everything else. It
          reads the live ring into Python lists once per call, runs its
          hot loop on Python ints and lists, and writes the ring back
          once at the end: per-event numpy slice arithmetic costs ~1µs
          per touch, while list operations over the small live set
          (tens of counters) stay in the low hundreds of ns.
          Expiry remains a binary search (``bisect`` ==
          ``searchsorted`` on the same sorted expiry column). Negated
          types arrive here too: their plan entry is the complemented
          reset slot, and the Recounting Rule wipes that slot of every
          live counter.

        Kleene layouts never reach either kernel (plans gate them).
        """
        if not len(codes):
            return []
        return list(emitted_rows(self._kernel(codes, ts, plan, values)))

    def _kernel(
        self,
        codes: np.ndarray | list[int],
        ts: np.ndarray | list[int],
        plan: Any,
        values: list[Any] | None,
    ) -> Emissions:
        """One slice through the closed form when it may and will take
        it, else the row loop; positions index the slice."""
        n = len(codes)
        if plan.closed_form_decline is None:
            # process_group([self], ...) inlined: one registration is
            # most of the ingest calls, and the wrapper is a few µs each.
            if n < _CLOSED_FORM_MIN_ROWS:
                self._kernel_stats["small_slice"] += 1
            else:
                emitted = self._closed_form(
                    [self], np.asarray(codes), np.asarray(ts, dtype=np.int64),
                    [0, n], plan.slot_luts, plan.trigger_lut,
                )[0]
                if emitted is not None:
                    return emitted
        return VectorizedSemEngine._row_loop(
            [self], [plan], codes, ts, [0, n], values
        )[0]

    @staticmethod
    def process_group(
        runtimes: list["VectorizedSemEngine"],
        plans: list[Any],
        codes: np.ndarray,
        ts: np.ndarray,
        bounds: list[int],
        stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> list[list[tuple[int, Any]]]:
        """:meth:`process_columns` for flat COUNT registrations of one
        pattern length at once; returns each one's ``(ts, fresh)``
        pairs.

        Registration ``m``'s kept rows are ``codes``/``ts`` over
        ``[bounds[m], bounds[m + 1])`` (never empty), read through
        ``plans[m]``. With more than one registration, ``stacked`` is
        ``(slot_luts, trigger_lut, step_codes)``: the plans' lookups
        side by side (:class:`~repro.core.columnar.GroupPlan`) and each
        row's code into them. The closed form takes the group when its
        rows *together* reach the cut-over, in one scan; the
        registrations it refuses (out of order, or past the bound) run
        the row loop, in one call, as does every one of a group under
        the cut-over.
        """
        return [
            list(emitted_rows(emitted))
            for emitted in VectorizedSemEngine._scan_group(
                runtimes, plans, codes, ts, bounds, stacked
            )
        ]

    @staticmethod
    def _scan_group(
        runtimes: list["VectorizedSemEngine"],
        plans: list[Any],
        codes: np.ndarray,
        ts: np.ndarray,
        bounds: list[int],
        stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> list[Emissions]:
        """:meth:`process_group` with each member's emissions as
        :data:`Emissions`, positions indexing ``codes``/``ts``."""
        emitted: list[Any]
        if bounds[-1] < _CLOSED_FORM_MIN_ROWS:
            emitted = [None] * len(runtimes)
            for runtime in runtimes:
                runtime._kernel_stats["small_slice"] += 1
        else:
            if stacked is None:
                slot_luts, trigger_lut = plans[0].slot_luts, plans[0].trigger_lut
                step_codes = codes
            else:
                slot_luts, trigger_lut, step_codes = stacked
            emitted = VectorizedSemEngine._closed_form(
                runtimes, step_codes, ts, bounds, slot_luts, trigger_lut
            )
        looped = [m for m, out in enumerate(emitted) if out is None]
        if looped:
            rows = None
            if len(looped) < len(runtimes):
                taken = np.concatenate(
                    [np.arange(bounds[m], bounds[m + 1]) for m in looped]
                )
                codes, ts = codes[taken], ts[taken]
                rows = taken.tolist()
                spans = [bounds[m + 1] - bounds[m] for m in looped]
                bounds = list(accumulate(spans, initial=0))
            for member, out in zip(looped, VectorizedSemEngine._row_loop(
                [runtimes[m] for m in looped], [plans[m] for m in looped],
                codes, ts, bounds, rows=rows,
            )):
                emitted[member] = out
        return emitted

    @staticmethod
    def _row_loop(
        runtimes: list["VectorizedSemEngine"],
        plans: list[Any],
        codes: np.ndarray | list[int],
        ts: np.ndarray | list[int],
        bounds: list[int],
        values: list[Any] | None = None,
        rows: list[int] | None = None,
    ) -> list[Emissions]:
        """The kernel body that runs every plan, one row at a time (see
        :meth:`process_columns`), for any number of runtimes at once.

        Runtime ``m`` takes rows ``[bounds[m], bounds[m + 1])`` of
        ``codes``/``ts``/``values`` through ``plans[m]``: one flat
        registration, or a closed-form group's refused members. Returns
        each one's :data:`Emissions`, the emitting rows as ``rows[i]``
        when ``rows`` is given, else as ``i``.

        Each member's live ring is read into private lists at the start
        (:meth:`_lists`) and written back (:meth:`_store`) only once
        every member has run and passed the int64 check, so a raise
        anywhere leaves every member as it was.
        """
        if isinstance(codes, np.ndarray):
            codes = codes.tolist()
            ts = ts.tolist()
        staged = []
        emitted: list[Emissions] = []
        layout = plan = None
        for member, runtime in enumerate(runtimes):
            if runtime.layout is not layout:
                layout = runtime.layout
                prefers_max = layout.prefers_max
                value_slot = layout.value_slot
                kind = layout.agg_kind
                is_count = kind is AggKind.COUNT
                is_sum = kind is AggKind.SUM
                is_avg = kind is AggKind.AVG
                length = layout.length
                last = length - 1
                identity = (
                    runtime._extreme_identity if layout.tracks_extrema
                    else 0.0
                )
            if plans[member] is not plan:
                plan = plans[member]
                slots_of = plan.slots_of_code
                start_of = plan.is_start
                trigger_of = plan.is_trigger
            first, end = bounds[member], bounds[member + 1]
            window = runtime._window_ms
            lists = runtime._lists()
            counts, exps, wsums, extrema = lists
            lo = 0
            size = len(exps)
            now = runtime._now
            peak = runtime.peak_counters
            updates = 0
            expired = 0
            created = 0
            blocked = 0
            positions: list[int] = []
            stamps: list[int] = []
            aggregates: list[Any] = []
            for i in range(first, end):
                t = ts[i]
                if t > now:
                    now = t
                if lo < size and exps[lo] <= t:
                    new_lo = bisect_right(exps, t, lo, size)
                    expired += new_lo - lo
                    lo = new_lo
                code = codes[i]
                live = size - lo
                if live:
                    # One accounting tick per arrival per live counter,
                    # matching SemEngine / per-event bookkeeping.
                    updates += live
                    for slot in slots_of[code]:  # descending
                        if slot <= 0:
                            if slot:
                                # Recounting Rule: a negated arrival
                                # wipes slot ``~slot`` of every live
                                # counter. It is no counter update
                                # (taken back below).
                                blocked += live
                                reset = ~slot
                                counts[reset][lo:] = [0] * live
                                if wsums is not None:
                                    wsums[reset][lo:] = [0.0] * live
                                if extrema is not None:
                                    extrema[reset][lo:] = [identity] * live
                            continue
                        previous = counts[slot - 1]
                        if wsums is not None:
                            if slot == value_slot:
                                v = values[i]
                                row = wsums[slot]
                                row[lo:] = [
                                    w + p * v
                                    for w, p in zip(row[lo:], previous[lo:])
                                ]
                            elif slot > value_slot:
                                row = wsums[slot]
                                prior = wsums[slot - 1]
                                row[lo:] = [
                                    a + b
                                    for a, b in zip(row[lo:], prior[lo:])
                                ]
                        if extrema is not None:
                            if slot == value_slot:
                                v = values[i]
                                row = extrema[slot]
                                if prefers_max:
                                    row[lo:] = [
                                        v if p > 0 and v > e else e
                                        for e, p in zip(
                                            row[lo:], previous[lo:]
                                        )
                                    ]
                                else:
                                    row[lo:] = [
                                        v if p > 0 and v < e else e
                                        for e, p in zip(
                                            row[lo:], previous[lo:]
                                        )
                                    ]
                            elif slot > value_slot:
                                row = extrema[slot]
                                prior = extrema[slot - 1]
                                if prefers_max:
                                    row[lo:] = [
                                        a if a > b else b
                                        for a, b in zip(row[lo:], prior[lo:])
                                    ]
                                else:
                                    row[lo:] = [
                                        a if a < b else b
                                        for a, b in zip(row[lo:], prior[lo:])
                                    ]
                        row = counts[slot]
                        row[lo:] = [
                            a + b for a, b in zip(row[lo:], previous[lo:])
                        ]
                if start_of[code]:
                    counts[0].append(1)
                    for slot in range(1, length):
                        counts[slot].append(0)
                    exps.append(t + window)
                    if wsums is not None:
                        wsums[0].append(
                            values[i] if value_slot == 0 else 0.0
                        )
                        for slot in range(1, length):
                            wsums[slot].append(0.0)
                    if extrema is not None:
                        extrema[0].append(
                            values[i] if value_slot == 0 else identity
                        )
                        for slot in range(1, length):
                            extrema[slot].append(identity)
                    size += 1
                    created += 1
                    if size - lo > peak:
                        peak = size - lo
                if trigger_of[code]:
                    if is_count:
                        fresh: Any = sum(counts[last][lo:])
                    elif is_sum:
                        fresh = float(sum(wsums[last][lo:]))
                    elif is_avg:
                        total = sum(counts[last][lo:])
                        fresh = (
                            float(sum(wsums[last][lo:])) / total
                            if total
                            else None
                        )
                    else:
                        column = extrema[last][lo:]
                        if not column:
                            fresh = None
                        else:
                            best = (
                                max(column) if prefers_max else min(column)
                            )
                            fresh = (
                                None if best == identity else float(best)
                            )
                    if fresh is not None:
                        positions.append(i if rows is None else rows[i])
                        stamps.append(t)
                        aggregates.append(fresh)
            # The ring is int64 and Python ints are not: a counter that
            # outgrew it fails here, before anything is committed.
            if size:
                for row in counts:
                    if max(row) >= _INT64_LIMIT:
                        raise CounterOverflowError(_PREFIX_OVERFLOW)
            staged.append((
                runtime, lists, end - first, now, lo, size,
                updates - blocked, peak, created, expired, blocked,
            ))
            emitted.append((positions, stamps, aggregates, None))
        for (
            runtime, lists, n, now, lo, size,
            updates, peak, created, expired, blocked,
        ) in staged:
            runtime._store(lists, lo, size)
            runtime._kernel_stats["row_loop"] += 1
            runtime._settle(
                n, now, size - lo, updates, peak, created, expired, blocked
            )
        return emitted

    def _lists(self) -> tuple[Any, list[int], Any, Any]:
        """The live ring columns copied into fresh lists ``(counts,
        exps, wsums, extrema)`` (None for a column the layout does not
        keep)."""
        head, tail = self._head, self._tail
        return (
            self._counts[:, head:tail].tolist(),
            self._exps[head:tail].tolist(),
            None if self._wsums is None
            else self._wsums[:, head:tail].tolist(),
            None if self._extrema is None
            else self._extrema[:, head:tail].tolist(),
        )

    def _store(
        self, lists: tuple[Any, list[int], Any, Any], lo: int, size: int
    ) -> None:
        """Write the row loop's list columns ``[lo, size)`` into the
        ring as columns ``[0, size - lo)``."""
        counts, exps, wsums, extrema = lists
        live = size - lo
        if live > self._capacity:
            self._grow_to(live)
        if live:
            self._counts[:, :live] = [row[lo:] for row in counts]
            self._exps[:live] = exps[lo:]
            if wsums is not None:
                self._wsums[:, :live] = [row[lo:] for row in wsums]
            if extrema is not None:
                self._extrema[:, :live] = [row[lo:] for row in extrema]

    def _grow_to(self, live: int) -> None:
        """Reallocate the ring (contents dropped) to hold ``live``
        columns; both kernels and a restore rewrite it whole from
        column 0."""
        capacity = max(self._capacity, _INITIAL_CAPACITY)
        while capacity < live:
            capacity *= 2
        length = self.layout.length
        self._counts = np.zeros((length, capacity), dtype=np.int64)
        self._exps = np.zeros(capacity, dtype=np.int64)
        if self._wsums is not None:
            self._wsums = np.zeros(
                (length, capacity), dtype=np.float64
            )
        if self._extrema is not None:
            self._extrema = np.full(
                (length, capacity),
                self._extreme_identity,
                dtype=np.float64,
            )

    def _settle(
        self,
        n: int,
        now: int,
        live: int,
        updates: int,
        peak: int,
        created: int,
        expired: int,
        blocked: int = 0,
    ) -> None:
        """One slice's bookkeeping, after its kernel wrote the ``live``
        counters it left into ring columns ``[0, live)``."""
        self._count_bound = _INT64_LIMIT
        self._head = 0
        self._tail = live
        self._now = now
        self.events_processed += n
        self.counter_updates += updates
        self.peak_counters = peak
        if self._obs_on:
            if created:
                self._m_created.inc(created)
            if expired:
                self._m_expired.inc(expired)
            if blocked:
                self._m_resets.inc(blocked)
            self._m_active.set(live)
        if self._funnel_on:
            if updates:
                self._fq.extended.inc(updates)
            if blocked:
                self._fq.blocked.inc(blocked)
            if expired:
                self._fq.expired.inc(expired)

    @staticmethod
    def _closed_form(
        runtimes: list["VectorizedSemEngine"],
        codes: np.ndarray,
        ts: np.ndarray,
        bounds: list[int],
        slot_luts: np.ndarray,
        trigger_lut: np.ndarray,
    ) -> list[Emissions | None]:
        """The flat COUNT kernel as prefix products over a group of
        slices (derivation: docs/ALGORITHMS.md, "Closed-form COUNT
        kernel" and "Many registrations, one scan").

        Row ``j`` applies ``M_j = I + Σ E[k, k-1]`` (over the slots
        ``k ≥ 1`` it updates) to every live counter. With ``P_j = M_j ⋯
        M_1`` and ``R_j = P_j⁻¹``, a carried-in counter ``c`` is ``P_j
        c`` at row ``j`` and a START born at row ``s`` is ``P_j R_s
        e0``; STARTs expire in birth order, so the live set at a row is
        an index range of each, and a TRIG's total is the last row of
        ``P_j`` against range sums of ``R_s e0`` and of ``c``. Every
        entry of ``P`` and ``R`` is one ``cumsum`` over the slice. All
        arithmetic is int64, which wraps — i.e. is exact in Z/2⁶⁴ — so
        results are right whenever the *true* values fit, which the
        bound below proves before anything is computed.

        Runtime ``m``'s slice is rows ``[bounds[m], bounds[m + 1])``,
        and ``codes`` index the lookups, so each row applies its own
        registration's ``M_j``: the slices laid end to end are one
        product. A member's carried state enters the scan's frame as
        ``R_{f-1} c`` (``f`` its first row) and leaves it through ``P``
        at its last row; its live ranges are ``searchsorted`` on
        ``member · span + ts`` keys, which no other member's rows can
        fall between. One runtime is the plain slice: no keys, no frame.

        Returns one entry per runtime: its :data:`Emissions`, positions
        indexing ``codes``/``ts``, or None, with nothing of it written,
        when its slice must take the row loop instead (out of order, or
        the bound fails).
        """
        count = len(runtimes)
        single = count == 1
        firsts, ends = bounds[:-1], bounds[1:]
        windows = [runtime._window_ms for runtime in runtimes]
        if single:
            runtime = runtimes[0]
            if int(ts[0]) < runtime._now or bool((ts[1:] < ts[:-1]).any()):
                runtime._kernel_stats["unordered"] += 1
                return [None]
        else:
            base = int(ts.min()) - max(windows) - 1
            span = int(ts.max()) - base + 2
            if count * span >= _INT64_LIMIT // 2:
                # Composite keys would wrap: scan the slices one by one.
                return [
                    _moved(VectorizedSemEngine._closed_form(
                        [runtime], codes[first:end], ts[first:end],
                        [0, end - first], slot_luts, trigger_lut,
                    )[0], np.arange(first, end))
                    for runtime, first, end in zip(runtimes, firsts, ends)
                ]
            # A step back in time is the seam between two slices, or an
            # out-of-order slice.
            back = np.flatnonzero(ts[1:] < ts[:-1]) + 1
            refused = {
                bisect_right(bounds, row) - 1
                for row in set(back.tolist()).difference(firsts)
            }
            heads = ts[firsts].tolist()
            refused.update(
                member
                for member, runtime in enumerate(runtimes)
                if heads[member] < runtime._now
            )
            for member in refused:
                runtimes[member]._kernel_stats["unordered"] += 1

        steps = slot_luts.take(codes, axis=1)
        length = len(steps)
        if single:
            carried = runtime._counts[:, runtime._head:runtime._tail]
            carried_exps = runtime._exps[runtime._head:runtime._tail]
            sizes0 = [carried.shape[1]]
            if not runtime._fits_int64(steps, ts, carried):
                runtime._kernel_stats["bound"] += 1
                return [None]
        else:
            parts = [
                runtime._counts[:, runtime._head:runtime._tail]
                for runtime in runtimes
            ]
            sizes0 = [part.shape[1] for part in parts]
            carried = np.concatenate(parts, axis=1)
            carried_exps = np.concatenate(
                [runtime._exps[runtime._head:runtime._tail]
                 for runtime in runtimes]
            )
            ceilings = [[0] * length] * count
            held = [member for member, size in enumerate(sizes0) if size]
            if held:
                starts0 = list(accumulate(sizes0[:-1], initial=0))
                tops = np.maximum.reduceat(
                    carried, [starts0[member] for member in held], axis=1
                )
                for member, top in zip(held, tops.T.tolist()):
                    ceilings[member] = top
            rows_per_slot = np.add.reduceat(steps, firsts, axis=1).T.tolist()
            lasts = ts[[end - 1 for end in ends]].tolist()
            for member, runtime in enumerate(runtimes):
                first, end = firsts[member], ends[member]
                if member in refused or (
                    lasts[member] + windows[member] < _INT64_LIMIT
                    and _bound_fits(
                        ceilings[member], rows_per_slot[member],
                        sizes0[member],
                    )
                ) or runtime._fits_int64(
                    steps[:, first:end], ts[first:end], parts[member]
                ):
                    continue
                runtime._kernel_stats["bound"] += 1
                refused.add(member)
            if refused:
                # Nothing is written yet: scan the rest without them.
                emitted: list[Any] = [None] * count
                kept = [m for m in range(count) if m not in refused]
                if kept:
                    rows = np.concatenate(
                        [np.arange(firsts[m], ends[m]) for m in kept]
                    )
                    scanned = VectorizedSemEngine._closed_form(
                        [runtimes[m] for m in kept], codes[rows], ts[rows],
                        [0, *accumulate(ends[m] - firsts[m] for m in kept)],
                        slot_luts, trigger_lut,
                    )
                    for member, out in zip(kept, scanned):
                        emitted[member] = _moved(out, rows)
                return emitted

        # Live ranges. In-scan STARTs (the rows holding slot 0) in birth
        # order: ``[lo, born)`` at each row; carried-in counters:
        # ``[lo0, ends0)`` (one runtime: ``[lo0, size0)``).
        n = len(codes)
        start_rows = np.flatnonzero(steps[0])
        start_ts = ts[start_rows]
        born = steps[0].cumsum()
        if single:
            lo = start_ts.searchsorted(ts - windows[0], side="right")
            lo0 = carried_exps.searchsorted(ts, side="right")
            live_after = born - lo + (sizes0[0] - lo0)
        else:
            member_of = np.repeat(np.arange(count), np.diff(bounds))
            carrier = np.repeat(np.arange(count), sizes0)
            keys = ts + (member_of * span - base)
            lo = keys[start_rows].searchsorted(
                keys - np.array(windows)[member_of], side="right"
            )
            # An expiry outside the scan's times compares like the edge
            # of its member's key band.
            carried_keys = (
                np.clip(carried_exps - base, 0, span - 1) + carrier * span
            )
            lo0 = carried_keys.searchsorted(keys, side="right")
            ends0 = np.cumsum(sizes0)
            live_after = born - lo + (ends0[member_of] - lo0)

        # Row k of P and column i of R, each entry a series over the
        # scan with a leading "before row 0" value (x[:-1] is what a
        # row sees, x[1:] what it leaves). Both are unit lower
        # triangular and only the triangle is held: ``prefix`` walks
        # down to the last row of P, ``inverse`` left to column 0 of R;
        # ``final`` keeps P after each slice (``[:, :, m]`` for member
        # ``m``), ``framing`` R before it.
        eye = np.eye(length, dtype=np.int64)
        if single:
            final, at_ends = eye, -1
        else:
            final, at_ends = np.repeat(eye[:, :, None], count, axis=2), ends
        prefix = np.ones((1, n + 1), dtype=np.int64)
        for k in range(1, length):
            below = np.empty((k + 1, n + 1), dtype=np.int64)
            below[:k, 0] = 0
            below[k] = 1
            (steps[k] * prefix[:, :-1]).cumsum(axis=1, out=below[:k, 1:])
            final[k, :k] = below[:k, at_ends]
            prefix = below
        if not single:
            framing = np.empty((count, length, length), dtype=np.int64)
            framing[:] = eye
        inverse = np.ones((1, n + 1), dtype=np.int64)
        for i in range(length - 2, -1, -1):
            left = np.empty((length - i, n + 1), dtype=np.int64)
            left[0] = 1
            left[1:, 0] = 0
            (steps[i + 1] * inverse[:, :-1]).cumsum(axis=1, out=left[1:, 1:])
            np.negative(left[1:], out=left[1:])
            if not single:
                framing[:, i:, i] = left.take(firsts, axis=1).T
            inverse = left
        if not single and carried.shape[1]:
            carried = np.einsum("cki,ic->kc", framing[carrier], carried)

        # ``R_s e0`` per START — the state it would have needed before
        # the scan to be ``e0`` at its own row — prefix-summed in birth
        # order; carried state suffix-summed.
        born_state = inverse.take(start_rows + 1, axis=1)
        born_sums = np.zeros((length, start_rows.size + 1), dtype=np.int64)
        born_state.cumsum(axis=1, out=born_sums[:, 1:])
        carried_sums = np.zeros((length, carried.shape[1] + 1), dtype=np.int64)
        carried[:, ::-1].cumsum(axis=1, out=carried_sums[:, -2::-1])

        # Column gathers by ``take``: ~3x ``x[:, rows]`` at these sizes.
        triggers = np.flatnonzero(trigger_lut[codes])
        hi_t, lo_t, lo0_t = born[triggers], lo[triggers], lo0[triggers]
        in_range = born_sums.take(hi_t, axis=1)
        in_range -= born_sums.take(lo_t, axis=1)
        in_range += carried_sums.take(lo0_t, axis=1)
        if not single:
            in_range -= carried_sums.take(ends0[member_of[triggers]], axis=1)
        totals = np.einsum(
            "kt,kt->t", prefix.take(triggers + 1, axis=1), in_range
        )
        trigger_ts = ts.take(triggers)

        # One accounting tick per arrival per counter live before it,
        # and a peak sampled after each START, as the row loop counts.
        # Per runtime: the sums, maxima and last values over its rows.
        if single:
            born_end, lo_end, lo0_end, stamps = (
                [int(born[-1])], [int(lo[-1])], [int(lo0[-1])], [int(ts[-1])]
            )
            updates = [int(live_after.sum())]
            peaks = [
                int(live_after[start_rows].max()) if start_rows.size else 0
            ]
        else:
            last_rows = [end - 1 for end in ends]
            born_end, lo_end, lo0_end, stamps = [
                column[last_rows].tolist() for column in (born, lo, lo0, ts)
            ]
            updates = np.add.reduceat(live_after, firsts).tolist()
            peaks = np.maximum.reduceat(
                live_after * steps[0], firsts
            ).tolist()
            splits = triggers.searchsorted(bounds).tolist()

        # Write each runtime's survivors back: its P applied to both
        # families.
        emitted = []
        born0 = carried0 = 0
        for member, runtime in enumerate(runtimes):
            end_lo, end_lo0 = lo_end[member], lo0_end[member]
            end_born, end_carried = born_end[member], carried0 + sizes0[member]
            counts = (final if single else final[:, :, member]) @ (
                np.concatenate(
                    (
                        carried[:, end_lo0:end_carried],
                        born_state[:, end_lo:end_born],
                    ),
                    axis=1,
                )
            )
            exps = np.concatenate((
                carried_exps[end_lo0:end_carried],
                start_ts[end_lo:end_born] + windows[member],
            ))
            live = exps.size
            if live > runtime._capacity:
                runtime._grow_to(live)
            runtime._counts[:, :live] = counts
            runtime._exps[:live] = exps
            created = end_born - born0
            stats = runtime._kernel_stats
            stats["closed_form"] += 1
            stats["scan_width"] = count
            runtime._settle(
                ends[member] - firsts[member],
                stamps[member],
                live,
                updates=updates[member] - created,
                peak=max(runtime.peak_counters, peaks[member]),
                created=created,
                expired=end_lo - born0 + end_lo0 - carried0,
            )
            if single:
                emitted.append((triggers, trigger_ts, totals, None))
            else:
                first, end = splits[member], splits[member + 1]
                emitted.append((
                    triggers[first:end], trigger_ts[first:end],
                    totals[first:end], None,
                ))
            born0, carried0 = end_born, end_carried
        return emitted

    def _fits_int64(
        self, steps: np.ndarray, ts: np.ndarray, carried: np.ndarray
    ) -> bool:
        """:func:`_int64_safe` under this runtime's window."""
        return _int64_safe(self._window_ms, steps, ts, carried)

    def _update_slot(
        self, slot: int, head: int, tail: int, value: float | None
    ) -> None:
        layout = self.layout
        counts = self._counts
        previous = counts[slot - 1, head:tail]
        if self._wsums is not None:
            if slot == layout.value_slot:
                assert value is not None
                self._wsums[slot, head:tail] += previous * value
            elif slot > layout.value_slot:
                self._wsums[slot, head:tail] += self._wsums[
                    slot - 1, head:tail
                ]
        if self._extrema is not None:
            extrema = self._extrema
            if slot == layout.value_slot:
                assert value is not None
                fold = np.where(previous > 0, value, self._extreme_identity)
            elif slot > layout.value_slot:
                fold = extrema[slot - 1, head:tail]
            else:
                fold = None
            if fold is not None:
                if layout.prefers_max:
                    np.maximum(
                        extrema[slot, head:tail],
                        fold,
                        out=extrema[slot, head:tail],
                    )
                else:
                    np.minimum(
                        extrema[slot, head:tail],
                        fold,
                        out=extrema[slot, head:tail],
                    )
        counts[slot, head:tail] += previous

    def _append_start(self, event: Event) -> None:
        if self._tail == self._capacity:
            self._make_room()
        tail = self._tail
        self._counts[:, tail] = 0
        self._counts[0, tail] = 1
        self._exps[tail] = event.ts + self._window_ms
        if self._wsums is not None:
            self._wsums[:, tail] = 0.0
            if self.layout.value_slot == 0:
                self._wsums[0, tail] = self.layout.value_of(event)
        if self._extrema is not None:
            self._extrema[:, tail] = self._extreme_identity
            if self.layout.value_slot == 0:
                self._extrema[0, tail] = self.layout.value_of(event)
        self._tail = tail + 1
        live = self._tail - self._head
        if live > self.peak_counters:
            self.peak_counters = live
        if self._obs_on:
            self._m_created.inc()
            self._m_active.set(live)
        if self._trace_on:
            self._trace.record(
                Stage.COUNTER_CREATE, event.ts, event.event_type,
                f"exp={int(self._exps[tail])} active={live}",
            )

    def _make_room(self) -> None:
        """Compact the live range to the front, growing if still full."""
        head, tail = self._head, self._tail
        live = tail - head
        capacity = self._capacity
        if not capacity:
            capacity = _INITIAL_CAPACITY
        elif live * 2 > capacity:
            capacity *= 2
        counts = np.zeros(
            (self.layout.length, capacity), dtype=np.int64
        )
        counts[:, :live] = self._counts[:, head:tail]
        self._counts = counts
        exps = np.zeros(capacity, dtype=np.int64)
        exps[:live] = self._exps[head:tail]
        self._exps = exps
        if self._wsums is not None:
            wsums = np.zeros(
                (self.layout.length, capacity), dtype=np.float64
            )
            wsums[:, :live] = self._wsums[:, head:tail]
            self._wsums = wsums
        if self._extrema is not None:
            extrema = np.full(
                (self.layout.length, capacity),
                self._extreme_identity,
                dtype=np.float64,
            )
            extrema[:, :live] = self._extrema[:, head:tail]
            self._extrema = extrema
        self._head = 0
        self._tail = live

    def _expire(self, now: int) -> None:
        head, tail = self._head, self._tail
        # Expirations are appended in START order, so the live slice of
        # ``_exps`` is non-decreasing for in-order streams: one binary
        # search replaces the per-counter scan. (SemEngine tolerates
        # out-of-order STARTs with a linear popleft loop; here in-order
        # input is an invariant of the columnar ring.)
        if head == tail or self._exps[head] > now:
            return
        head += int(self._exps[head:tail].searchsorted(now, side="right"))
        expired = head - self._head
        self._head = head
        if self._obs_on:
            self._m_expired.inc(expired)
            self._m_active.set(tail - head)
        if self._funnel_on:
            self._fq.expired.inc(expired)
        if self._trace_on:
            self._trace.record(
                Stage.EXPIRE, now, "",
                f"{expired} counters expired, {tail - head} remain",
            )

    # ----- results ----------------------------------------------------------------

    def result(self) -> Any:
        """Current aggregate over the live counter columns."""
        self._expire(self._now)
        head, tail = self._head, self._tail
        kind = self.layout.agg_kind
        if head == tail:
            # Nothing live (most partitions once their keys go quiet):
            # the empty aggregate, without reading the ring.
            return (
                0 if kind is AggKind.COUNT
                else 0.0 if kind is AggKind.SUM
                else None
            )
        if kind is AggKind.COUNT:
            return self._live_count()
        if kind is AggKind.SUM:
            return self._live_wsum()
        if kind is AggKind.AVG:
            count = self._live_count()
            if not count:
                return None
            return self._live_wsum() / count
        assert self._extrema is not None
        column = self._extrema[self.layout.length - 1, head:tail]
        best = column.max() if self.layout.prefers_max else column.min()
        if best == self._extreme_identity:
            return None
        return float(best)

    def count_and_wsum(self) -> tuple[int, float]:
        """COUNT and weighted-sum totals (AVG composition across partitions)."""
        self._expire(self._now)
        head, tail = self._head, self._tail
        if head == tail:
            return 0, 0.0
        return (
            self._live_count(),
            self._live_wsum() if self._wsums is not None else 0.0,
        )

    def _live_count(self) -> int:
        """The live full-match count, exact: each count fits int64 but
        their total need not, so it is added in Python integers (as the
        row loop adds it) unless :attr:`_count_bound` shows numpy's
        int64 sum cannot wrap."""
        column = self._counts[self.layout.length - 1, self._head:self._tail]
        if self._count_bound * column.size < _INT64_LIMIT:
            return int(column.sum())
        return sum(column.tolist())

    def _live_wsum(self) -> float:
        """The live full-match weighted sums, added in column order.

        Left to right like ``SemEngine``, the ``process_columns`` row
        loop and ``HPCEngine``, so every lane rounds a float SUM / AVG
        the same way; numpy's pairwise ``.sum()`` differs in the last
        ulp."""
        column = self._wsums[self.layout.length - 1, self._head:self._tail]
        return float(sum(column.tolist()))

    # ----- introspection -------------------------------------------------------------

    @property
    def _capacity(self) -> int:
        """Ring columns allocated (0 until the first START)."""
        return len(self._exps)

    @property
    def active_counters(self) -> int:
        return self._tail - self._head

    def current_objects(self) -> int:
        return self.active_counters

    def advance_time(self, now: int) -> None:
        """Move the engine clock without an event (expiry on idle streams)."""
        self._now = max(self._now, now)
        self._expire(self._now)

    def inspect(self) -> dict[str, Any]:
        """JSON-serializable state summary (admin endpoints)."""
        stats = self._kernel_stats
        return {
            "kind": "vectorized_sem",
            "query": self.query.name,
            "window_ms": self._window_ms,
            "now": self._now,
            "events_processed": self.events_processed,
            "counter_updates": self.counter_updates,
            "active_counters": self.active_counters,
            "peak_counters": self.peak_counters,
            "capacity": self._capacity,
            "agg": self.layout.agg_kind.name.lower(),
            "kernel_slices": {
                key: stats[key] for key in ("closed_form", "row_loop")
            },
            "closed_form_fallbacks": {
                key: stats[key]
                for key in ("small_slice", "bound", "unordered")
            },
            "closed_form_scan_width": stats["scan_width"],
        }
