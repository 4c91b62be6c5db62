"""The GROUP BY partition table: every partition's live STARTs in two
shared matrices, one vectorized kernel call per batch.

A single-attribute GROUP BY that the columnar kernel takes compiles to
:class:`PartitionTable` instead of an :class:`~repro.core.hpc.HPCEngine`
holding one runtime per key (paper Sec. 3.4: partitions never interact,
so one pass over a batch can step every key's counters at once).
Outputs, accounting and checkpoints are those of the per-partition
runtimes; docs/ALGORITHMS.md §5a derives the kernel.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Any, Iterator

import numpy as np

from repro.errors import CounterOverflowError, PredicateError
from repro.events.event import Event
from repro.core.aggregates import PatternLayout
from repro.core.hpc import partition_attributes
from repro.core.vectorized import (
    _INT64_LIMIT,
    _PREFIX_OVERFLOW,
    NO_EMISSIONS,
    Emissions,
    _int64_safe,
)
from repro.obs.funnel import FunnelRecorder, resolve_funnel
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.query.ast import AggKind, Query

#: Rows of :attr:`PartitionTable._books`, one column per partition: its
#: clock, events, counter updates and peak live rows, and the columns
#: ``[_LO, _HI)`` holding its rows.
_NOW, _EVENTS, _UPDATES, _PEAK, _LO, _HI = range(6)

#: Rows from which a 16-bit radix ranking of a key column beats numpy's
#: stable comparison sort of it (a fixed ~4 µs against ~25 ns a row;
#: measured, not derived: even at 192 rows, 4.7 against 4.9 µs).
_RADIX_MIN_ROWS = 192


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index ranges ``[lo[i], lo[i] + sizes[i])`` laid end to end."""
    ends = sizes.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return (lo - ends + sizes).repeat(sizes) + np.arange(total)


def _stable_order(column: np.ndarray) -> np.ndarray:
    """The stable order of a key column by value; with no comparison
    sort for an integer (or bool) column of :data:`_RADIX_MIN_ROWS` rows
    or more whose range fits 16 bits.

    Numpy's stable sort of a type of 16 bits or fewer is a radix sort,
    so such rows are ranked by their offset from the column's minimum
    as uint16 — the same order as a stable sort by value. The offsets
    are taken in the column's own width, unsigned, where they wrap
    exactly (the range is smaller than that width), so keys near ±2⁶³
    and uint64 keys do not overflow."""
    if (
        column.dtype.kind not in "biu" or column.dtype.itemsize <= 2
        or column.size < _RADIX_MIN_ROWS
    ):
        return np.argsort(column, kind="stable")
    low = column.min(keepdims=True)
    if int(column.max()) - int(low[0]) >= 1 << 16:
        return np.argsort(column, kind="stable")
    unsigned = np.dtype(f"u{column.dtype.itemsize}")
    offsets = column.view(unsigned) - low.view(unsigned)
    return np.argsort(offsets.astype(np.uint16), kind="stable")


def _widest_first(sizes: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """An order of ``sizes`` from the largest down, and for each step
    ``k`` below the largest how many of them exceed ``k``: the prefix of
    that order still active at step ``k``."""
    order = sizes.argsort()[::-1]
    active = []
    left = sizes.size
    for count in np.bincount(sizes).tolist()[:-1]:
        left -= count
        active.append(left)
    return order, active


def _fold(
    values: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
    acc: np.ndarray, better: Any = None,
) -> np.ndarray:
    """Fold segment ``g`` of ``values`` (``sizes[g]`` terms from
    ``starts[g]``) into ``acc[g]``, for every segment at once, one term
    at a time in order: added left to right like Python's ``sum`` — so a
    float total rounds as the reference engine's does (``np.sum`` and
    ``add.reduceat`` sum pairwise and can move the last ulp) — or, with
    ``better`` (``np.greater`` / ``np.less``), kept as Python's ``max``
    / ``min`` keeps it: the first term, replaced by each later term that
    beats it. An empty segment keeps its ``acc``."""
    if not values.size:
        return acc
    last = values.size - 1
    for k in range(int(sizes.max())):
        live = sizes > k
        term = values.take(np.minimum(starts + k, last))
        if better is None:
            np.add(acc, term, out=acc, where=live)
        else:
            np.copyto(acc, term, where=live & better(term, acc) if k else live)
    return acc


class _Loose:
    """One partition's rows and books in Python lists and ints, while
    per-event arrivals hold them out of the table's columns."""

    __slots__ = (
        "counts", "exps", "floats", "now", "events", "updates", "peak",
    )


class _PartitionView:
    """Read-only view of one partition of a :class:`PartitionTable`:
    what a per-partition runtime reported (books, live rows, state)."""

    __slots__ = ("_table", "_pid", "key")

    def __init__(self, table: "PartitionTable", pid: int, key: Any):
        self._table = table
        self._pid = pid
        self.key = key

    def current_objects(self) -> int:
        return self._table._rows_held(self._pid)

    @property
    def events_processed(self) -> int:
        return self._table._book(self._pid, _EVENTS)

    @property
    def counter_updates(self) -> int:
        return self._table._book(self._pid, _UPDATES)

    @property
    def peak_counters(self) -> int:
        return self._table._book(self._pid, _PEAK)

    def inspect(self) -> dict[str, Any]:
        """JSON-serializable summary. The table runs no closed-form
        scan, so no partition ever shares one (scan width 0)."""
        return {
            "kind": "partition",
            "key": repr(self.key),
            "now": self._table._book(self._pid, _NOW),
            "events_processed": self.events_processed,
            "counter_updates": self.counter_updates,
            "active_counters": self.current_objects(),
            "peak_counters": self.peak_counters,
            "closed_form_scan_width": 0,
        }


class PartitionTable:
    """Single-attribute GROUP BY on the columnar kernel: every
    partition's live STARTs as rows of one pair of matrices.

    :class:`HPCEngine` gives each partition a runtime of its own; here a
    partition is a dense id (``pid``, first-seen key order) and a block
    of columns, in birth order, of a pair of matrices shared with all of
    them — int64 rows ``pid``, ``exp``, ``counts[L]`` and float rows
    ``wsums[L]`` (SUM/AVG) or ``extrema[L]`` (MAX/MIN) — with per-pid
    books (clock, events, counter updates, peak, block bounds). A batch
    appends the blocks it rewrites and abandons the old ones, so it
    costs what it touches; the matrices are compacted in pid order when
    they are full, and before any read of the whole table (results,
    checkpoint, expiry). Partitions never interact (paper Sec. 3.4), so
    one batch runs as one vectorized kernel call over every partition it
    touches (:meth:`process_batch_columns`); outputs, accounting and
    checkpoints are those of the per-partition runtimes
    (:mod:`repro.core.checkpoint` writes the same document).

    A partition keeps rows that expired since its last arrival, as a
    per-partition ring does, so :meth:`current_objects` is the row count.

    Per-event :meth:`process` (declined batches, the supervised walk, a
    per-event lane) moves the partition it touches out of the matrices
    into Python lists (:class:`_Loose`), where one arrival costs list
    operations instead of numpy calls; anything that reads the table as
    a whole folds them back first (:meth:`_merge`).
    """

    def __init__(
        self,
        query: Query,
        registry: MetricsRegistry | None = None,
        funnel: FunnelRecorder | None = None,
    ):
        self.query = query
        self.layout = layout = PatternLayout.of(query)
        self._attributes = partition_attributes(query)
        self._attribute = self._attributes[0]
        self._window_ms = query.window.size_ms
        self._negated = set(query.pattern.negated_types)
        length = layout.length
        self._last = length - 1
        #: The float rows' name in a checkpoint and the value an empty
        #: slot holds there (None: COUNT keeps no float rows).
        self._floats_name: str | None = None
        self._identity = 0.0
        if layout.tracks_values:
            self._floats_name = "wsums"
        elif layout.tracks_extrema:
            self._floats_name = "extrema"
            self._identity = -np.inf if layout.prefers_max else np.inf
        self._better = np.greater if layout.prefers_max else np.less
        #: Partition key -> pid, and pid -> the key first seen for it.
        self._pid_of: dict[Any, int] = {}
        self._keys: list[Any] = []
        #: Rows ``pid``, ``exp``, ``counts[0..L-1]``, one column per
        #: START, and the float rows; columns ``[0, _end)`` are in use
        #: (a partition's rows are its block, the rest abandoned), and
        #: ``_ordered`` says the used ones are exactly the live rows
        #: sorted by ``(pid, birth)``.
        self._ints = np.zeros((2 + length, 0), dtype=np.int64)
        self._floats = (
            None if self._floats_name is None else np.zeros((length, 0))
        )
        self._end = 0
        self._ordered = True
        #: Per-pid books (rows ``_NOW`` … ``_HI``), grown by doubling.
        self._books = np.zeros((6, 0), dtype=np.int64)
        #: Partitions per-event arrivals hold out of the matrices.
        self._loose: dict[int, _Loose] = {}
        #: Rows held, loose ones included: the paper's memory metric.
        self._objects = 0
        self._now = 0
        self.events_processed = 0
        self.counter_updates = 0
        #: Kernel calls, those counted in Python ints (``wide``), and
        #: out-of-order batches walked per event.
        self._kernel_stats = {"batches": 0, "wide": 0, "walked": 0}
        registry = resolve_registry(registry)
        self.obs_registry = registry
        self._obs_on = registry.enabled
        self._m_partitions_created = registry.counter(
            "hpc_partitions_created_total",
            "per-key partition engines created",
        )
        self._m_partitions_live = registry.gauge(
            "hpc_partitions_live", "partition engines currently held"
        )
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
        funnel = resolve_funnel(funnel)
        self._funnel_on = funnel.enabled
        self._fq = funnel.for_query(query.name or "q")

    # ----- per-event ingestion ------------------------------------------------

    def process(self, event: Event) -> Any | None:
        """Ingest one (pre-filtered) event; returns ``{key: aggregate}``
        on TRIG, as :meth:`HPCEngine.process` does."""
        self.events_processed += 1
        ts = event.ts
        if ts > self._now:
            self._now = ts
        key = event.get(self._attribute, _MISSING)
        event_type = event.event_type
        if key is _MISSING:
            if event_type in self._negated:
                self._reset_everywhere(event_type, ts)
                return None
            raise PredicateError(
                f"event of type {event_type!r} lacks partition "
                f"attribute(s) {self._attributes!r}"
            )
        pid = self._pid_of.get(key)
        if pid is None:
            part = self._open(key)
        else:
            part = self._loose.get(pid)
            if part is None:
                part = self._detach(pid)
        layout = self.layout
        if ts > part.now:
            part.now = ts
        exps = part.exps
        if exps and exps[0] <= ts:
            self._expire_loose(part, ts)
        part.events += 1
        live = len(exps)
        reset = layout.reset_slot.get(event_type)
        if reset is not None:
            if live:
                part.counts[reset][:] = [0] * live
                if part.floats is not None:
                    part.floats[reset][:] = [self._identity] * live
            if self._obs_on:
                self._m_resets.inc(live)
            if self._funnel_on:
                self._fq.blocked.inc(live)
            return None
        slots = layout.update_slots.get(event_type)
        if not slots:
            return None
        value_slot = layout.value_slot
        value = (
            layout.value_of(event)
            if value_slot >= 0 and value_slot in slots else None
        )
        if live:
            self._update_loose(part, slots, value)
        part.updates += live
        self.counter_updates += live
        if self._funnel_on:
            self._fq.extended.inc(live)
        if event_type in layout.start_types:
            self._append_loose(part, ts, value)
        if event_type in layout.trigger_types:
            return {key: self._loose_result(part)}
        return None

    def _update_loose(
        self, part: _Loose, slots: tuple[int, ...], value: Any
    ) -> None:
        """One arrival's slot updates on a loose partition (descending
        slots, as the row loop applies them); raises
        :class:`~repro.errors.CounterOverflowError` before writing when
        a count would pass int64, as the per-partition runtime did."""
        counts = part.counts
        staged = []
        for slot in slots:
            if slot:
                row = [a + b for a, b in zip(counts[slot], counts[slot - 1])]
                if max(row) >= _INT64_LIMIT:
                    raise CounterOverflowError(_PREFIX_OVERFLOW)
                staged.append((slot, row))
        value_slot = self.layout.value_slot
        floats = part.floats
        sums = self._floats_name == "wsums"
        prefers_max = self.layout.prefers_max
        for slot, row in staged:
            if floats is not None and slot >= value_slot:
                held = floats[slot]
                if slot > value_slot:
                    prior = floats[slot - 1]
                    floats[slot] = (
                        [a + b for a, b in zip(held, prior)] if sums
                        else [
                            a if (a > b if prefers_max else a < b) else b
                            for a, b in zip(held, prior)
                        ]
                    )
                elif sums:
                    floats[slot] = [
                        w + p * value for w, p in zip(held, counts[slot - 1])
                    ]
                else:
                    floats[slot] = [
                        value if p > 0 and (
                            value > e if prefers_max else value < e
                        ) else e
                        for e, p in zip(held, counts[slot - 1])
                    ]
            counts[slot] = row

    def _append_loose(self, part: _Loose, ts: int, value: Any) -> None:
        counts = part.counts
        counts[0].append(1)
        for row in counts[1:]:
            row.append(0)
        part.exps.append(ts + self._window_ms)
        if part.floats is not None:
            identity = self._identity
            part.floats[0].append(
                value if self.layout.value_slot == 0 else identity
            )
            for row in part.floats[1:]:
                row.append(identity)
        self._objects += 1
        live = len(part.exps)
        if live > part.peak:
            part.peak = live
        if self._obs_on:
            self._m_created.inc()
            self._m_active.set(live)

    def _expire_loose(self, part: _Loose, now: int) -> None:
        expired = bisect_right(part.exps, now)
        del part.exps[:expired]
        for row in part.counts:
            del row[:expired]
        if part.floats is not None:
            for row in part.floats:
                del row[:expired]
        self._objects -= expired
        if self._obs_on:
            self._m_expired.inc(expired)
            self._m_active.set(len(part.exps))
        if self._funnel_on:
            self._fq.expired.inc(expired)

    def _loose_result(self, part: _Loose) -> Any:
        """The partition's aggregate once its clock reaches the table's
        (what :meth:`HPCEngine._group_result` reports on a TRIG)."""
        if self._now > part.now:
            part.now = self._now
        exps = part.exps
        if exps and exps[0] <= part.now:
            self._expire_loose(part, part.now)
        kind = self.layout.agg_kind
        if not exps:
            return (
                0 if kind is AggKind.COUNT
                else 0.0 if kind is AggKind.SUM
                else None
            )
        last = self._last
        if kind is AggKind.COUNT:
            return sum(part.counts[last])
        if kind is AggKind.SUM:
            return float(sum(part.floats[last]))
        if kind is AggKind.AVG:
            count = sum(part.counts[last])
            return float(sum(part.floats[last])) / count if count else None
        column = part.floats[last]
        best = max(column) if self.layout.prefers_max else min(column)
        return None if best == self._identity else float(best)

    def _reset_everywhere(self, event_type: str, ts: int) -> None:
        """A negated arrival without the key: every partition takes it
        (its clock, expiry, event count and the Recounting Rule)."""
        self._merge()
        partitions = len(self._keys)
        books = self._books
        np.maximum(books[_NOW, :partitions], ts, out=books[_NOW, :partitions])
        books[_EVENTS, :partitions] += 1
        self._expire_rows(ts)
        reset = self.layout.reset_slot[event_type]
        self._ints[2 + reset, :self._end] = 0
        if self._floats is not None:
            self._floats[reset, :self._end] = self._identity
        live = self._objects
        if self._obs_on:
            self._m_resets.inc(live)
        if self._funnel_on:
            self._fq.blocked.inc(live)

    def _open(self, key: Any) -> _Loose:
        """A new partition for ``key``, held loose (it has no rows)."""
        pid = len(self._keys)
        self._pid_of[key] = pid
        self._keys.append(key)
        self._grow_books(pid + 1)
        length = self.layout.length
        part = _Loose()
        part.counts = [[] for _ in range(length)]
        part.exps = []
        part.floats = (
            None if self._floats is None else [[] for _ in range(length)]
        )
        part.now = part.events = part.updates = part.peak = 0
        self._loose[pid] = part
        if self._obs_on:
            self._m_partitions_created.inc()
            self._m_partitions_live.set(len(self._keys))
        return part

    def _detach(self, pid: int) -> _Loose:
        """Move partition ``pid``'s rows and books into lists."""
        part = _Loose()
        part.now, part.events, part.updates, part.peak, lo, hi = (
            self._books[:, pid].tolist()
        )
        _, part.exps, *part.counts = self._ints[:, lo:hi].tolist()
        part.floats = (
            None if self._floats is None else self._floats[:, lo:hi].tolist()
        )
        self._loose[pid] = part
        return part

    def _merge(self) -> None:
        """Fold every loose partition back into the matrices."""
        loose = self._loose
        if not loose:
            return
        self._loose = {}
        pids = sorted(loose)
        parts = [loose[pid] for pid in pids]
        touched = np.array(pids, dtype=np.int64)
        self._books[:_LO, touched] = np.array(
            [[part.now, part.events, part.updates, part.peak]
             for part in parts],
            dtype=np.int64,
        ).T
        length = self.layout.length

        def joined(rows: list[list[list[Any]]]) -> list[list[Any]]:
            """Each slot's row of every part, end to end."""
            return [list(chain.from_iterable(slot)) for slot in zip(*rows)]

        ints = np.array([
            list(chain.from_iterable(
                [pid] * len(part.exps) for pid, part in zip(pids, parts)
            )),
            list(chain.from_iterable(part.exps for part in parts)),
            *joined([part.counts for part in parts]),
        ], dtype=np.int64).reshape(2 + length, -1)
        floats = None
        if self._floats is not None:
            floats = np.array(
                joined([part.floats for part in parts]), dtype=np.float64
            ).reshape(length, -1)
        self._append(
            touched, np.array([len(part.exps) for part in parts]), ints,
            floats,
        )

    # ----- the batch kernel ---------------------------------------------------

    def process_batch_columns(
        self, batch: Any, kept_idx: np.ndarray, plan: Any
    ) -> Emissions:
        """Ingest the kept rows of one columnar batch; returns the
        :data:`~repro.core.vectorized.Emissions` of its TRIG arrivals,
        positions indexing ``kept_idx``: on every TRIG row, the value
        per-event :meth:`process` returns there as ``{key: value}``,
        labelled with the arriving row's own key value.

        One kernel call for every partition the batch touches, with no
        per-row Python (derivation: docs/ALGORITHMS.md, "GROUP BY as one
        partition table"):

        * the rows are grouped by key once (one stable sort); the
          touched partitions' rows and the batch's new STARTs form one
          START list, partition by partition, in birth order;
        * each START's visible rows (after its birth, before its expiry)
          and each row's live START range are ``searchsorted`` on
          ``segment · span + ts`` keys;
        * step ``j`` applies every START's ``j``-th visible row at once,
          slots descending, so the number of steps is the deepest
          window in the batch, not the row count;
        * a TRIG sums its live STARTs' states in birth order, term by
          term, as the per-partition runtime did, so float results are
          bit-identical.

        Counts are int64 when :func:`~repro.core.vectorized._int64_safe`
        proves the call cannot pass 2^63, else the same steps run over
        Python ints (``object`` rows) for that call; a surviving count
        that does not fit int64 raises
        :class:`~repro.errors.CounterOverflowError`. Nothing is
        published before the end, so a raise leaves the table as it was.
        A batch whose times go backwards — within itself, or behind a
        partition's clock — is walked per event instead (that walk
        commits row by row).
        """
        self._merge()
        ts = batch.ts.take(kept_idx)
        n = ts.size
        if n > 1 and bool((ts[1:] < ts[:-1]).any()):
            return self._walk(batch, kept_idx)
        codes = batch.codes.take(kept_idx)
        column = batch.cols[plan.key_attribute].take(kept_idx)
        order, bounds, touched, new_keys = self._group_rows(column)
        seg_start, seg_end = bounds[:-1], bounds[1:]
        segments = touched.size
        # Room for the new keys' books; nothing is published yet.
        self._grow_books(len(self._keys) + len(new_keys))
        t_q, c_q = ts.take(order), codes.take(order)
        base = int(ts[0])
        span = int(ts[-1]) - base + 2
        if segments * span >= _INT64_LIMIT // 2 or bool((
            t_q.take(seg_start) < self._books[_NOW].take(touched)
        ).any()):
            return self._walk(batch, kept_idx)
        seg_size = seg_end - seg_start
        numbered = np.arange(n)
        g_q = numbered[:segments].repeat(seg_size)
        values = self._values(plan, batch, kept_idx.take(order), c_q)

        # The START list, partition by partition in birth order: rows
        # segment, exp, origin (the row before its first visible one),
        # counts. A partition's held rows come first.
        lo_t = self._books[_LO].take(touched)
        held_sizes = self._books[_HI].take(touched) - lo_t
        carried = _ranges(lo_t, held_sizes)
        held = self._ints.take(carried, axis=1)
        starting = plan.start_lut.take(c_q)
        born = starting.nonzero()[0]
        length = self.layout.length
        info = np.zeros((3 + length, carried.size + born.size), dtype=np.int64)
        info[0] = np.concatenate(
            (numbered[:segments].repeat(held_sizes), g_q.take(born))
        )
        info[1] = np.concatenate((held[1], t_q.take(born) + self._window_ms))
        info[2, :carried.size] = seg_start.take(info[0, :carried.size]) - 1
        info[2, carried.size:] = born
        info[3:, :carried.size] = held[2:]
        info[3, carried.size:] = 1
        # Two runs, each in segment order already: the stable sort is
        # one merge of them.
        merge = np.argsort(info[0], kind="stable")
        info = info.take(merge, axis=1)
        s_g, s_exp, s_origin = info[0], info[1], info[2]
        wide = not _int64_safe(
            self._window_ms, plan.slot_luts.take(codes, axis=1), ts,
            held[2:],
        )
        counts = info[3:].astype(object) if wide else info[3:]
        floats = None
        if self._floats is not None:
            fresh = np.full((length, born.size), self._identity)
            if self.layout.value_slot == 0:
                fresh[0] = values.take(born)
            floats = np.concatenate(
                (self._floats.take(carried, axis=1), fresh), axis=1
            ).take(merge, axis=1)

        # Visible rows and live ranges, on keys no other segment's rows
        # fall between (an expiry outside the batch's times clips to the
        # edge of its segment's band).
        k_q = g_q * span + (t_q - base)
        e_s = s_g * span + np.minimum(np.maximum(s_exp - base, 0), span - 1)
        nvis = np.maximum(k_q.searchsorted(e_s) - s_origin - 1, 0)
        # STARTs whose first visible row is at or before each row.
        born_before = np.bincount(s_origin + 1, minlength=n)[:n].cumsum()
        lo_q = np.minimum(e_s.searchsorted(k_q, side="right"), born_before)
        live_q = born_before - lo_q

        counts, floats, history, base_of, column_of = self._run_steps(
            plan, counts, floats, c_q, values, s_origin, nvis
        )
        emitted = self._emissions(
            plan, ts, codes, column, order, lo_q, born_before, starting,
            history, base_of, s_origin, wide,
        )

        # Survivors and books; nothing is written before the overflow
        # check.
        counted = live_q * (plan.reset_lut.take(c_q) < 0)
        blocked = int(live_q.sum()) - int(counted.sum())
        updates = np.add.reduceat(counted, seg_start)
        peaks = np.maximum.reduceat((live_q + 1) * starting, seg_start)
        survivors = (
            np.arange(s_g.size) >= lo_q.take(seg_end - 1).take(s_g)
        ).nonzero()[0]
        expired = s_g.size - survivors.size
        kept_ints = np.empty((2 + length, survivors.size), dtype=np.int64)
        kept_ints[0] = touched.take(s_g.take(survivors))
        kept_ints[1] = s_exp.take(survivors)
        stepped = column_of.take(survivors)
        kept = counts.take(stepped, axis=1)
        if wide and kept.size and kept.max() >= _INT64_LIMIT:
            raise CounterOverflowError(_PREFIX_OVERFLOW)
        kept_ints[2:] = kept

        self._append(
            touched, np.bincount(s_g.take(survivors), minlength=segments),
            kept_ints,
            None if floats is None else floats.take(stepped, axis=1),
        )
        self._objects += survivors.size - carried.size
        for key in new_keys:
            self._pid_of[key] = len(self._keys)
            self._keys.append(key)
        books = self._books.take(touched, axis=1)
        np.maximum(books[_NOW], t_q.take(seg_end - 1), out=books[_NOW])
        books[_EVENTS] += seg_size
        books[_UPDATES] += updates
        np.maximum(books[_PEAK], peaks, out=books[_PEAK])
        self._books[:, touched] = books
        updates_total = int(updates.sum())
        self.events_processed += n
        self.counter_updates += updates_total
        self._now = max(self._now, int(ts[-1]))
        stats = self._kernel_stats
        stats["batches"] += 1
        stats["wide"] += wide
        if self._obs_on:
            if new_keys:
                self._m_partitions_created.inc(len(new_keys))
                self._m_partitions_live.set(len(self._keys))
            if born.size:
                self._m_created.inc(born.size)
            if expired:
                self._m_expired.inc(expired)
            if blocked:
                self._m_resets.inc(blocked)
            self._m_active.set(self._objects)
        if self._funnel_on:
            if updates_total:
                self._fq.extended.inc(updates_total)
            if blocked:
                self._fq.blocked.inc(blocked)
            if expired:
                self._fq.expired.inc(expired)
        return emitted

    def _group_rows(
        self, column: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Any]]:
        """The rows grouped by partition: a stable order of them, where
        each group starts in it (and where the last ends), each group's
        pid, and the keys the batch sees first, in first-seen order
        (their pids, past the held ones, are not yet published).

        Keys compare as dict keys do, as in :meth:`process`: a numeric or
        string column is sorted and only each run's first value goes
        through the dict (NaN equals nothing, so each NaN is a run of
        its own); anything else (``object`` columns) goes row by row.
        """
        pid_of = self._pid_of
        n = column.size
        if column.dtype.kind in "biufU":
            order = _stable_order(column)
            ranked = column.take(order)
            bounds = np.concatenate(
                ([0], (ranked[1:] != ranked[:-1]).nonzero()[0] + 1, [n])
            )
            starts = bounds[:-1]
            labels = ranked.take(starts).tolist()
            pids = [pid_of.get(label, -1) for label in labels]
            fresh = [group for group, pid in enumerate(pids) if pid < 0]
            if fresh:
                firsts = order.take(starts).tolist()
                fresh.sort(key=firsts.__getitem__)
                for pid, group in enumerate(fresh, len(self._keys)):
                    pids[group] = pid
            return order, bounds, np.array(pids, dtype=np.int64), [
                labels[group] for group in fresh
            ]
        held = len(self._keys)
        opened: dict[Any, int] = {}
        rows = []
        for key in column.tolist():
            pid = pid_of.get(key)
            if pid is None:
                pid = opened.get(key)
                if pid is None:
                    pid = opened[key] = held + len(opened)
            rows.append(pid)
        by_row = np.array(rows, dtype=np.int64)
        order = np.argsort(by_row, kind="stable")
        ranked = by_row.take(order)
        bounds = np.concatenate(
            ([0], (ranked[1:] != ranked[:-1]).nonzero()[0] + 1, [n])
        )
        return order, bounds, ranked.take(bounds[:-1]), list(opened)

    def _values(
        self, plan: Any, batch: Any, rows: np.ndarray, codes: np.ndarray
    ) -> np.ndarray | None:
        """The aggregate's value column over ``rows`` as float64 (zeros
        where no row needs one; None for COUNT)."""
        if self.layout.value_slot < 0:
            return None
        column = (
            batch.cols.get(plan.value_attribute) if plan.needs_value
            else None
        )
        if column is None:
            return np.zeros(rows.size)
        taken = column.take(rows)
        if taken.dtype.kind in "biuf":
            return taken.astype(np.float64)
        values = np.zeros(rows.size)
        needed = plan.value_needed_lut.take(codes)
        values[needed] = taken[needed].astype(np.float64)
        return values

    def _run_steps(
        self, plan: Any, counts: np.ndarray,
        floats: np.ndarray | None, c_q: np.ndarray,
        values: np.ndarray | None, s_origin: np.ndarray, nvis: np.ndarray,
    ) -> tuple[np.ndarray, Any, list[Any], np.ndarray, np.ndarray]:
        """Apply every START's visible rows, step ``j`` taking each
        START's ``j``-th; returns the stepped ``counts`` and ``floats``,
        the last slot's history — per START its value before the batch,
        then after each visible row, from ``base_of[s]`` on (``[counts,
        floats]``, each None when the aggregate does not read it) — and
        for each START (in START-list order) its column in the stepped
        matrices, which hold the STARTs widest first."""
        layout = self.layout
        last = self._last
        value_slot = layout.value_slot
        sizes = nvis + 1
        base_of = sizes.cumsum() - sizes
        kind = layout.agg_kind
        history: list[Any] = [None, None]
        if kind is AggKind.COUNT or kind is AggKind.AVG:
            history[0] = np.empty(int(sizes.sum()), dtype=counts.dtype)
            history[0][base_of] = counts[last]
        if floats is not None:
            history[1] = np.empty(int(sizes.sum()))
            history[1][base_of] = floats[last]
        order, active = _widest_first(nvis)
        if not active:
            return counts, floats, history, base_of, np.arange(nvis.size)
        counts = counts.take(order, axis=1)
        if floats is not None:
            floats = floats.take(order, axis=1)
        # Every (START, step) pair, step by step: pair ``p`` of step
        # ``j`` is the ``p``-th widest START's ``j``-th visible row.
        widths = np.array(active)
        step_of = np.arange(widths.size).repeat(widths)
        rank_of = np.arange(step_of.size) - (widths.cumsum() - widths).repeat(
            widths
        )
        rows_of = (s_origin.take(order) + 1).take(rank_of) + step_of
        kept_at = base_of.take(order).take(rank_of) + step_of + 1
        pair_codes = c_q.take(rows_of)
        pair_values = None if values is None else values.take(rows_of)
        updates = plan.slot_luts.take(pair_codes, axis=1).astype(bool)
        wipes = plan.reset_lut.take(pair_codes)
        wiped = sorted(set(layout.reset_slot.values()))
        sums = self._floats_name == "wsums"
        wide = counts.dtype == object
        better = self._better
        identity = self._identity
        off = 0
        for width in active:
            end = off + width
            for slot in range(last, 0, -1):
                mask = updates[slot, off:end]
                previous = counts[slot - 1, :width]
                if floats is not None and slot >= value_slot:
                    target = floats[slot, :width]
                    if slot > value_slot:
                        prior = floats[slot - 1, :width]
                        if sums:
                            np.add(target, prior, out=target, where=mask)
                        else:
                            np.copyto(
                                target, prior,
                                where=mask & ~better(target, prior),
                            )
                    elif sums:
                        value = pair_values[off:end]
                        np.add(
                            target,
                            previous.astype(np.float64) * value if wide
                            else previous * value,
                            out=target, where=mask,
                        )
                    else:
                        value = pair_values[off:end]
                        np.copyto(
                            target, value,
                            where=mask & (previous > 0)
                            & better(value, target),
                        )
                np.add(
                    counts[slot, :width], previous, out=counts[slot, :width],
                    where=mask,
                )
            for slot in wiped:
                mask = wipes[off:end] == slot
                np.copyto(counts[slot, :width], 0, where=mask)
                # Float slots below the value's hold their fill for good.
                if floats is not None and slot >= value_slot:
                    np.copyto(floats[slot, :width], identity, where=mask)
            at = kept_at[off:end]
            if history[0] is not None:
                history[0][at] = counts[last, :width]
            if history[1] is not None:
                history[1][at] = floats[last, :width]
            off = end
        column_of = np.empty_like(order)
        column_of[order] = np.arange(order.size)
        return counts, floats, history, base_of, column_of

    def _emissions(
        self, plan: Any, ts: np.ndarray, codes: np.ndarray,
        column: np.ndarray, order: np.ndarray, lo_q: np.ndarray,
        born_before: np.ndarray, starting: np.ndarray, history: list[Any],
        base_of: np.ndarray, s_origin: np.ndarray, wide: bool,
    ) -> Emissions:
        """Every TRIG row's emission, positions indexing the kept rows
        and labelled with the row's key: the sum (or extreme) of its
        live STARTs' states right after it, in birth order — its own new
        START last."""
        triggers = plan.trigger_lut.take(codes).nonzero()[0]
        if not triggers.size:
            return NO_EMISSIONS
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        q = at.take(triggers)
        lo = lo_q.take(q)
        sizes = born_before.take(q) + starting.take(q) - lo
        starts = sizes.cumsum() - sizes
        # Live START ``lo + k`` of a TRIG at row ``q`` is its history
        # entry ``q - origin`` (0: the state it was born with).
        members = (lo - starts).repeat(sizes) + np.arange(int(sizes.sum()))
        picked = (
            base_of.take(members) + q.repeat(sizes) - s_origin.take(members)
        )
        count = triggers.size
        kind = self.layout.agg_kind
        if kind is AggKind.COUNT or kind is AggKind.AVG:
            totals = _fold(
                history[0].take(picked), starts, sizes,
                np.zeros(count, dtype=object if wide else np.int64),
            )
        if kind is AggKind.COUNT:
            fresh = totals
        elif kind is AggKind.SUM:
            fresh = _fold(
                history[1].take(picked), starts, sizes, np.zeros(count)
            )
        elif kind is AggKind.AVG:
            sums = _fold(
                history[1].take(picked), starts, sizes, np.zeros(count)
            ).tolist()
            fresh = [
                s / c if c else None for s, c in zip(sums, totals.tolist())
            ]
        else:
            identity = self._identity
            fresh = [
                None if best == identity else best
                for best in _fold(
                    history[1].take(picked), starts, sizes,
                    np.full(count, identity), self._better,
                ).tolist()
            ]
        return triggers, ts.take(triggers), fresh, column.take(triggers)

    def _walk(self, batch: Any, kept_idx: np.ndarray) -> Emissions:
        """An out-of-order batch, per event (:meth:`process`)."""
        self._kernel_stats["walked"] += 1
        events = batch.to_events()
        positions = []
        stamps = []
        values = []
        labels = []
        for position, row in enumerate(kept_idx.tolist()):
            event = events[row]
            fresh = self.process(event)
            if fresh is not None:
                (label, value), = fresh.items()
                positions.append(position)
                stamps.append(event.ts)
                values.append(value)
                labels.append(label)
        return np.array(positions, dtype=np.int64), stamps, values, labels

    def _append(
        self, touched: np.ndarray, sizes: np.ndarray, ints: np.ndarray,
        floats: np.ndarray | None,
    ) -> None:
        """Give each partition ``touched[i]`` the next ``sizes[i]`` of the
        columns ``ints``/``floats`` as its rows, appended past the used
        ones; its old block is abandoned."""
        count = ints.shape[1]
        if self._end + count > self._ints.shape[1]:
            self._compact(room=count)
        end = self._end
        self._ints[:, end:end + count] = ints
        if floats is not None:
            self._floats[:, end:end + count] = floats
        lo = end + sizes.cumsum() - sizes
        self._books[_LO, touched] = lo
        self._books[_HI, touched] = lo + sizes
        self._end = end + count
        self._ordered = False

    def _move(self, columns: np.ndarray, capacity: int) -> None:
        """Reallocate the matrices at ``capacity`` columns, holding the
        used ``columns``, in that order, from column 0."""
        size = columns.size
        ints = np.zeros(
            (self._ints.shape[0], max(capacity, size)), dtype=np.int64
        )
        ints[:, :size] = self._ints.take(columns, axis=1)
        self._ints = ints
        if self._floats is not None:
            floats = np.zeros((self._floats.shape[0], ints.shape[1]))
            floats[:, :size] = self._floats.take(columns, axis=1)
            self._floats = floats
        self._end = size

    def _compact(self, room: int = 0) -> None:
        """Rewrite the live rows in ``(pid, birth)`` order from column 0,
        dropping abandoned columns, unless they are so already and
        ``room`` more columns fit; after it, twice the live rows plus
        ``room`` fit. An append compacts only when the matrices are full,
        so each abandoned column is copied at most once."""
        if self._ordered and self._end + room <= self._ints.shape[1]:
            return
        partitions = len(self._keys)
        books = self._books
        lo = books[_LO, :partitions]
        sizes = books[_HI, :partitions] - lo
        live = _ranges(lo, sizes)
        self._move(live, 2 * (live.size + room))
        books[_HI, :partitions] = sizes.cumsum()
        books[_LO, :partitions] = books[_HI, :partitions] - sizes
        self._ordered = True

    def _grow_books(self, partitions: int) -> None:
        capacity = self._books.shape[1]
        if partitions > capacity:
            books = np.zeros(
                (6, max(partitions, 2 * capacity, 8)), dtype=np.int64
            )
            books[:, :capacity] = self._books
            self._books = books

    def _expire_rows(self, now: int) -> None:
        """Drop every row expired at ``now`` (the table merged)."""
        self._compact()
        end = self._end
        keep = self._ints[1, :end] > now
        expired = end - int(np.count_nonzero(keep))
        if expired:
            self._move(keep.nonzero()[0], 2 * (end - expired))
            partitions = len(self._keys)
            sizes = np.bincount(
                self._ints[0, :self._end], minlength=partitions
            )
            books = self._books
            books[_HI, :partitions] = sizes.cumsum()
            books[_LO, :partitions] = books[_HI, :partitions] - sizes
            self._objects = self._end
            if self._obs_on:
                self._m_expired.inc(expired)
                self._m_active.set(self._objects)
            if self._funnel_on:
                self._fq.expired.inc(expired)

    # ----- results --------------------------------------------------------------

    def advance_time(self, now: int) -> None:
        """Move the shared clock forward (events of irrelevant types)."""
        self._now = max(self._now, now)

    def _settled(self) -> tuple[np.ndarray, np.ndarray]:
        """Every partition moved to the table's clock (its rows expired
        there), as :meth:`HPCEngine.result` advances each engine; returns
        each pid's ``(first row, row count)``."""
        self._merge()
        partitions = len(self._keys)
        now = self._books[_NOW, :partitions]
        np.maximum(now, self._now, out=now)
        self._expire_rows(self._now)
        lo = self._books[_LO, :partitions]
        return lo, self._books[_HI, :partitions] - lo

    def _partition_counts(
        self, starts: np.ndarray, sizes: np.ndarray
    ) -> list[int]:
        """Each partition's live full-match count, exact."""
        column = self._ints[2 + self._last, :self._end]
        acc = np.zeros(sizes.size, dtype=np.int64)
        if column.size and (
            int(column.max()) * int(sizes.max()) >= _INT64_LIMIT
        ):
            column = column.astype(object)
            acc = acc.astype(object)
        return _fold(column, starts, sizes, acc).tolist()

    def _partition_floats(
        self, starts: np.ndarray, sizes: np.ndarray
    ) -> list[Any]:
        """Each partition's live weighted sum (0.0 when it keeps none),
        or its extreme (None when it has none)."""
        if self._floats is None:
            return [0.0] * sizes.size
        column = self._floats[self._last, :self._end]
        if self._floats_name == "wsums":
            return _fold(column, starts, sizes, np.zeros(sizes.size)).tolist()
        identity = self._identity
        return [
            None if best == identity else best
            for best in _fold(
                column, starts, sizes, np.full(sizes.size, identity),
                self._better,
            ).tolist()
        ]

    def result(self) -> dict[Any, Any]:
        """Per-key aggregates, in first-seen key order."""
        starts, sizes = self._settled()
        kind = self.layout.agg_kind
        if kind is AggKind.COUNT:
            values = self._partition_counts(starts, sizes)
        elif kind is AggKind.AVG:
            values = [
                wsum / count if count else None
                for count, wsum in zip(
                    self._partition_counts(starts, sizes),
                    self._partition_floats(starts, sizes),
                )
            ]
        else:
            values = self._partition_floats(starts, sizes)
        return dict(zip(self._keys, values))

    def count_and_wsum(self) -> tuple[int, float]:
        """COUNT and weighted-sum totals over every partition (sharded
        AVG merge), summed partition by partition as
        :meth:`HPCEngine.count_and_wsum` does."""
        totals = self.group_count_and_wsum().values()
        total = 0.0
        for _, wsum in totals:
            total += wsum
        return sum(count for count, _ in totals), total

    def group_count_and_wsum(self) -> dict[Any, tuple[int, float]]:
        """Per-group COUNT/weighted-sum totals (GROUP BY AVG merge)."""
        starts, sizes = self._settled()
        wsums = (
            self._partition_floats(starts, sizes)
            if self._floats_name == "wsums" else [0.0] * sizes.size
        )
        return {
            key: (count, 0.0 + wsum)
            for key, count, wsum in zip(
                self._keys, self._partition_counts(starts, sizes), wsums
            )
        }

    # ----- checkpoint -----------------------------------------------------------

    def partition_states(self) -> list[list[Any]]:
        """``[key, state]`` per partition, ``state`` the document a
        per-partition ``VectorizedSemEngine`` checkpoints to, so a
        grouped registration's checkpoint is the same bytes either
        way."""
        self._merge()
        self._compact()
        partitions = len(self._keys)
        now, los, his = self._books[[_NOW, _LO, _HI], :partitions].tolist()
        end = self._end
        _, exps, *counts = self._ints[:, :end].tolist()
        floats = (
            None if self._floats is None else self._floats[:, :end].tolist()
        )
        states = []
        for pid, key in enumerate(self._keys):
            lo, hi = los[pid], his[pid]
            state: dict[str, Any] = {
                "kind": "vectorized",
                "now": now[pid],
                "counts": [row[lo:hi] for row in counts],
                "exps": exps[lo:hi],
            }
            if floats is not None:
                state[self._floats_name] = [row[lo:hi] for row in floats]
            states.append([key, state])
        return states

    def load_partitions(
        self, now: int, partitions: list[list[Any]]
    ) -> None:
        """Replace every partition with ``partitions`` (what
        :meth:`partition_states` wrote); books restart at zero, as a
        restored runtime's do."""
        length = self.layout.length
        self._loose = {}
        self._pid_of = {}
        self._keys = []
        self._books = np.zeros((6, 0), dtype=np.int64)
        self._grow_books(len(partitions))
        self._now = now
        ints = [self._ints[:, :0]]
        floats = [] if self._floats is None else [self._floats[:, :0]]
        for pid, (key, state) in enumerate(partitions):
            self._pid_of.setdefault(key, pid)
            self._keys.append(key)
            self._books[_NOW, pid] = state["now"]
            exps = np.asarray(state["exps"], dtype=np.int64)
            rows = np.empty((2 + length, exps.size), dtype=np.int64)
            rows[0] = pid
            rows[1] = exps
            rows[2:] = np.asarray(
                state["counts"], dtype=np.int64
            ).reshape(length, exps.size)
            ints.append(rows)
            if self._floats is not None:
                floats.append(np.asarray(
                    state[self._floats_name], dtype=np.float64
                ).reshape(length, exps.size))
        self._ints = np.concatenate(ints, axis=1)
        if self._floats is not None:
            self._floats = np.concatenate(floats, axis=1)
        sizes = np.array([rows.shape[1] for rows in ints[1:]], dtype=np.int64)
        self._books[_HI, :sizes.size] = sizes.cumsum()
        self._books[_LO, :sizes.size] = self._books[_HI, :sizes.size] - sizes
        self._end = self._objects = self._ints.shape[1]
        self._ordered = True

    # ----- introspection --------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return len(self._keys)

    def partitions(self) -> Iterator[tuple[Any, _PartitionView]]:
        """``(key, view)`` per partition, in first-seen key order."""
        return (
            (key, _PartitionView(self, pid, key))
            for pid, key in enumerate(self._keys)
        )

    def current_objects(self) -> int:
        return self._objects

    def _rows_held(self, pid: int) -> int:
        part = self._loose.get(pid)
        if part is not None:
            return len(part.exps)
        return int(self._books[_HI, pid] - self._books[_LO, pid])

    def _book(self, pid: int, row: int) -> int:
        part = self._loose.get(pid)
        if part is not None:
            return (part.now, part.events, part.updates, part.peak)[row]
        return int(self._books[row, pid])

    def inspect(self, max_partitions: int = 16) -> dict[str, Any]:
        """JSON-serializable state summary (admin endpoints), shaped as
        :meth:`HPCEngine.inspect`'s, plus the kernel's call counts."""
        self._merge()
        partitions = len(self._keys)
        objects = (
            self._books[_HI, :partitions] - self._books[_LO, :partitions]
        )
        heaviest = np.argsort(-objects, kind="stable")[:max_partitions]
        events = self._books[_EVENTS]
        return {
            "kind": "hpc",
            "layout": "partition_table",
            "query": self.query.name,
            "partition_attributes": list(self._attributes),
            "per_group": True,
            "now": self._now,
            "events_processed": self.events_processed,
            "counter_updates": self.counter_updates,
            "partition_count": partitions,
            "active_counters": self._objects,
            "agg": self.layout.agg_kind.name.lower(),
            "kernel_batches": dict(self._kernel_stats),
            "partitions": [
                {
                    "key": repr(self._keys[pid]),
                    "objects": int(objects[pid]),
                    "events_processed": int(events[pid]),
                }
                for pid in heaviest.tolist()
            ],
            "partitions_truncated": max(0, partitions - max_partitions),
        }


#: What ``Event.get`` returns for an attribute the event lacks.
_MISSING = object()
