"""Columnar execution plans: schema-bound routing and predicate masks.

A :class:`ColumnarPlan` binds one :class:`~repro.core.executor.ASeqEngine`
registration to one :class:`~repro.events.batch.BatchSchema`: a boolean
type-code LUT replaces the per-event ``event_type in relevant`` check,
and the query's local predicates compile into vectorized boolean column
masks that replicate :mod:`repro.query.predicates` semantics (events of
other types pass vacuously; a missing attribute means the per-event path
would raise :class:`~repro.errors.PredicateError`).

A plan exists when the compiled runtime is a windowed
:class:`~repro.core.vectorized.VectorizedSemEngine` — flat, or the
:class:`~repro.core.partition_table.PartitionTable` of a GROUP BY on one
attribute — tracing is off, and every predicate is mask-compilable.
Negation runs in the kernel (the Recounting Rule is a slot wipe); GROUP
BY runs as one grouping of the key column and one kernel call across
every partition the batch touches. :func:`decline_reason` names what
keeps a registration off the kernel (``kleene``, ``unwindowed``,
``not_vectorized``, ``composite_key``, ``scalar_equivalence``,
``predicate_kind``, ``tracing``); a batch whose columns cannot satisfy
the plan declines for that batch alone (``missing_attribute``,
``missing_key``). Every decline goes through the batch→Event
materializer, so results and raised errors stay bit-identical to the
reference engine.

A flat registration's kernel has two bodies (see
:meth:`~repro.core.vectorized.VectorizedSemEngine.process_columns`):
the row loop, which runs every plan, and a batch-level closed form for
flat COUNT plans. :func:`closed_form_decline` names what keeps a flat
plan on the row loop (``aggregate``, ``negation``, ``adjacent_slots``);
a GROUP BY plan runs the partition table's kernel
(:meth:`~repro.core.partition_table.PartitionTable.process_batch_columns`).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.aggregates import PatternLayout
from repro.core.hpc import flat_runtime_kind, partition_attributes
from repro.events.batch import BatchSchema, EventBatch
from repro.query.ast import AggKind, Query
from repro.query.predicates import (
    AttributeComparison,
    EquivalencePredicate,
    LocalPredicate,
    comparison_fn,
)

#: Mask transformer: mutate ``mask`` in place for one predicate; a
#: False return means "this batch needs the per-event fallback".
_MaskFn = Callable[[EventBatch, np.ndarray, np.ndarray], bool]


def decline_reason(
    query: Query, vectorized: bool, tracing: bool = False
) -> str | None:
    """Why a registration of ``query`` stays off the kernel, as a slug
    (None = columnar-capable). Schema-independent: it mirrors the
    runtime :class:`~repro.core.executor.ASeqEngine` compiles."""
    if tracing:
        # Tracing is a per-event debug surface; the kernel would have
        # to re-trace arrivals one by one, which defeats the lane.
        return "tracing"
    if query.pattern.has_kleene:
        return "kleene"
    runtime = flat_runtime_kind(query, vectorized)
    if runtime != "vectorized_sem":
        return "unwindowed" if runtime == "dpc" else "not_vectorized"
    attributes = partition_attributes(query)
    if len(attributes) > 1:
        return "composite_key"
    if attributes and query.group_by is None:
        # A TRIG value sums every partition at that instant; the
        # per-partition kernel calls cannot see each other mid-batch.
        return "scalar_equivalence"
    if not all(
        isinstance(
            p, (LocalPredicate, AttributeComparison, EquivalencePredicate)
        )
        for p in query.predicates
    ):
        return "predicate_kind"
    return None


def closed_form_decline(layout: PatternLayout) -> str | None:
    """Why a flat columnar-capable registration stays on the kernel's
    row loop, as a slug (None = the closed-form COUNT kernel may run).

    The closed form inverts the per-row counter update, so it needs an
    update that *has* an exact inverse: ``aggregate`` — SUM/AVG would
    subtract floats and lose bit-identity, MAX/MIN have no inverse at
    all; ``negation`` — a Recounting-Rule wipe is a projection;
    ``adjacent_slots`` — a type holding slots ``k`` and ``k + 1`` (both
    ≥ 1, as in ``SEQ(A, B, B)``) makes the row's update ``I + N`` with
    ``N² ≠ 0``, whose inverse is no longer ``I − N``.
    """
    if layout.agg_kind is not AggKind.COUNT:
        return "aggregate"
    if layout.reset_slot:
        return "negation"
    for slots in layout.update_slots.values():
        held = set(slots)
        if any(slot >= 1 and slot + 1 in held for slot in slots):
            return "adjacent_slots"
    return None


def columnar_capable(executor: Any) -> bool:
    """Schema-independent capability check for one executor."""
    return getattr(executor, "columnar_decline", "not_vectorized") is None


def _compile_local(
    predicate: LocalPredicate, schema: BatchSchema
) -> _MaskFn | None:
    code = schema.code_of.get(predicate.event_type)
    if code is None:
        return None  # no rows of this type can exist: vacuous pass
    op = comparison_fn(predicate.op)
    name = predicate.attribute
    constant = predicate.value

    def apply(
        batch: EventBatch, codes: np.ndarray, mask: np.ndarray
    ) -> bool:
        selected = codes == code
        if not selected.any():
            return True
        column = batch.cols.get(name)
        if column is None:
            return False  # attribute missing: per-event path raises
        missing = batch.present.get(name)
        if missing is not None and bool((selected & ~missing).any()):
            return False
        accepted = op(column, constant)
        np.logical_and(mask, ~selected | accepted, out=mask)
        return True

    return apply


def _compile_comparison(
    predicate: AttributeComparison, schema: BatchSchema
) -> _MaskFn | None:
    code = schema.code_of.get(predicate.event_type)
    if code is None:
        return None
    op = comparison_fn(predicate.op)
    left = predicate.left_attribute
    right = predicate.right_attribute

    def apply(
        batch: EventBatch, codes: np.ndarray, mask: np.ndarray
    ) -> bool:
        selected = codes == code
        if not selected.any():
            return True
        left_col = batch.cols.get(left)
        right_col = batch.cols.get(right)
        if left_col is None or right_col is None:
            return False
        for name in (left, right):
            missing = batch.present.get(name)
            if missing is not None and bool(
                (selected & ~missing).any()
            ):
                return False
        accepted = op(left_col, right_col)
        np.logical_and(mask, ~selected | accepted, out=mask)
        return True

    return apply


class ColumnarPlan:
    """One registration's bound plan for one batch schema."""

    __slots__ = (
        "schema",
        "routed_lut",
        "slots_of_code",
        "is_start",
        "is_trigger",
        "slot_luts",
        "start_lut",
        "trigger_lut",
        "reset_lut",
        "closed_form_decline",
        "needs_value",
        "value_attribute",
        "value_needed_lut",
        "key_attribute",
        "last_decline",
        "_mask_fns",
    )

    def __init__(self, executor: Any, schema: BatchSchema) -> None:
        layout = executor.layout
        n_types = len(schema.types)
        self.schema = schema
        self.routed_lut = np.zeros(n_types, dtype=bool)
        #: type code -> slots the kernel updates, descending. A negated
        #: type's entry is ``(~reset_slot,)``: the complement is the
        #: only negative slot value, so the kernel's existing "skip
        #: slot 0" test doubles as the Recounting Rule dispatch and
        #: positive rows pay nothing for it.
        slots_of: list[tuple[int, ...]] = [()] * n_types
        #: The same lookups as arrays, for whole-slice indexing:
        #: ``slot_luts[k, code]`` is 1 when a row of this type updates
        #: slot ``k`` (reset slots are not updates and stay 0) — int64
        #: because the closed form multiplies counts by it.
        self.slot_luts = np.zeros((layout.length, n_types), dtype=np.int64)
        self.start_lut = np.zeros(n_types, dtype=bool)
        self.trigger_lut = np.zeros(n_types, dtype=bool)
        value_lut = np.zeros(n_types, dtype=bool)
        for name, slots in layout.update_slots.items():
            code = schema.code_of.get(name)
            if code is None:
                continue
            self.routed_lut[code] = True
            slots_of[code] = slots
            self.slot_luts[list(slots), code] = 1
            self.start_lut[code] = name in layout.start_types
            self.trigger_lut[code] = name in layout.trigger_types
            value_lut[code] = layout.value_slot in slots
        # The row loop indexes by one Python int at a time, where a
        # list beats an array.
        self.is_start = self.start_lut.tolist()
        self.is_trigger = self.trigger_lut.tolist()
        #: type code -> the slot its rows wipe (Recounting Rule), -1
        #: for a positive type.
        self.reset_lut = np.full(n_types, -1, dtype=np.int64)
        for name, reset in layout.reset_slot.items():
            code = schema.code_of.get(name)
            if code is not None:
                self.routed_lut[code] = True
                slots_of[code] = (~reset,)
                self.reset_lut[code] = reset
        self.slots_of_code = slots_of
        self.value_attribute = (
            layout.value_attribute if layout.value_slot >= 0 else None
        )
        # All False for COUNT, whose value slot (-1) is no one's slot.
        self.value_needed_lut = value_lut
        self.needs_value = bool(value_lut.any())
        #: The GROUP BY column of a partitioned registration (None for a
        #: flat one): every kept row must carry it.
        attributes = partition_attributes(executor.query)
        self.key_attribute = attributes[0] if attributes else None
        #: Why a flat plan's slices stay on the kernel's row loop (None
        #: = the closed form may take them). A partitioned plan has one
        #: body, the partition table's, whatever this says.
        self.closed_form_decline = closed_form_decline(layout)
        #: Why the latest :meth:`evaluate` returned None.
        self.last_decline: str | None = None
        mask_fns: list[_MaskFn] = []
        for predicate in executor.query.predicates:
            if isinstance(predicate, LocalPredicate):
                fn = _compile_local(predicate, schema)
            elif isinstance(predicate, AttributeComparison):
                fn = _compile_comparison(predicate, schema)
            else:
                continue  # the equivalence chain is the partitioning
            if fn is not None:
                mask_fns.append(fn)
        self._mask_fns = mask_fns

    def evaluate(
        self, batch: EventBatch
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Routing + predicate masks for one batch.

        Returns ``(routed_idx, kept_idx)`` — rows of relevant types,
        then the subset passing every local predicate — or None when
        this batch needs the materialized fallback, with the reason in
        :attr:`last_decline`: ``missing_attribute`` when a predicate or
        the aggregate's value column cannot be evaluated columnar-
        exactly, ``missing_key`` when a kept row lacks the partition
        key (a key-less negated row invalidates every partition; any
        other key-less row makes the per-event path raise
        :class:`~repro.errors.PredicateError`). Nothing but that slug
        is written before a None return.
        """
        codes = batch.codes
        routed_mask = self.routed_lut.take(codes)
        routed_idx = np.flatnonzero(routed_mask)
        if not routed_idx.size:
            return routed_idx, routed_idx
        if self._mask_fns:
            mask = routed_mask.copy()
            try:
                for fn in self._mask_fns:
                    if not fn(batch, codes, mask):
                        return self._decline("missing_attribute")
            except Exception:
                # Heterogeneous columns can make a vectorized compare
                # raise where the short-circuiting per-event evaluator
                # would not; the fallback path settles it exactly.
                return self._decline("missing_attribute")
            kept_idx = np.flatnonzero(mask)
        else:
            kept_idx = routed_idx
        if not kept_idx.size:
            return routed_idx, kept_idx
        if self.key_attribute is not None and not _covers(
            batch, self.key_attribute, kept_idx
        ):
            return self._decline("missing_key")
        if self.needs_value:
            needed = kept_idx[
                self.value_needed_lut.take(codes.take(kept_idx))
            ]
            if needed.size and not _covers(
                batch, self.value_attribute, needed
            ):
                # The per-event path raises PredicateError here.
                return self._decline("missing_attribute")
        return routed_idx, kept_idx

    @property
    def routes_only(self) -> bool:
        """Whether :meth:`evaluate` keeps exactly the rows it routes (no
        predicate mask, no column to check)."""
        return not (
            self._mask_fns or self.key_attribute is not None
            or self.needs_value
        )

    def _decline(self, reason: str) -> None:
        self.last_decline = reason
        return None

    def values_for(
        self, batch: EventBatch, kept_idx: np.ndarray
    ) -> list[Any] | None:
        """The aggregate value column for the kept rows (None for COUNT
        or when no kept row needs a value)."""
        if not self.needs_value:
            return None
        column = batch.cols.get(self.value_attribute)
        if column is None:
            return None
        return column[kept_idx].tolist()


class GroupPlan:
    """Closed-form plans of one pattern length, bound to one schema as a
    group: one routing pass over a batch for all of them, and their
    kernel lookups side by side for one shared scan (see
    :meth:`~repro.core.vectorized.VectorizedSemEngine.process_group`).

    Member ``m``'s row of type ``code`` looks up column ``m · n_types +
    code`` of :attr:`slot_luts` / :attr:`trigger_lut`.
    """

    __slots__ = ("plans", "n_types", "slot_luts", "trigger_lut", "_owners")

    def __init__(self, plans: list[ColumnarPlan]) -> None:
        self.plans = plans
        self.n_types = n_types = len(plans[0].routed_lut)
        self.slot_luts = np.concatenate([p.slot_luts for p in plans], axis=1)
        self.trigger_lut = np.concatenate([p.trigger_lut for p in plans])
        routed = np.array([p.routed_lut for p in plans])
        # type code -> the members routing it, -1 padded: a type two
        # members share sends its rows to both.
        owners = np.full(
            (n_types, max(1, int(routed.sum(axis=0).max()))), -1,
            dtype=np.int16,
        )
        for code in range(n_types):
            members = np.flatnonzero(routed[:, code])
            owners[code, :members.size] = members
        self._owners = owners

    def route(self, batch: EventBatch) -> tuple[np.ndarray, list[int]]:
        """Every member's routed rows, member by member: member ``m``'s
        are ``rows[bounds[m]:bounds[m + 1]]``, ascending — what its
        plan's :meth:`ColumnarPlan.evaluate` routes."""
        owners = self._owners[batch.codes]
        width = owners.shape[1]
        flat = owners.ravel()
        picked = np.flatnonzero(flat >= 0)
        owner = flat[picked]
        order = owner.argsort(kind="stable")
        rows = (picked if width == 1 else picked // width)[order]
        bounds = [0]
        bounds += np.bincount(owner, minlength=len(self.plans)).cumsum().tolist()
        return rows, bounds


def _covers(batch: EventBatch, name: str, rows: np.ndarray) -> bool:
    """Whether every row of ``rows`` carries attribute ``name``."""
    if name not in batch.cols:
        return False
    present = batch.present.get(name)
    return present is None or bool(present[rows].all())


def plan_for(executor: Any, schema: BatchSchema) -> ColumnarPlan | None:
    """Build the plan binding ``executor`` to ``schema`` (None when the
    registration is not columnar-capable)."""
    if not columnar_capable(executor):
        return None
    return ColumnarPlan(executor, schema)
