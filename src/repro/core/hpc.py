"""HPC — Hashed Prefix Counters (paper Sec. 3.4, Fig. 8).

Equivalence predicates (``A.id = B.id = C.id``) and GROUP BY both
partition the stream by an attribute value; the pattern is then
aggregated independently inside each partition. For an equivalence
predicate the partition results are summed; for GROUP BY they are
reported per key. :class:`HPCEngine` runs a nested DPC/SEM engine per
partition; a GROUP BY on one attribute that the columnar kernel takes
runs as one :class:`~repro.core.partition_table.PartitionTable`
instead, every partition's counters in shared columns.

Partitioning requires the chain to cover every positive pattern type
(as in all of the paper's examples); a partial chain would force
uncovered events into every partition, which the paper does not define
— the executor rejects such queries up front. Negated types may be
uncovered: a negative instance that carries the partition attribute
invalidates only its own partition, one that does not carries no key
and invalidates every partition.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


from repro.errors import PredicateError, QueryError
from repro.events.event import Event
from repro.core.aggregates import PatternLayout
from repro.core.dpc import DPCEngine
from repro.core.sem import SemEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.obs.funnel import FunnelRecorder, resolve_funnel
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.tracing import Stage, TraceRecorder, resolve_tracer
from repro.query.ast import AggKind, Query
from repro.query.predicates import EquivalencePredicate


def partition_attributes(query: Query) -> tuple[str, ...]:
    """The attributes HPC partitions on (composite keys for several
    chains); empty for unpartitioned queries.

    Each equivalence chain must cover every positive pattern type (as
    in all of the paper's examples) and use one attribute name across
    its terms; several chains partition by the attribute tuple. GROUP
    BY and chains may coexist only when GROUP BY names one of the chain
    attributes (the common "per user" idiom); anything else needs
    semantics the paper does not define.
    """
    equivalences = [
        p for p in query.predicates if isinstance(p, EquivalencePredicate)
    ]
    chain_attributes: list[str] = []
    for chain in equivalences:
        covered = set(chain.event_types)
        missing = set(query.pattern.all_positive_event_types) - covered
        if missing:
            raise QueryError(
                f"equivalence chain {chain} must cover every positive "
                f"pattern type; missing {sorted(missing)}"
            )
        attributes = {attr for _, attr in chain.terms}
        if len(attributes) != 1:
            raise QueryError(
                "HPC partitioning needs the same attribute name on every "
                "term of the equivalence chain"
            )
        attribute = next(iter(attributes))
        if attribute in chain_attributes:
            raise QueryError(
                f"duplicate equivalence chains on attribute {attribute!r}"
            )
        chain_attributes.append(attribute)
    if query.group_by is not None:
        # The composite key leads with GROUP BY's attribute; the
        # per-group report combines partitions sharing that component.
        ordered = [query.group_by] + [
            a for a in chain_attributes if a != query.group_by
        ]
        return tuple(ordered)
    return tuple(chain_attributes)


def partition_attribute(query: Query) -> str | None:
    """Back-compat single-attribute view (None when unpartitioned).

    Raises for multi-chain queries — use :func:`partition_attributes`.
    """
    attributes = partition_attributes(query)
    if not attributes:
        return None
    if len(attributes) > 1:
        raise QueryError(
            f"query partitions on a composite key {attributes!r}; use "
            f"partition_attributes()"
        )
    return attributes[0]


def flat_runtime_kind(query: Query, vectorized: bool = False) -> str:
    """Which counting runtime one partition of ``query`` — or all of an
    unpartitioned query — compiles onto: ``dpc`` (unwindowed: O(1) per
    event, nothing to vectorize), else ``vectorized_sem`` or ``sem``.

    The one place this is decided; the executor, :class:`HPCEngine`,
    EXPLAIN and the columnar decline slugs all read it.
    """
    if query.window is None:
        return "dpc"
    return "vectorized_sem" if vectorized else "sem"


def flat_runtime(
    query: Query,
    layout: PatternLayout,
    vectorized: bool = False,
    registry: MetricsRegistry | None = None,
    trace: TraceRecorder | None = None,
    funnel: FunnelRecorder | None = None,
) -> Any:
    """Build the runtime :func:`flat_runtime_kind` names."""
    kind = flat_runtime_kind(query, vectorized)
    if kind == "dpc":
        return DPCEngine(query, layout, funnel=funnel)
    runtime = VectorizedSemEngine if kind == "vectorized_sem" else SemEngine
    return runtime(
        query, layout, registry=registry, trace=trace, funnel=funnel
    )


class HPCEngine:
    """Partitioned A-Seq evaluation (equivalence predicates / GROUP BY)."""

    def __init__(
        self,
        query: Query,
        engine_factory: Callable[[Query], Any] | None = None,
        registry: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
        funnel: FunnelRecorder | None = None,
    ):
        self.query = query
        attributes = partition_attributes(query)
        if not attributes:
            raise QueryError(
                "HPC needs an equivalence predicate or a GROUP BY clause"
            )
        self._attributes = attributes
        self._composite = len(attributes) > 1
        self._per_group = query.group_by is not None
        self.layout = PatternLayout.of(query)
        # Partition engines share one funnel series per query name (the
        # registry keys metrics on (name, labels)), so funnel counts sum
        # naturally across partitions.
        self._funnel = resolve_funnel(funnel)
        if engine_factory is None:
            def engine_factory(q: Query) -> Any:
                return flat_runtime(
                    q, self.layout, registry=self.obs_registry,
                    trace=self._trace, funnel=self._funnel,
                )
        self._engine_factory = engine_factory
        self._partitions: dict[Any, Any] = {}
        #: GROUP BY value (the leading key component) -> its engines.
        self._by_group: dict[Any, list[Any]] = {}
        #: Sum of the partitions' current_objects(), kept exactly by
        #: process() (the executor samples it after every event); None
        #: when a path that touches many partitions made it stale, so
        #: the next current_objects() recounts once.
        self._objects: int | None = 0
        self._negated = set(query.pattern.negated_types)
        self._trigger_types = self.layout.trigger_types
        self._now = 0
        self.events_processed = 0
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
        trace = resolve_tracer(trace)
        self._trace = trace
        self._trace_on = trace.enabled

    def _key_of(self, event: Event) -> Any:
        """Partition key of ``event`` (scalar or composite tuple).

        Returns ``_MISSING`` when any component attribute is absent.
        """
        if not self._composite:
            return event.get(self._attributes[0], _MISSING)
        components = []
        for attribute in self._attributes:
            value = event.get(attribute, _MISSING)
            if value is _MISSING:
                return _MISSING
            components.append(value)
        return tuple(components)

    def process(self, event: Event) -> Any | None:
        """Ingest one (pre-filtered) event; returns the aggregate on TRIG."""
        self.events_processed += 1
        self._now = max(self._now, event.ts)
        key = self._key_of(event)
        if key is _MISSING:
            if event.event_type in self._negated:
                self._objects = None
                for engine in self._partitions.values():
                    engine.process(event)
                return None
            raise PredicateError(
                f"event of type {event.event_type!r} lacks partition "
                f"attribute(s) {self._attributes!r}"
            )
        engine = self._partitions.get(key)
        if engine is None:
            engine = self._open_partition(key)
            if self._trace_on:
                self._trace.record(
                    Stage.PARTITION_CREATE, event.ts, event.event_type,
                    f"key={key!r} partitions={len(self._partitions)}",
                )
        # Stale while the partition runs, so a raising engine leaves
        # the total to be recounted rather than wrong.
        objects, self._objects = self._objects, None
        if objects is None:
            engine.process(event)
        else:
            objects -= engine.current_objects()
            engine.process(event)
            self._objects = objects + engine.current_objects()
        if event.event_type in self._trigger_types:
            if self._per_group:
                # Paper Sec. 3.4: GROUP BY results are output per
                # partition — and only this group's aggregate can have
                # changed on this arrival.
                group = key[0] if self._composite else key
                return {group: self._group_result(group)}
            return self.result()
        return None

    def _open_partition(self, key: Any) -> Any:
        """Hold a fresh engine as ``key``'s."""
        engine = self._engine_factory(self.query)
        self._partitions[key] = engine
        if self._per_group:
            group = key[0] if self._composite else key
            self._by_group.setdefault(group, []).append(engine)
        if self._objects is not None:
            self._objects += engine.current_objects()
        if self._obs_on:
            self._m_partitions_created.inc()
            self._m_partitions_live.set(len(self._partitions))
        return engine

    # ----- results -------------------------------------------------------------

    def result(self) -> Any:
        """Per-key dict for GROUP BY; combined scalar for equivalence."""
        self._objects = None
        for engine in self._partitions.values():
            engine.advance_time(self._now)
        if self._per_group:
            return {
                group: self._combined(engines)
                for group, engines in self._by_group.items()
            }
        return self._combined(list(self._partitions.values()))

    def _group_result(self, group: Any) -> Any:
        engines = self._by_group.get(group, [])
        objects, self._objects = self._objects, None
        if objects is None:
            for engine in engines:
                engine.advance_time(self._now)
        else:
            for engine in engines:
                objects -= engine.current_objects()
                engine.advance_time(self._now)
                objects += engine.current_objects()
            self._objects = objects
        return self._combined(engines)

    def advance_time(self, now: int) -> None:
        """Move the shared clock forward (events of irrelevant types)."""
        self._now = max(self._now, now)

    def count_and_wsum(self) -> tuple[int, float]:
        """COUNT and weighted-sum totals over every partition.

        The partition results compose exactly (disjoint keys, paper
        Sec. 3.4), which is also what lets :class:`ShardedStreamEngine`
        merge AVG across worker processes without precision loss.
        """
        self._objects = None
        total_count = 0
        total = 0.0
        for engine in self._partitions.values():
            engine.advance_time(self._now)
            count, wsum = engine.count_and_wsum()
            total_count += count
            total += wsum
        return total_count, total

    def group_count_and_wsum(self) -> dict[Any, tuple[int, float]]:
        """Per-group COUNT/weighted-sum totals (GROUP BY AVG merge)."""
        self._objects = None
        totals: dict[Any, tuple[int, float]] = {}
        for group, engines in self._by_group.items():
            total_count = 0
            total = 0.0
            for engine in engines:
                engine.advance_time(self._now)
                count, wsum = engine.count_and_wsum()
                total_count += count
                total += wsum
            totals[group] = (total_count, total)
        return totals

    def _combined(self, engines: list[Any]) -> Any:
        kind = self.layout.agg_kind
        results = [engine.result() for engine in engines]
        if kind is AggKind.COUNT:
            return sum(results)
        if kind is AggKind.SUM:
            return sum(results)
        if kind is AggKind.AVG:
            total_count = 0
            total = 0.0
            for engine in engines:
                count, wsum = engine.count_and_wsum()
                total_count += count
                total += wsum
            return total / total_count if total_count else None
        extrema = [r for r in results if r is not None]
        if not extrema:
            return None
        return max(extrema) if self.layout.prefers_max else min(extrema)

    # ----- introspection -----------------------------------------------------------

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    def partitions(self) -> Iterator[tuple[Any, Any]]:
        return iter(self._partitions.items())

    def current_objects(self) -> int:
        objects = self._objects
        if objects is None:
            objects = self._objects = sum(
                engine.current_objects()
                for engine in self._partitions.values()
            )
        return objects

    @property
    def counter_updates(self) -> int:
        """Slot/counter updates summed across partition engines."""
        return sum(
            getattr(engine, "counter_updates", 0)
            for engine in list(self._partitions.values())
        )

    def inspect(self, max_partitions: int = 16) -> dict[str, Any]:
        """JSON-serializable state summary (admin endpoints).

        ``partitions`` holds the ``max_partitions`` heaviest keys by
        live object count, each with its nested engine summary trimmed
        to the totals (no per-counter dumps at this level).
        """
        partitions = list(self._partitions.items())
        weighted = []
        for key, engine in partitions:
            objects = engine.current_objects()
            weighted.append((objects, repr(key), engine))
        weighted.sort(key=lambda item: item[0], reverse=True)
        top = []
        for objects, key_repr, engine in weighted[:max_partitions]:
            top.append({
                "key": key_repr,
                "objects": objects,
                "events_processed": getattr(engine, "events_processed", 0),
            })
        return {
            "kind": "hpc",
            "query": self.query.name,
            "partition_attributes": list(self._attributes),
            "per_group": self._per_group,
            "now": self._now,
            "events_processed": self.events_processed,
            "counter_updates": self.counter_updates,
            "partition_count": len(partitions),
            "active_counters": sum(item[0] for item in weighted),
            "agg": self.layout.agg_kind.name.lower(),
            "partitions": top,
            "partitions_truncated": max(0, len(partitions) - max_partitions),
        }


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
