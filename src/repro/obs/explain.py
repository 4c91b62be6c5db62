"""EXPLAIN plans: what the engine decided to do with a query.

An explain plan is a JSON-serializable dict with a stable shape
(``EXPLAIN_VERSION``) describing, per query:

* the parsed pattern and its dialect features (window, negation,
  Kleene, choice, predicates, GROUP BY, aggregate);
* the chosen execution path — which runtime the query compiles onto
  (DPC / SEM / vectorized SEM / HPC), which lane it runs in
  (per-event, routed, or a shard fleet), whether ``EventBatch``
  ingest reaches the columnar kernel or why it is materialized instead,
  and on the kernel, whether slices run the closed form or the row loop;
* the sharing strategy for multi-query engines — which prefixes or
  chopped segments are shared with which other queries;
* the cost model's *estimated* per-event update cost, so operators can
  later compare it against the funnel's *observed* cost
  (:func:`drift_from_funnel`).

:func:`explain_engine` duck-types over every engine family in the
library; engines' own ``explain()`` methods delegate here.
:func:`render_explain` turns a plan into deterministic text for the
``repro explain`` CLI (and the golden-file tests).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.query.ast import Query, common_prefix_length

#: Bumped when the plan dict shape changes incompatibly.
EXPLAIN_VERSION = 1

#: Default instances-per-type-per-window assumption for the a-priori
#: estimate (the benchmarks' fig12 default rate).
DEFAULT_RATE_PER_TYPE = 16.0


# ----- single-query plans -----------------------------------------------------


def runtime_of(query: Query, vectorized: bool = False) -> dict[str, Any]:
    """The runtime :class:`repro.core.executor.ASeqEngine` compiles
    ``query`` onto, as :func:`repro.core.hpc.flat_runtime_kind` and
    :func:`~repro.core.hpc.partition_attributes` decide it."""
    from repro.core.hpc import flat_runtime_kind, partition_attributes

    attributes = partition_attributes(query)
    inner = flat_runtime_kind(query, vectorized)
    return {
        "kind": "hpc" if attributes else inner,
        "inner": inner if attributes else None,
        "partition_attribute": attributes[0] if attributes else None,
        "vectorized": inner == "vectorized_sem",
    }


def columnar_of(reason: str | None) -> dict[str, Any]:
    """The plan's ``columnar`` entry for one decline slug (see
    :func:`repro.core.columnar.decline_reason`; None = on the kernel)."""
    return {"capable": reason is None, "reason": reason}


def kernel_of(query: Query) -> dict[str, Any]:
    """Which body of the columnar kernel a capable registration's
    slices run: a GROUP BY's partition table
    (:class:`repro.core.partition_table.PartitionTable`), else the closed-form COUNT
    kernel, or the row loop and why (see
    :func:`repro.core.columnar.closed_form_decline`)."""
    from repro.core.aggregates import PatternLayout
    from repro.core.columnar import closed_form_decline
    from repro.core.hpc import partition_attributes

    if partition_attributes(query):
        return {"kind": "partition_table", "reason": None}
    reason = closed_form_decline(PatternLayout.of(query))
    return {
        "kind": "closed_form" if reason is None else "row_loop",
        "reason": reason,
    }


def estimate_cost(
    query: Query, rate_per_type: float = DEFAULT_RATE_PER_TYPE
) -> dict[str, Any]:
    """A-priori per-event cost from the paper's cost models (Eq. 3).

    ``updates_per_event`` is what the funnel later measures as
    ``runs_extended / predicate_pass``: under SEM each relevant arrival
    touches every live counter (≈ one per START instance in the
    window, i.e. ``rate_per_type``); under DPC exactly one.
    """
    positives = query.pattern.positive_types
    counts = [rate_per_type] * len(positives)
    from repro.baseline.cost_model import aseq_cost, stack_based_cost

    updates = 1.0 if query.window is None else float(rate_per_type)
    stack = stack_based_cost(counts)
    aseq = aseq_cost(counts)
    return {
        "model": "aseq",
        "assumed_rate_per_type_per_window": float(rate_per_type),
        "updates_per_event": updates,
        "aseq_per_window": aseq,
        "stack_based_per_window": stack,
        "speedup_vs_stack": (stack / aseq) if aseq else None,
    }


def explain_query(
    query: Query,
    vectorized: bool = False,
    lane: str = "per_event",
    sharing: dict[str, Any] | None = None,
    rate_per_type: float = DEFAULT_RATE_PER_TYPE,
) -> dict[str, Any]:
    """One query's full plan (pattern, features, runtime, estimate)."""
    from repro.core.columnar import decline_reason

    pattern = query.pattern
    positives = pattern.positive_types
    columnar = columnar_of(decline_reason(query, vectorized))
    return {
        "name": query.name,
        "text": " ".join(str(query).split()),
        "pattern": {
            "elements": [str(element) for element in pattern],
            "length": pattern.length,
            "positive_types": list(positives),
            "negated_types": list(pattern.negated_types),
        },
        "features": {
            "window_ms": (
                query.window.size_ms if query.window is not None else None
            ),
            "negation": pattern.has_negation,
            "kleene": pattern.has_kleene,
            "choice": any("|" in label for label in positives),
            "predicates": len(query.predicates),
            "group_by": query.group_by,
            "aggregate": str(query.aggregate),
        },
        "runtime": runtime_of(query, vectorized),
        "lane": lane,
        "columnar": columnar,
        # Only a registration on the kernel has a kernel body to name.
        "kernel": kernel_of(query) if columnar["capable"] else None,
        "sharing": sharing or {"strategy": "unshared", "shared_with": []},
        "estimated": estimate_cost(query, rate_per_type),
    }


# ----- estimated-vs-observed drift --------------------------------------------


def drift_from_funnel(
    query: Query, row: dict[str, Any]
) -> dict[str, float] | None:
    """Compare the cost model against one funnel snapshot.

    ``row`` is :meth:`repro.obs.funnel.QueryFunnel.snapshot` (or one of
    :func:`repro.obs.funnel.funnel_rows`): observed cost is counter
    updates per runtime-reaching event; the estimate recovers the
    per-type rate from the funnel's own event-time span, so no assumed
    rate enters. Returns ``None`` while there is too little signal
    (nothing passed, no event-time span yet).
    """
    window_ms = query.window.size_ms if query.window is not None else None
    types = len(query.pattern.all_positive_event_types)
    return drift_from_counts(window_ms, types, row)


def drift_from_counts(
    window_ms: int | None, n_types: int, row: dict[str, Any]
) -> dict[str, float] | None:
    """The drift computation on plain numbers (profile-file callers
    have the explain plan, not a live :class:`Query`)."""
    passed = row.get("predicate_pass") or 0
    extended = row.get("runs_extended") or 0
    if passed < 1:
        return None
    observed = extended / passed
    if window_ms is None:
        # DPC: one slot update per relevant arrival, by construction.
        estimated = 1.0
    else:
        first = row.get("first_event_ms")
        last = row.get("last_event_ms")
        if first is None or last is None:
            return None
        span = float(last) - float(first)
        if span <= 0:
            return None
        # Live counters ≈ START instances per window ≈ per-type event
        # rate × window; each passing event updates all of them.
        estimated = passed * window_ms / span / max(1, n_types)
    if estimated <= 0:
        return None
    return {
        "observed_updates_per_event": observed,
        "estimated_updates_per_event": estimated,
        "drift_ratio": observed / estimated,
    }


# ----- engine dispatch --------------------------------------------------------


def explain_engine(engine: Any) -> dict[str, Any]:
    """Structured plan for any engine family in the library.

    Dispatch is duck-typed on each family's distinctive surface, most
    specific first, so wrappers (sharded → stream → workload) win over
    the leaf engines they contain.
    """
    if hasattr(engine, "shard_attribute") and hasattr(engine, "shards"):
        return _explain_sharded(engine)
    if hasattr(engine, "register_executor") and hasattr(engine, "executor_of"):
        return _explain_stream(engine)
    if hasattr(engine, "unshared_executor"):
        return _explain_workload(engine)
    if hasattr(engine, "snapshot_rows_of"):
        return _explain_chop_connect(engine)
    if hasattr(engine, "current_counters"):
        return _explain_prefix_shared(engine)
    if hasattr(engine, "shared_types"):
        return _explain_ecube(engine)
    if hasattr(engine, "engine") and hasattr(engine, "query_names"):
        return _explain_unshared(engine)
    query = getattr(engine, "query", None)
    if query is not None:
        return _plan(
            "executor",
            {
                (query.name or "q"): _executor_plan(
                    engine, lane="per_event"
                )
            },
        )
    raise TypeError(f"cannot explain {type(engine).__name__}")


def _plan(kind: str, queries: dict[str, Any], **extra: Any) -> dict[str, Any]:
    plan = {
        "explain_version": EXPLAIN_VERSION,
        "kind": kind,
        "queries": queries,
    }
    plan.update(extra)
    return plan


def _executor_plan(
    executor: Any,
    lane: str,
    sharing: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Plan for one live executor, preferring its actual compiled
    runtime over the static prediction."""
    query = executor.query
    plan = explain_query(
        query,
        vectorized=bool(getattr(executor, "_vectorized", False)),
        lane=lane,
        sharing=sharing,
    )
    runtime = getattr(executor, "runtime", None)
    if runtime is not None:
        plan["runtime"]["compiled"] = type(runtime).__name__
    if hasattr(executor, "columnar_decline"):
        # The live slug also knows whether tracing is on.
        plan["columnar"] = columnar_of(executor.columnar_decline)
        if not plan["columnar"]["capable"]:
            plan["kernel"] = None
    return plan


def _explain_stream(engine: Any) -> dict[str, Any]:
    lane = "routed" if engine.routed else "per_event"
    queries = {}
    for name in engine.query_names:
        executor = engine.executor_of(name)
        if hasattr(executor, "query"):
            queries[name] = _executor_plan(executor, lane=lane)
        else:
            queries[name] = {"name": name, "lane": lane, "opaque": True}
    return _plan("stream", queries, lane=lane)


def _explain_sharded(engine: Any) -> dict[str, Any]:
    queries = {}
    for name, (query, _sinks) in engine._specs.items():
        sharded = name in engine._sharded
        plan = explain_query(
            query,
            vectorized=engine._vectorized,
            lane="sharded" if sharded else "local",
        )
        if sharded:
            plan["shards"] = engine.shards
            plan["shard_attribute"] = engine.shard_attribute
        queries[name] = plan
    return _plan(
        "sharded",
        queries,
        shards=engine.shards,
        shard_attribute=engine.shard_attribute,
        sharded_queries=sorted(engine._sharded),
        local_queries=list(engine._local_names),
    )


def _segment_sharing(plans: Sequence[Any]) -> dict[str, dict[str, Any]]:
    """Who shares which chopped segment (the pool keys on
    (types, window), which is exactly (segment, window_ms))."""
    owners: dict[tuple[tuple[str, ...], int], list[str]] = {}
    for plan in plans:
        for segment in plan.segments:
            owners.setdefault((segment, plan.window_ms), []).append(
                plan.query.name
            )
    sharing = {}
    for plan in plans:
        name = plan.query.name
        segments = []
        for segment in plan.segments:
            shared_with = [
                other
                for other in owners[(segment, plan.window_ms)]
                if other != name
            ]
            segments.append(
                {
                    "types": list(segment),
                    "shared_with": sorted(shared_with),
                }
            )
        sharing[name] = {
            "strategy": "chop-connect",
            "segments": segments,
            "shared_with": sorted(
                {
                    other
                    for segment in segments
                    for other in segment["shared_with"]
                }
            ),
        }
    return sharing


def _explain_chop_connect(engine: Any) -> dict[str, Any]:
    plans = [pipeline.plan for pipeline in engine._pipelines.values()]
    sharing = _segment_sharing(plans)
    queries = {
        plan.query.name: explain_query(
            plan.query, lane="per_event", sharing=sharing[plan.query.name]
        )
        for plan in plans
    }
    return _plan(
        "chop_connect",
        queries,
        chops={str(plan): plan.cut_points for plan in plans},
    )


def _explain_prefix_shared(engine: Any) -> dict[str, Any]:
    queries = {}
    names = sorted(engine._queries)
    for name in names:
        query = engine._queries[name]
        shared_with = sorted(
            other
            for other in names
            if other != name
            and common_prefix_length(
                query.pattern, engine._queries[other].pattern
            )
            > 0
        )
        prefixes = {
            other: common_prefix_length(
                query.pattern, engine._queries[other].pattern
            )
            for other in shared_with
        }
        queries[name] = explain_query(
            query,
            lane="per_event",
            sharing={
                "strategy": "pretree",
                "shared_with": shared_with,
                "shared_prefix_length": prefixes,
            },
        )
    groups = [
        {
            "start": str(group.layout.start_label),
            "queries": sorted(group.layout.terminal_of),
            "trie_size": group.layout.size,
        }
        for group in engine._groups
    ]
    return _plan("prefix_shared", queries, groups=groups)


def _explain_ecube(engine: Any) -> dict[str, Any]:
    joined = sorted(engine._joins)
    queries = {}
    for name in engine.query_names:
        sharing = {
            "strategy": "ecube",
            "shared_substring": (
                list(engine.shared_types) if name in engine._joins else None
            ),
            "shared_with": (
                [other for other in joined if other != name]
                if name in engine._joins
                else []
            ),
        }
        queries[name] = explain_query(
            engine._queries[name], lane="per_event", sharing=sharing
        )
        queries[name]["runtime"] = {
            "kind": (
                "ecube_join" if name in engine._joins else "two_step"
            ),
            "vectorized": False,
        }
    return _plan(
        "ecube",
        queries,
        shared_types=list(engine.shared_types),
        joined=joined,
        private=sorted(engine._private),
    )


def _explain_unshared(engine: Any) -> dict[str, Any]:
    queries = {}
    for name in engine.query_names:
        executor = engine.engine(name)
        if hasattr(executor, "query"):
            queries[name] = _executor_plan(executor, lane="per_event")
        else:
            queries[name] = {"name": name, "opaque": True}
    return _plan("unshared", queries)


def _explain_workload(engine: Any) -> dict[str, Any]:
    queries: dict[str, Any] = {}
    shared = engine.shared_engine()
    if shared is not None:
        queries.update(_explain_chop_connect(shared)["queries"])
    for name in engine.unshared_query_names:
        executor = engine.unshared_executor(name)
        queries[name] = _executor_plan(executor, lane="per_event")
    return _plan(
        "workload",
        queries,
        shared_query_names=list(engine.shared_query_names),
        unshared_query_names=list(engine.unshared_query_names),
    )


# ----- rendering --------------------------------------------------------------


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def render_explain(plan: dict[str, Any]) -> str:
    """Deterministic text rendering of an engine plan (CLI, goldens)."""
    lines = [f"EXPLAIN ({plan['kind']})"]
    if plan["kind"] == "sharded":
        lines.append(
            f"  shards={plan['shards']} "
            f"shard_attribute={plan['shard_attribute'] or '-'}"
        )
    for name in sorted(plan["queries"]):
        query = plan["queries"][name]
        lines.append(f"query {name}:")
        if query.get("opaque"):
            lines.append("  (opaque executor)")
            continue
        if "text" in query:
            lines.append(f"  {query['text']}")
        features = query.get("features")
        runtime = query.get("runtime")
        if runtime is not None:
            kind = runtime["kind"]
            if runtime.get("inner"):
                kind = (
                    f"{kind}[{runtime['inner']}] "
                    f"by {runtime['partition_attribute']}"
                )
            lines.append(
                f"  lane: {query.get('lane', '-')}   runtime: {kind}"
                f"   vectorized: {_yes_no(runtime['vectorized'])}"
            )
        columnar = query.get("columnar")
        if columnar is not None:
            lines.append(
                "  columnar: "
                + (
                    "kernel"
                    if columnar["capable"]
                    else f"materialized ({columnar['reason']})"
                )
            )
        kernel = query.get("kernel")
        if kernel is not None:
            lines.append(
                "  kernel: "
                + (
                    kernel["kind"]
                    if kernel["reason"] is None
                    else f"{kernel['kind']} ({kernel['reason']})"
                )
            )
        if features is not None:
            window = features["window_ms"]
            lines.append(
                "  features: "
                f"window={'-' if window is None else f'{window}ms'} "
                f"negation={_yes_no(features['negation'])} "
                f"kleene={_yes_no(features['kleene'])} "
                f"predicates={features['predicates']} "
                f"group_by={features['group_by'] or '-'} "
                f"agg={features['aggregate']}"
            )
        sharing = query.get("sharing")
        if sharing is not None:
            strategy = sharing.get("strategy", "unshared")
            shared_with = sharing.get("shared_with") or []
            line = f"  sharing: {strategy}"
            if shared_with:
                line += f" with {', '.join(shared_with)}"
            lines.append(line)
            for segment in sharing.get("segments") or []:
                seg = ", ".join(segment["types"])
                with_ = segment["shared_with"]
                lines.append(
                    f"    segment ({seg})"
                    + (f" shared with {', '.join(with_)}" if with_ else "")
                )
            prefixes = sharing.get("shared_prefix_length") or {}
            for other in sorted(prefixes):
                lines.append(
                    f"    prefix of length {prefixes[other]} "
                    f"shared with {other}"
                )
        estimated = query.get("estimated")
        if estimated is not None:
            lines.append(
                "  estimated: "
                f"{estimated['updates_per_event']:.1f} updates/event "
                f"(assuming "
                f"{estimated['assumed_rate_per_type_per_window']:.0f} "
                "instances/type/window); "
                f"stack-based would cost "
                f"{estimated['stack_based_per_window']:.1f}/window "
                f"vs A-Seq {estimated['aseq_per_window']:.1f}"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "EXPLAIN_VERSION",
    "DEFAULT_RATE_PER_TYPE",
    "explain_query",
    "explain_engine",
    "estimate_cost",
    "runtime_of",
    "drift_from_funnel",
    "drift_from_counts",
    "render_explain",
]
