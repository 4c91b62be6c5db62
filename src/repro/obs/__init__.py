"""Observability: metrics registry, event-lifecycle tracing, exporters.

The engines accept an optional :class:`MetricsRegistry` (and, where it
makes sense, a :class:`TraceRecorder`). When none is given they fall
back to the process-global default — the :data:`NULL_REGISTRY` unless
something (the CLI's ``--metrics-out``, a bench harness, a test)
installed a real one — so instrumentation costs one boolean check per
event when disabled.

On top of the passive instrumentation sit the live ops plane pieces:
:class:`AdminServer` (an embedded admin HTTP endpoint serving
``/metrics``, ``/healthz``, ``/queries``, ...), the :mod:`engine
introspection helpers <repro.obs.inspect>` behind it, and the
rate-limited structured logger of :mod:`repro.obs.logging`.

See ``docs/OBSERVABILITY.md`` for the metric catalogue, the endpoint
catalogue, and naming conventions.
"""

from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    SnapshotMerger,
    get_default_registry,
    metric_state,
    registry_state,
    resolve_registry,
    set_default_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    Span,
    Stage,
    TraceRecorder,
    resolve_tracer,
    stitch_spans,
)
from repro.obs.export import (
    registry_snapshot,
    render_sparklines,
    to_prometheus,
    write_json_snapshot,
    write_prometheus,
)
from repro.obs.history import HistoryRecorder, default_history
from repro.obs.funnel import (
    NULL_FUNNEL,
    FunnelRecorder,
    NullFunnel,
    QueryFunnel,
    funnel_rows,
    funnel_totals,
    get_default_funnel,
    resolve_funnel,
    set_default_funnel,
)
from repro.obs.explain import (
    drift_from_counts,
    drift_from_funnel,
    explain_engine,
    explain_query,
    render_explain,
)
from repro.obs.workload_profile import (
    build_workload_profile,
    load_workload_profile,
    write_workload_profile,
)
from repro.obs.profile import SamplingProfiler, collapsed_text
from repro.obs.inspect import (
    cost_summary,
    engine_inspect,
    health_snapshot,
    query_rows,
    state_of,
)
from repro.obs.logging import (
    LogConfig,
    StructLogger,
    configure,
    get_logger,
    install_config,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_default_registry",
    "set_default_registry",
    "resolve_registry",
    "Span",
    "Stage",
    "TraceRecorder",
    "NULL_TRACER",
    "resolve_tracer",
    "SnapshotMerger",
    "metric_state",
    "registry_state",
    "stitch_spans",
    "registry_snapshot",
    "render_sparklines",
    "to_prometheus",
    "write_json_snapshot",
    "write_prometheus",
    "HistoryRecorder",
    "default_history",
    "FunnelRecorder",
    "NullFunnel",
    "NULL_FUNNEL",
    "QueryFunnel",
    "funnel_rows",
    "funnel_totals",
    "get_default_funnel",
    "set_default_funnel",
    "resolve_funnel",
    "explain_engine",
    "explain_query",
    "render_explain",
    "drift_from_funnel",
    "drift_from_counts",
    "build_workload_profile",
    "write_workload_profile",
    "load_workload_profile",
    "SamplingProfiler",
    "collapsed_text",
    "AdminServer",
    "LogConfig",
    "StructLogger",
    "configure",
    "get_logger",
    "install_config",
    "cost_summary",
    "engine_inspect",
    "health_snapshot",
    "query_rows",
    "state_of",
]


def __getattr__(name: str):
    """``AdminServer`` on first use: importing it pulls in the HTTP
    server modules, which a process without an admin port never needs."""
    if name == "AdminServer":
        from repro.obs.server import AdminServer

        return AdminServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
