"""Streaming runtime: query registration, dispatch, sinks and metrics."""

from repro.engine.engine import StreamEngine
from repro.engine.metrics import EngineMetrics, RunStats, measure_run
from repro.engine.sinks import (
    CallbackSink,
    CollectSink,
    LatestSink,
    Output,
    ResultSink,
    ThresholdAlertSink,
)
from repro.engine.tumbling import TumblingAggregator, WindowResult, tumbling


def __getattr__(name: str):
    # Resolved on first access (PEP 562): a single-process lane must not
    # load the shard runtime — ``multiprocessing``, the transport, all
    # of ``repro.resilience`` — it will never run. (``tumbling`` stays
    # eager: the submodule of the same name would shadow a lazy one.)
    if name != "ShardedStreamEngine":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.engine.sharded import ShardedStreamEngine

    return ShardedStreamEngine


__all__ = [
    "CallbackSink",
    "CollectSink",
    "EngineMetrics",
    "LatestSink",
    "Output",
    "ResultSink",
    "RunStats",
    "ShardedStreamEngine",
    "StreamEngine",
    "ThresholdAlertSink",
    "TumblingAggregator",
    "WindowResult",
    "measure_run",
    "tumbling",
]
