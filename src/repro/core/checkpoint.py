"""Checkpoint and restore A-Seq engine state.

Because A-Seq's entire state is a handful of counters (that is the
point of the paper), checkpointing is near-free: the state of any
single-query engine serializes to a small JSON-able dict. A stream
processor can persist it on a schedule and resume after a crash from
the last checkpoint plus a replay of the events since.

Scope: DPC, SEM (reference and columnar), HPC runtimes and the GROUP BY
partition table (which writes the per-partition runtimes' document), i.e.
everything :class:`~repro.core.executor.ASeqEngine` compiles to. The
multi-query engines are excluded — Chop-Connect snapshots reference
live event objects, which is exactly the kind of state the single-query
engines never hold.

>>> from repro.query import seq
>>> from repro.events import Event
>>> query = seq("A", "B").count().within(ms=100).build()
>>> engine = ASeqEngine(query)
>>> _ = engine.process(Event("A", 1))
>>> state = checkpoint(engine)
>>> resumed = restore(query, state)
>>> resumed.process(Event("B", 2))
1
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import CheckpointError
from repro.core.dpc import DPCEngine
from repro.core.executor import ASeqEngine
from repro.core.hpc import HPCEngine
from repro.core.partition_table import PartitionTable
from repro.core.prefix_counter import PrefixCounter
from repro.core.sem import SemEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.query.ast import Query

FORMAT_VERSION = 1


def checkpoint(engine: ASeqEngine) -> dict[str, Any]:
    """Serialize an engine's counting state to a JSON-able dict."""
    runtime = engine.runtime
    return {
        "version": FORMAT_VERSION,
        "query": str(engine.query),
        "runtime": _runtime_state(runtime),
    }


def restore(
    query: Query, state: dict[str, Any], vectorized: bool = False
) -> ASeqEngine:
    """Rebuild an engine for ``query`` from a checkpoint.

    The caller supplies the query (checkpoints carry its rendered text
    only as a consistency check, not as an executable artifact).
    """
    if state.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('version')!r}"
        )
    if state.get("query") != str(query):
        raise CheckpointError(
            "checkpoint was taken for a different query:\n"
            f"  checkpoint: {state.get('query')!r}\n"
            f"  supplied  : {str(query)!r}"
        )
    engine = ASeqEngine(query, vectorized=vectorized)
    try:
        _load_runtime(engine.runtime, state["runtime"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"malformed checkpoint state: {error!r}"
        ) from error
    return engine


# ----- per-runtime serialization ------------------------------------------------


def _runtime_state(runtime: Any) -> dict[str, Any]:
    if isinstance(runtime, DPCEngine):
        return {"kind": "dpc", "counter": _counter_state(runtime.counter)}
    if isinstance(runtime, SemEngine):
        return {
            "kind": "sem",
            "now": runtime._now,
            "counters": [
                _counter_state(counter) for counter in runtime.counters()
            ],
        }
    if isinstance(runtime, VectorizedSemEngine):
        head, tail = runtime._head, runtime._tail
        state: dict[str, Any] = {
            "kind": "vectorized",
            "now": runtime._now,
            "counts": runtime._counts[:, head:tail].tolist(),
            "exps": runtime._exps[head:tail].tolist(),
        }
        if runtime._wsums is not None:
            state["wsums"] = runtime._wsums[:, head:tail].tolist()
        if runtime._extrema is not None:
            state["extrema"] = runtime._extrema[:, head:tail].tolist()
        return state
    if isinstance(runtime, PartitionTable):
        # The document a per-partition runtime writes, byte for byte.
        return {
            "kind": "hpc",
            "now": runtime._now,
            "partitions": runtime.partition_states(),
        }
    if isinstance(runtime, HPCEngine):
        return {
            "kind": "hpc",
            "now": runtime._now,
            "partitions": [
                [key, _runtime_state(engine)]
                for key, engine in runtime.partitions()
            ],
        }
    raise CheckpointError(
        f"cannot checkpoint runtime of type {type(runtime).__name__}"
    )


def _load_runtime(runtime: Any, state: dict[str, Any]) -> None:
    kind = state.get("kind")
    if isinstance(runtime, DPCEngine):
        _expect(kind, "dpc")
        _load_counter(runtime.counter, state["counter"])
    elif isinstance(runtime, SemEngine):
        _expect(kind, "sem")
        runtime._now = state["now"]
        runtime._counters.clear()
        for counter_state in state["counters"]:
            counter = PrefixCounter(runtime.layout, implicit_start=True)
            _load_counter(counter, counter_state)
            runtime._counters.append(counter)
    elif isinstance(runtime, VectorizedSemEngine):
        _expect(kind, "vectorized")
        runtime._now = state["now"]
        counts = np.asarray(state["counts"], dtype=np.int64)
        live = counts.shape[1] if counts.size else 0
        runtime._head = 0
        runtime._tail = live
        runtime._grow_to(live)
        runtime._counts[:, :live] = counts
        runtime._count_bound = int(counts.max()) if live else 1
        runtime._exps[:live] = np.asarray(state["exps"], dtype=np.int64)
        if runtime._wsums is not None:
            runtime._wsums[:, :live] = np.asarray(
                state["wsums"], dtype=np.float64
            )
        if runtime._extrema is not None:
            runtime._extrema[:, :live] = np.asarray(
                state["extrema"], dtype=np.float64
            )
    elif isinstance(runtime, PartitionTable):
        _expect(kind, "hpc")
        for _, partition_state in state["partitions"]:
            _expect(partition_state.get("kind"), "vectorized")
        runtime.load_partitions(state["now"], state["partitions"])
    elif isinstance(runtime, HPCEngine):
        _expect(kind, "hpc")
        runtime._now = state["now"]
        runtime._objects = None  # the kept live-object total is stale
        for key, partition_state in state["partitions"]:
            if runtime._composite:
                key = tuple(key)  # JSON round-trips tuples as lists
            partition = runtime._engine_factory(runtime.query)
            _load_runtime(partition, partition_state)
            runtime._partitions[key] = partition
            if runtime._per_group:
                group = key[0] if runtime._composite else key
                runtime._by_group.setdefault(group, []).append(partition)
    else:
        raise CheckpointError(
            f"cannot restore into runtime of type {type(runtime).__name__}"
        )


def _expect(kind: Any, wanted: str) -> None:
    if kind != wanted:
        raise CheckpointError(
            f"checkpoint kind {kind!r} does not match the compiled "
            f"runtime ({wanted!r}); was the query or the vectorized flag "
            f"changed?"
        )


def _counter_state(counter: PrefixCounter) -> dict[str, Any]:
    state: dict[str, Any] = {"counts": list(counter.counts)}
    if counter.exp is not None:
        state["exp"] = counter.exp
    if counter.wsums is not None:
        state["wsums"] = list(counter.wsums)
    if counter.extrema is not None:
        state["extrema"] = list(counter.extrema)
    return state


def _load_counter(counter: PrefixCounter, state: dict[str, Any]) -> None:
    counter.counts[:] = state["counts"]
    counter.exp = state.get("exp")
    if counter.wsums is not None:
        counter.wsums[:] = state["wsums"]
    if counter.extrema is not None:
        counter.extrema[:] = state["extrema"]
