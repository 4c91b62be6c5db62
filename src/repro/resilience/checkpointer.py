"""Engine-wide checkpoints: the whole StreamEngine as one document.

:mod:`repro.core.checkpoint` serializes a *single* executor — the
near-free trick the paper's counter-only state makes possible. This
module lifts that to the whole :class:`~repro.engine.engine.StreamEngine`:
every registration (query text, vectorized flag, executor state via the
per-runtime serializers), the running :class:`EngineMetrics`, and the
journal offset the checkpoint is consistent with. Recovery loads the
document and replays the journal suffix from that offset
(:mod:`repro.resilience.recovery`).

Checkpoint files are written atomically — serialized to
``<name>.tmp`` in the same directory, flushed, fsynced, then
``os.replace``d into place — so a crash mid-write can never leave a
half-written file under the real name. Files are named by a
monotonically increasing generation number
(``checkpoint-000000000042.json``), newest-wins; every writer keeps the
newest :data:`RETAIN_CHECKPOINTS` generations, the older ones as
fallback against corruption of the newest. The journal offset the
checkpoint is consistent with lives *inside* the document
(``journal_seq``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.core.checkpoint import checkpoint as executor_checkpoint
from repro.core.checkpoint import restore as executor_restore
from repro.errors import CheckpointError
from repro.obs.registry import MetricsRegistry, resolve_registry

ENGINE_FORMAT_VERSION = 1
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
#: Generations :func:`write_checkpoint` keeps in a directory; older
#: ones are deleted as each new one lands.
RETAIN_CHECKPOINTS = 3


def _checkpoint_name(generation: int) -> str:
    return f"{CHECKPOINT_PREFIX}{generation:012d}{CHECKPOINT_SUFFIX}"


def _next_generation(directory: Path) -> int:
    existing = list_checkpoints(directory)
    if not existing:
        return 0
    stem = existing[-1].name[
        len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)
    ]
    try:
        return int(stem) + 1
    except ValueError:
        return len(existing)


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        path
        for path in directory.iterdir()
        if path.name.startswith(CHECKPOINT_PREFIX)
        and path.name.endswith(CHECKPOINT_SUFFIX)
    ]
    return sorted(found)


def engine_state(engine: Any, journal_seq: int = 0) -> dict[str, Any]:
    """Serialize a whole StreamEngine to a JSON-able document.

    Every registered executor must be checkpointable by
    :func:`repro.core.checkpoint.checkpoint` (i.e. an ASeqEngine over
    the DPC/SEM/vectorized/HPC runtimes); anything else raises
    :class:`~repro.errors.CheckpointError`.
    """
    registrations = []
    for name in engine.query_names:
        executor = engine._registrations[name].executor
        if not hasattr(executor, "runtime") or not hasattr(executor, "query"):
            raise CheckpointError(
                f"registration {name!r} holds a "
                f"{type(executor).__name__}, which is not an "
                f"engine-checkpointable executor"
            )
        registrations.append(
            {
                "name": name,
                "vectorized": bool(getattr(executor, "_vectorized", False)),
                "state": executor_checkpoint(executor),
            }
        )
    metrics = engine.metrics
    return {
        "version": ENGINE_FORMAT_VERSION,
        "journal_seq": journal_seq,
        # The order gate's clock: a restored engine must refuse what the
        # checkpointed one would have refused.
        "clock_ms": getattr(engine, "_clock_ms", None),
        "metrics": {
            "events": metrics.events,
            "outputs": metrics.outputs,
            "elapsed_s": metrics.elapsed_s,
            "peak_objects": metrics.peak_objects,
            "sink_errors": metrics.sink_errors,
        },
        "registrations": registrations,
    }


def apply_engine_state(
    engine: Any, state: dict[str, Any], only: str | None = None
) -> None:
    """The inverse of :func:`engine_state`: restore the executors of
    ``engine``'s registrations from a checkpoint document, in place.

    The registrations must already exist (routing keeps pointing at the
    registration objects, whose ``executor`` is looked up at dispatch
    time); entries naming none are skipped. ``only`` restores that one
    registration and raises :class:`~repro.errors.CheckpointError` when
    the document does not hold it; otherwise the engine's clock moves up
    to the checkpointed one (its batch order gate), when the document
    records it.
    """
    found = False
    for entry in state.get("registrations", []):
        name = entry["name"]
        if only is not None and name != only:
            continue
        registration = engine._registrations.get(name)
        if registration is None:
            continue
        found = True
        registration.executor = executor_restore(
            registration.executor.query,
            entry["state"],
            vectorized=bool(entry.get("vectorized", False)),
        )
    if only is not None and not found:
        raise CheckpointError(
            f"checkpoint holds no registration named {only!r}"
        )
    clock = state.get("clock_ms")
    if only is None and clock is not None:
        current = getattr(engine, "_clock_ms", None)
        if current is None or clock > current:
            engine._clock_ms = clock


def apply_engine_metrics(engine: Any, state: dict[str, Any]) -> None:
    """Restore the running :class:`EngineMetrics` that
    :func:`engine_state` wrote — the half of the document the crash
    recoveries want and the shard re-seed paths must not (a worker's or
    fold lane's event count keeps counting what *it* ingested)."""
    metrics = state.get("metrics", {})
    target = engine.metrics
    target.events = metrics.get("events", 0)
    target.outputs = metrics.get("outputs", 0)
    target.elapsed_s = metrics.get("elapsed_s", 0.0)
    target.peak_objects = metrics.get("peak_objects", 0)
    target.sink_errors = metrics.get("sink_errors", 0)


def validate_engine_state(state: Any) -> dict[str, Any]:
    """Structural check of a loaded checkpoint document."""
    if not isinstance(state, dict):
        raise CheckpointError("engine checkpoint is not a JSON object")
    if state.get("version") != ENGINE_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported engine checkpoint version "
            f"{state.get('version')!r}"
        )
    if not isinstance(state.get("journal_seq"), int):
        raise CheckpointError("engine checkpoint is missing journal_seq")
    registrations = state.get("registrations")
    if not isinstance(registrations, list):
        raise CheckpointError("engine checkpoint is missing registrations")
    for entry in registrations:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("state"), dict)
        ):
            raise CheckpointError(
                "engine checkpoint holds a malformed registration entry"
            )
    return state


def write_checkpoint(directory: str | Path, state: dict[str, Any]) -> Path:
    """Atomically persist one engine checkpoint as the next generation,
    then delete all but the newest :data:`RETAIN_CHECKPOINTS`; returns
    its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / _checkpoint_name(_next_generation(directory))
    tmp = final.with_suffix(final.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(state, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    for stale in list_checkpoints(directory)[:-RETAIN_CHECKPOINTS]:
        stale.unlink(missing_ok=True)
    return final


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Load and structurally validate one checkpoint file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"cannot read checkpoint {Path(path).name}: {error}"
        ) from error
    return validate_engine_state(state)


def load_latest_checkpoint(
    directory: str | Path,
) -> tuple[dict[str, Any], Path] | tuple[None, None]:
    """Newest checkpoint that loads and validates, else ``(None, None)``.

    Corrupt or torn newer generations are skipped (renamed with a
    ``.corrupt`` suffix is deliberately *not* done — they stay in place
    for forensics; retention pruning removes them eventually).
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path), path
        except CheckpointError:
            continue
    return None, None


class Checkpointer:
    """The supervised engine's checkpoint cadence and its metrics; the
    write itself is the journal's (:meth:`~repro.resilience.journal
    .EventJournal.checkpoint`), so the supervised directory keeps the
    same generations and prunes the same way as every other one.

    ``maybe_checkpoint()`` is called once per processed event by the
    supervised engine; it writes when either trigger fires:

    * ``every_events`` — N events processed since the last write;
    * ``every_ms`` — T wall-clock milliseconds elapsed since the last
      write (checked lazily, on event arrival).

    ``checkpoint_now()`` forces a write (shutdown, tests).
    """

    def __init__(
        self,
        engine: Any,
        journal: Any,
        every_events: int | None = None,
        every_ms: float | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if every_events is not None and every_events <= 0:
            raise ValueError("every_events must be positive")
        if every_ms is not None and every_ms <= 0:
            raise ValueError("every_ms must be positive")
        self._engine = engine
        self.journal = journal
        self._every_events = every_events
        self._every_ms = every_ms
        self._since_write = 0
        self._last_write_at = time.monotonic()
        registry = resolve_registry(registry)
        self._m_written = registry.counter(
            "checkpoints_written_total", "engine checkpoints persisted"
        )
        self._m_duration = registry.histogram(
            "checkpoint_duration_us",
            "wall time to serialize+fsync one engine checkpoint (µs)",
        )
        self.last_path: Path | None = None

    def maybe_checkpoint(self, events: int = 1) -> Path | None:
        """Write a checkpoint if a schedule trigger fired.

        ``events`` credits more than one processed event at once (the
        batched ingestion path calls this once per micro-batch).
        """
        self._since_write += events
        due = (
            self._every_events is not None
            and self._since_write >= self._every_events
        )
        if not due and self._every_ms is not None:
            due = (
                time.monotonic() - self._last_write_at
            ) * 1e3 >= self._every_ms
        if not due:
            return None
        return self.checkpoint_now()

    def checkpoint_now(self) -> Path:
        """Serialize the engine at the journal's position and write one
        generation through the journal."""
        started = time.perf_counter()
        journal = self.journal
        path = journal.checkpoint(
            engine_state(self._engine, journal_seq=journal.next_seq)
        )
        self._since_write = 0
        self._last_write_at = time.monotonic()
        self.last_path = path
        self._m_written.inc()
        self._m_duration.observe((time.perf_counter() - started) * 1e6)
        return path
