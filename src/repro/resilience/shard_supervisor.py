"""Shard supervision: heartbeats and per-shard restart health.

This module is the multiprocess analogue of
:mod:`repro.resilience.supervisor`: where that module isolates a
*registration* that raises inside a single process, this one watches
whole worker *processes* on behalf of
:class:`~repro.engine.sharded.ShardedStreamEngine`:

* :class:`HeartbeatSupervisor` — a daemon thread that pings every shard
  over its control pipe, tracks heartbeat age and consecutive misses,
  and calls back into the engine to revive a shard that died, wedged,
  or reported a poisoned executor;
* :class:`ShardHealth` — the per-shard record the ops plane surfaces
  (restarts, failures, heartbeat age, degraded flag).

What makes a revive *exact* — each shard's log of delivered batches
(an :class:`~repro.resilience.journal.EventJournal` under
``journal_dir``, else its in-memory twin
:class:`~repro.resilience.journal.MemoryShardLog`) plus the shard's
checkpoints — lives with the journal, not here.

Everything here is engine-agnostic on purpose: the supervisor talks to
the router through two callbacks (``ping`` and ``revive``) and never
imports the sharded engine, so the dependency arrow keeps pointing from
``repro.engine`` down into ``repro.resilience``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry, resolve_registry

_log = get_logger("shard_supervisor")


# ----- health bookkeeping ---------------------------------------------------


@dataclass
class ShardHealth:
    """Per-shard supervision state surfaced by the ops plane."""

    shard: int
    alive: bool = True
    degraded: bool = False
    restarts: int = 0
    failures: int = 0
    missed_heartbeats: int = 0
    last_pong_at: float | None = field(default=None, repr=False)
    last_failure: str | None = None
    #: Round-trip time of the last answered heartbeat ping, and the
    #: worker wall-clock skew estimated from it (worker clock minus
    #: router clock, RTT/2-corrected). The skew feeds the trace plane:
    #: worker span wall times are normalized into the router's clock.
    rtt_s: float | None = field(default=None, repr=False)
    clock_skew_s: float | None = field(default=None, repr=False)

    def snapshot(self) -> dict[str, Any]:
        age = (
            None
            if self.last_pong_at is None
            else max(0.0, time.monotonic() - self.last_pong_at)
        )
        return {
            "shard": self.shard,
            "alive": self.alive,
            "degraded": self.degraded,
            "restarts": self.restarts,
            "failures": self.failures,
            "missed_heartbeats": self.missed_heartbeats,
            "heartbeat_age_s": age,
            "rtt_s": self.rtt_s,
            "clock_skew_s": self.clock_skew_s,
            "last_failure": self.last_failure,
        }


# ----- the heartbeat thread -------------------------------------------------


class HeartbeatSupervisor:
    """Daemon thread pinging every shard and reviving the unresponsive.

    ``ping(shard)`` is supplied by the engine and must return a
    ``(status, payload)`` pair without blocking for long:

    ========== ==========================================================
    ``ok``     the worker answered; payload is its pong dict
    ``busy``   the router holds the shard's lock — skip this round
    ``miss``   no pong within the poll window — counts toward the limit
    ``dead``   the process is gone or the pipe is broken
    ``failed`` the worker answered but reports a poisoned engine;
               payload carries the failure string
    ========== ==========================================================

    ``revive(shard, reason)`` is called (from this thread) when a shard
    is ``dead``, ``failed``, or has missed ``max_missed`` consecutive
    heartbeats; the engine restarts and re-seeds the worker (or folds it
    into the local lane once its restart budget is spent).

    ``tick()``, when given, runs once per monitoring round before the
    pings — the engine wires its membership poll through it so worker
    joins/leaves ride the same thread and cadence as liveness. A tick
    that raises is logged and never kills the thread.
    """

    def __init__(
        self,
        shards: int,
        ping: Callable[[int], tuple[str, Any]],
        revive: Callable[[int, str], None],
        interval_s: float = 0.5,
        max_missed: int = 3,
        registry: MetricsRegistry | None = None,
        health: list[ShardHealth] | None = None,
        tick: Callable[[], None] | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_missed < 1:
            raise ValueError("max_missed must be at least 1")
        self.interval_s = interval_s
        self.max_missed = max_missed
        self._ping = ping
        self._revive = revive
        self._tick = tick
        # The engine usually owns the health records (it updates restart
        # and failure counts from its own revive path) and shares them.
        self.health = (
            health
            if health is not None
            else [ShardHealth(shard=index) for index in range(shards)]
        )
        registry = resolve_registry(registry)
        self._g_age = [
            registry.gauge(
                "shard_heartbeat_age_seconds",
                "seconds since this shard last answered a heartbeat",
                shard=str(index),
            )
            for index in range(shards)
        ]
        self._m_misses = registry.counter(
            "shard_heartbeat_misses_total",
            "heartbeat rounds a shard failed to answer in time",
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ----- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="shard-heartbeats", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.interval_s * 2 + 1.0)
            self._thread = None

    def snapshot(self) -> list[dict[str, Any]]:
        return [health.snapshot() for health in self.health]

    # ----- the monitoring loop ---------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self._tick is not None:
                try:
                    self._tick()
                except Exception as error:  # defensive: thread survives
                    _log.warning(
                        "tick_error",
                        message=f"supervisor tick raised {error!r}",
                        error=type(error).__name__,
                    )
            for health in self.health:
                if self._stop.is_set():
                    return
                if health.degraded:
                    continue
                self._check(health)

    def _check(self, health: ShardHealth) -> None:
        try:
            status, payload = self._ping(health.shard)
        except Exception as error:  # defensive: never kill the thread
            _log.warning(
                "ping_error",
                message=f"heartbeat ping of shard {health.shard} "
                f"raised {error!r}",
                shard=health.shard,
            )
            return
        now = time.monotonic()
        if status == "busy":
            return
        if status == "ok":
            health.missed_heartbeats = 0
            health.alive = True
            health.last_pong_at = now
            self._g_age[health.shard].set(0.0)
            return
        if health.last_pong_at is not None:
            self._g_age[health.shard].set(now - health.last_pong_at)
        if status == "miss":
            health.missed_heartbeats += 1
            self._m_misses.inc()
            if health.missed_heartbeats < self.max_missed:
                return
            reason = (
                f"missed {health.missed_heartbeats} consecutive heartbeats"
            )
        elif status == "failed":
            reason = f"worker reported failure: {payload}"
        else:  # dead
            reason = "worker process died"
        health.alive = False
        self._fire(health, reason)

    def _fire(self, health: ShardHealth, reason: str) -> None:
        try:
            self._revive(health.shard, reason)
        except Exception as error:  # engine degraded/raised: log and go on
            _log.warning(
                "revive_error",
                message=f"revive of shard {health.shard} failed: {error!r}",
                shard=health.shard,
                error=type(error).__name__,
            )
        health.missed_heartbeats = 0
