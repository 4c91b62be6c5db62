"""Standalone networked shard worker: ``python -m repro.shard_worker``.

One process, one listener, any number of concurrent **sessions**. The
router's ``SocketTransport`` connects two framed-TCP channels (data +
control) per shard, ships a configure document — query *texts*,
vectorized flag, obs config, orphan budget — and from then on speaks
exactly the same wire protocol as a forked pipe worker: each session
runs :func:`repro.engine.sharded._worker_loop` unchanged in its own
thread. Channel pairs are matched by the ``session`` id the router
puts in its hello frames, so one worker process can own several shard
partitions at once — the unit of placement for the elastic membership
layer (:mod:`repro.resilience.membership`).

Lifecycle:

* a **session** is one (data, control) channel pair plus a fresh
  engine built from its configure document. When the session ends with
  ``"eof"`` (router died or is reconnecting) or ``"stop"`` (router
  shut down, re-seeded elsewhere, or migrated the partition away), the
  session thread exits and the listener keeps accepting — a revive or
  migration on the router side is just a fresh session here, seeded
  through the normal ``seed`` + journal-replay protocol;
* **orphan protection**: inside a session the worker loop exits after
  the orphan budget of total silence — this is the idle-connection
  deadline that catches a router that vanished *without* FIN (host
  died, network partitioned), where a parent-pid watch means nothing
  for a remote worker. Between sessions the listener itself times out
  after the same budget with no live session and no inbound
  connection. Either way the process ends instead of leaking forever.
  A worker spawned by a local ``SocketTransport`` additionally exits
  as soon as its parent process disappears (re-parenting check) once
  its sessions have drained;
* ``--advertise HOST:PORT`` self-registers with a router's
  :class:`~repro.resilience.membership.WorkerRegistry` join listener
  at startup (and best-effort de-registers on orphan exit), so a fleet
  can grow without editing the workers file;
* ``--serve-once`` exits after the first session (CI smoke runs).

Security note: the wire format is pickle over a trusted network, the
same trust model as ``multiprocessing``'s own listeners. The hello
token (``REPRO_TRANSPORT_TOKEN`` on both sides) rejects accidental
cross-talk, not adversaries.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Any

from repro.engine.sharded import (
    _build_worker_engine,
    _worker_loop,
    _worker_obs_setup,
)
from repro.obs.funnel import NULL_FUNNEL, FunnelRecorder
from repro.engine.transport import (
    CHANNEL_ERRORS,
    FramedChannel,
    connect_with_backoff,
    parse_hostport,
    transport_token,
)
from repro.obs.logging import get_logger

_log = get_logger("shard_worker")

#: How long ``accept`` blocks per wait before re-checking the orphan
#: conditions (parent death, budget exhaustion, finished sessions).
_ACCEPT_TICK_S = 0.25

#: Half-open channel pairs (hello arrived, partner did not) are
#: dropped after this long so they cannot pin the process open.
_PENDING_TTL_S = 30.0


def _read_hello(channel: FramedChannel, timeout_s: float = 10.0) -> dict:
    """One hello frame, validated; raises ValueError on a bad peer."""
    if not channel.poll(timeout_s):
        raise ValueError("no hello frame before the handshake timeout")
    message = channel.recv()
    if (
        not isinstance(message, tuple)
        or len(message) != 2
        or message[0] != "hello"
        or not isinstance(message[1], dict)
    ):
        raise ValueError(f"expected a hello frame, got {message!r}")
    hello = message[1]
    expected = transport_token()
    if expected and hello.get("token") != expected:
        raise ValueError("hello token mismatch")
    if hello.get("role") not in ("data", "control"):
        raise ValueError(f"unknown hello role {hello.get('role')!r}")
    return hello


def _run_session(
    data: FramedChannel,
    control: FramedChannel,
    default_orphan_timeout_s: float | None,
) -> str:
    """One configure → worker-loop session; returns the loop's verdict
    (``"stop"`` / ``"eof"`` / ``"orphan"``) or ``"reject"`` when the
    configure document never arrived or failed to build an engine."""
    try:
        if not data.poll(10.0):
            return "reject"
        message = data.recv()
    except CHANNEL_ERRORS:
        return "reject"
    if (
        not isinstance(message, tuple)
        or len(message) != 2
        or message[0] != "configure"
        or not isinstance(message[1], dict)
    ):
        return "reject"
    config: dict[str, Any] = message[1]
    index = int(config.get("index", 0))
    # The router's resolved orphan budget wins when it sent one; the
    # worker-local --orphan-timeout is the floor either way, so a
    # router that vanishes without FIN (no budget negotiated) still
    # cannot strand this process forever.
    orphan_timeout_s = config.get("orphan_timeout_s")
    if orphan_timeout_s is None:
        orphan_timeout_s = default_orphan_timeout_s
    obs = config.get("obs") or {}
    registry, tracer, profiler = _worker_obs_setup(obs)
    funnel = FunnelRecorder(registry) if obs.get("funnel") else NULL_FUNNEL
    try:
        engine = _build_worker_engine(
            list(config.get("specs") or []),
            bool(config.get("vectorized")),
            index,
            registry,
            tracer,
            funnel=funnel,
        )
    except Exception as error:
        if profiler is not None:
            profiler.stop()
        try:
            data.send(("error", f"{type(error).__name__}: {error}"))
        except CHANNEL_ERRORS:
            pass
        return "reject"
    try:
        data.send(("ok", {"pid": os.getpid()}))
    except CHANNEL_ERRORS:
        if profiler is not None:
            profiler.stop()
        return "eof"
    try:
        return _worker_loop(
            data, control, engine, registry, tracer,
            profiler, index=index, orphan_timeout_s=orphan_timeout_s,
        )
    finally:
        if profiler is not None:
            profiler.stop()


class _Session(threading.Thread):
    """One worker session on its own thread; owns both channels."""

    def __init__(
        self,
        data: FramedChannel,
        control: FramedChannel,
        orphan_timeout_s: float | None,
    ):
        super().__init__(daemon=True, name="shard-session")
        self._data = data
        self._control = control
        self._orphan = orphan_timeout_s
        self.reason: str | None = None

    def run(self) -> None:
        try:
            self.reason = _run_session(self._data, self._control,
                                        self._orphan)
        finally:
            self._data.close()
            self._control.close()


def _advertise(
    registry_address: tuple[str, int],
    listen_address: tuple[str, int],
    action: str = "join",
) -> bool:
    """Tell a router's WorkerRegistry listener about this worker.

    Returns True when the registry acknowledged. ``leave`` failures
    are non-fatal (the router's liveness tracking converges anyway).
    """
    try:
        sock = connect_with_backoff(registry_address, attempts=6)
    except CHANNEL_ERRORS:
        return False
    channel = FramedChannel(sock)
    try:
        channel.send((
            action,
            {
                "address": f"{listen_address[0]}:{listen_address[1]}",
                "token": transport_token(),
                "pid": os.getpid(),
            },
        ))
        if not channel.poll(10.0):
            return False
        status, _detail = channel.recv()
        return status == "ok"
    except CHANNEL_ERRORS:
        return False
    finally:
        channel.close()


def serve_socket(
    listener: socket.socket,
    orphan_timeout_s: float | None = None,
    serve_once: bool = False,
    spawned: bool = True,
    on_orphan: Any = None,
) -> None:
    """Serve worker sessions on an already-listening socket.

    This is both the ``SocketTransport`` local-spawn process target
    (``spawned=True``: the worker also dies when its parent process
    does) and the body of the CLI entrypoint (``spawned=False``: only
    the orphan budget and transport EOF end it). Sessions run
    concurrently, one thread per (data, control) pair, matched by the
    hello ``session`` id; hellos without one fall back to pairing by
    arrival order, which preserves the one-session-at-a-time protocol
    older routers speak.
    """
    parent_pid = os.getppid() if spawned else None
    pending: dict[str, dict[str, Any]] = {}
    sessions: list[_Session] = []
    completed = 0
    idle_deadline = (
        time.monotonic() + orphan_timeout_s if orphan_timeout_s else None
    )

    def _orphan_exit(why: str) -> None:
        _log.info("worker_orphaned", message=why)
        if on_orphan is not None:
            try:
                on_orphan()
            except Exception:  # pragma: no cover - best-effort hook
                pass

    with listener:
        listener.settimeout(_ACCEPT_TICK_S)
        while True:
            # Reap finished session threads.
            finished_orphan = False
            still: list[_Session] = []
            for session in sessions:
                if session.is_alive():
                    still.append(session)
                    continue
                if session.reason != "reject":
                    completed += 1
                if session.reason == "orphan":
                    finished_orphan = True
            sessions = still
            if finished_orphan and not sessions:
                _orphan_exit(
                    "router went silent past the orphan budget; exiting"
                )
                return
            if completed and serve_once and not sessions:
                return
            if sessions:
                idle_deadline = (
                    time.monotonic() + orphan_timeout_s
                    if orphan_timeout_s else None
                )
            else:
                if (
                    spawned
                    and parent_pid is not None
                    and os.getppid() != parent_pid
                ):
                    return  # sessions drained and the router is gone
                if (
                    idle_deadline is not None
                    and time.monotonic() >= idle_deadline
                ):
                    _orphan_exit(
                        "no router within the orphan budget; exiting"
                    )
                    return
            # Drop half-open pairs that never completed.
            now = time.monotonic()
            for key in list(pending):
                if now - pending[key]["at"] > _PENDING_TTL_S:
                    for chan in pending[key]["roles"].values():
                        chan.close()
                    del pending[key]
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            channel = FramedChannel(sock)
            try:
                hello = _read_hello(channel)
            except (ValueError, *CHANNEL_ERRORS) as error:
                _log.warning(
                    "bad_hello",
                    message=f"rejected a connection: {error}",
                )
                channel.close()
                continue
            key = str(hello.get("session") or "legacy")
            entry = pending.setdefault(key, {"roles": {}, "at": now})
            entry["at"] = now
            role = hello["role"]
            stale = entry["roles"].pop(role, None)
            if stale is not None:
                stale.close()
            entry["roles"][role] = channel
            idle_deadline = (
                time.monotonic() + orphan_timeout_s
                if orphan_timeout_s else None
            )
            if "data" in entry["roles"] and "control" in entry["roles"]:
                del pending[key]
                session = _Session(
                    entry["roles"]["data"], entry["roles"]["control"],
                    orphan_timeout_s,
                )
                session.start()
                sessions.append(session)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard_worker",
        description=(
            "Networked shard worker for ShardedStreamEngine's tcp "
            "transport: listens for a router, then executes one or "
            "more hash-partitions of the stream."
        ),
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port)",
    )
    parser.add_argument(
        "--orphan-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "idle-connection deadline: exit after this many seconds "
            "without any router traffic, in or between sessions — the "
            "guard that catches a router that vanished without FIN "
            "(default: wait forever)"
        ),
    )
    parser.add_argument(
        "--advertise",
        default=None,
        metavar="HOST:PORT",
        help=(
            "self-register with the router's worker-registry listener "
            "at this address (elastic membership join)"
        ),
    )
    parser.add_argument(
        "--serve-once",
        action="store_true",
        help="exit after the first completed session",
    )
    args = parser.parse_args(argv)
    host, port = parse_hostport(args.listen)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(16)
    bound = listener.getsockname()
    # The chosen port on stdout lets scripts use --listen HOST:0.
    print(f"listening on {bound[0]}:{bound[1]}", flush=True)
    advertise_to: tuple[str, int] | None = None
    if args.advertise:
        advertise_to = parse_hostport(args.advertise)
        if _advertise(advertise_to, bound, "join"):
            _log.info(
                "advertised",
                message=(
                    f"registered {bound[0]}:{bound[1]} with the worker "
                    f"registry at {advertise_to[0]}:{advertise_to[1]}"
                ),
            )
        else:
            print(
                f"warning: could not register with the worker registry "
                f"at {args.advertise}",
                file=sys.stderr,
                flush=True,
            )
    on_orphan = None
    if advertise_to is not None:
        registry_address = advertise_to

        def on_orphan() -> None:
            _advertise(registry_address, bound, "leave")

    serve_socket(
        listener,
        orphan_timeout_s=args.orphan_timeout,
        serve_once=args.serve_once,
        spawned=False,
        on_orphan=on_orphan,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
