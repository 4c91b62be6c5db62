"""Pluggable shard transport: how the router reaches its workers.

:class:`~repro.engine.sharded.ShardedStreamEngine` talks to every
worker over two duplex channels — a **data** channel (batches, collect,
seed, checkpoint, ops snapshots) and a **control** channel (heartbeat
pings, fault injection). Until this module existed the two channels
were hard-wired to ``multiprocessing.Pipe``, which caps the engine at
one box. The transport abstraction keeps the router/worker protocol
byte-for-byte identical and swaps only the plumbing underneath:

* :class:`PipeTransport` — today's behavior and the default: fork one
  worker process per shard, connected by two OS pipes. Zero copies of
  anything over a network, lowest latency, single-host only.
* :class:`SocketTransport` — framed TCP. Each worker is a
  ``python -m repro.shard_worker --listen HOST:PORT`` process that
  may live on another host; with no addresses given the transport
  spawns localhost listeners itself (same process tree as the pipe
  transport, useful for parity testing and ``--transport tcp``).
  Connects and revive-reconnects use **bounded retry with exponential
  backoff and seeded jitter** (the same discipline as the PR 5 sink
  retry), and every retry is counted per shard in
  ``transport_reconnect_retries_total``.

TCP frames are hardened for real networks. Each frame is
``MAGIC(4) | length(4) | seq(8) | crc32(4) | payload``:

* **CRC32** over the payload turns wire corruption into a typed
  :class:`~repro.errors.FrameError` instead of an undefined pickle
  decode failure; the router answers with its bounded revive/reconnect
  path (checkpoint + journal-suffix re-seed), so a corrupt frame can
  delay a batch but never lose or duplicate one.
* **Sequence numbers** (per channel, per direction) suppress duplicate
  delivery when a half-sent frame is re-sent after a stall — a stale
  ``seq`` is skipped and counted — and detect frame loss (a gap raises
  :class:`~repro.errors.FrameError`). Batch-level exactly-once remains
  the job of the ``"q"`` count-skip dedup; frame seqs guard the layer
  below it.
* **Read/write deadlines** are progress-based: any byte moved resets
  them, so a slow link is distinguished from a dead peer (no FIN, no
  RST), which raises :class:`~repro.errors.TransportTimeout` in
  bounded time.
* A send interrupted mid-frame keeps the unsent remainder; the next
  ``send`` transparently finishes the old frame first, so the peer's
  framer never desynchronizes on a transient stall. When the channel
  dies instead, the receiver's magic scan re-synchronizes past any
  torn bytes on a reconnected socket.

Data-channel batch messages, live or replayed, have one shape,
transparent to the transport: ``{"c": wire, "n": count, "q": seq}``
(``"t"``: sampled trace offsets), where ``wire`` is an
:meth:`EventBatch.to_wire` flat buffer (u32 header length + JSON header
+ raw array segments) and ``"q"`` the shard-journal sequence of its
first row, which drives the worker's count-skip dedup.

Channel contract (both transports satisfy it):

``send(obj)`` / ``recv()``
    One picklable message per call; ``recv`` raises ``EOFError`` when
    the peer is gone, ``OSError`` on a broken channel.
``poll(timeout)``
    True when a ``recv`` would not block (including at EOF, so the
    caller observes the ``EOFError`` instead of hanging).
``fileno()``
    A selectable file descriptor — the router's writability guard
    (``select`` before ``send``) and the worker's two-channel
    multiplexer both rely on it.
``close()``
    Idempotent teardown.

Because a framed TCP channel keeps a user-space read buffer, a
complete frame may be buffered while the descriptor itself is not
readable — :func:`wait_readable` is the buffer-aware replacement for
``multiprocessing.connection.wait`` used by the worker loop.

Security: frames are pickles. The socket transport is built for
trusted networks (the same trust model as ``multiprocessing``'s own
``Listener``/``Client``); the hello handshake carries a shared token
(``REPRO_TRANSPORT_TOKEN``) that listening workers verify, which keeps
out accidental cross-talk but is not a substitute for network-level
isolation.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import random
import select
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import FrameError, TransportError, TransportTimeout
from repro.obs.logging import get_logger
from repro.obs.registry import MetricsRegistry, resolve_registry

_log = get_logger("transport")

TRANSPORTS = ("pipe", "tcp")

#: Frame header: magic, big-endian u32 payload length, u64 channel
#: sequence number, u32 CRC32 of the payload.
FRAME_MAGIC = b"RPF2"
_HEADER = struct.Struct(">4sIQI")
#: Refuse absurd frames instead of allocating gigabytes on a bad peer.
MAX_FRAME_BYTES = 256 * 1024 * 1024
_RECV_CHUNK = 65536

#: Everything a caller must treat as "this channel is gone": OS-level
#: failures, EOF, and the typed frame-integrity errors. Catch this
#: tuple wherever a dead channel should trigger revive/reconnect.
CHANNEL_ERRORS = (OSError, EOFError, TransportError)


def transport_token() -> str:
    """The shared hello token (empty string disables the check)."""
    return os.environ.get("REPRO_TRANSPORT_TOKEN", "")


def parse_hostport(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; host defaults to localhost."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise TransportError(
            f"expected HOST:PORT, got {text!r} (e.g. 127.0.0.1:9200)"
        )
    return (host or "127.0.0.1", int(port))


class FrameStats:
    """Frame-integrity counters for one endpoint (both channels share).

    Plain ints for cheap in-process inspection; when ``sink`` maps a
    field name to a registry counter the bump is mirrored there, which
    is how ``SocketTransport`` exports the per-shard
    ``repro_transport_frame_*`` series.
    """

    FIELDS = ("corrupt", "resyncs", "dup_skipped", "deadline_misses")

    __slots__ = ("corrupt", "resyncs", "dup_skipped",
                 "deadline_misses", "_sink")

    def __init__(self, sink: dict[str, Any] | None = None):
        self.corrupt = 0
        self.resyncs = 0
        self.dup_skipped = 0
        self.deadline_misses = 0
        self._sink = sink or {}

    def bump(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)
        counter = self._sink.get(name)
        if counter is not None:
            counter.inc(amount)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


class FramedChannel:
    """One duplex message channel over a connected TCP socket.

    Messages are ``MAGIC | u32 length | u64 seq | u32 crc32`` frames
    (header layout in :data:`_HEADER`) followed by the pickled payload.
    The channel keeps its own read buffer, so :meth:`poll` reports a
    buffered complete frame as ready even when the descriptor is quiet
    — callers multiplexing channels must use :func:`wait_readable`,
    not a raw ``select``.

    Integrity properties (see the module docstring): CRC32 rejects
    corrupt payloads with :class:`~repro.errors.FrameError`; sequence
    numbers skip duplicate frames and turn frame loss into a typed
    error; deadlines are progress-based so slow links survive while
    silently dead peers raise :class:`~repro.errors.TransportTimeout`;
    a send interrupted mid-frame parks the remainder and finishes it
    on the next send instead of desynchronizing the peer's framer.
    """

    __slots__ = (
        "_sock", "_rbuf", "_eof", "_send_seq", "_recv_seq",
        "_wpending", "read_deadline_s", "write_deadline_s", "stats",
    )

    def __init__(
        self,
        sock: socket.socket,
        read_deadline_s: float | None = None,
        write_deadline_s: float | None = None,
        stats: FrameStats | None = None,
    ):
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - not every family has it
            pass
        self._sock = sock
        self._rbuf = bytearray()
        self._eof = False
        self._send_seq = 0
        self._recv_seq = 0
        self._wpending = b""
        self.read_deadline_s = read_deadline_s
        self.write_deadline_s = write_deadline_s
        self.stats = stats if stats is not None else FrameStats()

    # ----- framing ---------------------------------------------------------

    def _align_buffer(self) -> None:
        """Discard garbage so the buffer starts at a magic (or is short).

        Garbage appears when a peer died mid-frame and the tail of the
        torn frame shares the socket with fresh traffic; scanning to
        the next magic re-synchronizes the framer. Discards are counted
        as ``resyncs``.
        """
        if not self._rbuf or self._rbuf.startswith(FRAME_MAGIC):
            return
        at = self._rbuf.find(FRAME_MAGIC)
        if at == -1:
            # Keep a magic-length tail: the magic may be split across
            # recv chunks.
            keep = len(FRAME_MAGIC) - 1
            drop = max(0, len(self._rbuf) - keep)
            if drop:
                del self._rbuf[:drop]
                self.stats.bump("resyncs")
            return
        del self._rbuf[:at]
        self.stats.bump("resyncs")

    def _buffered_header(self) -> tuple[int, int, int] | None:
        """``(length, seq, crc)`` of a complete buffered frame, else None."""
        self._align_buffer()
        if len(self._rbuf) < _HEADER.size:
            return None
        magic, length, seq, crc = _HEADER.unpack_from(self._rbuf)
        if magic != FRAME_MAGIC:  # pragma: no cover - align guarantees it
            raise FrameError("framer lost magic alignment")
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        if len(self._rbuf) < _HEADER.size + length:
            return None
        return length, seq, crc

    @property
    def buffered(self) -> bool:
        """True when a complete frame is already in the read buffer."""
        return self._buffered_header() is not None

    # ----- channel contract ------------------------------------------------

    def _write(self, data: bytes) -> None:
        """Send ``data``, parking the unsent remainder on a stall.

        Uses ``socket.send`` in a loop (not ``sendall``) so the exact
        progress is known when a write deadline or transient error
        interrupts the frame; the remainder is parked in
        ``_wpending`` and transparently finished by the next call, so
        the peer's framer never sees a torn frame from a stall.
        """
        view = memoryview(self._wpending + data)
        self._wpending = b""
        sent = 0
        if self.write_deadline_s is not None:
            self._sock.settimeout(self.write_deadline_s)
        try:
            while sent < len(view):
                try:
                    sent += self._sock.send(view[sent:])
                except (TimeoutError, socket.timeout, BlockingIOError):
                    self._wpending = bytes(view[sent:])
                    self.stats.bump("deadline_misses")
                    raise TransportTimeout(
                        f"write deadline ({self.write_deadline_s}s) "
                        f"missed with {len(view) - sent} bytes unsent"
                    ) from None
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - socket died mid-send
                pass

    def send(self, obj: Any) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._send_seq += 1
        header = _HEADER.pack(
            FRAME_MAGIC, len(data), self._send_seq,
            zlib.crc32(data) & 0xFFFFFFFF,
        )
        self._write(header + data)

    def _fill(self, deadline: float | None) -> None:
        """Read at least one chunk into the buffer (progress-based)."""
        while True:
            if self._eof:
                raise EOFError("peer closed the framed channel")
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.bump("deadline_misses")
                    raise TransportTimeout(
                        f"read deadline ({self.read_deadline_s}s) "
                        "missed: no bytes from peer"
                    )
            try:
                ready = select.select([self._sock], [], [], remaining)[0]
            except (OSError, ValueError):
                self._eof = True
                raise EOFError("peer closed the framed channel") from None
            if not ready:
                continue
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                self._eof = True
                raise EOFError("peer closed the framed channel")
            self._rbuf += chunk
            return

    def recv(self) -> Any:
        while True:
            header = self._buffered_header()
            if header is None:
                deadline = (
                    None if self.read_deadline_s is None
                    else time.monotonic() + self.read_deadline_s
                )
                # _fill returns after any progress; the deadline is
                # re-armed per chunk, so a slow trickle keeps going.
                self._fill(deadline)
                continue
            length, seq, crc = header
            start = _HEADER.size
            payload = bytes(self._rbuf[start:start + length])
            del self._rbuf[:start + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                self.stats.bump("corrupt")
                raise FrameError(
                    f"frame {seq} failed its CRC32 check "
                    f"({length} bytes); channel is not trustworthy"
                )
            if seq <= self._recv_seq:
                # Duplicate delivery (re-sent frame after a stall):
                # drop it and keep waiting for the next fresh frame.
                self.stats.bump("dup_skipped")
                continue
            if seq > self._recv_seq + 1:
                raise FrameError(
                    f"frame sequence gap: expected {self._recv_seq + 1}, "
                    f"got {seq} ({seq - self._recv_seq - 1} frames lost)"
                )
            self._recv_seq = seq
            return pickle.loads(payload)

    def poll(self, timeout: float | None = 0.0) -> bool:
        deadline = (
            None if timeout is None else time.monotonic() + max(0.0, timeout)
        )
        while True:
            if self.buffered or self._eof:
                return True
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining < 0:
                    return False
            try:
                ready = select.select([self._sock], [], [], remaining)[0]
            except (OSError, ValueError):
                self._eof = True  # closed under us: recv will raise
                return True
            if not ready:
                return False
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except OSError:
                self._eof = True
                return True
            if not chunk:
                self._eof = True
                return True
            self._rbuf += chunk

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close is fine
            pass


def wait_readable(
    channels: Sequence[Any], timeout: float | None = None
) -> list[Any]:
    """Buffer-aware multi-channel wait.

    Returns the channels with a message ready: either a complete frame
    sitting in a :class:`FramedChannel` buffer, or a readable
    descriptor (pipe connections have no user-space buffer, so the
    descriptor is the whole truth for them). Blocks up to ``timeout``
    (None = forever); an empty list means the timeout elapsed.
    """
    ready = [
        chan for chan in channels if getattr(chan, "buffered", False)
    ]
    if ready:
        return ready
    try:
        from multiprocessing.connection import wait as _mp_wait

        return list(_mp_wait(channels, timeout))
    except OSError:
        return []


# ----- endpoints ------------------------------------------------------------


@dataclass
class WorkerEndpoint:
    """What a transport hands the router for one live worker."""

    conn: Any
    control: Any
    #: The locally spawned process, or None for a remote worker.
    process: Any = None
    #: Remote address, when there is one (diagnostics only).
    address: tuple[str, int] | None = None
    #: Frame-integrity counters shared by both channels (tcp only).
    frame_stats: Any = None


@dataclass
class WorkerConfig:
    """Everything a worker needs to build its engine, transport-agnostic.

    Queries travel as **text** (``str(query)`` round-trips through the
    parser — the same property engine checkpoints already rely on), so
    the exact same configure document works over a pipe to a forked
    child and over TCP to a worker on another host.
    """

    specs: list[tuple[str, str]] = field(default_factory=list)
    vectorized: bool = False
    obs: dict[str, Any] = field(default_factory=dict)
    #: Self-terminate after this many seconds without any router
    #: traffic (heartbeats included); None disables the guard.
    orphan_timeout_s: float | None = None


class ShardTransport:
    """Factory for worker endpoints; one per sharded engine."""

    def bind(self, config: WorkerConfig) -> None:
        """Fix the worker configuration before the first ``open``."""
        self._config = config

    @property
    def config(self) -> WorkerConfig:
        config = getattr(self, "_config", None)
        if config is None:
            raise TransportError("transport used before bind()")
        return config

    def open(self, index: int) -> WorkerEndpoint:
        raise NotImplementedError

    def open_member(self, index: int, member: Any) -> WorkerEndpoint:
        """Open shard ``index`` on a specific registry member.

        ``member`` carries ``member_id`` and ``address`` (None for a
        local-fork member). The default ignores placement — the pipe
        transport always forks locally, so membership is bookkeeping —
        while the socket transport connects to the member's address or
        to a shared locally spawned listener.
        """
        return self.open(index)

    def close(self) -> None:
        """Release transport-wide resources (endpoints are closed by
        the engine's per-worker teardown)."""

    def describe(self) -> str:
        return type(self).__name__


def _default_context() -> Any:
    """The multiprocessing context workers are started from: ``fork``
    where the platform has it, the platform default otherwise."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


class PipeTransport(ShardTransport):
    """Fork-per-shard over two OS pipes — the classic local transport."""

    def __init__(self) -> None:
        self._ctx = _default_context()

    def open(self, index: int) -> WorkerEndpoint:
        from repro.engine.sharded import _shard_worker

        config = self.config
        data_parent, data_child = self._ctx.Pipe(duplex=True)
        ctl_parent, ctl_child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                data_child,
                ctl_child,
                config.specs,
                config.vectorized,
                index,
                config.obs,
                config.orphan_timeout_s,
            ),
            daemon=True,
        )
        process.start()
        data_child.close()
        ctl_child.close()
        return WorkerEndpoint(
            conn=data_parent, control=ctl_parent, process=process
        )

    def describe(self) -> str:
        return "pipe"


def connect_with_backoff(
    address: tuple[str, int],
    attempts: int = 8,
    backoff_s: float = 0.05,
    max_delay_s: float = 2.0,
    connect_timeout_s: float = 5.0,
    on_retry: Callable[[], None] | None = None,
    rng: random.Random | None = None,
) -> socket.socket:
    """TCP connect with bounded retry, exponential backoff and jitter.

    The jitter factor is drawn from a ``random.Random`` seeded from
    ``REPRO_FAULT_SEED`` (like the sink-retry helper), so chaos runs
    replay their reconnect timing deterministically. Raises
    :class:`~repro.errors.TransportError` once the budget is spent.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    if rng is None:
        try:
            seed = int(os.environ.get("REPRO_FAULT_SEED", "0") or 0)
        except ValueError:
            seed = 0
        rng = random.Random(seed ^ hash(address) & 0xFFFFFFFF)
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            return socket.create_connection(
                address, timeout=connect_timeout_s
            )
        except OSError as error:
            last = error
        if on_retry is not None:
            on_retry()
        if attempt + 1 < attempts:
            delay = min(max_delay_s, backoff_s * (2 ** attempt))
            # Jitter in [0.5, 1.5): de-synchronizes a fleet of routers
            # reconnecting to the same revived worker.
            time.sleep(delay * (0.5 + rng.random()))
    raise TransportError(
        f"could not connect to worker at {address[0]}:{address[1]} "
        f"after {attempts} attempts ({last!r})"
    )


class SocketTransport(ShardTransport):
    """Length-prefixed framed TCP to workers that may live anywhere.

    Two modes:

    * ``addresses`` given — one ``HOST:PORT`` per shard, each a running
      ``python -m repro.shard_worker --listen`` process. The transport
      connects (with backoff) and ships the configure document; a
      revive re-connects to the same listener, whose serve loop accepts
      a fresh session and rebuilds its engine from the router's seed.
      ``open`` returns no process handle — the worker's lifetime is
      not ours to manage.
    * no addresses — the transport **spawns** one localhost listener
      process per shard (the listening socket is bound and put in
      listen state in the router first, so the connect can never race
      the child's accept). Same wire protocol, same process-tree
      semantics as the pipe transport — this is what ``--transport
      tcp`` without worker addresses does, and what the parity suite
      pins against the pipe transport.
    """

    def __init__(
        self,
        addresses: Sequence[str | tuple[str, int]] | None = None,
        host: str = "127.0.0.1",
        connect_attempts: int = 8,
        connect_backoff_s: float = 0.05,
        handshake_timeout_s: float = 10.0,
        registry: MetricsRegistry | None = None,
        read_deadline_s: float | None = None,
        write_deadline_s: float | None = None,
    ):
        self._addresses: list[tuple[str, int]] | None = None
        if addresses is not None:
            self._addresses = [
                parse_hostport(a) if isinstance(a, str) else (a[0], int(a[1]))
                for a in addresses
            ]
        self._host = host
        self._connect_attempts = connect_attempts
        self._connect_backoff_s = connect_backoff_s
        self._handshake_timeout_s = handshake_timeout_s
        self._read_deadline_s = read_deadline_s
        self._write_deadline_s = write_deadline_s
        registry = resolve_registry(registry)
        self._registry = registry
        self._ctx = _default_context()
        self._m_connects: dict[int, Any] = {}
        self._m_retries: dict[int, Any] = {}
        self._m_frames: dict[int, dict[str, Any]] = {}
        #: member_id -> (address, process) for listeners this transport
        #: spawned on behalf of local registry members.
        self._member_listeners: dict[str, tuple[tuple[str, int], Any]] = {}

    def _counters(self, index: int) -> tuple[Any, Any]:
        if index not in self._m_connects:
            self._m_connects[index] = self._registry.counter(
                "transport_connects_total",
                "worker channel connections established by the transport",
                shard=str(index),
            )
            self._m_retries[index] = self._registry.counter(
                "transport_reconnect_retries_total",
                "worker connect attempts that failed and were retried",
                shard=str(index),
            )
        return self._m_connects[index], self._m_retries[index]

    def _frame_sink(self, index: int) -> dict[str, Any]:
        if index not in self._m_frames:
            shard = str(index)
            self._m_frames[index] = {
                "corrupt": self._registry.counter(
                    "repro_transport_frame_corrupt_total",
                    "frames rejected by the per-frame CRC32 check",
                    shard=shard,
                ),
                "resyncs": self._registry.counter(
                    "repro_transport_frame_resyncs_total",
                    "framer re-alignments that discarded torn bytes",
                    shard=shard,
                ),
                "dup_skipped": self._registry.counter(
                    "repro_transport_frame_dup_skipped_total",
                    "duplicate frames dropped by sequence-number dedup",
                    shard=shard,
                ),
                "deadline_misses": self._registry.counter(
                    "repro_transport_frame_deadline_misses_total",
                    "read/write deadlines missed with zero progress",
                    shard=shard,
                ),
            }
        return self._m_frames[index]

    def open(self, index: int) -> WorkerEndpoint:
        if self._addresses is not None:
            if index >= len(self._addresses):
                raise TransportError(
                    f"shard {index} has no worker address (got "
                    f"{len(self._addresses)} for more shards)"
                )
            return self._connect(index, self._addresses[index], None)
        return self._spawn(index)

    def open_member(self, index: int, member: Any) -> WorkerEndpoint:
        address = getattr(member, "address", None)
        if address is not None:
            return self._connect(index, tuple(address), None)
        member_id = getattr(member, "member_id", f"local-{index}")
        address = self._member_address(member_id)
        return self._connect(index, address, None)

    def _member_address(self, member_id: str) -> tuple[str, int]:
        """Address of the (spawned-on-demand) listener for a local member.

        One listener process per local member, shared by every shard
        the member owns — the endpoint therefore carries no process
        handle (killing it on a single-shard revive would take the
        member's other shards with it); :meth:`close` reaps them.
        """
        entry = self._member_listeners.get(member_id)
        if entry is not None:
            return entry[0]
        address, process = self._spawn_listener()
        self._member_listeners[member_id] = (address, process)
        return address

    def member_process(self, member_id: str) -> Any:
        """The spawned listener process for a local member (tests)."""
        entry = self._member_listeners.get(member_id)
        return entry[1] if entry else None

    def drop_member(self, member_id: str) -> None:
        """Forget (and reap) a spawned local member listener."""
        entry = self._member_listeners.pop(member_id, None)
        if entry is None:
            return
        _, process = entry
        if process is not None:
            try:
                process.terminate()
                process.join(1.0)
            except (OSError, ValueError, AssertionError):
                pass

    def _spawn_listener(self) -> tuple[tuple[str, int], Any]:
        from repro.shard_worker import serve_socket

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((self._host, 0))
            listener.listen(4)
            address = listener.getsockname()
            process = self._ctx.Process(
                target=serve_socket,
                args=(listener,),
                kwargs={
                    "orphan_timeout_s": self.config.orphan_timeout_s,
                },
                daemon=True,
            )
            process.start()
        finally:
            listener.close()
        return address, process

    def _spawn(self, index: int) -> WorkerEndpoint:
        address, process = self._spawn_listener()
        return self._connect(index, address, process)

    def _connect(
        self,
        index: int,
        address: tuple[str, int],
        process: Any,
    ) -> WorkerEndpoint:
        m_connects, m_retries = self._counters(index)
        config = self.config
        token = transport_token()
        session = f"s{index}-{os.getpid()}-{time.monotonic_ns()}"
        stats = FrameStats(self._frame_sink(index))
        channels: list[FramedChannel] = []
        try:
            for role in ("data", "control"):
                sock = connect_with_backoff(
                    address,
                    attempts=self._connect_attempts,
                    backoff_s=self._connect_backoff_s,
                    on_retry=m_retries.inc,
                )
                channel = FramedChannel(
                    sock,
                    read_deadline_s=self._read_deadline_s,
                    write_deadline_s=self._write_deadline_s,
                    stats=stats,
                )
                channel.send(
                    ("hello", {"role": role, "shard": index,
                               "token": token, "session": session})
                )
                channels.append(channel)
            data, control = channels
            data.send(
                (
                    "configure",
                    {
                        "specs": config.specs,
                        "vectorized": config.vectorized,
                        "index": index,
                        "obs": config.obs,
                        "orphan_timeout_s": config.orphan_timeout_s,
                    },
                )
            )
            if not data.poll(self._handshake_timeout_s):
                raise TransportError(
                    f"worker at {address[0]}:{address[1]} did not "
                    f"acknowledge configure within "
                    f"{self._handshake_timeout_s}s"
                )
            status, detail = data.recv()
            if status != "ok":
                raise TransportError(
                    f"worker at {address[0]}:{address[1]} rejected "
                    f"configure: {detail}"
                )
        except (TransportError, OSError, EOFError) as error:
            for channel in channels:
                channel.close()
            if process is not None:
                try:
                    process.terminate()
                    process.join(1.0)
                except (OSError, ValueError):
                    pass
            if isinstance(error, TransportError):
                raise
            raise TransportError(
                f"handshake with worker at {address[0]}:{address[1]} "
                f"failed: {error!r}"
            ) from error
        m_connects.inc()
        _log.info(
            "worker_connected",
            message=(
                f"shard {index} connected over tcp at "
                f"{address[0]}:{address[1]}"
            ),
            shard=index,
            host=address[0],
            port=address[1],
        )
        return WorkerEndpoint(
            conn=data, control=control, process=process, address=address,
            frame_stats=stats,
        )

    def close(self) -> None:
        for member_id in list(self._member_listeners):
            self.drop_member(member_id)

    def describe(self) -> str:
        if self._addresses is not None:
            return "tcp:" + ",".join(
                f"{host}:{port}" for host, port in self._addresses
            )
        return "tcp"


def build_transport(
    transport: str | ShardTransport | None,
    worker_addresses: Sequence[str] | None = None,
    registry: MetricsRegistry | None = None,
) -> ShardTransport:
    """Resolve the engine's ``transport=`` argument to an instance."""
    if isinstance(transport, ShardTransport):
        return transport
    kind = transport or ("tcp" if worker_addresses else "pipe")
    if kind == "pipe":
        if worker_addresses:
            raise TransportError(
                "worker addresses require the tcp transport"
            )
        return PipeTransport()
    if kind in ("tcp", "socket"):
        return SocketTransport(
            addresses=worker_addresses or None,
            registry=registry,
        )
    raise TransportError(
        f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
    )
