"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Sub-classes distinguish the layer that
detected the problem (query compilation, stream ingestion, runtime).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class QueryError(ReproError):
    """A query is syntactically or semantically invalid."""


class ParseError(QueryError):
    """The query text could not be parsed.

    Carries the offending position so tooling can point at it.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PredicateError(QueryError):
    """A predicate references an unknown attribute or event type."""


class StreamError(ReproError):
    """An event stream violated its contract (e.g. out-of-order events)."""


class OutOfOrderError(StreamError):
    """An event arrived with a timestamp earlier than its predecessor."""

    def __init__(self, previous_ts: int, current_ts: int):
        super().__init__(
            f"event timestamp {current_ts} is earlier than the previously "
            f"observed timestamp {previous_ts}; A-Seq assumes in-order "
            f"arrival (see paper Sec. 8)"
        )
        self.previous_ts = previous_ts
        self.current_ts = current_ts


class CounterOverflowError(ReproError, OverflowError):
    """A prefix count outgrew the columnar runtime's int64 ring.

    Raised before the count is written, never wrapped. It belongs to the
    workload, not to the event that tipped it over, so the supervised
    engine raises it instead of dead-lettering that event; the reference
    engine (``vectorized=False``) counts in Python integers and has no
    such limit.
    """


class PlanError(ReproError):
    """A multi-query sharing plan is invalid (e.g. bad chop points)."""


class EngineError(ReproError):
    """The streaming engine was used incorrectly (e.g. duplicate query id)."""


class CheckpointError(EngineError):
    """A checkpoint could not be taken, parsed, or restored.

    Raised for unsupported runtimes, format-version mismatches,
    query-text mismatches, and structurally invalid state documents.
    Recovery code catches exactly this class to fall back to an older
    checkpoint (it still is an :class:`EngineError`, so pre-existing
    callers keep working).
    """


class JournalError(ReproError):
    """The event journal is corrupt beyond the tolerated torn tail."""


class OverloadError(EngineError):
    """A bounded queue (dead-letter queue, journal backlog) overflowed
    under the ``raise`` overload policy."""


class TransportError(EngineError):
    """A shard transport could not connect, frame, or deliver.

    Raised by the networked shard transport when a worker endpoint
    cannot be reached within its bounded retry budget, or when a framed
    message violates the wire protocol. Pipe-transport failures keep
    raising the OS-level errors they always did; this class only covers
    the transport layer itself."""


class FrameError(TransportError):
    """A framed channel observed a corrupt or impossible frame.

    Raised when a frame's CRC32 does not match its payload, or when the
    per-channel sequence numbers show a gap (frames were lost on the
    wire). The channel is unusable afterwards: the router treats the
    worker as failed and takes the bounded revive/reconnect path, whose
    checkpoint + journal-suffix re-seed (with count-skip dedup) restores
    exactly-once delivery."""


class TransportTimeout(TransportError):
    """A framed channel missed its read or write deadline.

    Deadlines are progress-based — any byte moved resets them — so a
    slow link keeps working while a silently dead peer (no FIN, no RST)
    is detected in bounded time instead of hanging a send or recv
    forever."""
