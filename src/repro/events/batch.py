"""Struct-of-arrays event batches — the zero-object columnar format.

An :class:`EventBatch` carries a micro-batch of events as parallel
numpy arrays (one ``int32`` type-code array, one ``int64`` timestamp
array, one column per attribute) plus a :class:`BatchSchema` mapping
type codes back to type names. Batches flow from the data generators
through :meth:`StreamEngine.process_event_batch` and across the shard
wire without ever constructing :class:`~repro.events.event.Event`
objects, which is what lifts the measured throughput ceiling from
"Python object dispatch" to "counter arithmetic" (see
docs/PERFORMANCE.md, "Columnar path").

Exactness contract: :meth:`EventBatch.from_events` followed by
:meth:`EventBatch.to_events` reproduces events that compare equal to
the originals (type, timestamp, attributes), and every engine path
consuming batches is differentially pinned against the per-event
reference engine. Columns preserve Python value types: all-``int``
columns stay ``int64``, all-``float`` columns ``float64``, all-``str``
columns fixed-width unicode; anything mixed (bools included, so they
stay ``bool``) falls back to an ``object`` column.

Wire format (:meth:`to_wire` / :meth:`from_wire`)::

    u32 header_len | header JSON (utf-8) | segment bytes...

The header describes the schema (type names, column names) and one
``[kind, name, dtype, nbytes]`` entry per segment, in order: the code
array, the timestamp array, then per column the optional presence
mask followed by the data. Numeric and unicode columns travel as raw
``tobytes`` buffers decoded with ``np.frombuffer``; ``object`` columns
are pickled (the documented fallback for heterogeneous attributes).
"""

from __future__ import annotations

import json
import pickle
import re
import struct
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import OutOfOrderError, StreamError
from repro.events.event import Event

#: Marks a row that lacks the attribute in :meth:`EventBatch.from_columns`
#: input (``None`` is a legal attribute value, so it cannot serve).
ABSENT = object()

_HEADER = struct.Struct("<I")

#: Segment kinds of a wire frame and the numpy dtype kinds each may
#: have (``O``: a pickled object column).
_SEGMENT_KINDS = {"codes": "i", "ts": "i", "mask": "b", "col": "biufcSUO"}

#: The plain-array ``dtype.str`` spellings a segment may carry (numpy
#: parses anything else with its own, wider, set of exceptions).
_PLAIN_DTYPE = re.compile(r"[<>|=][biufcSU][1-9][0-9]{0,5}")

#: Wire format version (bump on incompatible layout changes).
WIRE_VERSION = 1


class BatchSchema:
    """Type-code and column dictionary shared by a run of batches.

    Immutable: :meth:`extended` returns a new schema whose type codes
    are a superset *prefix-compatible* with this one (existing codes
    never change meaning), so per-schema caches keyed on object
    identity are invalidated exactly when the dictionary grows.
    """

    __slots__ = ("types", "columns", "code_of")

    def __init__(
        self, types: Sequence[str], columns: Sequence[str] = ()
    ) -> None:
        self.types: tuple[str, ...] = tuple(types)
        self.columns: tuple[str, ...] = tuple(columns)
        self.code_of: dict[str, int] = {
            name: code for code, name in enumerate(self.types)
        }
        if len(self.code_of) != len(self.types):
            raise StreamError("batch schema has duplicate type names")

    def extended(
        self, types: Iterable[str], columns: Iterable[str] = ()
    ) -> "BatchSchema":
        """This schema, grown to cover ``types``/``columns`` (self when
        it already does)."""
        code_of = self.code_of
        new_types = [t for t in types if t not in code_of]
        seen = set(self.columns)
        new_columns = [c for c in columns if c not in seen and not seen.add(c)]
        if not new_types and not new_columns:
            return self
        return BatchSchema(
            self.types + tuple(dict.fromkeys(new_types)),
            self.columns + tuple(new_columns),
        )

    def __repr__(self) -> str:
        return (
            f"BatchSchema(types={len(self.types)}, "
            f"columns={list(self.columns)!r})"
        )


#: Schemas decoded from wire frames, by ``(types, columns)``, so that
#: every frame of one stream shares one schema object (engines cache
#: plans by schema identity). Bounded: emptied when full.
_DECODED_SCHEMAS: dict[tuple[tuple[str, ...], ...], BatchSchema] = {}
_DECODED_SCHEMAS_MAX = 64


def _decoded_schema(
    types: list[str], columns: tuple[str, ...]
) -> BatchSchema:
    """The interned schema of a decoded frame (schemas are immutable)."""
    key = (tuple(types), columns)
    schema = _DECODED_SCHEMAS.get(key)
    if schema is None:
        schema = BatchSchema(*key)
        if len(_DECODED_SCHEMAS) >= _DECODED_SCHEMAS_MAX:
            _DECODED_SCHEMAS.clear()
        _DECODED_SCHEMAS[key] = schema
    return schema


def _column_array(
    values: list[Any], n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Build one attribute column (+ presence mask) preserving values.

    ``values`` uses the ``ABSENT`` sentinel for rows lacking the
    attribute. Column dtype is chosen so ``tolist()`` round-trips the
    original Python values exactly; mixed or exotic columns fall back
    to ``object`` dtype rather than coercing.
    """
    present = None
    if any(v is ABSENT for v in values):
        present = np.fromiter(
            (v is not ABSENT for v in values), dtype=bool, count=n
        )
    kinds = {type(v) for v in values if v is not ABSENT}
    if kinds == {int}:
        try:
            return (
                np.fromiter(
                    (0 if v is ABSENT else v for v in values),
                    dtype=np.int64,
                    count=n,
                ),
                present,
            )
        except OverflowError:
            pass  # ints beyond int64: keep them exact as objects
    elif kinds == {float}:
        return (
            np.fromiter(
                (0.0 if v is ABSENT else v for v in values),
                dtype=np.float64,
                count=n,
            ),
            present,
        )
    elif kinds == {str}:
        return (
            np.asarray(
                ["" if v is ABSENT else v for v in values], dtype=np.str_
            ),
            present,
        )
    column = np.empty(n, dtype=object)
    for i, v in enumerate(values):
        column[i] = None if v is ABSENT else v
    return column, present


def _decode_segment(
    kind: str, raw: bytes, dtype: str | None, pickled: bool
) -> np.ndarray:
    """One wire segment as an array (``dtype`` None: a pickled list,
    refused unless ``pickled``). Raises StreamError, or
    TypeError/ValueError on a malformed entry."""
    if dtype is None:
        if not pickled:
            raise StreamError(f"columnar {kind} segment is a pickle")
        try:
            values = pickle.loads(raw)
        except Exception as error:
            raise StreamError(
                f"unpicklable columnar object segment: {error!r}"
            ) from None
        array = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            array[i] = value
    elif _PLAIN_DTYPE.fullmatch(dtype):
        array = np.frombuffer(raw, dtype=np.dtype(dtype))
    else:
        raise StreamError(f"columnar segment dtype {dtype!r} is not plain")
    if array.dtype.kind not in _SEGMENT_KINDS[kind]:
        raise StreamError(f"columnar {kind} segment of dtype {array.dtype}")
    # Code points past U+10FFFF would make tolist() fail, not decode.
    if array.dtype.kind == "U" and array.view(
        np.dtype(np.uint32).newbyteorder(array.dtype.byteorder)
    ).max(initial=0) > 0x10FFFF:
        raise StreamError(f"columnar {kind} segment is not valid text")
    return array


class EventBatch:
    """One micro-batch of events in struct-of-arrays form.

    Arrays are parallel: row ``i`` is the event
    ``(schema.types[codes[i]], ts[i], {attributes present at i})``.
    Timestamps are expected non-decreasing (the same in-order contract
    :class:`~repro.events.stream.EventStream` enforces);
    :meth:`first_regression` locates violations so engine lanes can
    reject them identically to the per-event path.
    """

    __slots__ = ("schema", "codes", "ts", "cols", "present", "_events")

    def __init__(
        self,
        schema: BatchSchema,
        codes: np.ndarray,
        ts: np.ndarray,
        cols: dict[str, np.ndarray] | None = None,
        present: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.schema = schema
        self.codes = np.asarray(codes, dtype=np.int32)
        self.ts = np.asarray(ts, dtype=np.int64)
        if len(self.codes) != len(self.ts):
            raise StreamError("code and timestamp arrays disagree on length")
        self.cols = cols or {}
        self.present = present or {}
        self._events: list[Event] | None = None

    # ----- construction -----------------------------------------------------

    @classmethod
    def from_events(
        cls,
        events: Sequence[Event],
        schema: BatchSchema | None = None,
    ) -> "EventBatch":
        """Columnarize a list of events (batch→object inverse of
        :meth:`to_events`).

        A supplied ``schema`` is extended as needed (never mutated);
        reusing the returned batch's schema across consecutive calls
        keeps type codes stable and per-schema engine caches warm.
        """
        column_names: dict[str, None] = {}
        for event in events:
            for name in event.attrs:
                column_names.setdefault(name)
        return cls.from_columns(
            [event.event_type for event in events],
            np.fromiter(
                (event.ts for event in events),
                dtype=np.int64,
                count=len(events),
            ),
            {
                name: [event.attrs.get(name, ABSENT) for event in events]
                for name in column_names
            },
            schema,
        )

    @classmethod
    def from_columns(
        cls,
        type_names: Sequence[str],
        ts: Sequence[int] | np.ndarray,
        columns: dict[str, list[Any] | np.ndarray],
        schema: BatchSchema | None = None,
    ) -> "EventBatch":
        """Build a batch from rows already held column-wise.

        ``type_names[i]`` and ``ts[i]`` describe row ``i``; each entry
        of ``columns`` is either a list with :data:`ABSENT` where the
        row lacks the attribute (dtype and presence mask are chosen as
        documented in the module docstring) or a finished array with
        every row present, taken as is. ``schema`` is extended exactly
        as :meth:`from_events` extends it — that method is this one
        applied to the events' fields, so the two cannot drift.
        """
        n = len(type_names)
        types = dict.fromkeys(type_names)
        if schema is None:
            schema = BatchSchema(types, columns)
        else:
            schema = schema.extended(types, columns)
        codes = np.fromiter(
            map(schema.code_of.__getitem__, type_names),
            dtype=np.int32,
            count=n,
        )
        cols: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            if isinstance(values, np.ndarray):
                cols[name] = values
                continue
            column, mask = _column_array(values, n)
            cols[name] = column
            if mask is not None:
                present[name] = mask
        return cls(schema, codes, ts, cols, present)

    @classmethod
    def empty(cls, schema: BatchSchema | None = None) -> "EventBatch":
        schema = schema or BatchSchema(())
        return cls(
            schema,
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )

    # ----- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def first_ts(self) -> int:
        return int(self.ts[0])

    def last_ts(self) -> int:
        return int(self.ts[-1])

    def first_regression(
        self, previous_ts: int | None = None
    ) -> tuple[int, int] | None:
        """The first in-batch (or cross-batch) timestamp regression as
        ``(previous, offending)``, or None for an in-order batch."""
        ts = self.ts
        n = len(ts)
        if n == 0:
            return None
        if previous_ts is not None and int(ts[0]) < previous_ts:
            return (int(previous_ts), int(ts[0]))
        if n > 1:
            bad = np.nonzero(ts[1:] < ts[:-1])[0]
            if bad.size:
                i = int(bad[0])
                return (int(ts[i]), int(ts[i + 1]))
        return None

    def ensure_in_order(self, previous_ts: int | None = None) -> None:
        """Raise :class:`OutOfOrderError` exactly where the per-event
        :class:`~repro.events.stream.EventStream` would."""
        regression = self.first_regression(previous_ts)
        if regression is not None:
            raise OutOfOrderError(*regression)

    # ----- derivation -------------------------------------------------------

    def take(self, indices: np.ndarray) -> "EventBatch":
        """Row subset by (ascending) index array; shares the schema."""
        indices = np.asarray(indices, dtype=np.int64)
        cols = {name: col[indices] for name, col in self.cols.items()}
        present = {
            name: mask[indices] for name, mask in self.present.items()
        }
        return EventBatch(
            self.schema, self.codes[indices], self.ts[indices], cols, present
        )

    def islice(self, start: int, stop: int) -> "EventBatch":
        cols = {name: col[start:stop] for name, col in self.cols.items()}
        present = {
            name: mask[start:stop] for name, mask in self.present.items()
        }
        return EventBatch(
            self.schema,
            self.codes[start:stop],
            self.ts[start:stop],
            cols,
            present,
        )

    # ----- materialization --------------------------------------------------

    def to_events(self) -> list[Event]:
        """Materialize :class:`Event` objects (memoized).

        The safety valve for every non-vectorizable consumer: the list
        is built once and shared, so several fallback registrations in
        one engine pay the object cost a single time per batch.
        """
        if self._events is None:
            types = self.schema.types
            codes = self.codes.tolist()
            ts = self.ts.tolist()
            cols = {
                name: col.tolist() for name, col in self.cols.items()
            }
            present = {
                name: mask.tolist() for name, mask in self.present.items()
            }
            events = []
            for i in range(len(codes)):
                attrs: dict[str, Any] | None = None
                for name, values in cols.items():
                    mask = present.get(name)
                    if mask is None or mask[i]:
                        if attrs is None:
                            attrs = {}
                        attrs[name] = values[i]
                events.append(Event(types[codes[i]], ts[i], attrs))
            self._events = events
        return self._events

    # ----- flat-buffer wire -------------------------------------------------

    def to_wire(self) -> bytes:
        """Serialize as a flat buffer: JSON header + raw column bytes."""
        segments: list[list[Any]] = []
        parts: list[bytes] = []

        def add(kind: str, name: str, array: np.ndarray) -> None:
            if array.dtype == object:
                data = pickle.dumps(
                    array.tolist(), protocol=pickle.HIGHEST_PROTOCOL
                )
                segments.append([kind, name, None, len(data)])
            else:
                data = array.tobytes()
                segments.append([kind, name, array.dtype.str, len(data)])
            parts.append(data)

        add("codes", "", self.codes)
        add("ts", "", self.ts)
        for name, col in self.cols.items():
            mask = self.present.get(name)
            if mask is not None:
                add("mask", name, mask)
            add("col", name, col)
        header = json.dumps(
            {
                "v": WIRE_VERSION,
                "n": len(self),
                "types": list(self.schema.types),
                "segs": segments,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        return b"".join([_HEADER.pack(len(header)), header, *parts])

    @classmethod
    def from_wire(cls, data: bytes, pickled: bool = True) -> "EventBatch":
        """Decode :meth:`to_wire` output (arrays may be read-only views
        over the buffer; consumers never mutate batch columns). The only
        shard decoder: a frame whose segments do not all hold ``n`` rows,
        whose codes leave ``[0, len(types))``, whose masks are not
        ``bool``, or that is malformed anywhere raises StreamError; so
        does, with ``pickled=False``, a frame with an ``object`` segment,
        before anything is unpickled (the journal's reading)."""
        if len(data) < _HEADER.size:
            raise StreamError("truncated columnar batch frame")
        (header_len,) = _HEADER.unpack_from(data)
        offset = _HEADER.size
        try:
            header = json.loads(data[offset:offset + header_len])
        except ValueError as error:
            raise StreamError(
                f"corrupt columnar batch header: {error}"
            ) from None
        offset += header_len
        codes = ts = None
        cols: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        try:
            if header["v"] != WIRE_VERSION:
                raise StreamError(
                    f"unsupported columnar wire version {header['v']!r}"
                )
            n, types = header["n"], header["types"]
            if not all(isinstance(name, str) for name in types):
                raise ValueError("type names must be strings")
            for kind, name, dtype, nbytes in header["segs"]:
                raw = data[offset:offset + nbytes]
                if len(raw) != nbytes:
                    raise StreamError("truncated columnar batch segment")
                offset += nbytes
                array = _decode_segment(kind, raw, dtype, pickled)
                if len(array) != n:
                    raise StreamError(
                        f"columnar {kind} segment {name!r} holds "
                        f"{len(array)} rows, the frame {n}"
                    )
                if kind == "col":
                    cols[name] = array
                elif kind == "mask":
                    present[name] = array
                elif kind == "codes":
                    codes = array
                else:
                    ts = array
        except (KeyError, TypeError, ValueError) as error:
            raise StreamError(
                f"malformed columnar batch header: {error!r}"
            ) from None
        if offset != len(data):
            raise StreamError("bytes trail the columnar batch frame")
        if codes is None or ts is None:
            raise StreamError("columnar batch frame lacks code/ts arrays")
        if not present.keys() <= cols.keys():
            raise StreamError("columnar batch mask without its column")
        if n and (codes.min() < 0 or codes.max() >= len(types)):
            raise StreamError(
                f"columnar batch codes outside [0, {len(types)})"
            )
        return cls(
            _decoded_schema(types, tuple(cols)), codes, ts, cols, present
        )

    def __repr__(self) -> str:
        return (
            f"EventBatch(n={len(self)}, types={len(self.schema.types)}, "
            f"columns={list(self.cols)!r})"
        )


def batches_from_events(
    events: Iterable[Event],
    batch_size: int = 1024,
    schema: BatchSchema | None = None,
) -> Iterator[EventBatch]:
    """Chunk any event iterable into :class:`EventBatch` instances.

    The schema grows across batches as new types/attributes appear and
    is shared between consecutive batches otherwise, keeping engine-side
    per-schema routing caches hot.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    iterator = iter(events)
    while True:
        chunk = list(islice(iterator, batch_size))
        if not chunk:
            return
        batch = EventBatch.from_events(chunk, schema=schema)
        schema = batch.schema
        yield batch


def joinable(head: EventBatch, tail: EventBatch) -> bool:
    """Whether ``tail`` may follow ``head`` in one batch — a shard frame,
    or a run of replayed journal frames: its codes name the same types
    (one schema, or one extending ``head``'s) and it has ``head``'s
    columns, in order and of the same dtypes, and masks."""
    if tail.schema is not head.schema:
        types = head.schema.types
        if tail.schema.types[: len(types)] != types:
            return False
    if list(tail.cols) != list(head.cols):
        return False
    if tail.present.keys() != head.present.keys():
        return False
    return all(
        column.dtype == head.cols[name].dtype
        for name, column in tail.cols.items()
    )


def concatenated(parts: list[EventBatch]) -> EventBatch:
    """One batch of ``parts``' rows, in order, under the last (widest)
    part's schema; every pair of neighbours is :func:`joinable`."""
    last = parts[-1]
    return EventBatch(
        last.schema,
        np.concatenate([part.codes for part in parts]),
        np.concatenate([part.ts for part in parts]),
        {
            name: np.concatenate([part.cols[name] for part in parts])
            for name in last.cols
        },
        {
            name: np.concatenate([part.present[name] for part in parts])
            for name in last.present
        },
    )
