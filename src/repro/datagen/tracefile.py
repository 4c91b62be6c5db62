"""Trace-file I/O for stock event streams.

The paper evaluates on ``eventstream3.txt`` — a stock trade trace of
120k events hosted at WPI, long offline. This module reads and writes
the plain-text format such traces use (one event per line:
``ticker,timestamp[,price[,volume]]``) so that anyone holding a copy of
the original file, or any trace shaped like it, can replay it through
the engines; :func:`write_trace` also lets the synthetic generators
persist reproducible streams to disk.

Two readers share one line grammar (:func:`_parse_fields`):
:func:`iter_trace` / :func:`read_trace` yield :class:`Event` objects a
line at a time, and :func:`read_trace_batches` parses whole chunks of
lines straight into :class:`EventBatch` columns for the columnar lane.
"""

from __future__ import annotations

import io
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from repro.errors import StreamError
from repro.events.batch import ABSENT, BatchSchema, EventBatch
from repro.events.event import Event
from repro.events.stream import EventStream

#: One parsed line: ``(ticker, ts, price, volume)``.
Row = tuple[str, int, Any, Any]
#: The arguments of :meth:`EventBatch.from_columns` less the schema.
Columns = tuple[list[str], Any, dict[str, Any]]


def _parse_fields(line: str, line_number: int) -> Row | None:
    """One line as ``(ticker, ts, price, volume)`` with :data:`ABSENT`
    for an omitted field; None for a blank or comment line."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    fields = [field.strip() for field in line.split(",")]
    if len(fields) < 2:
        raise StreamError(
            f"trace line {line_number}: expected 'ticker,timestamp[,"
            f"price[,volume]]', got {line!r}"
        )
    ticker, raw_ts = fields[0], fields[1]
    try:
        ts = int(raw_ts)
    except ValueError:
        raise StreamError(
            f"trace line {line_number}: timestamp {raw_ts!r} is not an "
            f"integer (milliseconds expected)"
        ) from None
    price = volume = ABSENT
    if len(fields) > 2 and fields[2]:
        try:
            price = float(fields[2])
        except ValueError:
            raise StreamError(
                f"trace line {line_number}: bad price {fields[2]!r}"
            ) from None
    if len(fields) > 3 and fields[3]:
        try:
            volume = int(fields[3])
        except ValueError:
            raise StreamError(
                f"trace line {line_number}: bad volume {fields[3]!r}"
            ) from None
    return ticker, ts, price, volume


def _open(path: str | Path) -> TextIO:
    # utf-8-sig: a byte-order mark (traces saved by Windows tools) is
    # dropped instead of becoming part of the first ticker.
    return open(path, "r", encoding="utf-8-sig")


def iter_trace(source: str | Path | TextIO) -> Iterator[Event]:
    """Yield events from a trace file or file-like object.

    Blank lines and ``#`` comments are skipped. Events are yielded in
    file order; wrap with :class:`~repro.events.stream.EventStream` (the
    default in :func:`read_trace`) to enforce timestamp order, or with
    :func:`~repro.events.reorder.reordered` for mildly disordered files.
    Lines are read one at a time with no read-ahead, so a live pipe
    delivers each event as its line arrives.
    """
    if isinstance(source, (str, Path)):
        with _open(source) as handle:
            yield from _iter_handle(handle)
    else:
        yield from _iter_handle(source)


def _iter_handle(handle: TextIO) -> Iterator[Event]:
    for line_number, line in enumerate(handle, start=1):
        row = _parse_fields(line, line_number)
        if row is None:
            continue
        ticker, ts, price, volume = row
        attrs: dict[str, object] = {"symbol": ticker}
        if price is not ABSENT:
            attrs["price"] = price
        if volume is not ABSENT:
            attrs["volume"] = volume
        yield Event(ticker, ts, attrs)


def read_trace(
    source: str | Path | TextIO, enforce_order: bool = True
) -> EventStream:
    """Open a trace as an :class:`EventStream`."""
    return EventStream(iter_trace(source), enforce_order=enforce_order)


def read_trace_batches(
    source: str | Path | TextIO,
    batch_size: int = 1024,
    schema: BatchSchema | None = None,
) -> Iterator[EventBatch]:
    """Read a trace as columnar :class:`EventBatch` chunks.

    The file is read ``batch_size`` lines at a time (memory is bounded
    by the batch, never the file) and each chunk is parsed straight
    into the ``codes``/``ts``/``symbol``/``price``/``volume`` arrays:
    no :class:`Event`, per-row ``dict`` or :class:`EventStream` is
    built. The batches are nevertheless exactly what
    ``batches_from_events(iter_trace(source), batch_size, schema)``
    yields — same rows per batch, same columns, dtypes and presence
    masks, values from the same ``int()``/``float()`` calls, the schema
    extended in first-seen order so type codes stay stable for the
    engine's per-schema plan caches — and a malformed line raises the
    same :class:`StreamError` with the same file line number. A chunk
    whose lines all have the same 2–4 plain fields is split once as a
    whole; a chunk holding anything else (comments, blank lines,
    omitted or padded fields, a value beyond ``int64``) is parsed line
    by line, and the next chunk is judged afresh.

    Timestamp order is not checked here: feed the batches to
    :meth:`StreamEngine.process_event_batch` (or ``run``), whose
    vectorised check rejects a regression with the same
    :class:`~repro.errors.OutOfOrderError` ``read_trace`` raises.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if isinstance(source, (str, Path)):
        with _open(source) as handle:
            yield from _iter_batches(handle, batch_size, schema)
    else:
        yield from _iter_batches(source, batch_size, schema)


def _iter_batches(
    handle: TextIO, batch_size: int, schema: BatchSchema | None
) -> Iterator[EventBatch]:
    consumed = 0  # lines read so far: error messages carry file line numbers
    rows: list[Row] = []  # a line-by-line batch still short of batch_size
    while lines := list(islice(handle, batch_size - len(rows))):
        columns = None if rows else _regular_columns(lines)
        if columns is None:
            for line_number, line in enumerate(lines, start=consumed + 1):
                row = _parse_fields(line, line_number)
                if row is not None:
                    rows.append(row)
            # Skipped lines leave room: keep reading until the batch is
            # as full as the per-event composition would make it.
            if len(rows) == batch_size:
                columns = _ragged_columns(rows)
                rows = []
        consumed += len(lines)
        if columns is not None:
            batch = EventBatch.from_columns(*columns, schema=schema)
            schema = batch.schema
            yield batch
    if rows:
        yield EventBatch.from_columns(*_ragged_columns(rows), schema=schema)


def _regular_columns(lines: list[str]) -> Columns | None:
    """``from_columns`` arguments for a chunk in which every line has
    the same 2–4 fields, all filled and no ticker padded; None when any
    line needs :func:`_parse_fields` (or is malformed)."""
    width = lines[0].count(",") + 1
    if not 2 <= width <= 4:
        return None
    text = "".join(lines)
    if "#" in text:
        return None
    if not text.endswith("\n"):
        text += "\n"  # the file's last line
    # One split for the whole chunk. Each line yields its fields and
    # then a "\n" token, so every line has exactly `width` fields iff
    # the newline tokens are the ones at every (width + 1)th place.
    tokens = text.replace("\n", ",\n,").split(",")
    n = len(lines)
    stride = width + 1
    if len(tokens) != n * stride + 1 or tokens[width::stride] != ["\n"] * n:
        return None
    tickers = tokens[0:-1:stride]
    for ticker in dict.fromkeys(tickers):
        if ticker != ticker.strip():
            return None
    try:
        # Filling an int64/float64 array from strings calls int()/float()
        # on each, which accept the surrounding whitespace _parse_fields
        # strips and reject an empty field: success means equal values.
        ts = np.array(tokens[1::stride], dtype=np.int64)
        columns = {"symbol": np.array(tickers, dtype=np.str_)}
        if width > 2:
            columns["price"] = np.array(tokens[2::stride], dtype=np.float64)
        if width > 3:
            columns["volume"] = np.array(tokens[3::stride], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return tickers, ts, columns


def _ragged_columns(rows: list[Row]) -> Columns:
    """``from_columns`` arguments for rows parsed line by line."""
    tickers, ts, prices, volumes = map(list, zip(*rows))
    values = {"symbol": tickers, "price": prices, "volume": volumes}
    # Columns in first-seen order (a row's price precedes its volume),
    # as from_events orders them.
    names = {"symbol": None}
    for _, _, price, volume in rows:
        if price is not ABSENT:
            names.setdefault("price")
        if volume is not ABSENT:
            names.setdefault("volume")
        if len(names) == len(values):
            break
    return tickers, ts, {name: values[name] for name in names}


def write_trace(
    events: Iterable[Event], destination: str | Path | TextIO
) -> int:
    """Write events in the trace format; returns the number written.

    Only the conventional attributes (price, volume) are persisted —
    the format predates structured attributes.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return _write_handle(events, handle)
    return _write_handle(events, destination)


def _write_handle(events: Iterable[Event], handle: TextIO) -> int:
    written = 0
    for event in events:
        fields = [event.event_type, str(event.ts)]
        price = event.get("price")
        volume = event.get("volume")
        if price is not None or volume is not None:
            fields.append("" if price is None else f"{price}")
        if volume is not None:
            fields.append(str(volume))
        handle.write(",".join(fields) + "\n")
        written += 1
    return written


def trace_text(events: Iterable[Event]) -> str:
    """Render events as trace text (tests, small exports)."""
    buffer = io.StringIO()
    _write_handle(events, buffer)
    return buffer.getvalue()
