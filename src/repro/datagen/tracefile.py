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
line at a time, and :func:`read_trace_batches` decodes whole chunks of
lines straight into :class:`EventBatch` columns for the columnar lane.
It has exactly two decode paths: a chunk of plain lines is read from
its UTF-8 bytes with vectorised digit arithmetic (:func:`_byte_batch`),
and any other chunk goes line by line through :func:`_parse_fields`.
Both give the values ``int()`` / ``float()`` give: an integer of at most
18 digits is exact in ``int64``, and a price read as ``mantissa /
10.0 ** k`` divides two exact doubles (a mantissa of at most 15
significant digits is below ``2**53``, ``10 ** k`` is exact for ``k <=
22``) with one correctly rounded IEEE division, which is the correctly
rounded decimal value ``float()`` returns.
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
    masks, bit-identical values, the schema extended in first-seen
    order so type codes stay stable for the engine's per-schema plan
    caches — and a malformed line raises the same :class:`StreamError`
    with the same file line number.

    A chunk whose lines all have the same 2–4 plain fields is decoded
    from its bytes as a whole: digit arithmetic is exact for integers
    of at most 18 digits, and a price is ``mantissa / 10.0 ** k``, two
    exact doubles and one correctly rounded division, hence the value
    ``float()`` gives (see the module docstring). The byte path
    declines, and the chunk is parsed line by line, when a line is a
    comment or blank; a field is omitted or padded, or a fifth field
    follows; a number has a sign, exponent, ``_``, whitespace or
    non-ASCII digit; an integer has more than 18 digits; a price has
    more than 15 significant digits or 18 bytes; a ticker is longer
    than 8 bytes, holds a NUL byte or starts with ``#``; or the field
    count changes within the chunk. The next chunk is judged afresh.

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
    tickers: dict[int, str | None] = {}  # ticker key -> ticker, per file
    while lines := list(islice(handle, batch_size - len(rows))):
        batch = None if rows else _byte_batch(lines, schema, tickers)
        if batch is None:
            for line_number, line in enumerate(lines, start=consumed + 1):
                row = _parse_fields(line, line_number)
                if row is not None:
                    rows.append(row)
            # Skipped lines leave room: keep reading until the batch is
            # as full as the per-event composition would make it.
            if len(rows) == batch_size:
                batch = EventBatch.from_columns(
                    *_ragged_columns(rows), schema=schema
                )
                rows = []
        consumed += len(lines)
        if batch is not None:
            schema = batch.schema
            yield batch
    if rows:
        yield EventBatch.from_columns(*_ragged_columns(rows), schema=schema)


#: Zero bytes around a chunk, so that the right-aligned digit windows
#: and the 8-byte ticker windows never index outside it.
_PAD = b"\0" * 24
#: The most bytes a number may have on the byte path: any 18 digits fit
#: ``int64``, with or without a price's dot.
_MAX_DIGITS = 18
#: Price mantissas below this (at most 15 significant digits) are exact
#: doubles, and so is ``10.0 ** k`` for every ``k`` up to 22.
_MANTISSA_LIMIT = 10**15
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)
_POW10_FLOAT = _POW10.astype(np.float64)
_COLUMNS = ("symbol", "price", "volume")
_TICKER_BYTES = np.arange(8)[:, None]
#: ``'0'``, and what a ``'.'`` becomes in a digit window.
_ZERO, _DOT = ord("0"), (ord(".") - ord("0")) % 256


def _byte_batch(
    lines: list[str],
    schema: BatchSchema | None,
    tickers: dict[int, str | None],
) -> EventBatch | None:
    """The chunk decoded from its bytes, or None when the byte path
    declines it (the cases :func:`read_trace_batches` lists).

    Fields are laid out one row per field position (``ends[f][i]`` is
    one past field ``f`` of line ``i``), so every array operation runs
    along the lines of the chunk. A ticker is keyed by its bytes read
    as one little-endian ``uint64``; ``tickers`` maps each key met so
    far in the file to its ticker, or to None when the byte path
    declines that ticker, so only a chunk's distinct keys are looked up
    and only new ones are decoded.
    """
    width = lines[0].count(",") + 1
    if not 2 <= width <= 4:
        return None
    text = "".join(lines)
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate from a text source
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # the file's last line
    buffer = np.frombuffer(b"".join((_PAD, data, _PAD)), dtype=np.uint8)
    # A chunk holds at most one newline per line, so every line has
    # exactly `width` fields iff there are n * width separators and
    # every width-th of them is a newline.
    n = len(lines)
    seps = np.flatnonzero((buffer == ord(",")) | (buffer == ord("\n")))
    if len(seps) != n * width:
        return None
    ends = seps.reshape(n, width).T.copy()
    if (buffer[ends[-1]] != ord("\n")).any():
        return None
    starts = np.empty_like(seps)
    starts[0] = len(_PAD)
    starts[1:] = seps[:-1] + 1
    starts = starts.reshape(n, width).T.copy()

    values = [_integers(buffer, starts[1], ends[1])]
    if width > 2:
        values.append(_prices(buffer, starts[2], ends[2]))
    if width > 3:
        values.append(_integers(buffer, starts[3], ends[3]))
    if any(column is None for column in values):
        return None

    lengths = ends[0] - starts[0]
    if lengths.max() > 8:
        return None
    window = buffer[starts[0] + _TICKER_BYTES]
    window *= _TICKER_BYTES < lengths
    if np.count_nonzero(window) != lengths.sum():
        return None  # a NUL byte would alias a shorter ticker's key
    distinct, inverse = np.unique(
        window.T.copy().view("<u8").ravel(), return_inverse=True
    )
    names = []
    for index, key in enumerate(distinct.tolist()):
        if key not in tickers:
            row = np.argmax(inverse == index)
            ticker = buffer[starts[0][row]:ends[0][row]].tobytes().decode()
            plain = ticker == ticker.strip() and not ticker.startswith("#")
            tickers[key] = ticker if plain else None
        names.append(tickers[key])
    if None in names:
        return None
    # The schema grows by the chunk's new tickers in first-seen order,
    # as from_columns grows it.
    if schema is None:
        schema = BatchSchema(())
    new = [i for i, name in enumerate(names) if name not in schema.code_of]
    if len(new) > 1:
        first = np.unique(inverse, return_index=True)[1]
        new.sort(key=first.__getitem__)
    columns = _COLUMNS[: width - 1]
    schema = schema.extended([names[i] for i in new], columns)
    codes = np.array([schema.code_of[name] for name in names], np.int32)
    # np.str_ sizes the column to the batch's longest ticker.
    symbol = np.array(names, dtype=np.str_)[inverse]
    return EventBatch(
        schema,
        codes[inverse],
        values[0],
        dict(zip(columns, [symbol, *values[1:]])),
    )


def _digit_window(
    buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """Each field's bytes minus ``ord('0')`` as one column, right-aligned
    and zero-filled above; None when a field is empty or longer than
    :data:`_MAX_DIGITS` bytes."""
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_DIGITS or lengths.min() < 1:
        return None
    offsets = np.arange(-width, 0)[:, None]
    window = buffer[ends + offsets]
    window -= _ZERO  # uint8 wraps: exactly the digits land on 0..9
    window *= offsets >= -lengths
    return window


def _integers(
    buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """Fields of plain ASCII digits as ``int64``, else None."""
    digits = _digit_window(buffer, starts, ends)
    if digits is None or digits.max() > 9:
        return None
    return _POW10[len(digits) - 1 :: -1] @ digits


def _prices(
    buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """Fields of ASCII digits with at most one dot as ``float64``, else
    None. A field is read as ``mantissa / 10.0 ** k`` (``k`` digits after
    the dot): both operands are exact and IEEE division rounds correctly,
    so the result is bit-identical to ``float()`` of the field."""
    digits = _digit_window(buffer, starts, ends)
    if digits is None:
        return None
    width = len(digits)
    dots = digits == _DOT
    # 32 + k per dot, k < 32 being the digits after it: one product
    # gives every field's dot count (>> 5) and scale (& 31).
    marks = np.arange(width + 31, 31, -1) @ dots
    has_dot = marks >> 5
    if has_dot.max() > 1 or (has_dot >= ends - starts).any():
        return None  # "1.2.3" or a lone "."
    digits[dots] = 0
    if digits.max() > 9:
        return None
    # With the dot read as a 0 digit a field's value is
    # head * 10**(k+1) + tail; its mantissa is head * 10**k + tail.
    value = _POW10[width - 1 :: -1] @ digits
    scale = marks & 31
    shift = _POW10[scale]
    mantissa = value - value // (shift * 10) * has_dot * 9 * shift
    if mantissa.max() >= _MANTISSA_LIMIT:
        return None
    return mantissa / _POW10_FLOAT[scale]


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
