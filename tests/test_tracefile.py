"""Trace-file reading/writing (the paper's dataset format)."""

import io
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.datagen import StockTradeGenerator, tracefile
from repro.datagen.tracefile import (
    iter_trace,
    read_trace,
    read_trace_batches,
    trace_text,
    write_trace,
)
from repro.errors import OutOfOrderError, StreamError
from repro.events import Event
from repro.events.batch import EventBatch, batches_from_events


class TestReading:
    def test_minimal_lines(self):
        events = list(iter_trace(io.StringIO("DELL,100\nAMAT,101\n")))
        assert [(e.event_type, e.ts) for e in events] == [
            ("DELL", 100),
            ("AMAT", 101),
        ]

    def test_price_and_volume(self):
        (event,) = iter_trace(io.StringIO("DELL,100,24.5,300\n"))
        assert event["price"] == 24.5
        assert event["volume"] == 300
        assert event["symbol"] == "DELL"

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\nDELL,1\n  \n# more\nAMAT,2\n"
        assert len(list(iter_trace(io.StringIO(text)))) == 2

    def test_bad_timestamp(self):
        with pytest.raises(StreamError, match="line 1"):
            list(iter_trace(io.StringIO("DELL,notatime\n")))

    def test_bad_price(self):
        with pytest.raises(StreamError, match="bad price"):
            list(iter_trace(io.StringIO("DELL,1,cheap\n")))

    def test_bad_volume(self):
        with pytest.raises(StreamError, match="bad volume"):
            list(iter_trace(io.StringIO("DELL,1,2.5,many\n")))

    def test_missing_fields(self):
        with pytest.raises(StreamError):
            list(iter_trace(io.StringIO("DELL\n")))

    def test_read_trace_enforces_order(self):
        stream = read_trace(io.StringIO("DELL,5\nAMAT,3\n"))
        next(stream)
        with pytest.raises(OutOfOrderError):
            next(stream)

    def test_read_trace_from_path(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("DELL,1\nAMAT,2\n")
        assert len(list(read_trace(path))) == 2

    def test_bom_and_crlf_file(self, tmp_path):
        # What a Windows tool saves: UTF-8 with a byte-order mark and
        # CRLF line ends. The mark must not become part of the ticker.
        path = tmp_path / "windows.txt"
        path.write_bytes(
            b"\xef\xbb\xbfT0,1,2.5,3\r\nT1,2,3.5,4\r\n"
        )
        expected = [
            Event("T0", 1, {"symbol": "T0", "price": 2.5, "volume": 3}),
            Event("T1", 2, {"symbol": "T1", "price": 3.5, "volume": 4}),
        ]
        assert list(iter_trace(path)) == expected
        (batch,) = read_trace_batches(str(path), batch_size=8)
        assert batch.schema.types == ("T0", "T1")
        assert batch.to_events() == expected


BATCH_SIZES = (1, 7, 64, 4096)


def assert_same_batch(got, want):
    """Column for column, dtype for dtype, mask for mask."""
    assert got.schema.types == want.schema.types
    assert got.schema.columns == want.schema.columns
    assert got.codes.dtype == want.codes.dtype
    assert got.codes.tolist() == want.codes.tolist()
    assert got.ts.dtype == want.ts.dtype
    assert got.ts.tolist() == want.ts.tolist()
    assert list(got.cols) == list(want.cols)
    for name, column in want.cols.items():
        assert got.cols[name].dtype == column.dtype, name
        # equal_nan for float columns; object columns compare as lists
        if column.dtype.kind == "f":
            assert np.array_equal(got.cols[name], column, equal_nan=True)
        else:
            assert got.cols[name].tolist() == column.tolist(), name
    assert list(got.present) == list(want.present)
    for name, mask in want.present.items():
        assert got.present[name].tolist() == mask.tolist(), name


@contextmanager
def trace_sources(text):
    """Factories for the same trace as a ``StringIO`` and as a path
    (written byte for byte, so CRLF reaches the reader's newline
    translation)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.txt"
        path.write_bytes(text.encode("utf-8"))
        yield (lambda: io.StringIO(text)), (lambda: str(path))


def _row_key(event):
    # Values by repr: a NaN price defeats attr-dict equality, and 1 must
    # not pass for 1.0.
    return (
        event.event_type,
        event.ts,
        sorted((name, repr(value)) for name, value in event.attrs.items()),
    )


def assert_reader_matches_composition(text):
    """``read_trace_batches`` against the composition it replaced,
    ``batches_from_events(iter_trace(...))``, on every batch size and
    both source kinds."""
    with trace_sources(text) as sources:
        for source in sources:
            rows = list(iter_trace(source()))
            for batch_size in BATCH_SIZES:
                want = list(batches_from_events(iter(rows), batch_size))
                got = list(read_trace_batches(source(), batch_size))
                assert len(got) == len(want)
                for got_batch, want_batch in zip(got, want):
                    assert len(got_batch) <= batch_size
                    assert_same_batch(got_batch, want_batch)
                flat = [e for batch in got for e in batch.to_events()]
                assert list(map(_row_key, flat)) == list(map(_row_key, rows))


_TICKERS = st.sampled_from(
    ["T0", "T1", "DELL", "LONGTICKER", "", " T0", "T1 ", "a b", "Ünï"]
)
_TS = st.one_of(
    st.integers(0, 10**9).map(str), st.sampled_from([" 7", "8 ", "+9"])
)
_PRICES = st.sampled_from(
    ["", "  ", "1.5", " 2.25 ", "7", "1e3", "nan", "-0.0", "24.50"]
)
_VOLUMES = st.sampled_from(
    ["", " ", "5", " 6 ", "1_0", "99999999999999999999"]
)


@st.composite
def _data_lines(draw):
    fields = [draw(_TICKERS), draw(_TS)]
    count = draw(st.integers(2, 5))
    if count > 2:
        fields.append(draw(_PRICES))
    if count > 3:
        fields.append(draw(_VOLUMES))
    if count > 4:
        fields.append("ignored")
    return ",".join(fields)


_NOISE_LINES = st.sampled_from(
    ["", "   ", "\t", "# comment", "#T0,1,2.0,3", "  # indented"]
)
_REGULAR_LINES = st.builds(
    "{},{},{},{}".format,
    st.sampled_from(["T0", "T1", "NEW"]),
    st.integers(0, 10**6),
    st.sampled_from(["1.5", "2.25"]),
    st.integers(0, 63),
)
_TRACE_TEXTS = st.builds(
    lambda lines, newline, closed: newline.join(lines)
    + (newline if closed and lines else ""),
    # Mostly-regular files with the odd ragged line, and fully ragged ones.
    st.lists(
        st.one_of(_REGULAR_LINES, _REGULAR_LINES, _data_lines(), _NOISE_LINES),
        max_size=40,
    ),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


class TestBatchReader:
    """``read_trace_batches`` parses chunks straight into columns; its
    contract is equality with ``batches_from_events(iter_trace(...))``
    on every input."""

    @pytest.mark.parametrize("seed", [2, 11])
    def test_generated_traces(self, seed):
        events = StockTradeGenerator(mean_gap_ms=1, seed=seed).take(700)
        assert_reader_matches_composition(trace_text(events))

    @pytest.mark.parametrize(
        "line", ["DELL,{ts}", "DELL,{ts},1.5", "DELL,{ts},1.5,9"]
    )
    def test_uniform_field_counts(self, line):
        text = "".join(line.format(ts=ts) + "\n" for ts in range(20))
        assert_reader_matches_composition(text)

    def test_new_ticker_mid_batch_extends_schema_in_first_seen_order(self):
        text = "B,1,1.0,1\nA,2,1.0,1\nB,3,1.0,1\nC,4,1.0,1\nA,5,1.0,1\n"
        batches = list(read_trace_batches(io.StringIO(text), batch_size=3))
        assert batches[0].schema.types == ("B", "A")
        assert batches[1].schema.types == ("B", "A", "C")
        assert_reader_matches_composition(text)

    def test_volume_before_price_orders_the_columns(self):
        text = "X,1,,5\nX,2,1.5,6\nX,3\n"
        (batch,) = read_trace_batches(io.StringIO(text), batch_size=8)
        assert list(batch.cols) == ["symbol", "volume", "price"]
        assert_reader_matches_composition(text)

    def test_irregular_chunk_does_not_downgrade_the_file(self):
        # A header comment makes the first batch ragged; the batches
        # after it must still be full and equal.
        text = "# header\n" + "".join(
            f"T{ts % 3},{ts},1.5,{ts}\n" for ts in range(50)
        )
        sizes = [
            len(b) for b in read_trace_batches(io.StringIO(text), 16)
        ]
        assert sizes == [16, 16, 16, 2]
        assert_reader_matches_composition(text)

    @settings(max_examples=60, deadline=None)
    @given(_TRACE_TEXTS)
    def test_ragged_lines(self, text):
        assert_reader_matches_composition(text)

    def test_empty_file_yields_no_batch(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert list(read_trace_batches(path, batch_size=4)) == []
        assert list(read_trace_batches(io.StringIO("# only\n\n"), 4)) == []

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            list(read_trace_batches(io.StringIO("A,1\n"), batch_size=0))

    @pytest.mark.parametrize(
        "bad",
        ["DELL,notatime", "DELL,17,cheap", "DELL,17,2.5,many", "DELL"],
    )
    @pytest.mark.parametrize("shape", ["A,{ts},1.5,3", "A,{ts}"])
    def test_malformed_line_in_a_later_chunk(self, bad, shape):
        # Line 17 of 20 with 7-line chunks: two whole batches come out,
        # then the same error, with the file line number, as iter_trace.
        lines = [shape.format(ts=ts) for ts in range(1, 21)]
        lines[16] = bad
        text = "\n".join(lines) + "\n"
        with pytest.raises(StreamError) as expected:
            list(iter_trace(io.StringIO(text)))
        assert "line 17" in str(expected.value)
        with trace_sources(text) as sources:
            for source in sources:
                reader = read_trace_batches(source(), batch_size=7)
                assert len(next(reader)) == len(next(reader)) == 7
                with pytest.raises(StreamError) as raised:
                    next(reader)
                assert str(raised.value) == str(expected.value)
                assert type(raised.value) is type(expected.value)

    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize(
        "spelling",
        ["+5", "-0", "1_0", "1__0", " 7\t", "１２", "0x10", "1e3", "5.",
         ".5", "nan", "-inf", "1e400", "1e-400", "9" * 25, "true", ""],
    )
    def test_numeric_spellings_parse_as_int_and_float_do(
        self, field, spelling
    ):
        # The byte path reads digits itself and hands every other
        # spelling to the per-line path; either way values must be
        # accepted, rejected and rounded exactly as int()/float() in
        # iter_trace do.
        lines = [["A", str(ts), "1.5", "3"] for ts in range(1, 9)]
        lines[4][field] = spelling
        text = "".join(",".join(fields) + "\n" for fields in lines)

        def outcome(batches):
            try:
                (batch,) = batches
            except (StreamError, OverflowError) as error:
                return type(error), str(error)
            return (
                [_row_key(event) for event in batch.to_events()],
                [(name, col.dtype) for name, col in batch.cols.items()],
            )

        expected = outcome(
            batches_from_events(iter_trace(io.StringIO(text)), 8)
        )
        got = outcome(read_trace_batches(io.StringIO(text), 8))
        if expected[0] is OverflowError:  # numpy's wording, not ours
            assert got[0] is OverflowError
        else:
            assert got == expected

    @pytest.mark.parametrize("digits", [18, 19])
    def test_long_timestamps_and_volumes(self, digits):
        # 18 digits always fit int64 and take the byte path; 19 digits
        # go line by line (a 19-digit volume past int64 stays exact in
        # an object column).
        ts = 10 ** (digits - 1)
        text = "".join(
            f"A,{ts + i},1.5,{10 ** digits - 1 - i}\n" for i in range(20)
        )
        assert_reader_matches_composition(text)

    @pytest.mark.parametrize(
        "price",
        [
            "123456789012345", "1.23456789012345", "12345678.9012345",
            "0.000123456789012345", "1234567890123456", "1.234567890123456",
            "9007199254740993", "9.007199254740993", "900719925474.0993",
            "0.9007199254740993", "9007199254740993.0", "007.50", "-0.00",
            "0.0", "5.", ".5", "000000000000000001",
        ],
    )
    def test_price_mantissa_boundaries(self, price):
        text = "".join(f"A,{ts},{price},3\n" for ts in range(20))
        assert_reader_matches_composition(text)

    @pytest.mark.parametrize(
        "ticker, other",
        [
            ("A", "B"), ("ABCDEFGH", "B"), ("ABCDEFGH", "ABCDEFGI"),
            ("ABCDEFGHI", "B"), ("ABCDEFGHI", "ABCDEFGHJ"),
            ("LONGTICKER", "B"), ("Ünï", "B"), ("日本", "B"),
        ],
    )
    def test_ticker_byte_lengths(self, ticker, other):
        text = "".join(
            f"{ticker if ts % 3 else other},{ts},1.5,3\n" for ts in range(20)
        )
        assert_reader_matches_composition(text)

    def test_last_line_without_newline(self):
        text = "".join(f"T{ts % 2},{ts},1.5,{ts}\n" for ts in range(20))
        assert_reader_matches_composition(text.rstrip("\n"))

    def test_field_count_changes_between_chunks(self):
        shapes = ["A,{ts},1.5,3", "B,{ts},2.5", "C,{ts}", "A,{ts},1.5,3"]
        text = "".join(
            shape.format(ts=ts) + "\n"
            for block, shape in enumerate(shapes)
            for ts in range(7 * block, 7 * block + 7)
        )
        assert_reader_matches_composition(text)

    def test_shorter_tickers_in_a_later_batch_narrow_the_symbol_column(self):
        text = "".join(
            f"{'LONGER' if ts < 7 else 'AB'},{ts},1.5,3\n" for ts in range(14)
        )
        first, second = read_trace_batches(io.StringIO(text), batch_size=7)
        assert first.cols["symbol"].dtype == np.dtype("<U6")
        assert second.cols["symbol"].dtype == np.dtype("<U2")
        assert_reader_matches_composition(text)

    def test_order_is_left_to_the_consumer(self):
        # The reader does not check order; the batch's own check names
        # the same pair EventStream would.
        (batch,) = read_trace_batches(io.StringIO("DELL,5\nAMAT,3\n"), 8)
        with pytest.raises(OutOfOrderError) as raised:
            batch.ensure_in_order()
        with pytest.raises(OutOfOrderError) as expected:
            list(read_trace(io.StringIO("DELL,5\nAMAT,3\n")))
        assert str(raised.value) == str(expected.value)


@contextmanager
def counting_line_parses():
    """Count the calls of the per-line parser (the byte path's decline)."""
    with mock.patch.object(
        tracefile, "_parse_fields", wraps=tracefile._parse_fields
    ) as spy:
        yield spy


def _spell_price(mantissa, scale, leading, trailing, bare):
    """``mantissa / 10**scale`` written with ``leading`` zeros before it,
    ``trailing`` zeros after its last digit and, when ``bare``, no
    integer part (".5") or a dot with nothing after it ("5.")."""
    digits = str(mantissa).rjust(scale + 1, "0")
    head = "0" * leading + digits[: len(digits) - scale]
    tail = digits[len(digits) - scale:] + "0" * trailing
    if not tail:
        return head + "." if bare else head
    if bare and not head.strip("0"):
        head = ""
    return f"{head}.{tail}"


_MANTISSAS = st.one_of(
    st.integers(0, 10**15 - 1),
    st.integers(10**15 - 50, 10**15 + 50),
    st.integers(2**53 - 50, 2**53 + 50),
    st.integers(0, 10**18),
)


class TestBytePath:
    """The chunk decoder that reads digits straight from the bytes."""

    def test_ledger_shaped_trace_never_parses_a_line(self, tmp_path):
        # A benchmark-shaped trace saved by a Windows tool (BOM, CRLF)
        # must be decoded wholly on the byte path: with the per-line
        # parser and from_columns both refusing, the read still equals
        # the composition.
        rng = np.random.default_rng(12)
        rows = 20_000
        lines = [
            f"T{code},{ts},{price!r},{volume}\r\n"
            for code, ts, price, volume in zip(
                rng.integers(0, 8, rows).tolist(),
                np.cumsum(rng.integers(1, 3, rows)).tolist(),
                (rng.integers(100, 10_000, rows) / 100.0).tolist(),
                rng.integers(0, 64, rows).tolist(),
            )
        ]
        path = tmp_path / "ledger.trace"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(lines).encode("ascii"))
        sizes = (7, 256, 4096)
        events = list(iter_trace(path))
        want = {size: list(batches_from_events(events, size)) for size in sizes}

        def refuse(*args, **kwargs):
            raise AssertionError("the byte path declined a chunk")

        with mock.patch.object(tracefile, "_parse_fields", refuse), \
                mock.patch.object(EventBatch, "from_columns", refuse):
            got = {size: list(read_trace_batches(path, size)) for size in sizes}
        for size in sizes:
            assert len(got[size]) == len(want[size])
            for got_batch, want_batch in zip(got[size], want[size]):
                assert_same_batch(got_batch, want_batch)

    @pytest.mark.parametrize("digits, by_bytes", [(18, True), (19, False)])
    def test_eighteen_digit_integers_stay_on_the_byte_path(
        self, digits, by_bytes
    ):
        text = f"A,{10 ** (digits - 1)},1.5,3\n"
        with counting_line_parses() as spy:
            (batch,) = read_trace_batches(io.StringIO(text), 8)
        assert batch.ts.tolist() == [10 ** (digits - 1)]
        assert spy.called is not by_bytes

    @settings(max_examples=400, deadline=None)
    @given(
        _MANTISSAS,
        st.integers(0, 17),
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),
    )
    def test_price_is_bit_identical_to_float_or_declined(
        self, mantissa, scale, leading, trailing, bare
    ):
        # Within the bound (at most 15 significant digits, counting
        # trailing zeros, in at most 18 bytes) the byte path's
        # mantissa / 10.0**k is float() to the bit; past it the chunk
        # must go to the per-line path, never round on its own.
        spelling = _spell_price(mantissa, scale, leading, trailing, bare)
        within = (
            int(spelling.replace(".", "")) < 10**15 and len(spelling) <= 18
        )
        with counting_line_parses() as spy:
            (batch,) = read_trace_batches(
                io.StringIO(f"A,1,{spelling}\nA,2,1.5\n"), 8
            )
        assert spy.called is not within, spelling
        got = batch.cols["price"][:1].view(np.int64)
        want = np.array([float(spelling)]).view(np.int64)
        assert got.tolist() == want.tolist(), spelling


class TestWriting:
    def test_round_trip_generator_stream(self, tmp_path):
        events = StockTradeGenerator(seed=4).take(500)
        path = tmp_path / "stream.txt"
        assert write_trace(events, path) == 500
        replayed = list(read_trace(path))
        assert [(e.event_type, e.ts) for e in replayed] == [
            (e.event_type, e.ts) for e in events
        ]
        assert [e["price"] for e in replayed] == [
            e["price"] for e in events
        ]

    def test_trace_text(self):
        text = trace_text([Event("DELL", 7, {"price": 1.5, "volume": 9})])
        assert text == "DELL,7,1.5,9\n"

    def test_event_without_attrs(self):
        assert trace_text([Event("X", 1)]) == "X,1\n"

    def test_volume_without_price(self):
        text = trace_text([Event("X", 1, {"volume": 5})])
        assert text == "X,1,,5\n"
        (event,) = iter_trace(io.StringIO(text))
        assert "price" not in event
        assert event["volume"] == 5


class TestEndToEnd:
    def test_query_over_written_trace(self, tmp_path):
        from repro import ASeqEngine, parse_query

        events = StockTradeGenerator(mean_gap_ms=1, seed=4).take(3_000)
        path = tmp_path / "t.txt"
        write_trace(events, path)
        query = parse_query(
            "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 300 ms"
        )
        from_file = ASeqEngine(query)
        for event in read_trace(path):
            from_file.process(event)
        in_memory = ASeqEngine(query)
        for event in events:
            in_memory.process(event)
        assert from_file.result() == in_memory.result()
