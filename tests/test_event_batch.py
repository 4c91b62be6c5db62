"""Struct-of-arrays :class:`EventBatch`: construction, round-trips, wire.

The exactness contract under test: columnarizing events and
materializing them back must reproduce the originals exactly (types,
timestamps, attribute values *and* Python value types), and the flat
wire format must round-trip every column shape — including presence
masks and the pickled ``object`` fallback for heterogeneous columns.
"""

import io
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    ClickStreamGenerator,
    LoginStreamGenerator,
    StockTradeGenerator,
    SyntheticTypeGenerator,
)
from repro.datagen.synthetic import alphabet
from repro.datagen.tracefile import iter_trace, read_trace_batches, trace_text
from repro.errors import OutOfOrderError, StreamError
from repro.events import Event
from repro.events.batch import BatchSchema, EventBatch, batches_from_events


def sample_events():
    return [
        Event("A", 1, {"v": 1, "s": "x"}),
        Event("B", 2, {"v": 2}),
        Event("A", 2, {"v": 3, "s": "y", "f": 1.5}),
        Event("C", 5),
        Event("B", 9, {"v": 4, "f": 2.5}),
    ]


class TestConstruction:
    def test_from_events_roundtrips_exactly(self):
        events = sample_events()
        batch = EventBatch.from_events(events)
        assert len(batch) == len(events)
        assert batch.to_events() == events

    def test_value_types_survive_materialization(self):
        events = [
            Event("T", 1, {"i": 7, "f": 2.5, "s": "hi", "b": True,
                           "m": [1, 2]}),
            Event("T", 2, {"i": 8, "f": 3.5, "s": "yo", "b": False,
                           "m": {"k": 1}}),
        ]
        back = EventBatch.from_events(events).to_events()
        assert back == events
        attrs = back[0].attrs
        assert type(attrs["i"]) is int
        assert type(attrs["f"]) is float
        assert type(attrs["s"]) is str
        assert type(attrs["b"]) is bool
        assert attrs["m"] == [1, 2]

    def test_column_dtypes(self):
        batch = EventBatch.from_events(
            [Event("T", i, {"i": i, "f": float(i), "s": str(i)})
             for i in range(4)]
        )
        assert batch.codes.dtype == np.int32
        assert batch.ts.dtype == np.int64
        assert batch.cols["i"].dtype == np.int64
        assert batch.cols["f"].dtype == np.float64
        assert batch.cols["s"].dtype.kind == "U"

    def test_mixed_column_falls_back_to_object(self):
        batch = EventBatch.from_events(
            [Event("T", 1, {"v": 1}), Event("T", 2, {"v": "two"})]
        )
        assert batch.cols["v"].dtype == object

    def test_huge_ints_stay_exact(self):
        big = 2 ** 100
        batch = EventBatch.from_events([Event("T", 1, {"v": big})])
        assert batch.cols["v"].dtype == object
        assert batch.to_events()[0].attrs["v"] == big

    def test_presence_mask_for_partial_attributes(self):
        events = [Event("A", 1, {"v": 1}), Event("B", 2), Event("A", 3)]
        batch = EventBatch.from_events(events)
        assert batch.present["v"].tolist() == [True, False, False]
        assert batch.to_events() == events

    def test_absent_attrs_materialize_as_no_attrs(self):
        batch = EventBatch.from_events([Event("A", 1), Event("B", 2)])
        assert all(not e.attrs for e in batch.to_events())

    def test_schema_reuse_keeps_codes_stable(self):
        first = EventBatch.from_events([Event("A", 1), Event("B", 2)])
        second = EventBatch.from_events(
            [Event("B", 3)], schema=first.schema
        )
        assert second.schema is first.schema
        assert second.codes.tolist() == [first.schema.code_of["B"]]

    def test_schema_extension_is_prefix_compatible(self):
        first = EventBatch.from_events([Event("A", 1)])
        second = EventBatch.from_events(
            [Event("A", 2), Event("B", 3, {"v": 1})], schema=first.schema
        )
        assert second.schema is not first.schema
        assert second.schema.code_of["A"] == first.schema.code_of["A"]
        assert "v" in second.schema.columns

    def test_duplicate_schema_types_rejected(self):
        with pytest.raises(StreamError):
            BatchSchema(("A", "A"))

    def test_length_mismatch_rejected(self):
        schema = BatchSchema(("A",))
        with pytest.raises(StreamError):
            EventBatch(
                schema,
                np.zeros(2, dtype=np.int32),
                np.zeros(3, dtype=np.int64),
            )

    def test_empty_batch(self):
        batch = EventBatch.empty()
        assert len(batch) == 0
        assert batch.to_events() == []


class TestOrderHelpers:
    def test_in_order_batch_passes(self):
        batch = EventBatch.from_events([Event("A", 1), Event("A", 1),
                                        Event("A", 3)])
        assert batch.first_regression() is None
        batch.ensure_in_order()  # ties are legal, like EventStream

    def test_intra_batch_regression_detected(self):
        batch = EventBatch.from_events([Event("A", 5), Event("A", 3)])
        assert batch.first_regression() == (5, 3)
        with pytest.raises(OutOfOrderError):
            batch.ensure_in_order()

    def test_cross_batch_regression_detected(self):
        batch = EventBatch.from_events([Event("A", 5)])
        assert batch.first_regression(previous_ts=9) == (9, 5)
        batch.ensure_in_order(previous_ts=5)  # tie with predecessor OK


class TestDerivation:
    def test_take_and_islice_share_schema(self):
        batch = EventBatch.from_events(sample_events())
        taken = batch.take(np.array([0, 2, 4]))
        sliced = batch.islice(1, 4)
        assert taken.schema is batch.schema
        assert sliced.schema is batch.schema
        events = batch.to_events()
        assert taken.to_events() == [events[0], events[2], events[4]]
        assert sliced.to_events() == events[1:4]


class TestWire:
    def test_roundtrip_numeric_string_and_object_columns(self):
        events = [
            Event("A", 1, {"i": 1, "f": 0.5, "s": "a", "o": [1]}),
            Event("B", 2, {"i": 2, "f": 1.5, "s": "bb", "o": (2,)}),
        ]
        batch = EventBatch.from_events(events)
        decoded = EventBatch.from_wire(batch.to_wire())
        assert decoded.to_events() == events
        assert decoded.cols["i"].dtype == np.int64
        assert decoded.cols["o"].dtype == object

    def test_roundtrip_presence_masks(self):
        events = [Event("A", 1, {"v": 1}), Event("B", 2), Event("A", 3)]
        decoded = EventBatch.from_wire(
            EventBatch.from_events(events).to_wire()
        )
        assert decoded.present["v"].tolist() == [True, False, False]
        assert decoded.to_events() == events

    def test_roundtrip_empty_batch(self):
        decoded = EventBatch.from_wire(EventBatch.empty().to_wire())
        assert len(decoded) == 0

    def test_truncated_frame_rejected(self):
        wire = EventBatch.from_events(sample_events()).to_wire()
        with pytest.raises(StreamError):
            EventBatch.from_wire(wire[:3])
        with pytest.raises(StreamError):
            EventBatch.from_wire(wire[:-2])

    def test_wrong_version_rejected(self):
        import json
        import struct

        header = json.dumps({"v": 999, "n": 0, "types": [],
                             "segs": []}).encode()
        with pytest.raises(StreamError):
            EventBatch.from_wire(struct.pack("<I", len(header)) + header)


def _frame(segments, n=3, types=("A", "B"), tail=b"", **header):
    """A wire frame from ``(kind, name, dtype, bytes)`` segments."""
    head = {
        "v": 1, "n": n, "types": list(types),
        "segs": [[kind, name, dtype, len(raw)]
                 for kind, name, dtype, raw in segments],
        **header,
    }
    data = json.dumps(head).encode()
    return (
        struct.pack("<I", len(data)) + data
        + b"".join(raw for *_, raw in segments) + tail
    )


def _int32(*values):
    return np.array(values, dtype=np.int32).tobytes()


def _int64(*values):
    return np.array(values, dtype=np.int64).tobytes()


_CODES = ("codes", "", "<i4", _int32(0, 1, 0))
_TS = ("ts", "", "<i8", _int64(1, 2, 3))
_COL = ("col", "v", "<i8", _int64(7, 8, 9))

#: Frames the decoder must refuse, each one defect away from valid.
_MALFORMED = {
    "negative-code": [("codes", "", "<i4", _int32(-1, 0, 1)), _TS],
    "code-past-types": [("codes", "", "<i4", _int32(0, 2, 1)), _TS],
    "short-column": [_CODES, _TS, ("col", "v", "<i8", _int64(7))],
    "short-codes-and-ts": [
        ("codes", "", "<i4", _int32(0)), ("ts", "", "<i8", _int64(1)),
    ],
    "int-mask": [
        _CODES, _TS, ("mask", "v", "<i1", bytes([1, 0, 1])), _COL,
    ],
    "mask-without-column": [_CODES, _TS, ("mask", "v", "|b1", b"\1\0\1")],
    "float-codes": [("codes", "", "<f8", np.zeros(3).tobytes()), _TS],
    "pickled-codes": [("codes", "", None, pickle.dumps([0, 1, 0])), _TS],
    "unpicklable-column": [_CODES, _TS, ("col", "o", None, b"not a pickle")],
    "object-column-of-one-row": [
        _CODES, _TS, ("col", "o", None, pickle.dumps(["x"])),
    ],
    "unknown-dtype": [_CODES, _TS, ("col", "v", "zz9", _int64(7, 8, 9))],
    "object-dtype": [_CODES, _TS, ("col", "v", "|O", _int64(7, 8, 9))],
    "unknown-kind": [_CODES, _TS, ("extra", "v", "<i8", _int64(7, 8, 9))],
    "no-ts": [_CODES],
}


class TestMalformedWire:
    def test_the_frame_helper_makes_valid_frames(self):
        batch = EventBatch.from_wire(_frame([_CODES, _TS, _COL]))
        assert [(e.event_type, e.ts, e.attrs) for e in batch.to_events()] == [
            ("A", 1, {"v": 7}), ("B", 2, {"v": 8}), ("A", 3, {"v": 9}),
        ]

    @pytest.mark.parametrize(
        "frame",
        [_frame(segments) for segments in _MALFORMED.values()]
        + [
            _frame([_CODES, _TS], tail=b"\0"),
            _frame([_CODES, _TS], n="3"),
            _frame([_CODES, _TS], n=-1),
            _frame([_CODES, _TS], types=("A", 1)),
            _frame([_CODES, _TS], segs="codes"),
            _frame([_TS]),
            struct.pack("<I", 2) + b"[]",
        ],
        ids=list(_MALFORMED) + [
            "trailing-byte", "string-n", "negative-n", "non-string-type",
            "segs-not-a-list", "ts-only", "header-not-an-object",
        ],
    )
    def test_malformed_frame_raises_stream_error(self, frame):
        with pytest.raises(StreamError):
            EventBatch.from_wire(frame)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_frame_decodes_whole_or_raises(self, data):
        """Any one mutation of a valid frame's header fields or segment
        bytes either raises StreamError or decodes to a batch whose
        arrays all hold ``n`` rows and whose codes all name a type."""
        events = [
            Event("A", 1, {"v": 1, "s": "x", "o": [1]}),
            Event("B", 2, {"v": 2, "o": (2,)}),
            Event("C", 4, {"s": "yy", "o": None, "f": 0.5}),
        ]
        wire = EventBatch.from_events(events).to_wire()
        (size,) = struct.unpack_from("<I", wire)
        header = json.loads(wire[4:4 + size])
        body = bytearray(wire[4 + size:])
        values = st.one_of(
            st.integers(-2, 8), st.none(), st.booleans(),
            st.sampled_from(["codes", "ts", "mask", "col", "v", "<i4",
                             "<i8", "|b1", "<f8", "<U2", "|O", "zz"]),
        )
        target = data.draw(st.sampled_from(["n", "types", "seg", "bytes"]))
        if target == "n":
            header["n"] = data.draw(values)
        elif target == "types":
            header["types"] = data.draw(
                st.lists(st.sampled_from(["A", "B", "C", "D", 0]),
                         max_size=4)
            )
        elif target == "seg":
            segment = data.draw(st.sampled_from(header["segs"]))
            segment[data.draw(st.integers(0, 3))] = data.draw(values)
        else:
            for _ in range(data.draw(st.integers(1, 4))):
                body[data.draw(st.integers(0, len(body) - 1))] = data.draw(
                    st.integers(0, 255)
                )
        encoded = json.dumps(header).encode()
        frame = struct.pack("<I", len(encoded)) + encoded + bytes(body)
        try:
            batch = EventBatch.from_wire(frame)
        except StreamError:
            return
        n = header["n"]
        arrays = [batch.codes, batch.ts, *batch.cols.values(),
                  *batch.present.values()]
        assert all(len(array) == n for array in arrays)
        codes = batch.codes
        assert ((codes >= 0) & (codes < len(header["types"]))).all()
        assert len(batch.to_events()) == n


class TestBatchesFromEvents:
    def test_chunks_and_schema_growth(self):
        events = [Event(t, i + 1, {"v": i}) for i, t in
                  enumerate("AABCABCD")]
        batches = list(batches_from_events(events, batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 2]
        # Later batches extend earlier schemas without remapping codes.
        assert batches[1].schema.code_of["A"] == \
            batches[0].schema.code_of["A"]
        flat = [e for b in batches for e in b.to_events()]
        assert flat == events

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            list(batches_from_events([], batch_size=0))


class TestDatagenEmitters:
    def test_synthetic_batches_match_events(self):
        gen = SyntheticTypeGenerator(alphabet(12), mean_gap_ms=1, seed=3)
        flat = [e for b in gen.batches(2000, batch_size=333)
                for e in b.to_events()]
        assert flat == gen.take(2000)

    def test_synthetic_batches_share_one_schema(self):
        gen = SyntheticTypeGenerator(alphabet(5), seed=1)
        schemas = {id(b.schema) for b in gen.batches(500, batch_size=100)}
        assert len(schemas) == 1

    def test_stock_batches_match_events(self):
        gen = StockTradeGenerator(seed=9)
        flat = [e for b in gen.batches(1200, batch_size=256)
                for e in b.to_events()]
        assert flat == gen.take(1200)

    def test_clicks_batches_match_events(self):
        gen = ClickStreamGenerator(seed=4)
        flat = [e for b in gen.batches(900, batch_size=128)
                for e in b.to_events()]
        assert flat == gen.take(900)

    def test_logins_batches_match_events(self):
        # Login streams have heterogeneous attrs (password events carry
        # extra fields) — the presence-mask path end to end.
        gen = LoginStreamGenerator(seed=6)
        flat = [e for b in gen.batches(900, batch_size=64)
                for e in b.to_events()]
        assert flat == gen.take(900)

    def test_trace_batches_match_iter_trace(self):
        text = trace_text(StockTradeGenerator(seed=2).take(400))
        expected = list(iter_trace(io.StringIO(text)))
        flat = [
            e
            for b in read_trace_batches(io.StringIO(text), batch_size=64)
            for e in b.to_events()
        ]
        assert flat == expected
