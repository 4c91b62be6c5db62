"""Event journal: append/replay, CRC, rotation, torn-tail tolerance."""

import json
import zlib

import pytest

from repro.errors import JournalError
from repro.events import Event
from repro.events.batch import EventBatch
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan, tear_journal_tail
from repro.resilience.journal import (
    EventJournal,
    MemoryShardLog,
    decode_record,
    encode_record,
    list_segments,
    read_journal,
)


def some_events(n, with_attrs=True):
    return [
        Event(
            "ABC"[i % 3],
            i + 1,
            {"id": i % 4, "w": float(i)} if with_attrs and i % 2 else None,
        )
        for i in range(n)
    ]


def test_append_then_read_round_trips_events(tmp_path):
    events = some_events(50)
    with EventJournal(tmp_path) as journal:
        for event in events:
            journal.append(event)
    replayed = [event for _, event in read_journal(tmp_path)]
    assert replayed == events
    assert [seq for seq, _ in read_journal(tmp_path)] == list(range(50))


def test_read_from_offset_skips_prefix(tmp_path):
    events = some_events(30)
    with EventJournal(tmp_path) as journal:
        for event in events:
            journal.append(event)
    suffix = [event for _, event in read_journal(tmp_path, start_seq=21)]
    assert suffix == events[21:]


def test_segments_rotate_and_replay_in_order(tmp_path):
    events = some_events(200)
    with EventJournal(tmp_path, segment_bytes=512) as journal:
        for event in events:
            journal.append(event)
    segments = list_segments(tmp_path)
    assert len(segments) > 3
    assert [event for _, event in read_journal(tmp_path)] == events
    # offset replay can start inside a late segment
    assert [
        event for _, event in read_journal(tmp_path, start_seq=150)
    ] == events[150:]


def test_reopen_continues_sequence(tmp_path):
    with EventJournal(tmp_path) as journal:
        for event in some_events(10):
            journal.append(event)
    with EventJournal(tmp_path) as journal:
        assert journal.next_seq == 10
        journal.append(Event("X", 99))
    seqs = [seq for seq, _ in read_journal(tmp_path)]
    assert seqs == list(range(11))


def test_torn_tail_is_tolerated_by_reader(tmp_path):
    events = some_events(40)
    with EventJournal(tmp_path) as journal:
        for event in events:
            journal.append(event)
    dropped = tear_journal_tail(tmp_path, drop_bytes=7)
    assert dropped == 7
    replayed = [event for _, event in read_journal(tmp_path)]
    assert replayed == events[:39]  # only the final record is lost


def test_torn_tail_is_truncated_on_reopen(tmp_path):
    events = some_events(20)
    with EventJournal(tmp_path) as journal:
        for event in events:
            journal.append(event)
    tear_journal_tail(tmp_path, drop_bytes=3)
    with EventJournal(tmp_path) as journal:
        assert journal.next_seq == 19  # torn record 19 was discarded
        journal.append(Event("Z", 1000))
    replayed = [event for _, event in read_journal(tmp_path)]
    assert replayed[:-1] == events[:19]
    assert replayed[-1].event_type == "Z"


def test_mid_stream_corruption_raises(tmp_path):
    with EventJournal(tmp_path, segment_bytes=256) as journal:
        for event in some_events(120):
            journal.append(event)
    segments = list_segments(tmp_path)
    assert len(segments) >= 2
    victim = segments[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))


def test_missing_segment_raises_sequence_gap(tmp_path):
    with EventJournal(tmp_path, segment_bytes=256) as journal:
        for event in some_events(120):
            journal.append(event)
    segments = list_segments(tmp_path)
    assert len(segments) >= 3
    segments[1].unlink()
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))


def test_missing_first_segment_raises_instead_of_skipping(tmp_path):
    """A replay whose start was pruned away raises: starting at the
    first surviving record would drop the events between silently."""
    with EventJournal(tmp_path, segment_bytes=256) as journal:
        for event in some_events(120):
            journal.append(event)
    segments = list_segments(tmp_path)
    assert len(segments) >= 3
    segments[0].unlink()
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))
    second = int(segments[1].name[len("journal-"):-len(".wal")])
    assert [seq for seq, _ in read_journal(tmp_path, second)][0] == second


def test_crc_rejects_bit_flip():
    line = encode_record(7, Event("A", 3, {"x": 1}))
    flipped = line.replace('"x":1', '"x":2')
    with pytest.raises(JournalError):
        decode_record(flipped)
    assert decode_record(line)[0] == 7


@pytest.mark.parametrize("fsync", ["never", "interval", "always"])
def test_fsync_policies_all_persist(tmp_path, fsync):
    events = some_events(25)
    journal = EventJournal(
        tmp_path, fsync=fsync, fsync_interval=8
    )
    for event in events:
        journal.append(event)
    # no close(): a process crash must still find every record, since
    # segments are line-buffered (flushed to the OS per append)
    assert [event for _, event in read_journal(tmp_path)] == events
    journal.close()


def test_bad_fsync_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        EventJournal(tmp_path, fsync="sometimes")


def test_metrics_exported(tmp_path):
    registry = MetricsRegistry()
    with EventJournal(
        tmp_path, fsync="interval", fsync_interval=4, registry=registry
    ) as journal:
        for event in some_events(10):
            journal.append(event)
    assert registry.value("journal_records_total") == 10
    assert registry.value("journal_bytes_total") > 0
    assert registry.value("journal_fsyncs_total") == 2


def test_seeded_tear_is_deterministic(tmp_path):
    events = some_events(30)
    with EventJournal(tmp_path) as journal:
        for event in events:
            journal.append(event)
    before = list_segments(tmp_path)[-1].read_bytes()

    def tear_once():
        list_segments(tmp_path)[-1].write_bytes(before)
        return FaultPlan(seed=123).tear_journal(tmp_path)

    assert tear_once() == tear_once()


# ----- the batch record and the per-event shape it replaced -----------------


def legacy_line(seq, event):
    """One record in the per-event shape earlier versions wrote."""
    payload = {"seq": seq, "type": event.event_type, "ts": event.ts}
    if event.attrs:
        payload["attrs"] = event.attrs
    return crc_line(payload)


def crc_line(payload):
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data) & 0xFFFFFFFF, data)


def test_one_record_per_append_batch(tmp_path):
    events = some_events(30)
    with EventJournal(tmp_path) as journal:
        journal.append_batch(events[:12])
        journal.append(events[12])
        journal.append_batch(events[13:])
    lines = list_segments(tmp_path)[0].read_bytes().splitlines()
    assert len(lines) == 3
    first_seq, decoded = decode_record(lines[0].decode("utf-8"))
    assert (first_seq, decoded) == (0, events[:12])
    assert decode_record(lines[2].decode("utf-8"))[0] == 13


def test_per_event_records_then_batch_records_replay_alike(tmp_path):
    events = some_events(60)
    legacy = b"".join(legacy_line(seq, event) for seq, event in
                      enumerate(events[:20]))
    (tmp_path / "journal-000000000000.wal").write_bytes(legacy)
    with EventJournal(tmp_path, segment_bytes=700) as journal:
        assert journal.next_seq == 20
        journal.append_batch(events[20:35])  # rotates: legacy is full
        journal.append_batch(events[35:])
    assert len(list_segments(tmp_path)) == 2
    assert list(read_journal(tmp_path)) == list(enumerate(events))
    assert list(read_journal(tmp_path, start_seq=17)) == list(
        enumerate(events)
    )[17:]
    with EventJournal(tmp_path) as journal:
        assert journal.next_seq == 60


def test_read_from_inside_a_record(tmp_path):
    events = some_events(25)
    with EventJournal(tmp_path) as journal:
        journal.append_batch(events[:10])
        journal.append_batch(events[10:])
    for start in (3, 10, 13, 24, 25, 99):
        assert list(read_journal(tmp_path, start_seq=start)) == list(
            enumerate(events)
        )[start:]


def test_torn_batch_record_drops_exactly_that_batch(tmp_path):
    events = some_events(30)
    with EventJournal(tmp_path) as journal:
        journal.append_batch(events[:8])
        journal.append_batch(events[8:20])
        journal.append_batch(events[20:])
    segment = list_segments(tmp_path)[0]
    intact = b"".join(segment.read_bytes().splitlines(keepends=True)[:2])
    tear_journal_tail(tmp_path, drop_bytes=5)
    assert [event for _, event in read_journal(tmp_path)] == events[:20]
    with EventJournal(tmp_path) as journal:
        assert journal.next_seq == 20
        assert segment.read_bytes() == intact  # torn record truncated
        journal.append_batch(events[20:])
    assert list(read_journal(tmp_path)) == list(enumerate(events))


def test_length_mismatched_record_in_a_non_final_segment_raises(tmp_path):
    mismatched = crc_line(
        {"seq": 0, "type": ["A", "B"], "ts": [1], "attrs": [None, None]}
    )
    with pytest.raises(JournalError):
        decode_record(mismatched.decode("utf-8"))
    (tmp_path / "journal-000000000000.wal").write_bytes(mismatched)
    (tmp_path / "journal-000000000002.wal").write_bytes(
        encode_record(2, Event("C", 3)).encode("utf-8")
    )
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))


def test_record_larger_than_a_segment_rotates_cleanly(tmp_path):
    events = some_events(91)
    with EventJournal(tmp_path, segment_bytes=64) as journal:
        assert journal.append_batch(events[:40]) == 0
        assert journal.append_batch(events[40:90]) == 40
    with EventJournal(tmp_path, segment_bytes=64) as journal:
        assert journal.next_seq == 90
        journal.append(events[90])
    segments = list_segments(tmp_path)
    assert [path.name for path in segments] == [
        "journal-000000000000.wal",
        "journal-000000000040.wal",
        "journal-000000000090.wal",
    ]
    assert all(
        len(path.read_bytes().splitlines()) == 1 for path in segments
    )
    assert list(read_journal(tmp_path, start_seq=20)) == list(
        enumerate(events)
    )[20:]


def test_records_total_counts_events_not_records(tmp_path):
    registry = MetricsRegistry()
    with EventJournal(tmp_path, registry=registry) as journal:
        journal.append_batch(some_events(40))
        journal.append(Event("A", 99))
    assert registry.value("journal_records_total") == 41
    assert registry.value("journal_bytes_total") == sum(
        path.stat().st_size for path in list_segments(tmp_path)
    )


def test_fsync_interval_counts_events_not_records(tmp_path):
    registry = MetricsRegistry()
    with EventJournal(
        tmp_path, fsync="interval", fsync_interval=10, registry=registry
    ) as journal:
        journal.append_batch(some_events(25))
        assert registry.value("journal_fsyncs_total") == 1
        for event in some_events(9):
            journal.append(event)
        assert registry.value("journal_fsyncs_total") == 1
        journal.append(Event("A", 99))
        assert registry.value("journal_fsyncs_total") == 2


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "disk"])
def test_shard_log_replays_batches_cut_at_the_start_seq(tmp_path, durable):
    """A shard log holds the batches it was given: ``replay`` from a
    sequence inside one yields that batch cut to start there, then the
    later batches whole; ``checkpoint`` drops whole batches only, so
    the one the checkpoint falls inside is still replayable in full."""
    log = (
        EventJournal(tmp_path, segment_bytes=1) if durable
        else MemoryShardLog()
    )
    events = some_events(30)
    for start, stop in ((0, 10), (10, 25), (25, 30)):
        log.append_event_batch(EventBatch.from_events(events[start:stop]))
    assert log.next_seq == 30

    def replayed(start_seq):
        pairs = list(log.replay(start_seq))
        assert all(isinstance(batch, EventBatch) for _, batch in pairs)
        return pairs

    pairs = replayed(13)
    assert [(seq, len(batch)) for seq, batch in pairs] == [(13, 12), (25, 5)]
    assert pairs[0][1].to_events()[0] == events[13]
    assert [e for _, batch in pairs for e in batch.to_events()] == events[13:]

    log.checkpoint({"journal_seq": 13})
    pairs = replayed(10)
    assert [(seq, len(batch)) for seq, batch in pairs] == [(10, 15), (25, 5)]
    assert [e for _, batch in pairs for e in batch.to_events()] == events[10:]
    assert [(seq, len(batch)) for seq, batch in replayed(13)] == [
        (13, 12), (25, 5),
    ]
    log.close()


# ----- frame records ---------------------------------------------------------


def frame_record(seq, wire):
    """A frame record made by hand: ``<crc> @<seq> <nbytes>\\n<wire>\\n``."""
    head = b"@%d %d\n" % (seq, len(wire))
    crc = zlib.crc32(head + wire) & 0xFFFFFFFF
    return b"%08x " % crc + head + wire + b"\n"


def columnar_batch(start, n):
    """Rows with int, float and str columns, two of them masked."""
    return EventBatch.from_events([
        Event(
            "ABC"[i % 3],
            i,
            {"id": i, "w": i / 4, "tag": f"t{i % 5}"} if i % 3
            else {"w": float(i)},
        )
        for i in range(start, start + n)
    ])


def test_event_batch_is_one_frame_record_that_round_trips(tmp_path):
    batch = columnar_batch(0, 12)
    with EventJournal(tmp_path) as journal:
        assert journal.append_event_batch(batch) == 0
        assert journal.next_seq == 12
    assert list_segments(tmp_path)[0].read_bytes() == frame_record(
        0, batch.to_wire()
    )
    with EventJournal(tmp_path) as journal:
        ((seq, replayed),) = journal.replay()
    assert seq == 0
    assert replayed.schema.types == batch.schema.types
    assert replayed.schema.columns == tuple(batch.cols)
    assert replayed.codes.tolist() == batch.codes.tolist()
    assert replayed.ts.tolist() == batch.ts.tolist()
    for name, column in batch.cols.items():
        assert replayed.cols[name].dtype == column.dtype
        assert replayed.cols[name].tolist() == column.tolist()
    assert set(replayed.present) == set(batch.present) == {"id", "tag"}
    for name, mask in batch.present.items():
        assert replayed.present[name].tolist() == mask.tolist()
    assert [event for _, event in read_journal(tmp_path)] == (
        batch.to_events()
    )


def test_column_records_then_frames_resume_and_replay_in_order(tmp_path):
    events = columnar_batch(0, 90).to_events()
    with EventJournal(tmp_path, segment_bytes=600) as journal:
        journal.append_batch(events[:10])
        journal.append(events[10])
        journal.append_event_batch(EventBatch.from_events(events[11:30]))
    with EventJournal(tmp_path, segment_bytes=600) as journal:
        assert journal.next_seq == 30
        journal.append_batch(events[30:45])
        journal.append_event_batch(EventBatch.from_events(events[45:70]))
    with EventJournal(tmp_path, segment_bytes=600) as journal:
        assert journal.next_seq == 70
        journal.append_event_batch(EventBatch.from_events(events[70:]))
    data = b"".join(path.read_bytes() for path in list_segments(tmp_path))
    assert data.count(b' {"seq":') == 3 and data.count(b" @") >= 3
    assert len(list_segments(tmp_path)) > 2
    assert list(read_journal(tmp_path)) == list(enumerate(events))
    for start in (0, 10, 17, 30, 52, 89, 90):
        assert list(read_journal(tmp_path, start_seq=start)) == list(
            enumerate(events)
        )[start:]
    with EventJournal(tmp_path) as journal:
        pairs = list(journal.replay(17))
    assert [seq for seq, _ in pairs][0] == 17
    assert [e for _, batch in pairs for e in batch.to_events()] == events[17:]


def rewrite(path, data):
    path.unlink(missing_ok=True)  # cheaper than truncating in place
    path.write_bytes(data)


def damaged_frames(record):
    """Every cut of ``record`` short of its end, then every byte of it
    flipped."""
    for keep in range(len(record)):
        yield record[:keep]
    for index in range(len(record)):
        flipped = bytearray(record)
        flipped[index] ^= 0xFF
        yield bytes(flipped)


def test_damaged_final_frame_is_a_torn_tail(tmp_path):
    first, second = columnar_batch(0, 5), columnar_batch(5, 4)
    intact = frame_record(0, first.to_wire())
    last = frame_record(5, second.to_wire())
    segment = tmp_path / "journal-000000000000.wal"
    for damaged in damaged_frames(last):
        rewrite(segment, intact + damaged)
        assert [seq for seq, _ in read_journal(tmp_path)] == list(range(5))
        with EventJournal(tmp_path) as journal:
            assert journal.next_seq == 5
            assert segment.read_bytes() == intact
            journal.append_event_batch(second)
        assert segment.read_bytes() == intact + last


def test_damaged_frame_in_a_non_final_segment_raises(tmp_path):
    first, second = columnar_batch(0, 5), columnar_batch(5, 4)
    record = frame_record(0, first.to_wire())
    (tmp_path / "journal-000000000005.wal").write_bytes(
        frame_record(5, second.to_wire())
    )
    for damaged in damaged_frames(record):
        rewrite(tmp_path / "journal-000000000000.wal", damaged)
        with pytest.raises(JournalError):
            list(read_journal(tmp_path))


def test_object_column_batch_is_journaled_as_a_column_record(tmp_path):
    events = [Event("A", 1, {"x": 1}), Event("B", 2, {"x": "one"})]
    batch = EventBatch.from_events(events)
    assert batch.cols["x"].dtype == object
    with EventJournal(tmp_path) as journal:
        journal.append_event_batch(batch)
    (line,) = list_segments(tmp_path)[0].read_bytes().splitlines()
    assert decode_record(line.decode("utf-8")) == (0, events)
    with EventJournal(tmp_path) as journal:
        replayed = [e for _, b in journal.replay() for e in b.to_events()]
    assert replayed == events


def test_frame_with_an_object_segment_is_refused_unpickled(
    tmp_path, monkeypatch
):
    import pickle

    wire = EventBatch.from_events(
        [Event("A", 1, {"x": 1}), Event("B", 2, {"x": "one"})]
    ).to_wire()
    assert b'"col","x",null' in wire  # an object segment: a pickle

    def refuse(*args, **kwargs):
        raise AssertionError("a journal frame was unpickled")

    monkeypatch.setattr(pickle, "loads", refuse)
    ok = frame_record(0, columnar_batch(0, 3).to_wire())
    (tmp_path / "journal-000000000000.wal").write_bytes(
        ok + frame_record(3, wire)
    )
    assert [seq for seq, _ in read_journal(tmp_path)] == [0, 1, 2]
    with EventJournal(tmp_path) as journal:
        assert journal.next_seq == 3
    assert list_segments(tmp_path)[0].read_bytes() == ok
    (tmp_path / "journal-000000000000.wal").write_bytes(
        frame_record(0, wire)
    )
    (tmp_path / "journal-000000000002.wal").write_bytes(ok)
    with pytest.raises(JournalError):
        list(read_journal(tmp_path))
