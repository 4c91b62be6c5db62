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
