"""Resilience overhead on the fig. 12 len-3 workload.

Three configurations over the same stream and query:

* ``bare`` — plain StreamEngine, the PR 1 baseline path;
* ``supervised`` — SupervisedStreamEngine with journaling disabled
  (the default); the acceptance bound is < 5% over ``bare``;
* ``journaled`` — journal + checkpoint-every-500, the durability tax
  recorded in CHANGES.md.
"""

import pytest

from conftest import make_stream
from repro.datagen.synthetic import alphabet
from repro.engine.engine import StreamEngine
from repro.query import seq
from repro.resilience import Checkpointer, EventJournal, SupervisedStreamEngine

TYPES = alphabet(20)
EVENTS = make_stream(20, 2_000, seed=11)
QUERY_TEXT_TYPES = TYPES[:3]


def query_of():
    return seq(*QUERY_TEXT_TYPES).count().within(ms=200).named("q").build()


def drive_engine(engine):
    process = engine.process
    for event in EVENTS:
        process(event)
    return engine.result("q")


def test_bare_engine(benchmark):
    def setup():
        engine = StreamEngine()
        engine.register(query_of())
        return (engine,), {}

    result = benchmark.pedantic(drive_engine, setup=setup, rounds=3)
    benchmark.extra_info["final_count"] = result


def test_supervised_no_journal(benchmark):
    """The default path: supervision on, durability off."""

    def setup():
        engine = SupervisedStreamEngine()
        engine.register(query_of())
        return (engine,), {}

    result = benchmark.pedantic(drive_engine, setup=setup, rounds=3)
    benchmark.extra_info["final_count"] = result


def test_supervised_journaled(benchmark, tmp_path_factory):
    def setup():
        directory = tmp_path_factory.mktemp("journal")
        engine = SupervisedStreamEngine()
        journal = EventJournal(directory, fsync="never")
        engine.attach_journal(journal)
        engine.attach_checkpointer(
            Checkpointer(engine, journal, every_events=500)
        )
        engine.register(query_of())
        return (engine,), {}

    result = benchmark.pedantic(drive_engine, setup=setup, rounds=3)
    benchmark.extra_info["final_count"] = result


@pytest.mark.parametrize("fsync", ["never", "interval"])
def test_journaled_results_agree(tmp_path, fsync):
    """The durability tax buys identical answers."""
    bare = StreamEngine()
    bare.register(query_of())
    journaled = SupervisedStreamEngine()
    journal = EventJournal(tmp_path / fsync, fsync=fsync)
    journaled.attach_journal(journal)
    journaled.register(query_of())
    assert drive_engine(journaled) == drive_engine(bare)
