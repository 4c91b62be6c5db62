"""The ASeqEngine facade: compilation, filtering, clock handling."""

from conftest import events_of, replay
from repro.core.dpc import DPCEngine
from repro.core.executor import ASeqEngine
from repro.core.hpc import HPCEngine
from repro.core.partition_table import PartitionTable
from repro.core.sem import SemEngine
from repro.core.vectorized import VectorizedSemEngine
from repro.query import parse_query, seq


class TestCompilation:
    def test_unwindowed_compiles_to_dpc(self):
        engine = ASeqEngine(seq("A", "B").build())
        assert isinstance(engine.runtime, DPCEngine)

    def test_windowed_compiles_to_sem(self):
        engine = ASeqEngine(seq("A", "B").within(ms=5).build())
        assert isinstance(engine.runtime, SemEngine)

    def test_vectorized_flag_swaps_runtime(self):
        engine = ASeqEngine(
            seq("A", "B").within(ms=5).build(), vectorized=True
        )
        assert isinstance(engine.runtime, VectorizedSemEngine)

    def test_vectorized_flag_ignored_without_window(self):
        engine = ASeqEngine(seq("A", "B").build(), vectorized=True)
        assert isinstance(engine.runtime, DPCEngine)

    def test_partitioned_compiles_to_hpc(self):
        engine = ASeqEngine(seq("A", "B").where_equal("id").build())
        assert isinstance(engine.runtime, HPCEngine)

    def test_hpc_inner_engines_follow_vectorized_flag(self):
        query = seq("A", "B").where_equal("id").within(ms=5).build()
        engine = ASeqEngine(query, vectorized=True)
        engine.process(events_of(("A", 1, {"id": 1}))[0])
        inner = next(iter(engine.runtime.partitions()))[1]
        assert isinstance(inner, VectorizedSemEngine)
        # A GROUP BY on the kernel holds its partitions in one table.
        grouped = ASeqEngine(
            seq("A", "B").within(ms=5).group_by("id").build(),
            vectorized=True,
        )
        grouped.process(events_of(("A", 1, {"id": 1}))[0])
        assert isinstance(grouped.runtime, PartitionTable)
        assert grouped.runtime.partition_count == 1


class TestFiltering:
    def test_local_predicates_filter_at_ingestion(self):
        query = (
            seq("A", "B").where_local("A", "x", ">", 5).build()
        )
        engine = ASeqEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"x": 1}),  # filtered out
                ("A", 2, {"x": 9}),
                ("B", 3),
            ),
        )
        assert engine.result() == 1
        assert engine.events_processed == 2  # the filtered A never counted

    def test_irrelevant_types_dropped_before_runtime(self):
        engine = ASeqEngine(seq("A", "B").build())
        replay(engine, events_of(("Z", 1), ("A", 2), ("B", 3)))
        assert engine.events_seen == 3
        assert engine.events_processed == 2

    def test_dropped_events_still_advance_clock(self):
        engine = ASeqEngine(seq("A", "B").within(ms=5).build())
        replay(engine, events_of(("A", 1), ("Z", 50)))
        assert engine.result() == 0  # the A expired even though Z is noise

    def test_filtered_negative_events_do_not_invalidate(self):
        query = (
            seq("A", "!N", "B")
            .where_local("N", "armed", "=", True)
            .build()
        )
        engine = ASeqEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1),
                ("N", 2, {"armed": False}),  # disarmed: filtered out
                ("B", 3),
            ),
        )
        assert engine.result() == 1


class TestFacade:
    def test_parsed_query_end_to_end(self):
        query = parse_query(
            "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 100 ms"
        )
        engine = ASeqEngine(query)
        outputs = replay(
            engine,
            events_of(("DELL", 1), ("IPIX", 2), ("AMAT", 3)),
        )
        assert outputs == [1]

    def test_peak_objects_tracked(self):
        engine = ASeqEngine(seq("A", "B").within(ms=100).build())
        replay(engine, events_of(*[("A", t) for t in range(1, 6)]))
        assert engine.peak_objects == 5

    def test_group_by_result_shape(self):
        engine = ASeqEngine(seq("A", "B").group_by("ip").build())
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}), ("B", 2, {"ip": "x"})
            ),
        )
        assert engine.result() == {"x": 1}
