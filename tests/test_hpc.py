"""HPC partitioning: equivalence predicates and GROUP BY (Sec. 3.4)."""

import pytest

from conftest import events_of, replay
from repro.core.hpc import HPCEngine, partition_attribute
from repro.errors import PredicateError, QueryError
from repro.events import Event
from repro.query import seq
from repro.query.predicates import EquivalencePredicate


class TestPartitionAttribute:
    def test_from_equivalence(self):
        query = seq("A", "B").where_equal("id").build()
        assert partition_attribute(query) == "id"

    def test_from_group_by(self):
        query = seq("A", "B").group_by("ip").build()
        assert partition_attribute(query) == "ip"

    def test_none_for_plain_query(self):
        assert partition_attribute(seq("A", "B").build()) is None

    def test_partial_chain_rejected(self):
        query = seq("A", "B", "C").where_equal("id", "A", "C").build()
        with pytest.raises(QueryError):
            partition_attribute(query)

    def test_mixed_attribute_chain_rejected(self):
        query = (
            seq("A", "B")
            .where(EquivalencePredicate((("A", "uid"), ("B", "user"))))
            .build()
        )
        with pytest.raises(QueryError):
            partition_attribute(query)

    def test_two_chains_compose(self):
        from repro.core.hpc import partition_attributes

        query = (
            seq("A", "B")
            .where_equal("id")
            .where_equal("region")
            .build()
        )
        assert partition_attributes(query) == ("id", "region")
        # The single-attribute back-compat view refuses composites.
        with pytest.raises(QueryError):
            partition_attribute(query)

    def test_duplicate_chains_rejected(self):
        from repro.core.hpc import partition_attributes
        from repro.query.predicates import EquivalencePredicate

        query = (
            seq("A", "B")
            .where(EquivalencePredicate.on("id", "A", "B"))
            .where(EquivalencePredicate.on("id", "B", "A"))
            .build()
        )
        with pytest.raises(QueryError):
            partition_attributes(query)

    def test_group_by_composes_with_other_chain(self):
        from repro.core.hpc import partition_attributes

        query = seq("A", "B").where_equal("id").group_by("ip").build()
        assert partition_attributes(query) == ("ip", "id")

    def test_group_by_agreeing_with_chain(self):
        query = seq("A", "B").where_equal("id").group_by("id").build()
        assert partition_attribute(query) == "id"


class TestHPCEngine:
    def test_requires_partitioning_clause(self):
        with pytest.raises(QueryError):
            HPCEngine(seq("A", "B").build())

    def test_equivalence_partitions_and_sums(self):
        engine = HPCEngine(seq("A", "B").where_equal("id").build())
        replay(
            engine,
            events_of(
                ("A", 1, {"id": 1}), ("A", 2, {"id": 2}),
                ("B", 3, {"id": 1}), ("B", 4, {"id": 2}),
            ),
        )
        # (a1,b1) in partition 1, (a2,b2) in partition 2: combined 2,
        # not the 4 a cross-partition count would give.
        assert engine.result() == 2
        assert engine.partition_count == 2

    def test_group_by_reports_per_key(self):
        engine = HPCEngine(seq("A", "B").group_by("ip").build())
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}), ("B", 2, {"ip": "x"}),
                ("A", 3, {"ip": "y"}), ("A", 4, {"ip": "y"}),
                ("B", 5, {"ip": "y"}),
            ),
        )
        assert engine.result() == {"x": 1, "y": 2}

    def test_missing_partition_attribute_raises(self):
        engine = HPCEngine(seq("A", "B").group_by("ip").build())
        with pytest.raises(PredicateError):
            engine.process(Event("A", 1))

    def test_negated_event_with_key_invalidates_its_partition_only(self):
        query = seq("A", "!N", "B").group_by("ip").within(ms=50).build()
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}), ("A", 2, {"ip": "y"}),
                ("N", 3, {"ip": "x"}),
                ("B", 4, {"ip": "x"}), ("B", 5, {"ip": "y"}),
            ),
        )
        assert engine.result() == {"x": 0, "y": 1}

    def test_negated_event_without_key_broadcasts(self):
        query = seq("A", "!N", "B").group_by("ip").within(ms=50).build()
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}), ("A", 2, {"ip": "y"}),
                ("N", 3),
                ("B", 4, {"ip": "x"}), ("B", 5, {"ip": "y"}),
            ),
        )
        assert engine.result() == {"x": 0, "y": 0}

    def test_windowed_partitions_expire_independently(self):
        query = seq("A", "B").group_by("ip").within(ms=5).build()
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}),
                ("A", 4, {"ip": "y"}),
                ("B", 6, {"ip": "x"}),  # a(x) expired at 6
                ("B", 7, {"ip": "y"}),  # a(y) alive until 9
            ),
        )
        assert engine.result() == {"x": 0, "y": 1}

    def test_clock_shared_across_partitions(self):
        """Events in one partition expire counters in the others."""
        query = seq("A", "B").group_by("ip").within(ms=5).build()
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}), ("B", 2, {"ip": "x"}),
                ("A", 50, {"ip": "y"}),  # far future, advances the clock
            ),
        )
        assert engine.result() == {"x": 0, "y": 0}

    def test_memory_counts_all_partitions(self):
        query = seq("A", "B").group_by("ip").within(ms=100).build()
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"ip": "x"}),
                ("A", 2, {"ip": "y"}),
                ("A", 3, {"ip": "y"}),
            ),
        )
        assert engine.current_objects() == 3

    def test_composite_key_partitions(self):
        """Two chains: matches must agree on BOTH id and region."""
        query = (
            seq("A", "B").where_equal("id").where_equal("region").build()
        )
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"id": 1, "region": "eu"}),
                ("B", 2, {"id": 1, "region": "us"}),  # region differs
                ("B", 3, {"id": 1, "region": "eu"}),  # full agreement
            ),
        )
        assert engine.result() == 1
        assert engine.partition_count == 2  # keys (1,eu) and (1,us)

    def test_group_by_with_second_chain(self):
        """GROUP BY user, equivalence also on session: per-user totals
        combine over that user's sessions."""
        query = (
            seq("A", "B")
            .where_equal("session")
            .group_by("user")
            .build()
        )
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"user": "u1", "session": 1}),
                ("A", 2, {"user": "u1", "session": 2}),
                ("B", 3, {"user": "u1", "session": 1}),
                ("B", 4, {"user": "u1", "session": 2}),
                ("A", 5, {"user": "u2", "session": 9}),
                ("B", 6, {"user": "u2", "session": 8}),  # wrong session
            ),
        )
        assert engine.result() == {"u1": 2, "u2": 0}

    def test_composite_matches_oracle(self):
        import random

        from conftest import assert_matches_oracle, random_events
        from repro.baseline.twostep import TwoStepEngine
        from repro.core.executor import ASeqEngine

        rng = random.Random(123)
        query = (
            seq("A", "B")
            .where_equal("id")
            .where_equal("region")
            .count()
            .within(ms=15)
            .build()
        )

        def attrs(r, event_type):
            return {
                "id": r.randint(1, 2),
                "region": r.choice(["eu", "us"]),
            }

        for _ in range(30):
            events = random_events(
                rng, ["A", "B"], 22, attr_maker=attrs
            )
            assert_matches_oracle(
                query,
                [ASeqEngine(query), TwoStepEngine(query)],
                events,
            )

    def test_group_by_plus_chain_matches_oracle(self):
        import random

        from conftest import assert_matches_oracle, random_events
        from repro.baseline.twostep import TwoStepEngine
        from repro.core.executor import ASeqEngine

        rng = random.Random(321)
        query = (
            seq("A", "B")
            .where_equal("session")
            .group_by("user")
            .count()
            .within(ms=15)
            .build()
        )

        def attrs(r, event_type):
            return {
                "user": r.choice(["u1", "u2"]),
                "session": r.randint(1, 3),
            }

        for _ in range(30):
            events = random_events(rng, ["A", "B"], 22, attr_maker=attrs)
            assert_matches_oracle(
                query,
                [ASeqEngine(query), TwoStepEngine(query)],
                events,
            )

    def test_avg_combines_across_partitions(self):
        query = (
            seq("A", "B").where_equal("id").avg("B", "w").build()
        )
        engine = HPCEngine(query)
        replay(
            engine,
            events_of(
                ("A", 1, {"id": 1}), ("B", 2, {"id": 1, "w": 10}),
                ("A", 3, {"id": 2}), ("B", 4, {"id": 2, "w": 2}),
            ),
        )
        assert engine.result() == 6.0


class TestColumnarPartitions:
    def test_ten_thousand_keys_stay_under_the_ring_budget(self):
        """Most keys hold 0-2 live STARTs: the partition table's columns
        and per-key books for 10 000 keys of a length-3 SUM query must
        fit in 512 B per key (per-key rings took 14 KiB apiece at 256
        columns)."""
        from repro.core.executor import ASeqEngine
        from repro.events.batch import EventBatch

        keys = 10_000
        query = (
            seq("A", "B", "C").sum("C", "w").within(ms=10**6)
            .group_by("k").build()
        )
        engine = ASeqEngine(query, vectorized=True)
        events = [Event("A", ts, {"k": ts, "w": 1}) for ts in range(keys)]
        events += [
            Event("B", keys + ts, {"k": ts, "w": 1}) for ts in range(keys)
        ]
        batch = EventBatch.from_events(events)
        engine.process_columnar(
            batch, engine.columnar_plan(batch.schema), routed=False
        )
        hpc = engine.runtime
        assert hpc.partition_count == keys
        assert hpc.current_objects() == keys
        table_bytes = sum(
            array.nbytes for array in (hpc._ints, hpc._floats, hpc._books)
        )
        assert table_bytes <= keys * 512
