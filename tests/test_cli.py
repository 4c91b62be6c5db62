"""The command-line interface (``python -m repro``)."""

import ast
import json

import pytest

from repro.cli import main
from repro.datagen import StockTradeGenerator
from repro.datagen.tracefile import write_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trades.txt"
    write_trace(StockTradeGenerator(mean_gap_ms=1, seed=2).take(3_000), path)
    return str(path)


QUERY = "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 300 ms"


class TestSingleQuery:
    def test_query_over_trace(self, trace_path, capsys):
        assert main(["--query", QUERY, "--trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("result\t")

    def test_generated_stream(self, capsys):
        code = main(
            ["--query", QUERY, "--generate", "stock", "--events", "2000"]
        )
        assert code == 0
        assert "result" in capsys.readouterr().out

    def test_emit_every(self, trace_path, capsys):
        main(["--query", QUERY, "--trace", trace_path, "--emit", "every"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 1  # per-trigger lines plus the final result
        assert lines[-1].startswith("result")

    def test_emit_none(self, trace_path, capsys):
        main(["--query", QUERY, "--trace", trace_path, "--emit", "none"])
        assert "result" not in capsys.readouterr().out

    def test_cross_check_agrees(self, trace_path, capsys):
        code = main(
            ["--query", QUERY, "--trace", trace_path, "--engine", "both"]
        )
        assert code == 0
        assert "AGREE" in capsys.readouterr().err

    def test_vectorized_engine(self, trace_path, capsys):
        code = main(
            ["--query", QUERY, "--trace", trace_path,
             "--engine", "vectorized"]
        )
        assert code == 0

    def test_query_file(self, tmp_path, trace_path, capsys):
        query_file = tmp_path / "q.cep"
        query_file.write_text(QUERY)
        code = main(
            ["--query-file", str(query_file), "--trace", trace_path]
        )
        assert code == 0

    def test_reorder_slack(self, tmp_path, capsys):
        # A trace with mild disorder fails strict replay but passes
        # with a slack bound.
        events = StockTradeGenerator(mean_gap_ms=2, seed=2).take(500)
        events[10], events[11] = events[11], events[10]
        path = tmp_path / "noisy.txt"
        write_trace(events, path)
        assert main(["--query", QUERY, "--trace", str(path)]) == 1
        capsys.readouterr()
        assert (
            main(
                ["--query", QUERY, "--trace", str(path),
                 "--reorder-slack-ms", "10"]
            )
            == 0
        )


class TestWorkloads:
    @pytest.fixture
    def workload_file(self, tmp_path):
        path = tmp_path / "w.cep"
        path.write_text(
            """
            a: PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 300 ms;
            b: PATTERN SEQ(MSFT, IPIX, AMAT) AGG COUNT WITHIN 300 ms;
            """
        )
        return str(path)

    def test_unshared_workload(self, workload_file, trace_path, capsys):
        code = main(
            ["--workload-file", workload_file, "--trace", trace_path]
        )
        assert code == 0
        assert "result" in capsys.readouterr().out

    def test_shared_workload_matches_unshared(
        self, workload_file, trace_path, capsys
    ):
        main(["--workload-file", workload_file, "--trace", trace_path])
        unshared_out = capsys.readouterr().out
        main(
            ["--workload-file", workload_file, "--trace", trace_path,
             "--shared"]
        )
        shared_out = capsys.readouterr().out
        assert unshared_out == shared_out


#: A complete invocation over files that do not exist.
_RUN = ["--query-file", "missing.cep", "--trace", "missing.txt"]


class TestErrors:
    def test_no_query_source(self, trace_path, capsys):
        with pytest.raises(SystemExit):
            main(["--trace", trace_path])

    def test_two_query_sources(self, trace_path):
        with pytest.raises(SystemExit):
            main(
                ["--query", QUERY, "--workload-file", "x", "--trace",
                 trace_path]
            )

    def test_no_event_source(self):
        with pytest.raises(SystemExit):
            main(["--query", QUERY])

    def test_bad_query_reports_error(self, trace_path, capsys):
        assert main(["--query", "PATTERN OOPS", "--trace", trace_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trace", "t"], "exactly one of --query / --query-file"),
            (_RUN + ["--query", QUERY],
             "exactly one of --query / --query-file"),
            (["--query", QUERY], "exactly one of --trace / --generate"),
            (_RUN + ["--generate", "stock"],
             "exactly one of --trace / --generate"),
            (_RUN + ["--shards", "2", "--journal", "d"],
             "--shards cannot be combined with --journal"),
            (_RUN + ["--shards", "2", "--recover"],
             "--shards --recover needs --router-journal DIR"),
            (_RUN + ["--shards", "2", "--engine", "both"],
             "--shards runs A-Seq executors"),
            (_RUN + ["--shards", "2", "--shared"],
             "--shards and --shared are mutually exclusive"),
            (_RUN + ["--shards", "2", "--membership-listen", "h:0",
                     "--heartbeat-interval", "0"],
             "--workers-file/--membership-listen need shard supervision"),
            (_RUN + ["--shards", "2", "--workers-file", "w",
                     "--heartbeat-interval", "0"],
             "--workers-file/--membership-listen need shard supervision"),
            (_RUN + ["--shard-journal", "d"],
             "--shard-journal requires --shards N"),
            (_RUN + ["--router-journal", "d"],
             "--router-journal requires --shards N"),
            (_RUN + ["--transport", "tcp"],
             "--transport/--shard-worker require --shards N"),
            (_RUN + ["--shard-worker", "h:1"],
             "--transport/--shard-worker require --shards N"),
            (_RUN + ["--membership-listen", "h:0"],
             "--workers-file/--membership-listen require --shards N"),
            (_RUN + ["--columnar", "--engine", "twostep"],
             "--columnar runs A-Seq executors"),
            (_RUN + ["--recover"], "--recover requires --journal DIR"),
            (_RUN + ["--journal", "d", "--engine", "twostep"],
             "--journal needs checkpointable executors"),
            (_RUN + ["--columnar", "--engine", "both"],
             "--columnar runs A-Seq executors"),
            (_RUN + ["--columnar", "--shared"],
             "--columnar and --shared are mutually exclusive"),
            (_RUN + ["--checkpoint-every", "100"],
             "--checkpoint-every requires --journal"),
            (_RUN + ["--shards", "2", "--router-checkpoint-every", "100"],
             "--router-checkpoint-every requires --router-journal"),
            (_RUN + ["--admin-linger", "5"],
             "--admin-linger requires --admin-port"),
        ],
    )
    def test_incompatible_flags_are_refused_before_anything_opens(
        self, argv, message
    ):
        # Neither file exists: opening one first would make main()
        # return 1 ("error: ...") and not raise the refusal.
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert str(refused.value).startswith(message)


def _result_values(out):
    """The final aggregates: the last field of each ``result`` line
    (the default lane prints ``result\\tV``, the batch lanes
    ``result\\tNAME\\tV``)."""
    return [
        line.split("\t")[-1]
        for line in out.splitlines()
        if line.startswith("result")
    ]


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


class TestColumnarTraceSource:
    """``--columnar --trace`` reads the file straight into batches: no
    ``Event``, no ``EventStream``, order checked once per batch."""

    def test_same_answer_with_no_event_and_no_stream_built(
        self, trace_path, capsys, monkeypatch
    ):
        from repro.events.event import Event
        from repro.events.stream import EventStream

        main(["--query", QUERY, "--trace", trace_path])
        expected = _result_values(capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("object built on the columnar lane")

        monkeypatch.setattr(Event, "__init__", refuse)
        monkeypatch.setattr(EventStream, "__init__", refuse)
        monkeypatch.setattr(EventStream, "__next__", refuse)
        code = main(["--query", QUERY, "--trace", trace_path, "--columnar"])
        assert code == 0
        assert _result_values(capsys.readouterr().out) == expected

    def test_empty_trace_still_reports_results(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["--query", QUERY, "--trace", str(empty), "--columnar"])
        assert code == 0
        assert capsys.readouterr().out == "result\tq\t0\n"

    @pytest.mark.parametrize(
        "lane",
        [[], ["--shards", "2"], ["--shards", "2", "--dump-trace"]],
        ids=["single", "sharded", "sharded-traced"],
    )
    def test_out_of_order_trace_fails_like_the_default_lane(
        self, tmp_path, capsys, lane
    ):
        # Lines 6-7 regress inside the second 4-row batch, after a
        # first batch that was fine.
        path = tmp_path / "disordered.txt"
        path.write_text(
            "".join(f"DELL,{ts},1.5,9\n" for ts in (1, 2, 3, 4, 5, 9, 7, 8))
        )
        argv = ["--query", QUERY, "--trace", str(path)]
        assert main(argv) == 1
        expected = _error_lines(capsys.readouterr().err)
        assert len(expected) == 1 and "timestamp 7 is earlier" in expected[0]
        code = main(argv + ["--columnar", "--batch-size", "4"] + lane)
        captured = capsys.readouterr()
        assert code == 1
        assert _error_lines(captured.err) == expected
        assert "result" not in captured.out

    def test_malformed_line_fails_with_its_line_number(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.txt"
        path.write_text("DELL,1,1.5,9\nDELL,2,1.5,9\nDELL,oops,1.5,9\n")
        argv = ["--query", QUERY, "--trace", str(path)]
        assert main(argv) == 1
        expected = _error_lines(capsys.readouterr().err)
        assert "trace line 3" in expected[0]
        assert main(argv + ["--columnar", "--batch-size", "2"]) == 1
        assert _error_lines(capsys.readouterr().err) == expected

    def test_stats_every_prints_under_columnar(
        self, trace_path, capsys, tmp_path
    ):
        # 3 000 events in 512-row batches cross 1 000, 2 000 and 3 000
        # in three different batches: the --batch-size loop's rule.
        flags = ["--stats-every", "1000", "--batch-size", "512"]

        def stats_positions(extra):
            main(["--query", QUERY, "--trace", trace_path] + flags + extra)
            return [
                line.split()[2]
                for line in capsys.readouterr().err.splitlines()
                if line.startswith("# stats ")
            ]

        expected = stats_positions([])
        assert expected == ["events=1,024", "events=2,048", "events=3,000"]
        assert stats_positions(["--columnar"]) == expected
        assert stats_positions(["--journal", str(tmp_path / "j")]) == expected
        assert stats_positions(["--shards", "2", "--columnar"]) == expected
        # The sharded lane always ingests batches, --columnar or not.
        assert stats_positions(["--shards", "2"]) == expected

    def test_reorder_slack_still_columnarizes_from_events(
        self, tmp_path, capsys
    ):
        path = tmp_path / "disordered.txt"
        path.write_text("DELL,1\nIPIX,5\nAMAT,4\nAMAT,6\n")
        argv = [
            "--query", "PATTERN SEQ(DELL, AMAT) AGG COUNT WITHIN 1 s",
            "--trace", str(path), "--reorder-slack-ms", "10",
        ]
        assert main(argv) == 0
        expected = _result_values(capsys.readouterr().out)
        assert expected == ["2"]
        assert main(argv + ["--columnar"]) == 0
        assert _result_values(capsys.readouterr().out) == expected


class TestJournalLane:
    """``--journal DIR --batch-size N`` (N > 1) reads a trace the way
    the columnar lane does and journals each batch as one frame record;
    only the guard turns rows into events."""

    @staticmethod
    def _without_name(out):
        """``--emit every`` lines with a lane's name column removed."""
        return [
            "\t".join(fields[:1] + fields[-1:])
            for fields in (line.split("\t") for line in out.splitlines())
        ]

    def test_trace_reaches_the_journal_as_batches(
        self, trace_path, tmp_path, capsys, monkeypatch
    ):
        from repro.datagen import tracefile
        from repro.resilience import EventJournal
        from repro.resilience.journal import read_journal

        argv = [
            "--query", QUERY, "--trace", trace_path, "--emit", "every",
            "--batch-size", "256",
        ]
        assert main(argv) == 0
        expected = self._without_name(capsys.readouterr().out)
        assert len(expected) > 10

        def refuse(*args, **kwargs):
            raise AssertionError("per-event path on the journal lane")

        monkeypatch.setattr(tracefile, "iter_trace", refuse)
        monkeypatch.setattr(tracefile, "_parse_fields", refuse)
        monkeypatch.setattr(EventJournal, "append_batch", refuse)
        journal = tmp_path / "j"
        assert main(argv + ["--journal", str(journal)]) == 0
        assert self._without_name(capsys.readouterr().out) == expected
        monkeypatch.undo()
        assert len(list(read_journal(journal))) == 3_000

    def test_columnar_journal_is_the_batched_journal_lane(
        self, tmp_path, capsys
    ):
        """``--columnar --journal DIR`` is the batched journal lane at
        the columnar batch size: a negation + GROUP BY query prints the
        ``--columnar`` lines, and recovering the journal alone (an
        empty tail) prints the same ``result`` line."""
        import random

        from repro.resilience.journal import read_journal

        rng = random.Random(3)
        trace, empty = tmp_path / "grouped.txt", tmp_path / "empty.txt"
        trace.write_text("".join(
            f"{rng.choice('AABBN')},{ts},{rng.randint(1, 9)}.5,"
            f"{rng.randint(1, 4)}\n"
            for ts in range(1, 5_001)
        ))
        empty.write_text("")
        query = [
            "--query", "PATTERN SEQ(A, !N, B) AGG SUM(B.price) "
            "WITHIN 50 ms GROUP BY volume", "--emit", "every", "--columnar",
        ]
        assert main(query + ["--trace", str(trace)]) == 0
        expected = self._without_name(capsys.readouterr().out)
        assert len(expected) > 100
        journal = ["--journal", str(tmp_path / "j")]
        assert main(query + ["--trace", str(trace), *journal]) == 0
        assert self._without_name(capsys.readouterr().out) == expected
        assert len(list(read_journal(tmp_path / "j"))) == 5_000
        assert main(
            query + ["--trace", str(empty), *journal, "--recover"]
        ) == 0
        assert self._without_name(capsys.readouterr().out) == [
            line for line in expected if line.startswith("result")
        ]

    def test_batched_recover_resumes_a_per_event_journal(
        self, tmp_path, capsys
    ):
        """A journal whose checkpoints hold non-vectorized executors —
        a per-event ``--journal`` run's, or one written before the
        batched lane ran the kernel — recovers onto the batched lane
        (its executors restored as recorded, walked per event) to the
        uninterrupted finals."""
        import ast
        import random

        rng = random.Random(11)
        lines = [
            f"{rng.choice('AABBN')},{ts},{rng.randint(1, 9)}.5,"
            f"{rng.randint(1, 4)}\n"
            for ts in range(1, 3_001)
        ]
        whole, head, tail = (
            tmp_path / "whole.txt", tmp_path / "head.txt",
            tmp_path / "tail.txt",
        )
        whole.write_text("".join(lines))
        head.write_text("".join(lines[:1_700]))
        tail.write_text("".join(lines[1_700:]))
        query = [
            "--query", "PATTERN SEQ(A, !N, B) AGG SUM(B.price) "
            "WITHIN 50 ms GROUP BY volume",
        ]

        def final(*flags):
            assert main(query + list(flags)) == 0
            out = capsys.readouterr().out.splitlines()
            return ast.literal_eval(out[-1].split("\t")[-1])

        expected = final("--trace", str(whole), "--columnar")
        journal = ["--journal", str(tmp_path / "j")]
        final("--trace", str(head), *journal, "--checkpoint-every", "500")
        recovered = final(
            "--trace", str(tail), *journal, "--batch-size", "64",
            "--recover",
        )
        assert recovered == expected and any(expected.values())

    def test_recover_refuses_a_tail_that_goes_back_in_time(
        self, tmp_path, capsys
    ):
        from repro.resilience.journal import read_journal

        head, tail = tmp_path / "head.txt", tmp_path / "tail.txt"
        head.write_text("A,10\nB,20\nA,30\n")
        tail.write_text("B,5\nB,40\n")
        journal = ["--journal", str(tmp_path / "j"), "--batch-size", "2"]
        argv = ["--query", "PATTERN SEQ(A, B) AGG COUNT WITHIN 1 s"]
        assert main(argv + ["--trace", str(head), *journal]) == 0
        capsys.readouterr()
        code = main(argv + ["--trace", str(tail), *journal, "--recover"])
        captured = capsys.readouterr()
        assert code == 1
        errors = _error_lines(captured.err)
        assert len(errors) == 1 and "timestamp 5 is earlier" in errors[0]
        assert "result" not in captured.out
        assert len(list(read_journal(tmp_path / "j"))) == 3


class TestLanes:
    """Every lane is the same spine — build an engine, ``run(source)``,
    finish — so one trace and one negation + GROUP BY query must read
    the same through all of them."""

    QUERY = (
        "PATTERN SEQ(A, !N, B) AGG SUM(B.price) WITHIN 200 ms "
        "GROUP BY volume"
    )
    EVENTS = 2_400

    @pytest.fixture
    def trace(self, tmp_path):
        import random

        rng = random.Random(7)
        ts, lines = 0, []
        for _ in range(self.EVENTS):
            ts += rng.randint(1, 4)
            # Whole-number prices: the SUMs are exact in any order.
            lines.append(
                f"{rng.choice('AABBCN')},{ts},{rng.randint(1, 9)}.0,"
                f"{rng.randint(1, 3)}\n"
            )
        path = tmp_path / "lanes.txt"
        path.write_text("".join(lines))
        return path

    def run(self, capsys, trace, *flags, code=0):
        """Exit code checked; returns ``(finals, every, stderr)`` with
        the values parsed and the lane's line format stripped."""
        argv = ["--query", self.QUERY, "--trace", str(trace), *flags]
        assert main(argv + ["--emit", "every"]) == code
        captured = capsys.readouterr()
        finals, every = [], []
        for line in captured.out.splitlines():
            fields = line.split("\t")
            if fields[0] == "result":
                finals.append(ast.literal_eval(fields[-1]))
            else:
                every.append((int(fields[0]), ast.literal_eval(fields[-1])))
        return finals, every, captured.err

    def test_single_process_lanes_agree_line_for_line(
        self, trace, tmp_path, capsys
    ):
        finals, every, _ = self.run(capsys, trace)
        assert len(every) > 100 and any(finals[0].values())
        for flags in (
            ["--batch-size", "64"],
            ["--engine", "vectorized"],
            ["--engine", "vectorized", "--batch-size", "64"],
            ["--engine", "both"],
            ["--columnar"],
            ["--columnar", "--batch-size", "64"],
            ["--journal", str(tmp_path / "j1")],
            ["--journal", str(tmp_path / "j2"), "--batch-size", "64"],
        ):
            got = self.run(capsys, trace, *flags)
            assert got[:2] == (finals, every), flags

    def test_sharded_lanes_agree_on_the_finals(self, trace, capsys):
        finals, _, _ = self.run(capsys, trace)
        for flags in (["--shards", "2"], ["--shards", "2", "--columnar"]):
            sharded, every, _ = self.run(capsys, trace, *flags)
            assert sharded == finals, flags
            # The sharded engine emits the merged finals, once.
            assert [value for _, value in every] == finals, flags

    def test_sharded_lane_ingests_batches_without_columnar(
        self, trace, capsys, monkeypatch
    ):
        """``--shards N`` reads its source as batches whether or not
        ``--columnar`` is given: the router's per-event entry point
        never runs, and the finals are the single-process ones."""
        from repro.engine.sharded import ShardedStreamEngine

        finals, _, _ = self.run(capsys, trace)

        def per_event(self, event):
            raise AssertionError("the sharded lane went per event")

        monkeypatch.setattr(ShardedStreamEngine, "process", per_event)
        sharded, _, _ = self.run(capsys, trace, "--shards", "2")
        assert sharded == finals

    def test_recovery_resumes_where_the_journal_stopped(
        self, trace, tmp_path, capsys
    ):
        finals, every, _ = self.run(capsys, trace)
        lines = trace.read_text().splitlines(keepends=True)
        head, tail = tmp_path / "head.txt", tmp_path / "tail.txt"
        head.write_text("".join(lines[:1_300]))
        tail.write_text("".join(lines[1_300:]))
        journal = [
            "--journal", str(tmp_path / "j"), "--checkpoint-every", "500",
        ]
        _, before, _ = self.run(capsys, head, *journal)
        recovered, after, err = self.run(capsys, tail, *journal, "--recover")
        assert "# recovered: 1 queries, 0 journal events replayed" in err
        assert recovered == finals
        assert before + after == every

    def test_supervised_recovery_keeps_the_engine_flags(
        self, trace, tmp_path, capsys
    ):
        """``--recover`` builds the engine a fresh ``--journal`` run
        builds: sink retries, the vectorized runtime and routing
        survive a recovery."""
        from repro.cli import _build_engine, build_parser
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracing import NULL_TRACER
        from repro.query import parse_query

        flags = [
            "--journal", str(tmp_path / "j"), "--sink-retries", "3",
            "--engine", "vectorized", "--batch-size", "64",
        ]
        self.run(capsys, trace, *flags)

        def built(*extra):
            args = build_parser().parse_args(
                ["--query", self.QUERY, "--trace", str(trace), *flags,
                 *extra]
            )
            engine = _build_engine(
                args, [parse_query(self.QUERY)], MetricsRegistry(),
                NULL_TRACER,
            ).engine
            settings = (
                engine._sink_retries, engine._vectorized, engine._routed
            )
            engine.journal.close()
            return settings

        assert built() == (3, True, True)
        assert built("--recover") == (3, True, True)

    def test_disagreeing_cross_check_exits_2_and_reports_no_run(
        self, trace, capsys, monkeypatch
    ):
        from repro.baseline.twostep import TwoStepEngine

        monkeypatch.setattr(TwoStepEngine, "result", lambda self: "wrong")
        _, _, err = self.run(capsys, trace, "--engine", "both", code=2)
        assert "\twrong\tDISAGREE" in err
        assert "events in" not in err  # no run_complete line

    @pytest.mark.parametrize("lane", ["default", "columnar", "journal"])
    def test_metrics_out_counts_every_event_once(
        self, trace, tmp_path, capsys, lane
    ):
        lane = {
            "default": [],
            "columnar": ["--columnar"],
            "journal": ["--journal", str(tmp_path / "j")],
        }[lane]
        out = tmp_path / "m.prom"
        self.run(capsys, trace, *lane, "--metrics-out", str(out))
        snapshot = json.loads((tmp_path / "m.prom.json").read_text())
        ingested = [
            counter["value"]
            for counter in snapshot["counters"]
            if counter["name"] == "events_ingested_total"
        ]
        assert ingested == [self.EVENTS]
        assert snapshot["run"]["events"] == self.EVENTS


def test_single_process_lanes_never_load_the_shard_runtime(tmp_path):
    """The default and ``--columnar`` lanes import ``StreamEngine`` and
    nothing of the sharded / supervised runtime behind the package
    ``__init__``s."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    trace = tmp_path / "ten.txt"
    trace.write_text("".join(f"DELL,{ts},1.5,9\n" for ts in range(1, 11)))
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"argv = ['--query', {QUERY!r}, '--trace', {str(trace)!r}]\n"
        "assert main(argv) == 0 and main(argv + ['--columnar']) == 0\n"
        "print(sorted(set(sys.modules) & {'repro.engine.sharded', "
        "'repro.engine.transport', 'repro.resilience.router_recovery', "
        "'multiprocessing'}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
