"""The command-line interface (``python -m repro``)."""

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

    def test_stats_every_prints_under_columnar(self, trace_path, capsys):
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
