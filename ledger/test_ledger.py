"""Tests of the benchmark itself: ``python3 -m pytest ledger/``.

Not collected by tier-1 (``testpaths = ["tests"]``); every run here uses
``--scale 0.01``, which shrinks inputs and run length alike, so the whole
file takes about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import run  # noqa: E402

run.import_repro()

import check  # noqa: E402
import compare  # noqa: E402
import drivers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def ledger(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ledger" / "run.py"), "--scale", "0.01",
         *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_keeps_the_contract():
    document = benchmark()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert document["paths"] == ["ledger"]
    assert isinstance(document["run_seconds"], int)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
        names.append(entry["name"])
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        # The issue's bounds: a tenth, a twentieth for memory. A metric
        # that cannot hold its bound is demoted, never given a wider one.
        limit = 0.05 if entry["name"] == "peak_rss_mb" else 0.10
        assert 0 < entry["bound"] <= limit
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_benchmark_json_names_exactly_the_workloads_of_the_ledger():
    declared = {w["name"]: w["why"] for w in benchmark()["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS}


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_untraced_run_prints_exactly_the_declared_end_to_end_metrics(name):
    done = ledger("--workload", name, "--seed", "5", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for metric in declared:  # every metric is also printed by name
        assert re.search(rf"^\s+{re.escape(metric)}\s", done.stdout, re.M)


@pytest.mark.parametrize(
    "name", ["api-routing-20q", "cli-journal-neg-groupby"]
)
def test_traced_run_prints_every_per_layer_metric_and_loadable_spans(
    name, tmp_path
):
    spans_path = tmp_path / "spans.json"
    done = ledger("--workload", name, "--seed", "5", "--trace", "1",
                  "--spans-out", str(spans_path))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True
    declared = {m["name"]: m["unit"] for m in benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    spans = json.loads(spans_path.read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["name"] == "pass" for s in roots)
    ids = {s["id"] for s in spans}
    for span in spans:
        assert span["pass"] and span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
    chain = set(workloads.BY_NAME[name].chain)
    root_ids = {s["id"] for s in roots}
    on_path = {s["name"] for s in spans if s["parent"] in root_ids}
    assert chain <= on_path <= chain | {"harness.isolated"}


def test_equal_seeds_give_identical_inputs_and_other_seeds_do_not():
    one = b"".join(workloads.trace_lines(workloads.generate(7, 2_000, 8)))
    same = b"".join(workloads.trace_lines(workloads.generate(7, 2_000, 8)))
    other = b"".join(workloads.trace_lines(workloads.generate(8, 2_000, 8)))
    assert one == same and one != other


def test_trace_file_round_trips_the_columns_exactly(tmp_path):
    from repro.datagen.tracefile import read_trace_batches

    columns = workloads.generate(3, 3_000, 60)
    path = workloads.write_trace_file(columns, tmp_path / "t.trace")
    (batch,) = read_trace_batches(str(path), batch_size=len(columns))
    names = np.asarray(batch.schema.types)[batch.codes]
    assert names.tolist() == [f"T{c}" for c in columns.codes.tolist()]
    assert np.array_equal(batch.ts, columns.ts)
    assert np.all(np.diff(columns.ts) > 0)
    assert batch.cols["price"].tolist() == columns.price.tolist()
    assert np.array_equal(batch.cols["volume"], columns.volume)
    assert batch.cols["symbol"].tolist() == names.tolist()


def test_prebuilt_batches_equal_the_decoded_trace(tmp_path):
    from repro.datagen.tracefile import iter_trace

    columns = workloads.generate(4, 1_000, 8)
    path = workloads.write_trace_file(columns, tmp_path / "t.trace")
    decoded = list(iter_trace(str(path)))
    built = [
        event for batch in workloads.event_batches(columns, 256)
        for event in batch.to_events()
    ]
    assert [(e.event_type, e.ts, e.attrs) for e in decoded] == [
        (e.event_type, e.ts, e.attrs) for e in built
    ]
    assert decoded == workloads.events_of(columns)


def small_env(name: str, tmp_path: Path) -> drivers.Env:
    return drivers.Env(
        workloads.BY_NAME[name], workloads.DEFAULT_SEED, 0.2, 0.01, tmp_path
    )


def test_a_corrupted_expected_file_fails_the_gate(tmp_path, monkeypatch):
    env = small_env("api-kernel-fig12", tmp_path)
    columns = env.columns()
    answers = check.reference(env.workload, columns)
    monkeypatch.setattr(check, "EXPECTED_DIR", tmp_path)
    document = {"workload": env.workload.name, "seed": env.seed, **answers}
    path = check.expected_path(env.workload)

    path.write_text(json.dumps(document))
    assert drivers.run_api(env).failures == []

    document["results"]["q"] += 1
    path.write_text(json.dumps(document))
    report = drivers.run_api(env)
    assert report.failures and report.attempted > len(report.failures) > 0
    assert "expected" in report.failures[0]


def test_committed_expected_files_are_for_the_full_size_default_seed():
    for workload in workloads.WORKLOADS:
        with open(check.expected_path(workload), encoding="utf-8") as handle:
            committed = json.load(handle)
        columns = workloads.input_columns(
            workload, workloads.DEFAULT_SEED,
            run.benchmark_json()["run_seconds"],
        )
        assert committed["seed"] == workloads.DEFAULT_SEED
        assert committed["events"] == len(columns), workload.name


def test_gate_drops_empty_groups_and_reports_missing_results():
    expected = {"results": {"q": {"1": 2.5}}, "outputs": 3, "digest": "x"}
    assert check.compare("t", expected, {"q": {1: 2.5, 2: 0, 3: None}}) == []
    assert check.compare("t", expected, {"q": {1: 2.5}}, outputs=4)
    assert check.compare("t", expected, {"q": {1: 2.6}})
    assert check.compare("t", expected, None) == ["t: no result"]
    assert check.parse_result_lines(["# noise", "result\t7"], ["q"]) == {"q": 7}
    assert check.parse_result_lines(["result\tq\t{1: 2.5}"], ["q"]) == {
        "q": {1: 2.5}
    }
    assert check.parse_result_lines(["7\t3"], ["q"]) is None


def test_without_repro_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        LEDGER, tmp_path / "ledger",
        ignore=shutil.ignore_patterns(".cache", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = ledger("--workload", "api-kernel-fig12", "--seed", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "cannot import repro" in done.stderr
    assert '"metrics"' not in done.stdout


def test_a_failed_gate_in_one_workload_is_counted_not_fatal(
    monkeypatch, capsys
):
    """Several workloads: a child that exits 1 *with* a record is a
    counted failure and the others still run; no record aborts."""
    metrics = {"events_per_s": {"value": 1.0, "unit": "1/s"}}
    outcomes = {
        "api-kernel-fig12": (1, {"correct": False, "attempted": 9,
                                 "failed": 2, "metrics": metrics}),
        "api-routing-20q": (0, {"correct": True, "attempted": 7,
                                "failed": 0, "metrics": metrics}),
    }

    def child(command, **_):
        name = command[command.index("--workload") + 1]
        code, record = outcomes[name]
        out = f"workload {name}\n  FAILED pass 0\n{json.dumps(record)}\n"
        return subprocess.CompletedProcess(command, code, stdout=out)

    monkeypatch.setattr(run.subprocess, "run", child)
    argv = [f"--workload={name}" for name in outcomes]
    assert run.main(argv) == 1
    printed = capsys.readouterr().out.splitlines()
    line = json.loads(printed[-1])
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (16, 2)
    assert set(line["metrics"]) == {
        f"{name}/events_per_s" for name in outcomes
    }
    assert "workload api-routing-20q" in printed  # the second one still ran

    outcomes["api-kernel-fig12"] = (1, "Traceback: boom")
    with pytest.raises(SystemExit, match="left no result"):
        run.main(argv)


def test_the_spare_cpu_comes_from_the_mask_the_process_started_with():
    import os

    import hostspeed

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    allowed = os.sched_getaffinity(0)
    try:
        assert hostspeed.pin_to_one_cpu() == (
            max(allowed),
            max(allowed - {max(allowed)}) if len(allowed) > 1 else None,
        )
        # Already down to one CPU (a cpuset, or pinned before): no spare,
        # never a CPU outside the mask.
        assert hostspeed.pin_to_one_cpu() == (max(allowed), None)
    finally:
        os.sched_setaffinity(0, allowed)


def records(
    path: Path, values: list[float], metric="events_per_s", workload="w",
    **fields,
) -> str:
    document = {"records": [
        {"workload": workload, "trace": 0, "seed": 1, "seconds": 8.0,
         "scale": 1.0, **fields, "metrics": {
            m["name"]: {"value": v if m["name"] == metric else 1.0,
                        "unit": m["unit"]}
            for m in benchmark()["end_to_end"]
        }}
        for v in values
    ]}
    path.write_text(json.dumps(document))
    return str(path)


def label(rows: list[dict], metric="events_per_s") -> str:
    (row,) = [r for r in rows if r["metric"] == metric]
    return row["label"]


def test_compare_labels_gain_regression_unresolved_flat(tmp_path):
    steady = [100.0 + 0.1 * i for i in range(10)]
    parent = records(tmp_path / "p.json", steady)
    better = records(tmp_path / "g.json", [v * 1.05 for v in steady])
    worse = records(tmp_path / "r.json", [v * 0.7 for v in steady])
    same = records(tmp_path / "f.json", list(reversed(steady)))
    noisy = records(tmp_path / "n.json", [60.0, 140.0] * 5)
    assert label(compare.compare(parent, better)) == "gain"
    assert label(compare.compare(parent, worse)) == "regression"
    assert label(compare.compare(parent, same)) == "flat"
    assert label(compare.compare(parent, noisy)) == "unresolved"
    # Fewer than ten pairs can show a regression but never a gain.
    few = records(tmp_path / "few.json", [v * 1.05 for v in steady[:3]])
    assert label(compare.compare(parent, few)) == "flat"
    assert compare.main([parent, worse]) == 1
    assert compare.main([parent, same]) == 0


def test_compare_refuses_pairs_that_did_not_process_the_same_input(tmp_path):
    steady = [100.0] * 3
    parent = records(tmp_path / "p.json", steady)
    for field, value in (("seed", 2), ("seconds", 1.0), ("scale", 0.01)):
        other = records(tmp_path / "o.json", steady, **{field: value})
        with pytest.raises(SystemExit, match=field):
            compare.compare(parent, other)


def test_compare_leaves_unresolved_runs_out_and_does_not_judge_aliases(
    tmp_path,
):
    steady = [100.0 + 0.1 * i for i in range(10)]
    parent = records(tmp_path / "p.json", steady)
    late = records(tmp_path / "l.json", [v * 0.5 for v in steady],
                   notes={"unresolved": "generator ran 9.0 ms late at p99"})
    (row,) = [r for r in compare.compare(parent, late)
              if r["metric"] == "events_per_s"]
    assert (row["label"], row["pairs"], row["unresolved_pairs"]) == (
        "unresolved", 0, 10
    )
    assert "left out=10" in compare.render([row])

    closed = "cli-columnar-fig12"
    parent = records(tmp_path / "cp.json", steady, "latency_p50_ms", closed)
    worse = records(tmp_path / "cw.json", [v * 2 for v in steady],
                    "latency_p50_ms", closed)
    assert label(compare.compare(parent, worse), "latency_p50_ms") == "alias"
    paced = "cli-paced-default"
    parent = records(tmp_path / "pp.json", steady, "latency_p50_ms", paced)
    worse = records(tmp_path / "pw.json", [v * 2 for v in steady],
                    "latency_p50_ms", paced)
    assert label(compare.compare(parent, worse), "latency_p50_ms") == (
        "regression"
    )
