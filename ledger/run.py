#!/usr/bin/env python3
"""The perf ledger: one command, every metric by name, one JSON line.

    python3 ledger/run.py [--workload NAME ...] [--seed N] [--seconds S]
                          [--trace 0|1] [--out FILE] [--spans-out FILE]

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics. Inputs come from ``--seed``; every result is
checked against a reference (check.py); the last line of stdout is

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

One workload runs in this process, which the caller starts fresh; several
(or none named, meaning all seven) each get a fresh child and the last
line then keys metrics as ``workload/metric``. ``--seconds`` is what the
benchmark driver passes (``run_seconds`` of BENCHMARK.json, which is also
the default); nothing else sets it. ``--out FILE`` appends the run to FILE
for compare.py. See README.md for the measurement rule.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent


#: The keys of the last line of stdout, in the order they are printed.
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def benchmark_json() -> dict:
    """BENCHMARK.json: the declared metrics and the one run length."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def import_repro() -> None:
    """Put this checkout's ``src`` first and insist ``repro`` comes from
    it: without the program there is nothing to measure, and a copy from
    elsewhere would be measured vacuously."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(
            f"ledger: cannot import repro from {src}: {error}"
        ) from None
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"ledger: repro resolves to {repro.__file__}, not to {src}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", default=[], metavar="NAME",
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: run_seconds of "
             "BENCHMARK.json, which is what the driver passes)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every event count and, below 0.1, the run length "
             "(tests use 0.01)",
    )
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--spans-out", metavar="FILE")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def run_one(args: argparse.Namespace, name: str) -> dict:
    """Measure one workload in this process; returns its result record."""
    import drivers
    import hostspeed
    import workloads

    workload = workloads.BY_NAME[name]
    env = drivers.Env(
        workload=workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        directory=workloads.cache_dir(name, args.seed),
        spare_cpu=hostspeed.pin_to_one_cpu()[1],
    )
    if args.trace:
        import layers

        report = layers.run_traced(env, args.spans_out)
    else:
        report = drivers.DRIVERS[workload.kind](env)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    declared = list(units)
    missing = sorted(set(declared) - set(report.metrics))
    extra = sorted(set(report.metrics) - set(declared))
    if missing or extra:
        raise SystemExit(
            f"ledger: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})"
        )
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    for metric, unit in units.items():
        print(f"  {metric:<38} {report.metrics[metric]:>16.6g} {unit}")
    for key, value in sorted(report.notes.items()):
        shown = f"{value:.4g}" if isinstance(value, float) else value
        print(f"  # {key} = {shown}")
    for failure in report.failures[:10]:
        print(f"  FAILED {failure}")
    return {
        "workload": name,
        "correct": not report.failures,
        "attempted": max(1, report.attempted),
        "failed": len(report.failures),
        "metrics": {
            metric: {"value": report.metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
        "notes": report.notes,
    }


def run_children(args: argparse.Namespace, names: list[str]) -> dict:
    """One fresh child per workload; returns ``{workload: record}``.

    A child whose gate failed exits 1 *with* a record: that is a counted
    failure, and the remaining workloads still run. Only a child that
    leaves no record (it crashed, or ``repro`` is missing) aborts the run.
    """
    records = {}
    for name in names:
        command = [
            sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        if args.spans_out:
            command += ["--spans-out", f"{args.spans_out}.{name}"]
        if args.out:
            command += ["--out", args.out]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        record = last_record(done.stdout)
        if record is None:
            sys.stdout.write(done.stdout)
            raise SystemExit(
                f"ledger: workload {name} exited with {done.returncode} "
                f"and left no result"
            )
        body = done.stdout.rstrip("\n")
        sys.stdout.write(body[:body.rfind("\n") + 1])  # all but the record
        records[name] = record
    return records


def last_record(stdout: str) -> dict | None:
    """The result line a run ended with, or None when it left none."""
    lines = stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(record, dict) or not set(RESULT_KEYS) <= set(record):
        return None
    return record


def append_out(path: str, args: argparse.Namespace, record: dict) -> None:
    """Append one workload's record to FILE; compare.py pairs the n-th
    record of a workload in one file with the n-th in the other."""
    records = []
    if Path(path).exists():
        with open(path, "r", encoding="utf-8") as handle:
            records = json.load(handle)["records"]
    records.append({"seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "scale": args.scale, **record})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle, indent=1)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    import_repro()
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(benchmark_json()["run_seconds"])
    unknown = [n for n in args.workload if n not in workloads.BY_NAME]
    if unknown:
        raise SystemExit(f"ledger: unknown workload(s) {unknown}")
    if args.setup_probe:
        import drivers

        drivers.setup_probe(workloads.BY_NAME[args.workload[0]])
        return 0
    names = args.workload or [w.name for w in workloads.WORKLOADS]
    if len(names) == 1:
        record = run_one(args, names[0])
        if args.out:
            append_out(args.out, args, record)
        line = {key: record[key] for key in RESULT_KEYS}
    else:
        records = run_children(args, names)
        line = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, record in records.items()
                for metric, entry in record["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
