#!/usr/bin/env python3
"""The two-run judge: one row per (workload, metric).

    python3 ledger/compare.py PARENT.json CHANGE.json

Both files are written by ``run.py --out FILE`` (each invocation appends,
so ten runs per side is ten invocations per file; run them alternately).
The n-th record of a workload in PARENT is paired with the n-th in CHANGE;
a pair whose seed, run length or scale differ is refused, because the two
sides did not process the same input. A pair in which either run marked
itself ``unresolved`` (the paced run's backlog grew, or its generator ran
late) is left out of the judgement and counted in the row. Labels follow
the choosing-metrics rule:

``gain``        the change wins at least nine tenths of at least ten pairs
                (ties count for neither) *and* the medians differ by more
                than the parent's own interquartile range;
``regression``  the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json (and by more
                than the parent's spread);
``unresolved``  a side's interquartile range, as a share of its median,
                is above the bound, or no resolved pair is left: the runs
                cannot tell;
``alias``       the latency of a ``cli-*`` closed loop, whose samples are
                the pass times ``events_per_s`` is made of: the same
                evidence is not judged twice;
``flat``        none of the above.

Per-layer metrics have no bound; they are listed with their ratio so a
claimed saving can be located, and never labelled. Every ratio is printed
with its base. Exit code 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from workloads import BY_NAME

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
SAME_INPUT = ("seed", "seconds", "scale")
PASS_TIME_ALIAS = "latency_p50_ms"


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """``(workload, trace) -> records`` in the order they were appended."""
    with open(path, "r", encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    grouped: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for record in records:
        grouped[(record["workload"], record["trace"])].append(record)
    return grouped


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(
    parent: list[float], change: list[float], better: str,
    bound: float | None,
) -> dict:
    """Label one (workload, metric) from its paired values."""
    pairs = list(zip(parent, change))
    if not pairs:
        nan = float("nan")
        return {
            "pairs": 0, "wins": 0, "losses": 0, "parent_median": nan,
            "change_median": nan, "ratio": nan, "parent_iqr_share": nan,
            "change_iqr_share": nan, "worse_by": nan,
            "label": "" if bound is None else "unresolved",
        }
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    base, new = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    scale = abs(base) or 1.0
    worse_by = sign * (new - base) / scale
    row = {
        "pairs": len(pairs), "wins": wins, "losses": losses,
        "parent_median": base, "change_median": new,
        "ratio": new / base if base else float("nan"),
        "parent_iqr_share": spread / scale,
        "change_iqr_share": iqr(change) / (abs(new) or 1.0),
        "worse_by": worse_by,
    }
    if bound is None:
        row["label"] = ""
    elif worse_by > bound and worse_by > row["parent_iqr_share"]:
        row["label"] = "regression"
    elif max(row["parent_iqr_share"], row["change_iqr_share"]) > bound:
        row["label"] = "unresolved"
    elif (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and worse_by < 0
        and abs(new - base) > spread
    ):
        row["label"] = "gain"
    else:
        row["label"] = "flat"
    return row


def resolved_pairs(
    workload: str, parent: list[dict], change: list[dict]
) -> tuple[list[tuple[dict, dict]], int]:
    """The pairs to judge, and how many were left out as unresolved."""
    pairs = []
    left_out = 0
    for number, (base, new) in enumerate(zip(parent, change)):
        differ = [k for k in SAME_INPUT if base.get(k) != new.get(k)]
        if differ:
            raise SystemExit(
                f"compare: pair {number} of {workload} differs in "
                f"{differ}: {[base.get(k) for k in differ]} against "
                f"{[new.get(k) for k in differ]}"
            )
        if any("unresolved" in r.get("notes", {}) for r in (base, new)):
            left_out += 1
        else:
            pairs.append((base, new))
    return pairs, left_out


def compare(parent_path: str, change_path: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared = {
        0: [(m["name"], m["better"], m["bound"])
            for m in benchmark["end_to_end"]],
        1: [(m["name"], m["better"], None) for m in benchmark["per_layer"]],
    }
    parent, change = load(parent_path), load(change_path)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        pairs, left_out = resolved_pairs(workload, parent[key], change[key])
        for name, better, bound in declared[trace]:
            row = judge(
                [base["metrics"][name]["value"] for base, _ in pairs],
                [new["metrics"][name]["value"] for _, new in pairs],
                better, bound,
            )
            known = BY_NAME.get(workload)
            if known and known.kind == "cli" and name == PASS_TIME_ALIAS:
                row["label"] = "alias"
            row.update(
                workload=workload, metric=name, bound=bound,
                unresolved_pairs=left_out,
                unit=parent[key][0]["metrics"][name]["unit"],
            )
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<26} {'metric':<36} {'label':<11} "
        f"{'change/parent':>13}  base (parent median, unit, pairs, wins, "
        f"parent IQR share)"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<26} {row['metric']:<36} "
            f"{row['label']:<11} {row['ratio']:>13.4f}  "
            f"{row['parent_median']:.6g} {row['unit']}, "
            f"n={row['pairs']}, wins={row['wins']}, "
            f"iqr={row['parent_iqr_share']:.3f}"
            + (f", bound={row['bound']}" if row["bound"] is not None else "")
            + (f", unresolved pairs left out={row['unresolved_pairs']}"
               if row["unresolved_pairs"] else "")
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    rows = compare(*argv)
    if not rows:
        raise SystemExit("compare: the two files share no (workload, trace)")
    print(render(rows))
    regressed = [r for r in rows if r["label"] == "regression"]
    gained = [r for r in rows if r["label"] == "gain"]
    print(
        f"{len(rows)} rows: {len(gained)} gain, {len(regressed)} regression, "
        f"{sum(r['label'] == 'unresolved' for r in rows)} unresolved"
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
