"""The correctness gate: every workload's results against a reference.

The reference is a per-event ``StreamEngine()`` run (the repo's own
reference path) over the same seeded input, itself spot-checked against
``repro.baseline.oracle`` on a 5 000-event prefix. For the default seed
the reference answers are committed under ``expected/`` so that a change
that breaks the reference engine *and* a lane the same way still fails;
for any other seed (or input size) they are computed on the fly.

GROUP BY groups whose aggregate is 0 or None are dropped from both sides
before comparing: lanes legitimately differ in which expired groups they
still list, never in a live group's value.

Run ``python3 ledger/check.py --write-expected`` after a deliberate
change of semantics to regenerate the committed answers.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
from typing import Any, Iterable

from workloads import (
    DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, Columns, Workload, events_of,
    input_columns,
)

ORACLE_PREFIX = 5_000


def canonical(value: Any) -> Any:
    """A result in comparable, JSON-stable form."""
    if isinstance(value, dict):
        kept = {
            str(key): canonical(item)
            for key, item in value.items()
            if item is not None and item != 0
        }
        return dict(sorted(kept.items()))
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        # Two-decimal prices summed in another order differ in the last
        # digits at most; six decimals keeps every real difference.
        return round(float(value), 6)
    return value


def canonical_results(results: dict[str, Any]) -> dict[str, Any]:
    return {name: canonical(value) for name, value in results.items()}


class OutputDigest:
    """Digest of a ``(query, ts, value)`` output stream: order-sensitive
    within a query, indifferent to how queries interleave (a batch lane
    delivers one registration's outputs before the next one's)."""

    def __init__(self) -> None:
        self._hashes: dict[str, Any] = {}
        self.count = 0

    def add(self, name: str, ts: int, value: Any) -> None:
        if name not in self._hashes:
            self._hashes[name] = hashlib.sha256()
        self._hashes[name].update(
            f"{ts}\t{canonical(value)!r}\n".encode("utf-8")
        )
        self.count += 1

    def emit(self, output: Any) -> None:  # ResultSink surface
        self.add(output.query_name, output.ts, output.value)

    def hexdigest(self) -> str:
        combined = hashlib.sha256()
        for name in sorted(self._hashes):
            combined.update(f"{name}={self._hashes[name].hexdigest()};".encode())
        return combined.hexdigest()


def parse_queries(workload: Workload) -> list:
    from repro.query.parser import parse_query

    return [
        parse_query(text, name=name)
        for text, name in zip(workload.queries, workload.query_names())
    ]


def reference(workload: Workload, columns: Columns) -> dict[str, Any]:
    """Reference answers for one input: final results, output count and
    output-sequence digest of the per-event engine."""
    from repro.engine.engine import StreamEngine

    queries = parse_queries(workload)
    events = events_of(columns)
    engine = StreamEngine()
    digest = OutputDigest()
    for query in queries:
        engine.register(query, digest, name=query.name)
    prefix = min(ORACLE_PREFIX, len(events))
    for index, event in enumerate(events):
        if index == prefix:
            _spot_check(engine, queries, events[:prefix])
        engine.process(event)
    if prefix == len(events):
        _spot_check(engine, queries, events)
    return {
        "events": len(events),
        "results": canonical_results(engine.results()),
        "outputs": digest.count,
        "digest": digest.hexdigest(),
    }


def _spot_check(engine: Any, queries: list, prefix: list) -> None:
    from repro.baseline.oracle import BruteForceOracle

    got = canonical_results(engine.results())
    for query in queries:
        want = canonical(BruteForceOracle(query).aggregate(prefix))
        if got[query.name] != want:
            raise AssertionError(
                f"reference engine disagrees with the brute-force oracle "
                f"on {query.name!r} after {len(prefix)} events: "
                f"{got[query.name]!r} != {want!r}"
            )


def expected_path(workload: Workload):
    return EXPECTED_DIR / f"{workload.name}.json"


def expected_for(
    workload: Workload, seed: int, columns: Columns
) -> dict[str, Any]:
    """Committed answers when they are for exactly this input, else the
    reference computed now; ``source`` says which (run.py prints it)."""
    path = expected_path(workload)
    if seed == DEFAULT_SEED and path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        if committed.get("seed") == seed and committed.get("events") == len(
            columns
        ):
            return {**committed, "source": "committed"}
    return {**reference(workload, columns), "source": "computed"}


def compare(
    what: str, expected: dict[str, Any], results: dict[str, Any] | None,
    outputs: int | None = None, digest: str | None = None,
) -> list[str]:
    """Mismatches between one run's answers and the expected ones (an
    empty list passes). ``outputs``/``digest`` are compared when the
    lane exposes its output stream."""
    if results is None:
        return [f"{what}: no result"]
    problems = []
    got = canonical_results(results)
    want = expected["results"]
    if got != want:
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                problems.append(
                    f"{what}: query {name!r} gave {got.get(name)!r}, "
                    f"expected {want.get(name)!r}"
                )
    if outputs is not None and outputs != expected["outputs"]:
        problems.append(
            f"{what}: {outputs} outputs, expected {expected['outputs']}"
        )
    if digest is not None and digest != expected["digest"]:
        problems.append(f"{what}: output sequence differs from the reference")
    return problems


def parse_result_lines(
    lines: Iterable[str], names: list[str]
) -> dict[str, Any] | None:
    """Final results from the CLI's ``result`` lines.

    The single-query default lane prints ``result<TAB>value``; a workload
    file on that lane prints one dict keyed by query; every engine-backed
    lane prints ``result<TAB>name<TAB>value`` per query. A missing line
    is a missing result (None).
    """
    results: dict[str, Any] = {}
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        if fields[0] != "result":
            continue
        if len(fields) == 3:
            results[fields[1]] = literal(fields[2])
        elif len(fields) == 2:
            value = literal(fields[1])
            if len(names) > 1 and isinstance(value, dict):
                results.update(value)
            else:
                results[names[0]] = value
    if sorted(results) != sorted(names):
        return None
    return results


def literal(text: str) -> Any:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def write_expected(seconds: int) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        columns = input_columns(workload, DEFAULT_SEED, seconds)
        answers = reference(workload, columns)
        document = {"workload": workload.name, "seed": DEFAULT_SEED, **answers}
        with open(expected_path(workload), "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {expected_path(workload)}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write-expected"]:
        raise SystemExit(__doc__)
    from run import benchmark_json, import_repro

    import_repro()
    write_expected(benchmark_json()["run_seconds"])
