"""Host-speed normalisation: the ledger's unit is the *nominal* second.

Raw wall time does not repeat on this class of host: a fixed pure-Python
loop drifts by 25-60 %, continuously, on time scales from 100 ms to many
seconds (no steal is reported and the CPU clock tracks the wall clock, so
neither repeats within a tenth). What repeats is the *ratio* between a
short pass of the program and a fixed reference loop run immediately
before and after it on the same pinned CPU. Every CPU-bound timing the ledger gates
on is therefore reported as ``measured * host_speed`` where
``host_speed = REFERENCE_NOMINAL_S / reference_loop_time``: the time the
pass would have taken on a host that runs the reference loop in exactly
``REFERENCE_NOMINAL_S``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Sequence

#: What one reference loop takes on the host class the constants were
#: sized on, in its common regime. Only ratios to it matter; changing it
#: rescales every normalised number of the ledger, so it never changes.
REFERENCE_NOMINAL_S = 0.0060

_BYTECODE_ITERATIONS = 42_000
_C_LEVEL_INPUT = [(i * 7919) % 10007 for i in range(19_000)]
_C_LEVEL_TEXT = ",".join(map(str, _C_LEVEL_INPUT))


def reference_loop() -> float:
    """Run the fixed reference work once; returns its wall time.

    Half of it is interpreted bytecode (small-int arithmetic, a dict
    store, a list index), half is C-level list and string work (sort,
    split, join), about 3 ms each: the program is such a mix, and the two
    halves do not slow down alike. Measured over 150 s of one drifting
    host, normalising three workloads' passes by the bytecode half alone
    left chunk medians 8-10 % apart; by both halves, 3-5 %.
    """
    table = [0] * 64
    seen: dict[int, int] = {}
    acc = 0
    started = time.perf_counter()
    for i in range(_BYTECODE_ITERATIONS):
        acc += i & 7
        table[i & 63] = acc
        seen[i & 255] = acc
    sorted(_C_LEVEL_INPUT)
    _C_LEVEL_TEXT.split(",")
    ",".join(map(str, _C_LEVEL_INPUT[:9_500]))
    return time.perf_counter() - started


def pin_to_one_cpu() -> tuple[int | None, int | None]:
    """Pin this process to the last CPU it may run on; returns that CPU
    and another one it was allowed before (None when there is none).

    Children inherit the mask, so a spawned program shares the CPU the
    reference loop was timed on; the open-loop workload moves its program
    to the spare CPU. Both come from the mask this process started with,
    which on a cpuset-restricted host is not ``range(cpu_count())``.
    Platforms without affinity return ``(None, None)``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed.pop()
    os.sched_setaffinity(0, {cpu})
    return cpu, (allowed[-1] if allowed else None)


def host_speed(before: float, after: float) -> float:
    """Normalisation factor for work bracketed by two reference runs."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2.0)


class Passes:
    """Normalised timings of repeated fixed-size passes.

    ``run`` brackets each call of ``body`` with the reference loop and
    records both the raw and the normalised duration; ``body`` returns
    whatever the caller wants to keep (results for the correctness
    gate), or raises, which counts as a failed pass.
    """

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.nominal_s: list[float] = []
        self.speeds: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, body: Callable[[], object]) -> object | None:
        self.attempted += 1
        before = reference_loop()
        started = time.perf_counter()
        try:
            kept = body()
        except Exception as error:  # a raising pass is a failed operation
            self.failures.append(f"{type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        speed = host_speed(before, reference_loop())
        self.raw_s.append(elapsed)
        self.speeds.append(speed)
        self.nominal_s.append(elapsed * speed)
        return kept

    @property
    def last_speed(self) -> float:
        return self.speeds[-1]

    def median_s(self) -> float:
        return statistics.median(self.nominal_s)

    def median_speed(self) -> float:
        return statistics.median(self.speeds)

    def iqr_share(self) -> float:
        return iqr_share(self.nominal_s)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def grouped_percentile(values: Sequence[float], size: int, q: float) -> float:
    """Median, over consecutive groups of ``size`` values, of each group's
    ``q`` percentile (a short last group is dropped; fewer than ``size``
    values are one group).

    Pooled over a run, a percentile is decided by whichever slow stretch
    of the host the run met; the median over groups is what the program
    does in a typical stretch, and it repeats between runs.
    """
    groups = [
        values[start:start + size]
        for start in range(0, len(values) - size + 1, size)
    ] or [values]
    return statistics.median(percentile(group, q) for group in groups)
