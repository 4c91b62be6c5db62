"""The ledger's seven workloads and their seeded inputs.

All inputs come from ``numpy.random.default_rng(seed)``: type codes
uniform over the alphabet, strictly increasing timestamps with 1-2 ms
gaps, a price with two decimals, and ``volume`` uniform in [0, 64) as
the partition key (the trace format carries only ticker, ts, price and
volume, so ``volume`` is the one attribute every lane can group by).
Event counts are constants sized once so a pass takes 50-300 ms; two
commits therefore process byte-identical input.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
CACHE_DIR = LEDGER_DIR / ".cache"
EXPECTED_DIR = LEDGER_DIR / "expected"

DEFAULT_SEED = 12
BATCH_ROWS = 4096

FIG12 = "PATTERN SEQ(T0, T1, T2) AGG COUNT WITHIN 500 ms"
NEG_GROUPBY = (
    "PATTERN SEQ(T0, !T3, T1) AGG SUM(T1.price) WITHIN 200 ms "
    "GROUP BY volume"
)
TWENTY_Q = tuple(
    f"PATTERN SEQ(T{3 * i}, T{3 * i + 1}, T{3 * i + 2}) AGG COUNT "
    f"WITHIN 500 ms"
    for i in range(20)
)

#: name -> (query texts, alphabet size). One query is named ``q`` (what
#: the CLI calls a ``--query``); a set is named ``q0..`` and reaches the
#: CLI as a workload file.
QUERY_SETS: dict[str, tuple[tuple[str, ...], int]] = {
    "fig12": ((FIG12,), 8),
    "20q": (TWENTY_Q, 60),
    "neg-groupby": ((NEG_GROUPBY,), 8),
}

#: What the columnar kernel is timed on in the traced run when it declines
#: the workload's own query: the positive, ungrouped pattern. It is the
#: floor a mask-native kernel for negation / GROUP BY would start from;
#: ``engine.kernel_lane_share`` says whether the program itself ran it.
KERNEL_FORM: dict[str, tuple[str, ...]] = {
    "neg-groupby": (
        "PATTERN SEQ(T0, T1) AGG SUM(T1.price) WITHIN 200 ms",
    ),
}

PACED_RATE = 40_000  # events per second offered to cli-paced-default
PACED_WARMUP_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "api" | "cli" | "sharded" | "paced"
    query_set: str
    pass_events: int
    #: Flags after the query/trace arguments of ``python -m repro``.
    cli_flags: tuple[str, ...] = ()
    #: Rows per ingest call (EventBatch rows, or the CLI's batch size).
    chunk: int = BATCH_ROWS
    #: Stage names whose spans add up to the program's pass (layers.py).
    chain: tuple[str, ...] = ()

    @property
    def queries(self) -> tuple[str, ...]:
        return QUERY_SETS[self.query_set][0]

    @property
    def n_types(self) -> int:
        return QUERY_SETS[self.query_set][1]

    @property
    def kernel_queries(self) -> tuple[str, ...]:
        return KERNEL_FORM.get(self.query_set, self.queries)

    @property
    def vectorized(self) -> bool:
        """Whether this workload's program builds vectorized executors
        (every ``--columnar``/API lane does; the per-event CLI lanes
        run the plain SEM engine)."""
        return "--columnar" in self.cli_flags

    def query_names(self) -> list[str]:
        count = len(self.queries)
        return ["q"] if count == 1 else [f"q{i}" for i in range(count)]


_API_CHAIN = ("engine.ingest", "engine.results")
_CLI_HEAD = (
    "parser.parse", "engine.register", "tracefile.decode",
    "stream.order_check",
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "api-kernel-fig12",
        "Prebuilt batches into the columnar kernel: predicate mask and "
        "SEM kernel are nearly the whole cost and decode is zero, so a "
        "kernel change shows here undiluted.",
        "api", "fig12", 160_000,
        cli_flags=("--columnar",), chain=_API_CHAIN,
    ),
    Workload(
        "api-routing-20q",
        "Twenty queries over sixty types, each arrival concerning one "
        "query: per-registration routing and per-call kernel overhead "
        "dominate, not per-row kernel work.",
        "api", "20q", 110_000,
        cli_flags=("--columnar",), chain=_API_CHAIN,
    ),
    Workload(
        "api-fallback-neg-groupby",
        "Same ingest call, but negation and GROUP BY make the plan "
        "decline: to_events() materialises and per-event SEM/HPC runs, "
        "the lane a one-datapath refactor replaces.",
        "api", "neg-groupby", 40_000,
        cli_flags=("--columnar",), chain=_API_CHAIN,
    ),
    Workload(
        "cli-columnar-fig12",
        "Trace file to stdout through --columnar: decode, order check "
        "and columnarize dominate and the kernel is about a tenth, so a "
        "decode gain shows here and nowhere in api-*.",
        "cli", "fig12", 20_000,
        cli_flags=("--columnar",),
        chain=_CLI_HEAD + (
            "batch.columnarize", "engine.ingest", "engine.results",
        ),
    ),
    Workload(
        "cli-journal-neg-groupby",
        "The write path beside the read path: WAL append and supervised "
        "per-event dispatch in 256-event batches with fsync never.",
        "cli", "neg-groupby", 12_000,
        cli_flags=("--batch-size", "256", "--fsync", "never"),
        chunk=256,
        chain=_CLI_HEAD + ("supervisor.ingest", "engine.results"),
    ),
    Workload(
        "api-sharded-neg-groupby",
        "Two worker processes over pipes fed prebuilt batches: the only "
        "run crossing partition hash, take, wire encode, transport, "
        "worker decode, worker engine and merge with decode bypassed.",
        "sharded", "neg-groupby", 40_000,
        cli_flags=("--shards", "2", "--columnar"),
        chain=("sharded.ingest", "sharded.collect"),
    ),
    Workload(
        "cli-paced-default",
        "Open loop at a fixed 40000 ev/s into the real CLI's per-event "
        "lane with --emit every: guards responsiveness, which batching "
        "the per-event path would cost while every throughput row rose.",
        "paced", "fig12", 20_000,
        cli_flags=("--emit", "every"),
        chain=(
            "parser.parse", "tracefile.decode", "stream.order_check",
            "executor.process", "sinks.emit",
        ),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def scaled(count: int, scale: float, floor: int = 512) -> int:
    return max(floor, int(count * scale))


@dataclass
class Columns:
    """One seeded stream as parallel arrays (the ledger's raw input)."""

    n_types: int
    codes: np.ndarray  # int32
    ts: np.ndarray  # int64, strictly increasing
    price: np.ndarray  # float64, two decimals
    volume: np.ndarray  # int64 in [0, 64)

    def __len__(self) -> int:
        return len(self.codes)

    def head(self, count: int) -> "Columns":
        return Columns(
            self.n_types, self.codes[:count], self.ts[:count],
            self.price[:count], self.volume[:count],
        )

    def type_names(self) -> list[str]:
        return [f"T{i}" for i in range(self.n_types)]

    def span_ms(self) -> int:
        return int(self.ts[-1] - self.ts[0])


def generate(seed: int, count: int, n_types: int) -> Columns:
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_types, count).astype(np.int32)
    ts = np.cumsum(rng.integers(1, 3, count)).astype(np.int64)
    price = rng.integers(100, 10_000, count) / 100.0
    volume = rng.integers(0, 64, count).astype(np.int64)
    return Columns(n_types, codes, ts, price, volume)


def input_columns(
    workload: Workload, seed: int, seconds: float, scale: float = 1.0
) -> Columns:
    """The workload's full-size input: one pass's events, or for the open
    loop the warm-up plus ``seconds`` at the offered rate."""
    count = workload.pass_events
    if workload.kind == "paced":
        count = int(PACED_RATE * (PACED_WARMUP_S + seconds))
    return generate(seed, scaled(count, scale), workload.n_types)


def trace_lines(columns: Columns) -> list[bytes]:
    """The stream in the repo's trace format (``ticker,ts,price,volume``).

    ``repr`` of a two-decimal float is its shortest round-tripping
    spelling, so decode gives back exactly the generated columns.
    """
    return [
        f"T{code},{ts},{price!r},{volume}\n".encode("ascii")
        for code, ts, price, volume in zip(
            columns.codes.tolist(), columns.ts.tolist(),
            columns.price.tolist(), columns.volume.tolist(),
        )
    ]


def write_trace_file(columns: Columns, path: Path) -> Path:
    path.write_bytes(b"".join(trace_lines(columns)))
    return path


def event_batches(columns: Columns, rows: int = BATCH_ROWS):
    """The stream as ``EventBatch``es carrying what trace decode yields
    (``symbol``, ``price``, ``volume``), built without Event objects."""
    from repro.events.batch import BatchSchema, EventBatch

    names = columns.type_names()
    schema = BatchSchema(names, ("symbol", "price", "volume"))
    symbol = np.asarray(names)[columns.codes]
    ts = columns.ts
    return [
        EventBatch(
            schema,
            columns.codes[start:start + rows],
            ts[start:start + rows],
            {
                "symbol": symbol[start:start + rows],
                "price": columns.price[start:start + rows],
                "volume": columns.volume[start:start + rows],
            },
        )
        for start in range(0, len(columns), rows)
    ]


def fresh(batches, ts_shift: int = 0):
    """New batch objects over the same columns: ``to_events()`` memoizes,
    so a pass must never be handed a batch another pass materialised.
    ``ts_shift`` moves the copy later in time (the sharded workload
    replays one slice on one long-lived engine)."""
    from repro.events.batch import EventBatch

    return [
        EventBatch(
            batch.schema, batch.codes, batch.ts + ts_shift, batch.cols,
            batch.present,
        )
        for batch in batches
    ]


def events_of(columns: Columns):
    """The stream as Event objects (reference runs, journal stages)."""
    from repro.events.event import Event

    names = columns.type_names()
    return [
        Event(names[code], ts, {"symbol": names[code], "price": price,
                                "volume": volume})
        for code, ts, price, volume in zip(
            columns.codes.tolist(), columns.ts.tolist(),
            columns.price.tolist(), columns.volume.tolist(),
        )
    ]


def cache_dir(workload: str, seed: int) -> Path:
    """A clean scratch directory for one run, with the cache trimmed to
    the current seed (older seeds' traces are deleted, not accumulated)."""
    CACHE_DIR.mkdir(exist_ok=True)
    current = f"{workload}-s{seed}"
    for entry in CACHE_DIR.iterdir():
        if entry.name.startswith(f"{workload}-s") and entry.name != current:
            shutil.rmtree(entry, ignore_errors=True)
    directory = CACHE_DIR / current
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    return directory


def query_argv(workload: Workload, directory: Path) -> list[str]:
    """How this workload's queries reach ``python -m repro``."""
    if len(workload.queries) == 1:
        return ["--query", workload.queries[0]]
    path = directory / "workload.cep"
    path.write_text(
        "".join(
            f"{name}: {text};\n"
            for name, text in zip(workload.query_names(), workload.queries)
        ),
        encoding="utf-8",
    )
    return ["--workload-file", str(path)]
