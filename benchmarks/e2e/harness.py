"""Shared pieces of the end-to-end benchmark: data, statistics, spans, oracles.

Nothing here imports ``repro`` — the floor probes must be able to use the
generator and the statistics without the system under test in the process.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

COLS = 784
CLASSES = 10


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark run.

    ``FULL`` is what ``BENCHMARK.json`` measures (the sizes ISSUE 12 fixes);
    ``SMOKE`` exercises the same code on inputs small enough for the tier-1
    smoke test.  When a time cap is tight the runner repeats fewer cycles; the
    sizes stay.
    """

    rows: int              # rows of the scan datasets (x COLS float64)
    shards: int            # shards of the shard:// datasets
    scan_raw_passes: Tuple[int, int, int]   # SGD epochs, k-means epochs, predict passes
    scan_zlib_passes: Tuple[int, int, int]
    mmap_predict_passes: int
    append_base_rows: int  # rows (= shard_rows) of the appendable dataset's base
    append_rows: int       # rows per ShardAppender.append
    appends: int           # appends per cycle
    serve_train_rows: int  # rows the served model is trained on
    serve_warmup: int
    serve_single: int      # closed-loop single-row requests per cycle
    serve_window: Tuple[int, int]   # (outstanding, requests) single-row pipelined
    serve_batch: Tuple[int, int, int]  # (outstanding, requests, rows per request)
    open_loop: Tuple[float, float]  # (requests per second, seconds) — probe only
    probe_append: Tuple[int, int, int]  # (base rows, rows per append, appends) — probe only
    setups: int            # timed set-ups per run (median reported); > 1 adds an untimed warm-up one
    probe_rows: int        # rows of the layer probes' own datasets
    probe_samples: int     # samples per timed layer probe


FULL = Sizes(
    rows=65536, shards=8,
    scan_raw_passes=(4, 2, 4), scan_zlib_passes=(2, 2, 2), mmap_predict_passes=4,
    append_base_rows=8192, append_rows=512, appends=64,
    serve_train_rows=2048, serve_warmup=200, serve_single=1000,
    serve_window=(32, 2500), serve_batch=(4, 120, 64), open_loop=(1000.0, 5.0),
    probe_append=(1024, 128, 16), setups=3, probe_rows=4096, probe_samples=20,
)

SMOKE = Sizes(
    rows=1024, shards=4,
    scan_raw_passes=(2, 1, 1), scan_zlib_passes=(1, 1, 1), mmap_predict_passes=1,
    append_base_rows=128, append_rows=32, appends=4,
    serve_train_rows=256, serve_warmup=10, serve_single=20,
    serve_window=(8, 40), serve_batch=(2, 4, 16), open_loop=(200.0, 0.3),
    probe_append=(128, 32, 4), setups=1, probe_rows=512, probe_samples=3,
)


def make_data(seed: int, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``rows`` x 784 float64 digit-like rows and their 10-class labels.

    Ten sparse class templates (~22 % of pixels lit), per-row noise on lit
    pixels and ~15 % drop-out, values ``k/255`` — Infimnist's shape and
    roughly its compressibility (zlib ~15x), generated with whole-array
    uint8 arithmetic so set-up is not dominated by the generator.
    """
    rng = np.random.default_rng(seed)
    lit = rng.random((CLASSES, COLS)) < 0.22
    templates = np.where(lit, rng.integers(96, 224, (CLASSES, COLS)), 0).astype(np.uint8)
    y = rng.integers(0, CLASSES, rows).astype(np.int64)
    noise = np.frombuffer(rng.bytes(rows * COLS), dtype=np.uint8).reshape(rows, COLS)
    base = templates[y]
    keep = (base != 0) & (noise < 218)
    # base >= 96 and the noise term is in [-32, 31]: no uint8 wrap-around.
    pixels = (base - 32 + (noise & 63)) * keep
    # One float64 allocation, not two: in the sandbox VM the first touch of
    # 411 MB costs seconds, and set-up time is a gated metric.
    X = np.empty((rows, COLS), dtype=np.float64)
    np.divide(pixels, 255.0, out=X)
    return X, y


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and the per-repeat list of one repeated measurement."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def time_samples(fn: Callable[[], Any], samples: int, warmup: int = 1) -> List[float]:
    """Wall seconds of ``samples`` calls of ``fn`` after ``warmup`` untimed ones."""
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(samples):
        began = time.perf_counter()
        fn()
        out.append(time.perf_counter() - began)
    return out


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = math.nan
    ids: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for the hand-driven (sequential) traced runs.

    One thread, strictly nested spans: a span's parent is whatever span was
    open when it started.  Spans are written out by :meth:`dump` at exit,
    never during the run.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **ids: Any) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name=name, parent=parent, start=time.perf_counter(), ids=ids)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[str, float]:
        """Self seconds (span minus its children) summed per span name."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for span, children in zip(self.spans, child_total):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - children
        return totals

    def wall(self) -> float:
        """Seconds covered by the root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "workload": self.workload, "span": index, "name": span.name,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    **span.ids,
                }) + "\n")


# -- oracles ------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; an oracle mismatch counts as failed."""

    attempted: int = 0
    failed: int = 0
    oracles: int = 0
    problems: List[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        """Count ``n`` operations run (checked separately by :meth:`check`)."""
        self.attempted += n

    def check(self, condition: bool, what: str) -> None:
        """One oracle comparison of one operation's output."""
        self.oracles += 1
        if not condition:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check_equal(self, got: Any, expected: Any, what: str) -> None:
        self.check(np.array_equal(np.asarray(got), np.asarray(expected)), what)


# -- scratch space ------------------------------------------------------------


#: The contract allows writes only inside the checkout, so by default datasets
#: and span dumps live under ``benchmarks/e2e/.work`` (git-ignored), not ``/tmp``.
DEFAULT_WORK = BENCH_DIR / ".work"


@contextlib.contextmanager
def work_dir(parent: Path, tag: str) -> Iterator[Path]:
    """A scratch directory under ``parent``, removed on exit."""
    root = parent / f"{tag}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
