"""The chaos matrix: every site × format × reader counts × three fixed seeds.

The formats are ``mmap://`` (one raw v2 shard, mapped), raw v2 shards (mapped)
and zlib v2 shards (decoded): both read paths of the one sharded reader ride
the matrix.

The robustness contract under any single-site fault plan: a streaming fit
either completes **bit-identical** to the fault-free baseline (the retries
absorbed the faults) or raises one of the documented typed errors — never a
hang, never a silently wrong model, never a leaked lease or thread (the
suite-wide leak guards enforce the last)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, StreamingEngine
from repro.api.chunks import ChunkStreamError
from repro.data.codecs import CodecError
from repro.data.formats_v2 import ChecksumError
from repro.faults import RetriesExhausted, fault_sites, set_fault_plan
from repro.ml import LogisticRegression

SEEDS = (7, 11, 13)
FORMATS = ("mmap", "raw", "v2")
IO_WORKERS = (1, 4)

#: The documented failure surface of ``Session.fit`` under faults: stream
#: errors (with their causal chain), exhausted retries, corruption, and the
#: raw OSError family for sites outside any retry envelope.
DOCUMENTED_ERRORS = (
    ChunkStreamError,
    RetriesExhausted,
    ChecksumError,
    CodecError,
    OSError,
)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(128, 4)).astype(np.float32)
    y = (X[:, 0] + 0.25 * rng.normal(size=128) > 0).astype(np.float64)
    mapped = root / "data.m3"
    with Session() as session:
        session.create(f"mmap://{mapped}", X, y)
    from repro.api.convert import convert_dataset

    raw = root / "raw"
    convert_dataset(str(mapped), raw, codec=None, block_rows=16, shard_rows=64)
    v2 = root / "v2"
    convert_dataset(str(mapped), v2, codec="zlib", block_rows=16, shard_rows=64)
    return {"mmap": f"mmap://{mapped}", "raw": f"shard://{raw}", "v2": str(v2)}


def _fit(spec, io_workers, faults=None):
    engine = StreamingEngine(chunk_rows=32, io_workers=io_workers)
    with Session(engine=engine, faults=faults) as session:
        dataset = session.open(spec)
        result = session.fit(
            LogisticRegression(max_iterations=3, solver="sgd", chunk_size=32),
            dataset,
        )
        return result


@pytest.fixture(scope="module")
def baselines(datasets):
    coefs = {}
    for fmt in FORMATS:
        for workers in IO_WORKERS:
            result = _fit(datasets[fmt], workers)
            coefs[fmt, workers] = (
                np.array(result.model.coef_, copy=True),
                float(result.model.intercept_),
            )
    return coefs


def test_baseline_is_deterministic(datasets, baselines):
    for fmt in FORMATS:
        for workers in IO_WORKERS:
            again = _fit(datasets[fmt], workers)
            coef, intercept = baselines[fmt, workers]
            assert np.array_equal(np.array(again.model.coef_), coef)
            assert float(again.model.intercept_) == intercept


@pytest.mark.parametrize("io_workers", IO_WORKERS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("site", fault_sites())
def test_single_site_fault_recovers_or_raises_typed(
    datasets, baselines, site, fmt, io_workers
):
    coef, intercept = baselines[fmt, io_workers]
    for seed in SEEDS:
        plan = f"{site}:p=0.5:n=3:seed={seed}"
        try:
            result = _fit(datasets[fmt], io_workers, faults=plan)
        except DOCUMENTED_ERRORS:
            continue  # a typed, diagnosable failure is an allowed outcome
        finally:
            set_fault_plan(None)
        assert np.array_equal(np.array(result.model.coef_), coef), (
            f"site={site} fmt={fmt} io_workers={io_workers} seed={seed}: "
            f"fit completed but the model differs from the baseline"
        )
        assert float(result.model.intercept_) == intercept


@pytest.mark.parametrize("fmt", FORMATS)
def test_bounded_read_faults_recover_bit_identical(datasets, baselines, fmt):
    """Read-site faults inside the per-call retry budget *must* recover:
    ``n=3`` total fires can never exhaust a 4-attempt budget, so the fit
    completes and matches the baseline exactly — with the retries visible
    in the stream accounting."""
    from repro.faults import FaultPlan

    site = "read.pread" if fmt == "v2" else "read.gather"
    coef, intercept = baselines[fmt, 1]
    plan = FaultPlan.parse(f"{site}:n=3:seed=7")
    result = _fit(datasets[fmt], 1, faults=plan)
    assert np.array_equal(np.array(result.model.coef_), coef)
    assert float(result.model.intercept_) == intercept
    assert plan.fires(site) == 3  # the whole budget fired and was absorbed
    if fmt != "v2":
        # read.gather faults fire inside the stream, so its accounting
        # records them (v2's fire at open, during the label preads).
        assert result.details["faults_injected"] >= 1
        assert result.details["retries"] >= result.details["faults_injected"]
