"""The fault-injection property: under ANY single-site fault plan, a
streaming fit either completes bit-identical to the fault-free baseline or
raises a documented typed error — across formats, reader counts and seeds.

This is the hypothesis-driven face of ``tests/faults/test_chaos_matrix.py``:
instead of a fixed grid it samples (site, format, io_workers, probability,
budget, seed) combinations, so the chaos surface keeps being explored from
fresh angles on every run while staying reproducible per example.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, StreamingEngine
from repro.api.chunks import ChunkStreamError
from repro.data.codecs import CodecError
from repro.data.formats_v2 import ChecksumError
from repro.faults import RetriesExhausted, fault_sites, set_fault_plan
from repro.ml import LogisticRegression

DOCUMENTED_ERRORS = (
    ChunkStreamError,
    RetriesExhausted,
    ChecksumError,
    CodecError,
    OSError,
)

_CACHE = {}


def _datasets(tmp_path_factory):
    """Module-lifetime datasets (hypothesis examples must share them)."""
    if "paths" not in _CACHE:
        root = tmp_path_factory.mktemp("fault_props")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(96, 4)).astype(np.float32)
        y = (X[:, 0] > 0).astype(np.float64)
        mapped = root / "data.m3"
        with Session() as session:
            session.create(f"mmap://{mapped}", X, y)
        from repro.api.convert import convert_dataset

        v2 = root / "v2"
        convert_dataset(str(mapped), v2, codec="zlib", block_rows=16, shard_rows=48)
        _CACHE["paths"] = {"mmap": f"mmap://{mapped}", "v2": str(v2)}
    return _CACHE["paths"]


def _fit(spec, io_workers, faults=None):
    engine = StreamingEngine(chunk_rows=24, io_workers=io_workers)
    with Session(engine=engine, faults=faults) as session:
        dataset = session.open(spec)
        return session.fit(
            LogisticRegression(max_iterations=2, solver="sgd", chunk_size=24),
            dataset,
        )


def _baseline(paths, fmt, io_workers):
    key = ("baseline", fmt, io_workers)
    if key not in _CACHE:
        result = _fit(paths[fmt], io_workers)
        _CACHE[key] = (
            np.array(result.model.coef_, copy=True),
            float(result.model.intercept_),
        )
    return _CACHE[key]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _datasets(tmp_path_factory)


@settings(max_examples=25, deadline=None)
@given(
    site=st.sampled_from(fault_sites()),
    fmt=st.sampled_from(["mmap", "v2"]),
    io_workers=st.sampled_from([1, 4]),
    probability=st.sampled_from([0.25, 0.5, 1.0]),
    count=st.sampled_from([1, 3, 0]),  # 0 = unlimited
    seed=st.integers(min_value=0, max_value=1000),
)
def test_fit_recovers_bit_identical_or_raises_documented(
    paths, site, fmt, io_workers, probability, count, seed
):
    coef, intercept = _baseline(paths, fmt, io_workers)
    plan = f"{site}:p={probability}:n={count}:seed={seed}"
    try:
        result = _fit(paths[fmt], io_workers, faults=plan)
    except DOCUMENTED_ERRORS:
        return  # typed, diagnosable failure: an allowed outcome
    finally:
        set_fault_plan(None)
    assert np.array_equal(np.array(result.model.coef_), coef), (
        f"fit completed under plan {plan!r} ({fmt}, io_workers={io_workers}) "
        f"but produced a different model than the baseline"
    )
    assert float(result.model.intercept_) == intercept
