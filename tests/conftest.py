"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runtime import LEASES, ThreadLeakDetector
from repro.data import codecs
from repro.data.formats import write_binary_matrix
from repro.data.synthetic import make_blobs, make_classification


@pytest.fixture(autouse=True)
def leak_guards():
    """Suite-wide lease and thread leak detection.

    Every test runs with the :data:`~repro.analysis.runtime.LEASES` tracker
    enabled: a buffer lease still checked out when the test ends — e.g. an
    error path that dropped a chunk without releasing it — fails that test.
    Likewise any new non-daemon thread left running is reported as a leak.
    """
    detector = ThreadLeakDetector()
    detector.start()
    LEASES.reset()
    LEASES.enabled = True
    try:
        yield
    finally:
        LEASES.enabled = False
        outstanding = LEASES.outstanding()
        LEASES.reset()
    assert not outstanding, f"buffer leases leaked by this test: {outstanding}"
    leaked = detector.leaked(grace=2.0)
    assert not leaked, f"threads leaked by this test: {leaked}"


@pytest.fixture(params=["libdeflate", "stdlib"])
def zlib_inflate(request, monkeypatch) -> str:
    """Run the test on each inflate path of ``ZlibCodec.decode_into``.

    ``libdeflate`` skips where the library did not load (CI fails a runner
    without it in a step of its own); ``stdlib`` forces the fallback by
    clearing the module's library handle.
    """
    if request.param == "libdeflate":
        if codecs._LIBDEFLATE is None:
            pytest.skip("libdeflate.so.0 is not installed")
    else:
        monkeypatch.setattr(codecs, "_LIBDEFLATE", None)
    return request.param


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture()
def small_classification():
    """A small, nearly separable binary classification problem."""
    X, y = make_classification(n_samples=300, n_features=12, n_classes=2, class_sep=3.0, seed=0)
    return X, y


@pytest.fixture()
def small_multiclass():
    """A small 4-class classification problem."""
    X, y = make_classification(n_samples=400, n_features=10, n_classes=4, class_sep=3.5, seed=1)
    return X, y


@pytest.fixture()
def small_blobs():
    """Well-separated Gaussian blobs for clustering tests."""
    X, y, centers = make_blobs(n_samples=400, n_features=5, centers=4, cluster_std=0.5, seed=2)
    return X, y, centers


@pytest.fixture()
def dataset_file(tmp_path: Path, small_classification) -> Path:
    """A small labelled dataset written in M3 binary format."""
    X, y = small_classification
    path = tmp_path / "dataset.m3"
    write_binary_matrix(path, X, y)
    return path
