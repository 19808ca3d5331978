"""Serving concurrency: hot-swaps landing under a predict_one hammer.

The exactly-one-version guarantee: the dispatcher resolves the registry once
per micro-batch, so however a swap interleaves with in-flight requests, every
response (a) names exactly one model version and (b) is bit-identical to that
version's in-core prediction for the requested row.  No response may ever mix
versions or observe a half-installed model.
"""

import threading

import numpy as np
import pytest

from repro.api import Session
from repro.ml import SoftmaxRegression

THREADS = 8
REQUESTS_PER_THREAD = 25
SWAP_AFTER = 40  # completed responses before the hot-swap lands


@pytest.fixture(scope="module")
def versions():
    """Two distinct fitted models plus their in-core outputs, by version."""
    rng = np.random.default_rng(99)
    X = rng.normal(size=(240, 6))
    y = (np.arange(240) % 3).astype(np.int64)
    v1 = SoftmaxRegression(max_iterations=5, seed=0).fit(X, y)
    v2 = SoftmaxRegression(max_iterations=2, l2_penalty=0.5, seed=1).fit(X, 2 - y)
    expected = {
        1: {"predict": v1.predict(X), "predict_proba": v1.predict_proba(X)},
        2: {"predict": v2.predict(X), "predict_proba": v2.predict_proba(X)},
    }
    return X, v1, v2, expected


@pytest.mark.parametrize("method", ["predict", "predict_proba"])
def test_hot_swap_under_hammer_is_exactly_one_version(versions, method):
    X, v1, v2, expected = versions
    n_rows = X.shape[0]
    completed = threading.Event()
    done_count = [0]
    count_lock = threading.Lock()
    responses = []  # (row, ServeResult)
    errors = []

    with Session() as session:
        with session.serve(v1, max_batch=32, max_delay_ms=2.0) as serving:

            def hammer(thread_index: int) -> None:
                try:
                    for j in range(REQUESTS_PER_THREAD):
                        row = (thread_index * REQUESTS_PER_THREAD + j) % n_rows
                        result = serving.predict_one(X[row], method=method)
                        with count_lock:
                            responses.append((row, result))
                            done_count[0] += 1
                            if done_count[0] >= SWAP_AFTER:
                                completed.set()
                except BaseException as error:  # noqa: BLE001 — reported below
                    errors.append(error)
                    completed.set()

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            # Land the hot-swap strictly mid-flight: some responses are
            # already out, far more are still queued or unsent.
            assert completed.wait(timeout=30.0)
            swapped = serving.swap(v2)
            assert swapped.version == 2
            for thread in threads:
                thread.join(timeout=30.0)

    assert not errors, errors
    assert len(responses) == THREADS * REQUESTS_PER_THREAD

    versions_seen = set()
    for row, result in responses:
        # (a) exactly one version is named...
        assert result.model_version in (1, 2), result.model_key
        versions_seen.add(result.model_version)
        # ...and (b) the payload is bit-identical to that version's in-core
        # output for the requested row — a batch torn across a swap, or a
        # half-installed model, could not produce this for every response.
        want = expected[result.model_version][method][row : row + 1]
        assert np.array_equal(result.predictions, want), (
            f"row {row} served by {result.model_key} does not match that "
            f"version's in-core {method}"
        )
    # The swap genuinely landed mid-flight: traffic was served on both sides.
    assert versions_seen == {1, 2}


def test_every_response_in_one_batch_shares_the_batch_version(versions):
    """Coalesced requests in one batch all see the batch's single version."""
    X, v1, v2, expected = versions
    with Session() as session:
        with session.serve(v1, max_batch=64, max_delay_ms=20.0) as serving:
            futures = [serving.submit(X[i]) for i in range(50)]
            serving.swap(v2)
            futures += [serving.submit(X[i]) for i in range(50, 100)]
            results = [f.result(timeout=30.0) for f in futures]
    for i, result in enumerate(results):
        want = expected[result.model_version]["predict"][i : i + 1]
        assert np.array_equal(result.predictions, want)
    # Requests submitted after the swap returned must see version 2.
    assert all(r.model_version == 2 for r in results[50:])
