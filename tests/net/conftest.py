"""Shared fixtures for the network serving front end tests."""

import time

import numpy as np
import pytest

from repro import faults
from repro.ml import LogisticRegression, SoftmaxRegression
from repro.net import NetServer
from repro.serve import ModelServer


@pytest.fixture(autouse=True)
def scoped_fault_plan():
    """Keep fault-plan activation local to each test (mirrors tests/faults)."""
    previous = faults.set_fault_plan(None)
    try:
        yield
    finally:
        faults.set_fault_plan(previous)


@pytest.fixture(params=["jsonl", "raw-row"])
def framed(request):
    """Spell rows so that ``NetClient`` frames them one way or the other.

    Against a server that reads raw-row frames the client sends float
    ``ndarray`` rows raw and lists as JSON lines — so the one test body,
    handed ``framed(rows)``, covers both request framings.
    """
    return np.ndarray.tolist if request.param == "jsonl" else np.asarray


@pytest.fixture()
def wait_stats():
    """``wait_stats(net, predicate)``: poll ``net.stats()`` until it satisfies
    ``predicate`` (a few seconds at most); returns the last snapshot.

    The server counts on its loop thread, a beat after the client sees a
    response — and a frame pipelined behind an unanswered one may sit in
    the client's TCP stack for a delayed ACK before the server sees it.
    """
    def wait(net, predicate, tries=500):
        for _ in range(tries):
            stats = net.stats()
            if predicate(stats):
                return stats
            time.sleep(0.01)
        return net.stats()

    return wait


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(200, 8))
    y = (X @ rng.normal(size=8) > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module")
def fitted(problem):
    X, y = problem
    return LogisticRegression(max_iterations=5).fit(X, y)


@pytest.fixture(scope="module")
def softmax_fitted(problem):
    X, _ = problem
    y3 = (np.arange(X.shape[0]) % 3).astype(np.int64)
    return SoftmaxRegression(max_iterations=3).fit(X, y3)


@pytest.fixture()
def live(fitted):
    """Factory for a running ``NetServer`` over a fresh ``ModelServer``.

    ``start(...)`` publishes ``fitted`` (or an explicit ``model``) as
    ``default`` and returns the listening front end; everything started
    is drained and closed at teardown, in reverse order.
    """
    stack = []

    def start(model=None, server_kwargs=None, **net_kwargs):
        merged = {"max_batch": 64, "max_delay_ms": 1.0}
        merged.update(server_kwargs or {})
        server = ModelServer(**merged)
        server.publish("default", model if model is not None else fitted)
        net = NetServer(server, **net_kwargs)
        stack.append((net, server))
        return net

    yield start
    for net, server in reversed(stack):
        net.close()
        server.close()
