"""Tests for the micro-batching model server and the Session.serve facade."""

import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.ml import (
    PCA,
    GaussianNaiveBayes,
    KMeans,
    LinearRegression,
    LogisticRegression,
    MiniBatchKMeans,
    SoftmaxRegression,
)
from repro.ml.persistence import _model_registry
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.serve import (
    ModelRegistry,
    ModelServer,
    ServeResult,
    ServerClosed,
    ServerSaturated,
    ServeStats,
    Serving,
)
from repro.serve.server import MAX_WAIT_SAMPLES


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 8))
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


def _three_classes(X):
    return (np.arange(X.shape[0]) % 3).astype(np.int64)


#: Every estimator a saved model may name, fitted on ``problem``, with the
#: method that serves its widest output.
SERVABLE = {
    "LogisticRegression": lambda p: (LogisticRegression(max_iterations=5).fit(*p), "predict_proba"),
    "SoftmaxRegression": lambda p: (
        SoftmaxRegression(max_iterations=3).fit(p[0], _three_classes(p[0])), "predict_proba"
    ),
    "LinearRegression": lambda p: (LinearRegression().fit(p[0], p[0][:, 0] - p[1]), "predict"),
    "KMeans": lambda p: (KMeans(n_clusters=4, max_iterations=5, seed=0).fit(p[0]), "predict"),
    "MiniBatchKMeans": lambda p: (
        MiniBatchKMeans(n_clusters=4, max_epochs=2, batch_size=64, seed=0).fit(p[0]), "predict"
    ),
    "GaussianNaiveBayes": lambda p: (
        GaussianNaiveBayes().fit(p[0], _three_classes(p[0])), "predict_proba"
    ),
    "PCA": lambda p: (PCA(n_components=3).fit(p[0]), "transform"),
    "StandardScaler": lambda p: (StandardScaler().fit(p[0]), "transform"),
    "MinMaxScaler": lambda p: (MinMaxScaler().fit(p[0]), "transform"),
}


@pytest.fixture()
def server(fitted):
    with ModelServer(max_batch=64, max_delay_ms=1.0) as server:
        server.publish("default", fitted)
        yield server


class _BlockingModel:
    """A 'model' whose predict blocks until released — for queue tests."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def predict(self, X):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return np.zeros(np.asarray(X).shape[0])


class TestSingleRequests:
    def test_predict_one_matches_in_core(self, server, problem, fitted):
        X, _ = problem
        expected = fitted.predict(X)
        result = server.predict_one(X[3])
        assert isinstance(result, ServeResult)
        assert result.n_rows == 1
        assert result.prediction == expected[3]
        assert result.model_key == "default@1"
        assert result.queue_wait_s >= 0
        assert result.compute_s >= 0

    def test_predict_many_matches_in_core(self, server, problem, fitted):
        X, _ = problem
        result = server.predict_many(X[:40])
        np.testing.assert_array_equal(result.predictions, fitted.predict(X[:40]))
        assert result.batch_rows >= 40

    def test_method_routing(self, server, problem, fitted):
        X, _ = problem
        result = server.predict_many(X[:10], method="predict_proba")
        np.testing.assert_array_equal(
            result.predictions, fitted.predict_proba(X[:10])
        )
        assert result.method == "predict_proba"

    def test_1d_row_is_reshaped(self, server, problem):
        X, _ = problem
        assert server.predict_one(list(X[0])).n_rows == 1

    def test_bad_shapes_rejected(self, server):
        with pytest.raises(ValueError, match="2-D"):
            server.submit(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="at least one row"):
            server.submit(np.zeros((0, 4)))
        # `[]` reshapes to (1, 0): refused here, not by a gemm deep in the model.
        for zero_width in ([], np.zeros((3, 0))):
            with pytest.raises(ValueError, match="at least one feature"):
                server.submit(zero_width)
        with pytest.raises(ValueError, match="invalid prediction method"):
            server.submit(np.zeros(4), method="_private")

    def test_unknown_model_name_fails_the_future(self, server, problem):
        X, _ = problem
        future = server.submit(X[0], model="missing")
        with pytest.raises(KeyError, match="missing"):
            future.result(timeout=5.0)
        assert server.stats().errors >= 1

    def test_missing_method_fails_the_future(self, problem):
        X, y = problem
        with ModelServer(max_delay_ms=0.0) as server:
            server.publish("default", LinearRegression().fit(X, y.astype(np.float64)))
            future = server.submit(X[0], method="predict_proba")
            with pytest.raises(TypeError, match="predict_proba"):
                future.result(timeout=5.0)


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, problem, fitted):
        X, _ = problem
        expected = fitted.predict(X)
        with ModelServer(max_batch=256, max_delay_ms=25.0) as server:
            server.publish("default", fitted)
            futures = [server.submit(X[i]) for i in range(100)]
            results = [f.result(timeout=10.0) for f in futures]
        for i, result in enumerate(results):
            assert result.predictions[0] == expected[i]
        stats = server.stats()
        assert stats.requests == 100
        assert stats.rows == 100
        # The whole burst was in flight before the first delay window closed,
        # so it must land in far fewer dispatches than requests.
        assert stats.batches < 20
        assert stats.mean_batch_rows > 5
        assert any(r.batch_requests > 1 for r in results)

    def test_batches_respect_max_batch(self, problem, fitted):
        X, _ = problem
        with ModelServer(max_batch=8, max_delay_ms=25.0) as server:
            server.publish("default", fitted)
            futures = [server.submit(X[i]) for i in range(40)]
            results = [f.result(timeout=10.0) for f in futures]
        assert all(r.batch_rows <= 8 for r in results)

    def test_mixed_methods_never_share_a_batch(self, problem, softmax_fitted):
        X, _ = problem
        model = softmax_fitted
        label_expected = model.predict(X)
        proba_expected = model.predict_proba(X)
        with ModelServer(max_batch=256, max_delay_ms=25.0) as server:
            server.publish("default", model)
            labels = [server.submit(X[i]) for i in range(0, 20, 2)]
            probas = [
                server.submit(X[i], method="predict_proba") for i in range(1, 20, 2)
            ]
            for i, future in zip(range(0, 20, 2), labels):
                result = future.result(timeout=10.0)
                assert result.method == "predict"
                assert result.predictions[0] == label_expected[i]
            for i, future in zip(range(1, 20, 2), probas):
                result = future.result(timeout=10.0)
                assert result.method == "predict_proba"
                # A predict row smuggled into a proba batch (or vice versa)
                # could not reproduce the in-core row bit for bit.
                np.testing.assert_array_equal(
                    result.predictions, proba_expected[i : i + 1]
                )

    def test_servable_lists_every_saved_model_class(self):
        assert set(SERVABLE) == set(_model_registry())

    @pytest.mark.parametrize("name", sorted(SERVABLE))
    def test_single_row_batches_match_full_matrix_bitwise(self, problem, name):
        # Every per-row product is a fixed-height rows_matmul call, so a row
        # served alone equals the same row served in any larger batch — and
        # both equal the full-matrix in-core call.
        X, _ = problem
        model, method = SERVABLE[name](problem)
        proba_expected = getattr(model, method)(X)
        with ModelServer(max_delay_ms=0.0) as server:
            server.publish("default", model)
            for i in range(25):
                result = server.predict_one(X[i], method=method)
                assert result.batch_rows == 1
                np.testing.assert_array_equal(
                    result.predictions, proba_expected[i : i + 1]
                )

    def test_zero_delay_still_serves(self, problem, fitted):
        X, _ = problem
        with ModelServer(max_delay_ms=0.0) as server:
            server.publish("default", fitted)
            result = server.predict_one(X[0])
        assert result.predictions[0] == fitted.predict(X[:1])[0]

    def test_stats_accounting_is_consistent(self, problem, fitted):
        X, _ = problem
        with ModelServer(max_batch=16, max_delay_ms=5.0) as server:
            server.publish("default", fitted)
            futures = [server.submit(X[i : i + 2]) for i in range(0, 60, 2)]
            for future in futures:
                future.result(timeout=10.0)
            stats = server.stats()
        assert stats.requests == 30
        assert stats.rows == 60
        assert stats.queue_wait_s >= 0
        assert stats.queue_wait_percentile(99) >= stats.queue_wait_percentile(50)
        summary = stats.as_dict()
        assert summary["requests"] == 30
        assert summary["queue_wait_p99_s"] >= summary["queue_wait_p50_s"] >= 0

    def test_tail_latency_describes_the_recent_past(self):
        # A long-lived server: the cap fills with 1 ms waits, then traffic
        # slows to 50 ms.  Keeping the *first* cap samples would report 1 ms
        # for ever; the percentile must move with what happened last.
        stats = ServeStats()
        stats.record_batch([0.001] * MAX_WAIT_SAMPLES, MAX_WAIT_SAMPLES, 0.0, 0.0)
        assert stats.queue_wait_percentile(99) == pytest.approx(0.001)
        for _ in range(10):
            stats.record_batch([0.050] * 100, 100, 0.0, 0.0)
        assert len(stats.wait_samples) == MAX_WAIT_SAMPLES
        assert stats.queue_wait_percentile(99) == pytest.approx(0.050)
        assert stats.requests == MAX_WAIT_SAMPLES + 1000

    def test_snapshot_copies_every_field(self):
        stats = ServeStats()
        for value, name in enumerate(sorted(ServeStats.__dataclass_fields__), start=1):
            if name != "wait_samples":
                setattr(stats, name, type(getattr(stats, name))(value))
        stats.wait_samples.append(0.25)
        snapshot = stats.snapshot()
        assert snapshot == stats
        stats.wait_samples.append(0.5)
        stats.requests += 1
        assert list(snapshot.wait_samples) == [0.25]
        assert snapshot.wait_samples.maxlen == MAX_WAIT_SAMPLES
        assert snapshot.requests == stats.requests - 1


class TestBackpressure:
    def test_saturated_queue_rejects_nonblocking_submits(self, problem):
        X, _ = problem
        blocker = _BlockingModel()
        with ModelServer(max_delay_ms=0.0, max_pending=2) as server:
            server.publish("default", blocker)
            first = server.submit(X[0])  # claimed by the dispatcher
            assert blocker.started.wait(timeout=5.0)
            queued = [server.submit(X[0]), server.submit(X[0])]  # queue full
            with pytest.raises(ServerSaturated):
                server.submit(X[0], block=False)
            with pytest.raises(ServerSaturated):
                server.submit(X[0], timeout=0.05)
            assert server.stats().rejected == 2
            blocker.release.set()
            for future in [first, *queued]:
                future.result(timeout=10.0)

    def test_blocking_submit_waits_for_space(self, problem):
        X, _ = problem
        blocker = _BlockingModel()
        with ModelServer(max_delay_ms=0.0, max_pending=1) as server:
            server.publish("default", blocker)
            first = server.submit(X[0])
            assert blocker.started.wait(timeout=5.0)
            second = server.submit(X[0])  # fills the queue

            unblocked = []

            def late_submit():
                unblocked.append(server.submit(X[0]))

            thread = threading.Thread(target=late_submit)
            thread.start()
            time.sleep(0.05)
            assert not unblocked  # genuinely blocked on the full queue
            blocker.release.set()
            thread.join(timeout=10.0)
            assert unblocked
            for future in [first, second, *unblocked]:
                future.result(timeout=10.0)


class TestLifecycle:
    def test_close_drains_queued_requests(self, problem, fitted):
        X, _ = problem
        server = ModelServer(max_batch=4, max_delay_ms=0.0)
        server.publish("default", fitted)
        futures = [server.submit(X[i]) for i in range(20)]
        server.close()
        for i, future in enumerate(futures):
            assert future.result(timeout=5.0).predictions[0] == fitted.predict(
                X[i : i + 1]
            )[0]

    def test_closed_server_rejects_submits(self, problem, fitted):
        X, _ = problem
        server = ModelServer()
        server.publish("default", fitted)
        server.close()
        assert server.closed
        with pytest.raises(ServerClosed):
            server.submit(X[0])
        server.close()  # idempotent

    def test_context_manager_closes(self, fitted):
        with ModelServer() as server:
            server.publish("default", fitted)
        assert server.closed

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            ModelServer(max_batch=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            ModelServer(max_delay_ms=-1)
        with pytest.raises(TypeError, match="workers"):  # one dispatcher, no knob
            ModelServer(workers=2)
        with pytest.raises(ValueError, match="max_pending"):
            ModelServer(max_pending=0)

    def test_shared_registry_serves_multiple_names(self, problem, fitted):
        X, y = problem
        registry = ModelRegistry()
        registry.publish("clf", fitted)
        registry.publish("reg", LinearRegression().fit(X, y.astype(np.float64)))
        with ModelServer(registry=registry, max_delay_ms=0.0) as server:
            a = server.predict_one(X[0], model="clf")
            b = server.predict_one(X[0], model="reg")
        assert a.model_name == "clf" and b.model_name == "reg"


class TestSessionServe:
    def test_session_serve_round_trip(self, problem, fitted):
        X, _ = problem
        expected = fitted.predict(X)
        with Session() as session:
            with session.serve(fitted, max_delay_ms=1.0) as serving:
                assert isinstance(serving, Serving)
                assert serving.model_version.key == "default@1"
                result = serving.predict_one(X[0])
                assert result.predictions[0] == expected[0]
                many = serving.predict_many(X[:25])
                np.testing.assert_array_equal(many.predictions, expected[:25])
                assert serving.stats().requests == 2

    def test_serving_from_saved_model_path(self, tmp_path, problem, fitted):
        from repro.ml import save_model

        X, _ = problem
        path = save_model(tmp_path / "clf.json", fitted)
        with Session() as session, session.serve(path) as serving:
            result = serving.predict_one(X[0])
        assert result.predictions[0] == fitted.predict(X[:1])[0]

    def test_swap_is_visible_to_later_requests(self, problem, fitted):
        X, y = problem
        retrained = LogisticRegression(max_iterations=1).fit(X, 1 - y)
        with Session() as session, session.serve(fitted) as serving:
            before = serving.predict_one(X[0])
            record = serving.swap(retrained)
            after = serving.predict_one(X[0])
        assert before.model_version == 1
        assert record.version == 2
        assert after.model_version == 2
        assert after.predictions[0] == retrained.predict(X[:1])[0]

    def test_multiclass_proba_round_trip(self, problem):
        X, _ = problem
        y3 = (np.arange(X.shape[0]) % 3).astype(np.int64)
        model = SoftmaxRegression(max_iterations=3).fit(X, y3)
        with Session() as session, session.serve(model) as serving:
            result = serving.predict_many(X[:30], method="predict_proba")
        np.testing.assert_array_equal(
            result.predictions, model.predict_proba(X[:30])
        )


class TestReviewHardening:
    def test_failed_publish_spawns_no_dispatcher_threads(self, tmp_path):
        # A bad model file must fail Session.serve before any server (and
        # its dispatcher threads) exists.
        before = threading.active_count()
        with Session() as session:
            with pytest.raises(ValueError):
                bad = tmp_path / "bad.json"
                bad.write_text("{}")
                session.serve(bad)
            with pytest.raises(TypeError):
                session.serve(object())
        assert threading.active_count() == before

    @pytest.mark.parametrize("fixture", ["fitted", "softmax_fitted"])
    def test_wrong_width_request_fails_alone(self, request, problem, fixture):
        # Row width is part of the coalescing key: a request with the wrong
        # feature count forms (and fails in) its own batch, so the
        # concurrent valid request (same model+method) is still served.
        X, _ = problem
        model = request.getfixturevalue(fixture)
        with ModelServer(max_batch=64, max_delay_ms=25.0) as server:
            server.publish("default", model)
            good = server.submit(X[0])
            bad = server.submit(np.zeros(3))
            assert good.result(timeout=10.0).predictions[0] == model.predict(
                X[:1]
            )[0]
            with pytest.raises(ValueError):
                bad.result(timeout=10.0)
        assert server.stats().errors == 1
        assert server.stats().requests == 1

    def test_stats_visible_once_result_is(self, problem, fitted):
        # The client's happens-before edge: by the time result() returns,
        # stats() already counts the request.
        X, _ = problem
        with ModelServer(max_delay_ms=0.0) as server:
            server.publish("default", fitted)
            for i in range(1, 21):
                server.predict_one(X[i])
                assert server.stats().requests == i
