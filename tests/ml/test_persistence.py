"""Tests for JSON model persistence (`save_model` / `load_model`)."""

import json

import numpy as np
import pytest

from repro.ml import (
    PCA,
    GaussianNaiveBayes,
    KMeans,
    LinearRegression,
    LogisticRegression,
    MiniBatchKMeans,
    NotResumableError,
    SoftmaxRegression,
    load_model,
    save_model,
)
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml import persistence


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 10))
    y = (X @ rng.normal(size=10) > 0).astype(np.int64)
    return X, y


FITTERS = {
    "logistic": lambda X, y: LogisticRegression(max_iterations=4).fit(X, y),
    "softmax": lambda X, y: SoftmaxRegression(max_iterations=3).fit(
        X, (np.arange(X.shape[0]) % 3).astype(np.int64)
    ),
    "linear": lambda X, y: LinearRegression().fit(X, y.astype(np.float64)),
    "kmeans": lambda X, y: KMeans(n_clusters=3, max_iterations=3, seed=0).fit(X),
    "minibatch_kmeans": lambda X, y: MiniBatchKMeans(
        n_clusters=3, max_epochs=2, seed=0
    ).fit(X),
    "naive_bayes": lambda X, y: GaussianNaiveBayes().fit(X, y),
    "pca": lambda X, y: PCA(n_components=4).fit(X),
    "standard_scaler": lambda X, y: StandardScaler().fit(X),
    "minmax_scaler": lambda X, y: MinMaxScaler(feature_range=(-2.0, 3.0)).fit(X),
}


def _serving_output(model, X):
    """The model's serving-side output: predictions, or a transform."""
    fn = model.predict if hasattr(model, "predict") else model.transform
    return np.asarray(fn(X))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_predictions_survive_round_trip(self, tmp_path, problem, name):
        # Every estimator the serving path can load must round-trip through
        # JSON and then reproduce its in-core output bit for bit.
        X, y = problem
        model = FITTERS[name](X, y)
        path = save_model(tmp_path / f"{name}.json", model)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        np.testing.assert_array_equal(
            _serving_output(loaded, X), _serving_output(model, X)
        )

    @pytest.mark.parametrize("name", sorted(FITTERS))
    def test_fitted_attributes_survive_round_trip(self, tmp_path, problem, name):
        # The audit behind the serving path: every public data attribute a
        # fit produces (PCA axes, scaler statistics, …) must land in the file
        # and come back identical — a silently dropped attribute would load a
        # model that predicts differently from the one that was saved.
        X, y = problem
        model = FITTERS[name](X, y)
        loaded = load_model(save_model(tmp_path / f"{name}.json", model))
        for key, value in vars(model).items():
            if not key.endswith("_") or key.startswith("_"):
                continue
            if key == "result_":  # derived optimiser telemetry, not data
                continue
            assert hasattr(loaded, key), f"{name} lost fitted attribute {key}"
            np.testing.assert_array_equal(
                np.asarray(getattr(loaded, key)), np.asarray(value),
                err_msg=f"{name}.{key}",
            )

    def test_tuple_params_survive_round_trip(self, tmp_path, problem):
        # feature_range is a tuple: it must round-trip as a tuple (the
        # constructor validates it), not be silently dropped to the default.
        X, _ = problem
        model = MinMaxScaler(feature_range=(-5.0, 5.0)).fit(X)
        loaded = load_model(save_model(tmp_path / "mm.json", model))
        assert loaded.feature_range == (-5.0, 5.0)
        assert isinstance(loaded.feature_range, tuple)
        np.testing.assert_array_equal(loaded.transform(X), model.transform(X))

    def test_params_survive_round_trip(self, tmp_path, problem):
        X, y = problem
        model = LogisticRegression(
            max_iterations=7, l2_penalty=0.5, fit_intercept=False, chunk_size=128
        ).fit(X, y)
        loaded = load_model(save_model(tmp_path / "m.json", model))
        assert loaded.get_params() == model.get_params()
        np.testing.assert_array_equal(loaded.coef_, model.coef_)
        np.testing.assert_array_equal(loaded.classes_, model.classes_)

    def test_array_dtypes_preserved(self, tmp_path, problem):
        X, y = problem
        model = GaussianNaiveBayes().fit(X, y)
        loaded = load_model(save_model(tmp_path / "nb.json", model))
        assert loaded.classes_.dtype == model.classes_.dtype
        assert loaded.theta_.dtype == np.float64

    def test_unencodable_params_dropped_not_smuggled(self, tmp_path, problem):
        X, _ = problem
        model = KMeans(n_clusters=3, max_iterations=2, seed=0, callback=lambda *a: None).fit(X)
        path = save_model(tmp_path / "km.json", model)
        payload = json.loads(path.read_text())
        assert "callback" in payload["skipped"]
        assert "callback" not in payload["params"]
        loaded = load_model(path)
        assert loaded.callback is None  # constructor default, not a marker dict
        loaded.fit(X)  # and the loaded model still trains

    def test_attribute_names_validated_on_load(self, tmp_path, problem):
        X, y = problem
        model = GaussianNaiveBayes().fit(X, y)
        path = save_model(tmp_path / "nb.json", model)
        payload = json.loads(path.read_text())
        payload["attributes"]["predict"] = [1, 2, 3]  # would shadow the method
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="invalid fitted attribute"):
            load_model(path)

    def test_non_data_attributes_recorded_as_skipped(self, tmp_path, problem):
        X, y = problem
        model = LogisticRegression(max_iterations=3).fit(X, y)
        path = save_model(tmp_path / "m.json", model)
        payload = json.loads(path.read_text())
        assert "result_" in payload["skipped"]  # OptimizationResult is derived
        loaded = load_model(path)
        assert not hasattr(loaded, "result_")


class TestErrors:
    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "m3-model", "version": 1, "class": "EvilEstimator",
            "params": {}, "attributes": {},
        }))
        with pytest.raises(ValueError, match="EvilEstimator"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "notamodel.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a saved"):
            load_model(path)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps({
            "format": "m3-model", "version": 1, "class": "KMeans",
        }))
        with pytest.raises(ValueError, match="params/attributes"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "format": "m3-model", "version": 99, "class": "KMeans",
            "params": {}, "attributes": {},
        }))
        with pytest.raises(ValueError, match="version"):
            load_model(path)


class TestDurableSave:
    def test_a_save_cut_short_leaves_the_previous_model_loadable(
        self, tmp_path, problem, monkeypatch
    ):
        # m3 traind --save-model rewrites one path on every publish: a save
        # interrupted after a partial write must not tear the saved model.
        X, y = problem
        path = tmp_path / "model.json"
        first = LogisticRegression(max_iterations=3).fit(X, y)
        save_model(path, first)
        second = LogisticRegression(max_iterations=3).fit(X, 1 - y)
        dump = json.dump

        def torn(payload, handle, **kwargs):
            text = json.dumps(payload, **kwargs)
            handle.write(text[: len(text) // 2])
            handle.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(persistence.json, "dump", torn)
        with pytest.raises(OSError, match="No space"):
            save_model(path, second)
        monkeypatch.setattr(persistence.json, "dump", dump)
        np.testing.assert_array_equal(load_model(path).coef_, first.coef_)
        save_model(path, second)
        np.testing.assert_array_equal(load_model(path).coef_, second.coef_)


STREAMING = {
    "logistic_sgd": lambda: LogisticRegression(solver="sgd", max_iterations=2),
    "softmax_sgd": lambda: SoftmaxRegression(solver="sgd", max_iterations=2),
    "naive_bayes": lambda: GaussianNaiveBayes(),
}


class TestPartialFitAfterLoad:
    """A file holds what predicts, not what ``partial_fit`` continues from:
    the SGD and naive-Bayes estimators say so instead of re-seeding."""

    @pytest.mark.parametrize("name", sorted(STREAMING))
    def test_loaded_model_refuses_instead_of_restarting_from_zeros(
        self, tmp_path, problem, name
    ):
        X, y = problem
        live = STREAMING[name]().fit(X[:200], y[:200])
        loaded = load_model(save_model(tmp_path / f"{name}.json", live))
        np.testing.assert_array_equal(loaded.predict(X), live.predict(X))
        with pytest.raises(NotResumableError, match="only MiniBatchKMeans resumes"):
            loaded.partial_fit(X[200:], y[200:])
        with pytest.raises(NotResumableError):
            loaded.check_resumable()
        live.check_resumable()
        live.partial_fit(X[200:], y[200:])  # the live object carries on

    @pytest.mark.parametrize("name", sorted(STREAMING))
    def test_refit_of_a_fitted_model_is_a_fresh_start(self, tmp_path, problem, name):
        X, y = problem
        once = STREAMING[name]().fit(X, y)
        twice = STREAMING[name]().fit(X[:50], y[:50]).fit(X, y)
        np.testing.assert_array_equal(twice.predict_proba(X), once.predict_proba(X))
        # ... and so is a refit of a loaded one: fit() never resumes.
        loaded = load_model(save_model(tmp_path / f"{name}.json", once)).fit(X, y)
        np.testing.assert_array_equal(loaded.predict_proba(X), once.predict_proba(X))

    def test_minibatch_kmeans_is_the_one_that_resumes(self, tmp_path, problem):
        X, _ = problem
        live = MiniBatchKMeans(n_clusters=3, seed=0).fit(X[:200])
        loaded = load_model(save_model(tmp_path / "kmeans.json", live))
        loaded.check_resumable()
        np.testing.assert_array_equal(
            loaded.partial_fit(X[200:]).cluster_centers_,
            live.partial_fit(X[200:]).cluster_centers_,
        )
