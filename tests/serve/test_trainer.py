"""Tests for the trainer daemon: poll, delta-train, publish."""

import threading

import numpy as np
import pytest

from repro.api import Session
from repro.ml import GaussianNaiveBayes, LinearRegression, MiniBatchKMeans
from repro.serve import ModelRegistry, Trainer, TrainUpdate
from repro.serve import trainer as trainer_module
from repro.serve.trainer import CursorPastDataError


def _make(rows, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, cols))
    y = (X[:, 0] > 0).astype(np.int64)
    return X, y


@pytest.fixture()
def session():
    with Session() as session:
        yield session


@pytest.fixture()
def appendable(tmp_path, session):
    spec = f"shard://{tmp_path / 'ds'}"
    X, y = _make(40, seed=1)
    session.create(spec, X, y, shard_rows=16)
    return spec, X, y


class TestConstruction:
    def test_rejects_model_without_partial_fit(self, appendable):
        spec, _, _ = appendable
        with pytest.raises(TypeError, match="partial_fit"):
            Trainer(spec, LinearRegression())

    def test_rejects_non_shard_spec(self, tmp_path):
        with pytest.raises(ValueError, match="shard"):
            Trainer(f"mmap://{tmp_path / 'x.m3'}", GaussianNaiveBayes())

    def test_mark_trained_rejects_negative_rows(self, appendable):
        spec, _, _ = appendable
        with Trainer(spec, GaussianNaiveBayes()) as trainer:
            with pytest.raises(ValueError, match="-1"):
                trainer.mark_trained(-1)
            assert trainer.trained_rows == 0

    def test_accepts_dataset_handle_as_spec(self, appendable, session):
        spec, _, _ = appendable
        handle = session.open(spec)
        with Trainer(handle, GaussianNaiveBayes(), session=session) as trainer:
            assert trainer.spec.scheme == "shard"
        handle.close()


class TestPollOnce:
    def test_absent_dataset_polls_none(self, tmp_path):
        with Trainer(f"shard://{tmp_path / 'missing'}", GaussianNaiveBayes()) as t:
            assert t.poll_once() is None
            assert t.stats.polls == 1
            assert t.stats.updates == 0

    def test_first_poll_trains_everything_and_publishes(self, appendable, session):
        spec, X, y = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            update = trainer.poll_once()
            assert isinstance(update, TrainUpdate)
            assert update.rows == X.shape[0]
            assert update.generation == 0
            assert update.version.key == "default@1"
            assert trainer.trained_rows == X.shape[0]
            assert trainer.trained_generation == 0
            # The published model actually predicts.
            model = trainer.registry.resolve("default").model
            assert model.predict(X[:5]).shape == (5,)

    def test_unchanged_generation_polls_none(self, appendable, session):
        spec, _, _ = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            assert trainer.poll_once() is not None
            assert trainer.poll_once() is None
            assert trainer.stats.polls == 2
            assert trainer.stats.updates == 1

    def test_append_trains_delta_rows_only(self, appendable, session):
        spec, X, y = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            trainer.poll_once()
            handle = session.open(spec)
            Xb, yb = _make(12, seed=2)
            handle.append(Xb, yb)
            handle.close()
            update = trainer.poll_once()
            assert update is not None
            assert update.rows == 12
            assert update.generation == 1
            assert update.version.key == "default@2"
            assert trainer.trained_rows == X.shape[0] + 12

    def test_mark_trained_warm_start_skips_seed_rows(self, appendable, session):
        spec, X, y = appendable
        model = GaussianNaiveBayes()
        model.partial_fit(X, y, classes=np.unique(y))
        with Trainer(spec, model, session=session) as trainer:
            trainer.mark_trained(X.shape[0], generation=0)
            assert trainer.poll_once() is None  # nothing new yet
            handle = session.open(spec)
            Xb, yb = _make(8, seed=3)
            handle.append(Xb, yb)
            handle.close()
            update = trainer.poll_once()
            assert update is not None and update.rows == 8

    @pytest.mark.parametrize("generation", [None, 0])
    def test_mark_trained_past_the_committed_rows_raises(self, appendable, session, generation):
        # Regression: a cursor of 64 on a 40-row dataset used to sit until
        # appends passed it, then train from row 64 on: rows 40-63 never trained.
        spec, X, _ = appendable
        handle = session.open(spec)
        handle.append(*_make(40, seed=6))  # generation 1: 80 rows
        handle.close()
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            committed = X.shape[0] if generation == 0 else 2 * X.shape[0]
            with pytest.raises(CursorPastDataError, match=rf"{committed} row\(s\).* {committed + 24}"):
                trainer.mark_trained(committed + 24, generation=generation)
            assert trainer.trained_rows == 0
            trainer.mark_trained(committed, generation=generation)
            assert trainer.trained_rows == committed

    def test_mark_trained_on_an_absent_dataset(self, tmp_path):
        with Trainer(f"shard://{tmp_path / 'missing'}", GaussianNaiveBayes()) as trainer:
            with pytest.raises(CursorPastDataError, match="0 row"):
                trainer.mark_trained(1)
            trainer.mark_trained(0)

    def test_unsupervised_model_trains_without_labels(self, tmp_path, session):
        spec = f"shard://{tmp_path / 'blobs'}"
        X, _ = _make(30, seed=4)
        session.create(spec, X, None, shard_rows=16)
        model = MiniBatchKMeans(n_clusters=2, seed=0)
        with Trainer(spec, model, session=session) as trainer:
            update = trainer.poll_once()
            assert update is not None and update.rows == 30

    def test_poll_after_close_raises(self, appendable):
        spec, _, _ = appendable
        trainer = Trainer(spec, GaussianNaiveBayes())
        trainer.close()
        with pytest.raises(RuntimeError, match="closed"):
            trainer.poll_once()
        trainer.close()  # idempotent

    def test_stats_accumulate(self, appendable, session):
        spec, X, _ = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            trainer.poll_once()
            stats = trainer.stats.as_dict()
            assert stats["updates"] == 1
            assert stats["rows_trained"] == X.shape[0]
            assert stats["last_generation"] == 0
            assert stats["last_version"] == "default@1"
            assert len(trainer.stats.history) == 1


class TestSharedRegistry:
    def test_publishes_into_shared_registry(self, appendable, session):
        spec, X, y = appendable
        registry = ModelRegistry()
        with Trainer(
            spec, GaussianNaiveBayes(), registry=registry, name="live", session=session
        ) as trainer:
            update = trainer.poll_once()
            assert update.version.key == "live@1"
            assert registry.resolve("live").version == 1

    def test_published_model_is_isolated_from_working_copy(
        self, appendable, session
    ):
        spec, X, y = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            trainer.poll_once()
            published = trainer.registry.resolve("default").model
            assert published is not trainer.model
            before = published.predict(X[:10]).copy()
            # Mutating the working copy must not change served predictions.
            trainer.model.partial_fit(-X[::-1] * 3, 1 - y[::-1])
            assert np.array_equal(published.predict(X[:10]), before)


class TestRunLoop:
    def test_run_with_max_polls(self, appendable, session):
        spec, X, _ = appendable
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            published = trainer.run(max_polls=3)
            assert published == 1
            assert trainer.stats.polls == 3

    def test_on_update_callback(self, appendable, session):
        spec, _, _ = appendable
        seen = []
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            trainer.run(max_polls=1, on_update=seen.append)
        assert len(seen) == 1 and isinstance(seen[0], TrainUpdate)

    def test_background_thread_picks_up_appends(self, appendable, session, monkeypatch):
        spec, X, _ = appendable
        published = threading.Event()
        second = threading.Event()

        def note(update):
            published.set()
            if update.generation >= 1:
                second.set()

        monkeypatch.setattr(trainer_module, "POLL_S", 0.05)
        with Trainer(spec, GaussianNaiveBayes(), session=session) as trainer:
            trainer.run(max_polls=1, on_update=note)  # catch up in-thread first
            assert published.wait(timeout=1.0)
            trainer.start(on_update=note)
            assert trainer.start() is trainer  # idempotent while running
            handle = session.open(spec)
            Xb, yb = _make(10, seed=5)
            handle.append(Xb, yb)
            handle.close()
            trainer._stop.wait(0)  # no-op; pacing is Event-based
            assert second.wait(timeout=10.0)
            trainer.stop()
            assert trainer.stats.updates == 2
