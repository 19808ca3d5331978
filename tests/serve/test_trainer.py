"""Tests for the trainer daemon: poll, delta-train, publish."""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.api import Session
from repro.api.chunks import DEFAULT_CHUNK_BYTES, plan_chunks
from repro.api.sharded import ShardAppender, ShardedMatrix, write_sharded_dataset
from repro.data.formats_v2 import BlockedMatrixReader
from repro.ml import (
    GaussianNaiveBayes,
    LinearRegression,
    MiniBatchKMeans,
    SoftmaxRegression,
)
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


def _state(value):
    """Everything an estimator's predictions and next ``partial_fit`` read,
    as plain values: arrays, scalars, and the fields of nested state."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.random.Generator):
        return ("rng", repr(value.bit_generator.state))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, {k: _state(v) for k, v in vars(value).items()})
    return value


ESTIMATORS = {
    "softmax-sgd": lambda: SoftmaxRegression(solver="sgd", chunk_size=64, seed=0),
    "minibatch-kmeans": lambda: MiniBatchKMeans(n_clusters=3, seed=0),
    "naive-bayes": lambda: GaussianNaiveBayes(),
}

#: Wide enough that the catch-up below spans more than one read piece.
COLS = 64
BLOCK_ROWS = 256
SHARD_ROWS = 4096


class TestBitIdentity:
    """A published model is exactly ``partial_fit`` over the plan's bounds.

    The trainer must train each delta on the chunks
    ``plan_chunks(row_range=(cursor, committed))`` cuts, in order, whatever
    it reads them through.  The expected model is driven by hand over those
    bounds on the in-core rows, so any change to how the trainer reads a
    delta (its pieces, its decode, its retries) that moves a bit fails here.
    """

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_published_model_equals_partial_fit_over_the_plan(
        self, tmp_path, session, codec, estimator
    ):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(24_310, COLS))
        y = rng.integers(0, 3, size=X.shape[0]).astype(np.int64)
        classes = np.arange(3)
        spec = f"shard://{tmp_path / 'ds'}"
        write_sharded_dataset(
            tmp_path / "ds", X[:1000], y[:1000], shard_rows=SHARD_ROWS,
            codec=codec, block_rows=BLOCK_ROWS,
        )
        appender = ShardAppender(tmp_path / "ds", shard_rows=SHARD_ROWS)
        # Each poll's delta: the base, rows inside one block, rows across
        # two block edges, rows across a shard edge, and a catch-up of two
        # appends larger than one read piece.
        polls = [
            [(0, 1000)],
            [(1000, 1010)],
            [(1010, 1310)],
            [(1310, 4310)],
            [(4310, 14310), (14310, 24310)],
        ]
        assert (24_310 - 4310) * COLS * 8 > DEFAULT_CHUNK_BYTES
        expected = ESTIMATORS[estimator]()
        with Trainer(spec, ESTIMATORS[estimator](), session=session, classes=classes) as trainer:
            for appends in polls:
                for lo, hi in appends:
                    if lo:
                        appender.append(X[lo:hi], y[lo:hi])
                cursor, committed = appends[0][0], appends[-1][1]
                with session.open(spec) as snapshot:
                    plan = plan_chunks(snapshot.matrix, row_range=(cursor, committed))
                for start, stop in plan.bounds:
                    expected.partial_fit(X[start:stop], y[start:stop], classes=classes)
                update = trainer.poll_once()
                assert (update.rows, update.chunks) == (committed - cursor, plan.num_chunks)
                published = trainer.registry.resolve("default").model
                assert _state(published) == _state(expected)
                np.testing.assert_array_equal(published.predict(X[:50]), expected.predict(X[:50]))


class TestDeltaReads:
    def test_a_delta_is_read_in_pieces_on_the_polling_thread(self, tmp_path, monkeypatch):
        # A catch-up of 20,000 64-column rows (10 MB) across five 4,096-row
        # shards: read in pieces of at most DEFAULT_CHUNK_BYTES cut at plan
        # bounds, every coded block decoded once, no thread started.
        X = np.random.default_rng(2).normal(size=(20_000, COLS))
        write_sharded_dataset(tmp_path / "ds", X, None, shard_rows=SHARD_ROWS,
                              codec="zlib", block_rows=BLOCK_ROWS)
        reads, decodes, starts = [], Counter(), []
        gather, decode = ShardedMatrix._gather_range, BlockedMatrixReader.decode_block_into

        def spy_gather(matrix, start, stop):
            reads.append((start, stop))
            return gather(matrix, start, stop)

        def spy_decode(reader, fetched, *args, **kwargs):
            decodes[(reader.path.name, fetched.index)] += 1
            return decode(reader, fetched, *args, **kwargs)

        with Trainer(f"shard://{tmp_path / 'ds'}", MiniBatchKMeans(n_clusters=3, seed=0)) as trainer:
            monkeypatch.setattr(ShardedMatrix, "_gather_range", spy_gather)
            monkeypatch.setattr(BlockedMatrixReader, "decode_block_into", spy_decode)
            monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread))
            update = trainer.poll_once()
            monkeypatch.undo()
            with Session() as session, session.open(trainer.spec) as snapshot:
                plan = plan_chunks(snapshot.matrix, row_range=(0, X.shape[0]))
        assert update.rows == X.shape[0] and update.chunks == plan.num_chunks
        assert starts == []
        edges = {start for start, _ in plan.bounds} | {X.shape[0]}
        assert [lo for lo, _ in reads[1:]] == [hi for _, hi in reads[:-1]]
        assert reads[0][0] == 0 and reads[-1][1] == X.shape[0] and len(reads) > 1
        for lo, hi in reads:
            assert lo in edges and hi in edges
            assert (hi - lo) * COLS * 8 <= DEFAULT_CHUNK_BYTES
        blocks = -(-SHARD_ROWS // BLOCK_ROWS) * 4 + -(-(20_000 - 4 * SHARD_ROWS) // BLOCK_ROWS)
        assert len(decodes) == blocks and set(decodes.values()) == {1}
