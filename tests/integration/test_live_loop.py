"""End-to-end: serve → append → traind publishes → in-flight requests stay
on exactly one model version, and pre-append readers keep their snapshot.

This is the whole appendable-dataset story in one test module: a model is
served from a registry, a writer appends two shards' worth of new rows, the
trainer daemon tails the committed generations and publishes refreshed
versions into the *same* registry — while concurrent ``predict_one`` traffic
observes each prediction served by exactly one version, and a reader opened
before the appends still scans the original generation bit-identically.
"""

import threading

import numpy as np
import pytest

from repro.api import Session
from repro.api.chunks import open_chunk_stream
from repro.ml import GaussianNaiveBayes
from repro.serve import ModelRegistry, Trainer
from repro.serve import trainer as trainer_module

SHARD_ROWS = 16
SEED_ROWS = 48
COLS = 6


def _make(rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, COLS))
    y = (X @ np.linspace(1.0, 2.0, COLS) > 0).astype(np.int64)
    return X, y


def _scan_all(dataset):
    parts = []
    stream = open_chunk_stream(dataset.matrix, labels=dataset.labels, chunk_rows=8)
    with stream:
        for chunk in stream:
            parts.append(np.array(chunk.X))
            release = getattr(chunk, "release", None)
            if release is not None:
                release()
    return np.concatenate(parts)


@pytest.mark.parametrize("codec", [None, "zlib"])
def test_live_train_publish_loop(tmp_path, codec, monkeypatch):
    monkeypatch.setattr(trainer_module, "POLL_S", 0.02)
    spec = f"shard://{tmp_path / 'live'}"
    X0, y0 = _make(SEED_ROWS, seed=7)

    with Session() as session:
        session.create(spec, X0, y0, shard_rows=SHARD_ROWS, codec=codec)

        # A reader opened *before* any append pins generation 0.
        snapshot = session.open(spec)
        assert snapshot.generation == 0

        model = GaussianNaiveBayes().partial_fit(X0, y0, classes=np.unique(y0))
        registry = ModelRegistry()

        with session.serve(model, name="live", registry=registry) as serving:
            assert serving.model_version.version == 1

            with Trainer(
                spec,
                model,
                registry=registry,
                name="live",
                session=session,
            ) as trainer:
                trainer.mark_trained(SEED_ROWS, generation=0)

                # Concurrent request traffic for the whole append window.
                results = []
                errors = []
                stop = threading.Event()

                def client():
                    rng = np.random.default_rng(99)
                    while not stop.is_set():
                        try:
                            r = serving.predict_one(rng.normal(size=COLS))
                            results.append(r)
                        except Exception as exc:  # pragma: no cover
                            errors.append(exc)
                            return

                threads = [threading.Thread(target=client) for _ in range(3)]
                for t in threads:
                    t.start()
                try:
                    # Append two shards' worth across two commits; train each.
                    writer = session.open(spec)
                    appended = 0
                    for commit in range(2):
                        Xb, yb = _make(SHARD_ROWS, seed=100 + commit)
                        writer.append(Xb, yb)
                        appended += SHARD_ROWS
                        update = trainer.poll_once()
                        assert update is not None
                        assert update.generation == commit + 1
                        assert update.rows == SHARD_ROWS
                        # Served traffic hot-swaps to the fresh version.
                        assert serving.model_version.version == commit + 2
                    writer.close()
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=10.0)

                assert not errors
                assert results, "no requests were served during the appends"
                # Every in-flight prediction was served by exactly one
                # version — versions 1..3 of 'live', nothing else, and no
                # request observes a mixed or unnamed model.
                seen = {r.model_key for r in results}
                assert seen <= {"live@1", "live@2", "live@3"}
                for r in results:
                    assert r.model_key.count("@") == 1
                    assert np.asarray(r.prediction).shape in ((), (1,))

                assert trainer.trained_rows == SEED_ROWS + appended

        # The pre-append reader still scans the original snapshot,
        # bit-identically, even though two generations landed after it.
        assert snapshot.generation == 0
        assert np.array_equal(_scan_all(snapshot), X0)
        snapshot.close()

        # A fresh open sees all three generations' rows.
        latest = session.open(spec)
        assert latest.generation == 2
        assert latest.shape[0] == SEED_ROWS + 2 * SHARD_ROWS
        full = _scan_all(latest)
        assert np.array_equal(full[:SEED_ROWS], X0)
        latest.close()


def test_trainer_and_server_share_registry_versions(tmp_path):
    """`Serving.swap` and `Trainer.poll_once` interleave on one registry
    without version collisions."""
    spec = f"shard://{tmp_path / 'swap'}"
    X0, y0 = _make(24, seed=3)

    with Session() as session:
        session.create(spec, X0, y0, shard_rows=8)
        model = GaussianNaiveBayes().partial_fit(X0, y0, classes=np.unique(y0))
        registry = ModelRegistry()
        with session.serve(model, name="live", registry=registry) as serving:
            with Trainer(
                spec, model, registry=registry, name="live", session=session
            ) as trainer:
                trainer.mark_trained(24, generation=0)
                writer = session.open(spec)
                writer.append(*_make(8, seed=4))
                writer.close()
                update = trainer.poll_once()
                assert update.version.version == 2
                manual = serving.swap(model)
                assert manual.version == 3
                writer = session.open(spec)
                writer.append(*_make(8, seed=5))
                writer.close()
                update = trainer.poll_once()
                assert update.version.version == 4
                assert serving.predict_one(X0[0]).model_key == "live@4"
