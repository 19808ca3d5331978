"""Legacy v1 shard directories: read, scrubbed and converted, never appended to.

``tests/data/fixtures/v1_shards`` pins the bytes the v1 shard writer and the
in-place v1 appender produced before both were deleted:

* ``static`` — a labelled 20 x 3 dataset in three ``.m3`` shards (7, 7, 6
  rows), labels trailing each shard's rows;
* ``appended`` — a labelled 6 x 3 dataset in 4-row shards, grown by two
  appends of 3 rows (generations 0-2): its appended shards keep their labels
  in ``.labels`` sidecars, and its last shard is an unsealed tail.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session, StreamingEngine
from repro.api.convert import convert_dataset
from repro.api.sharded import (
    ReadOnlyLayoutError,
    ShardAppender,
    ShardedMatrix,
    open_sharded_matrix,
    read_manifest,
    verify_dataset,
)
from repro.ml import SoftmaxRegression

FIXTURES = Path(__file__).parents[1] / "data" / "fixtures" / "v1_shards"
STATIC_X = (np.arange(20 * 3, dtype=np.float64).reshape(20, 3) % 11) / 4.0
STATIC_Y = (np.arange(20) % 3).astype(np.int64)
APPENDED_X = (np.arange(12 * 3, dtype=np.float64).reshape(12, 3) % 5) / 2.0 + 1.0
APPENDED_Y = (np.arange(12) % 2).astype(np.int64)
#: name -> (rows, labels, committed rows per generation)
DATASETS = {
    "static": (STATIC_X, STATIC_Y, {0: 20}),
    "appended": (APPENDED_X, APPENDED_Y, {0: 6, 1: 9, 2: 12}),
}


@pytest.fixture(params=sorted(DATASETS))
def v1(request, tmp_path):
    """A scratch copy of one fixture dataset, with its rows and generations."""
    X, y, generations = DATASETS[request.param]
    directory = Path(shutil.copytree(FIXTURES / request.param, tmp_path / request.param))
    return directory, X, y, generations


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestRead:
    def test_fixture_is_v1(self, v1):
        directory, _X, _y, generations = v1
        manifest = read_manifest(directory)
        assert (manifest.version, manifest.codec) == (1, None)
        assert manifest.generation == max(generations)
        assert all(shard.filename.endswith(".m3") for shard in manifest.shards)
        if manifest.generation:
            assert manifest.shards[-1].label_sidecar and not manifest.shards[-1].sealed

    def test_reads_back_mapped(self, v1):
        directory, X, y, _generations = v1
        with open_sharded_matrix(directory) as matrix:
            assert type(matrix) is ShardedMatrix
            np.testing.assert_array_equal(matrix[:], X)
            np.testing.assert_array_equal(matrix.lazy_labels[:], y)
            assert np.shares_memory(matrix[0:2], matrix._maps[0])

    def test_every_generation_reads_back(self, v1):
        directory, X, y, generations = v1
        for generation, rows in generations.items():
            with open_sharded_matrix(directory, generation=generation) as matrix:
                np.testing.assert_array_equal(matrix[:], X[:rows])
                np.testing.assert_array_equal(matrix.lazy_labels[:], y[:rows])

    def test_streamed_predict(self, v1):
        directory, X, y, _generations = v1
        model = SoftmaxRegression(max_iterations=5).fit(X, y)
        with Session() as session:
            result = session.predict(
                f"shard://{directory}", model, engine=StreamingEngine(chunk_rows=5)
            )
        np.testing.assert_array_equal(result.predictions, model.predict(X))


class TestScrub:
    def test_verify_is_clean(self, v1):
        directory, _X, _y, generations = v1
        for generation in generations:
            assert verify_dataset(directory, generation=generation) == []

    def test_truncated_shard_is_reported(self, tmp_path):
        # Cutting a static shard's trailing labels leaves every data byte in
        # place, but the shard no longer opens; the scrub must say so.
        directory = Path(shutil.copytree(FIXTURES / "static", tmp_path / "static"))
        path = directory / "shard-00002.m3"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            open_sharded_matrix(directory)
        problems = verify_dataset(directory)
        assert len(problems) == 1 and str(path) in problems[0]
        assert "truncated" in problems[0]


class TestConvert:
    @pytest.mark.parametrize("codec", [None, "zlib"], ids=["raw", "zlib"])
    def test_converts_and_the_copy_appends(self, v1, tmp_path, codec):
        directory, X, y, _generations = v1
        manifest = convert_dataset(directory, tmp_path / "out", codec=codec)
        assert (manifest.version, manifest.codec) == (2, codec or "none")
        ShardAppender(tmp_path / "out").append(X[:2], y[:2])
        with open_sharded_matrix(tmp_path / "out") as matrix:
            np.testing.assert_array_equal(matrix[:], np.vstack([X, X[:2]]))
            np.testing.assert_array_equal(
                matrix.lazy_labels[:], np.concatenate([y, y[:2]])
            )
        assert verify_dataset(tmp_path / "out") == []


class TestAppendRefused:
    def test_append_is_refused_and_changes_no_byte(self, v1):
        directory, X, y, _generations = v1
        before = _files(directory)
        with pytest.raises(ReadOnlyLayoutError, match="m3 convert SRC DST --codec raw"):
            ShardAppender(directory)
        with Session() as session:
            dataset = session.open(f"shard://{directory}")
            with pytest.raises(ReadOnlyLayoutError):
                dataset.append(X[:3], y[:3])
        assert _files(directory) == before
