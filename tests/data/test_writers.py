"""Tests for the out-of-core Infimnist writer: one raw shard, streamed."""

import numpy as np
import pytest

from repro.api.sharded import open_sharded_matrix, verify_dataset
from repro.data.infimnist import BYTES_PER_IMAGE, InfimnistGenerator, NUM_FEATURES
from repro.data import writers
from repro.data.writers import write_infimnist_dataset


class TestWriteInfimnistDataset:
    def test_by_example_count(self, tmp_path):
        path = tmp_path / "infimnist.m3"
        manifest = write_infimnist_dataset(path, num_examples=50, seed=0)
        assert (manifest.rows, manifest.cols, manifest.codec) == (50, NUM_FEATURES, "none")
        assert len(manifest.shards) == 1
        with open_sharded_matrix(path) as matrix:
            assert matrix.mapped
            np.testing.assert_array_equal(matrix.lazy_labels[:], np.arange(50) % 10)
        assert verify_dataset(path) == []

    def test_content_matches_generator(self, tmp_path):
        path = tmp_path / "match.m3"
        write_infimnist_dataset(path, num_examples=10, seed=3)
        expected, _ = InfimnistGenerator(seed=3).batch(0, 10)
        with open_sharded_matrix(path) as matrix:
            np.testing.assert_array_equal(matrix[:], expected)

    def test_by_target_bytes(self, tmp_path):
        path = tmp_path / "sized.m3"
        target = 20 * BYTES_PER_IMAGE + 100
        manifest = write_infimnist_dataset(path, target_bytes=target)
        assert manifest.rows == 20

    def test_exactly_one_size_argument_required(self, tmp_path):
        with pytest.raises(ValueError):
            write_infimnist_dataset(tmp_path / "x.m3")
        with pytest.raises(ValueError):
            write_infimnist_dataset(tmp_path / "x.m3", num_examples=5, target_bytes=100)

    def test_bytes_do_not_depend_on_the_chunk_height(self, tmp_path, monkeypatch):
        # WRITE_CHUNK_ROWS bounds memory only, so it is a constant, not an option.
        written = []
        for chunk_rows in (7, 1024):
            monkeypatch.setattr(writers, "WRITE_CHUNK_ROWS", chunk_rows)
            path = tmp_path / f"chunks-{chunk_rows}.m3"
            write_infimnist_dataset(path, num_examples=50, seed=2)
            written.append({f.name: f.read_bytes() for f in path.iterdir()})
        assert written[0] == written[1]

    def test_rows_are_generated_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # The memory bound: the generator is asked for WRITE_CHUNK_ROWS rows
        # at a time, and the shard writer takes each chunk as it comes.
        monkeypatch.setattr(writers, "WRITE_CHUNK_ROWS", 16)
        heights = []
        batch = InfimnistGenerator.batch

        def counted(self, start, count):
            heights.append(count)
            return batch(self, start, count)

        monkeypatch.setattr(InfimnistGenerator, "batch", counted)
        write_infimnist_dataset(tmp_path / "bounded.m3", num_examples=40, seed=1)
        assert heights == [16, 16, 8]
