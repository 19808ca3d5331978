"""Tests for the out-of-core dataset writers."""

import numpy as np
import pytest

from repro.data.formats import create_binary_matrix, open_binary_matrix
from repro.data.infimnist import BYTES_PER_IMAGE, InfimnistGenerator, NUM_FEATURES
from repro.data import writers
from repro.data.writers import OutOfCoreWriter, write_infimnist_dataset


class TestOutOfCoreWriter:
    def test_append_fills_file_in_order(self, tmp_path):
        path = tmp_path / "chunked.m3"
        create_binary_matrix(path, rows=6, cols=3, with_labels=True)
        writer = OutOfCoreWriter(path)
        writer.append(np.full((4, 3), 1.0), np.array([1, 1, 1, 1]))
        writer.append(np.full((2, 3), 2.0), np.array([2, 2]))
        header = writer.finalize()
        assert header.rows == 6
        data, labels, _ = open_binary_matrix(path)
        assert np.all(np.asarray(data[:4]) == 1.0)
        assert np.all(np.asarray(data[4:]) == 2.0)
        np.testing.assert_array_equal(np.asarray(labels), [1, 1, 1, 1, 2, 2])

    def test_overflow_rejected(self, tmp_path):
        path = tmp_path / "small.m3"
        create_binary_matrix(path, rows=2, cols=3)
        writer = OutOfCoreWriter(path)
        with pytest.raises(ValueError):
            writer.append(np.zeros((3, 3)))

    def test_wrong_chunk_width_rejected(self, tmp_path):
        path = tmp_path / "width.m3"
        create_binary_matrix(path, rows=4, cols=3)
        writer = OutOfCoreWriter(path)
        with pytest.raises(ValueError):
            writer.append(np.zeros((2, 5)))

    def test_labels_required_when_declared(self, tmp_path):
        path = tmp_path / "labels.m3"
        create_binary_matrix(path, rows=4, cols=2, with_labels=True)
        writer = OutOfCoreWriter(path)
        with pytest.raises(ValueError):
            writer.append(np.zeros((2, 2)))

    def test_labels_rejected_when_not_declared(self, tmp_path):
        path = tmp_path / "nolabels.m3"
        create_binary_matrix(path, rows=4, cols=2)
        writer = OutOfCoreWriter(path)
        with pytest.raises(ValueError):
            writer.append(np.zeros((2, 2)), np.zeros(2, dtype=np.int64))

    def test_finalize_incomplete_rejected(self, tmp_path):
        path = tmp_path / "incomplete.m3"
        create_binary_matrix(path, rows=4, cols=2)
        writer = OutOfCoreWriter(path)
        writer.append(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            writer.finalize()


class TestWriteInfimnistDataset:
    def test_by_example_count(self, tmp_path):
        path = tmp_path / "infimnist.m3"
        header = write_infimnist_dataset(path, num_examples=50, seed=0)
        assert header.rows == 50
        assert header.cols == NUM_FEATURES
        data, labels, _ = open_binary_matrix(path)
        np.testing.assert_array_equal(np.asarray(labels), np.arange(50) % 10)

    def test_content_matches_generator(self, tmp_path):
        path = tmp_path / "match.m3"
        write_infimnist_dataset(path, num_examples=10, seed=3)
        data, _, _ = open_binary_matrix(path)
        expected, _ = InfimnistGenerator(seed=3).batch(0, 10)
        np.testing.assert_allclose(np.asarray(data), expected)

    def test_by_target_bytes(self, tmp_path):
        path = tmp_path / "sized.m3"
        target = 20 * BYTES_PER_IMAGE + 100
        header = write_infimnist_dataset(path, target_bytes=target)
        assert header.rows == 20

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
            written.append(path.read_bytes())
        assert written[0] == written[1]
