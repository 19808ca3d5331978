"""Tests for the compressed chunk stream: readers fetch, then decode.

The acceptance bar of the v2 format integration: streaming a compressed
dataset through the parallel pipeline is bit-identical to streaming the raw
(mapped) dataset at every ``io_workers`` x ``decode_workers`` setting, the hot
path stays allocation-free (every decode lands in a pooled buffer lease),
a decoded stream runs ``max(io_workers, decode_workers)`` readers and no
other thread, and the stream's accounting separates decode CPU time and coded bytes from
the logical read volume.

Compressed chunks are *always* pooled (there is no zero-copy view of coded
bytes), so consumers here follow the same lease contract the engines do:
release each chunk after use.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.api import Session, StreamingEngine
from repro.api.chunks import (
    ChunkBufferPool,
    compressed_backing,
    open_chunk_stream,
)
from repro.api.sharded import open_sharded_matrix, write_sharded_dataset
from repro.data import codecs
from repro.fanout import COMPUTE_THREAD_PREFIX
from repro.ml import LogisticRegression, base


@pytest.fixture()
def datasets(tmp_path, rng):
    """The same 900x6 labelled matrix written raw (mapped) and compressed (zlib)."""
    X = rng.integers(0, 5, size=(900, 6)).astype(np.float64)
    y = rng.integers(0, 3, size=900).astype(np.int64)
    write_sharded_dataset(tmp_path / "raw", X, y, shard_rows=300)
    write_sharded_dataset(tmp_path / "zip", X, y, shard_rows=300,
                          codec="zlib", block_rows=100)
    return tmp_path, X, y


def _drain(stream, watch=None):
    """Consume a stream under the lease contract, keeping chunk copies.

    ``watch()``, when given, runs after each chunk, while the readers live.
    """
    chunks = []
    for chunk in stream:
        if watch is not None:
            watch()
        try:
            chunks.append(
                (chunk.index, chunk.start, chunk.stop,
                 np.asarray(chunk.X).copy(),
                 None if chunk.y is None else np.asarray(chunk.y).copy())
            )
        finally:
            chunk.release()
    return chunks


class TestBitIdentity:
    @pytest.mark.parametrize("io_workers", [1, 2, 4])
    @pytest.mark.parametrize("decode_workers", [None, 1, 3])
    def test_compressed_stream_matches_plan_order(self, datasets, io_workers,
                                                  decode_workers):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        expected = [
            (i, start, min(start + 70, 900))
            for i, start in enumerate(range(0, 900, 70))
        ]
        with open_chunk_stream(
            matrix, labels=matrix.lazy_labels, chunk_rows=70,
            io_workers=io_workers, decode_workers=decode_workers,
            align_shards=False,
        ) as stream:
            chunks = _drain(stream)
        assert [c[:3] for c in chunks] == expected
        for index, start, stop, cx, cy in chunks:
            np.testing.assert_array_equal(cx, X[start:stop])
            np.testing.assert_array_equal(cy, y[start:stop])
        matrix.close()

    def test_compressed_matches_raw_stream(self, datasets):
        tmp_path, X, y = datasets
        raw = open_sharded_matrix(tmp_path / "raw")
        zipped = open_sharded_matrix(tmp_path / "zip")
        with open_chunk_stream(raw, chunk_rows=80, io_workers=2) as stream:
            raw_chunks = _drain(stream)
        with open_chunk_stream(zipped, chunk_rows=80, io_workers=2) as stream:
            zip_chunks = _drain(stream)
        assert len(raw_chunks) == len(zip_chunks)
        for a, b in zip(raw_chunks, zip_chunks):
            assert a[:3] == b[:3]
            np.testing.assert_array_equal(a[3], b[3])
        raw.close()
        zipped.close()


class TestInflateIntoDestination:
    """Whole blocks inflate straight into their destination; edges still slice."""

    @pytest.mark.parametrize("io_workers", [1, 2])
    @pytest.mark.parametrize("storage_dtype", [np.float64, np.float32])
    def test_whole_and_edge_blocks_stream_exactly(
        self, tmp_path, rng, zlib_inflate, io_workers, storage_dtype
    ):
        # 48-row blocks under 100-row chunks: most chunks hold whole blocks
        # and cut one or two, and each 300-row shard ends in a short block.
        X = rng.integers(-50, 50, size=(900, 6)).astype(np.float64)
        y = rng.integers(0, 3, size=900).astype(np.int64)
        write_sharded_dataset(tmp_path / "zip", X, y, shard_rows=300, codec="zlib",
                              block_rows=48, storage_dtype=storage_dtype)
        matrix = open_sharded_matrix(tmp_path / "zip")
        with open_chunk_stream(matrix, labels=matrix.lazy_labels, chunk_rows=100,
                               io_workers=io_workers, align_shards=False) as stream:
            chunks = _drain(stream)
        matrix.close()
        assert [c[1] for c in chunks] == list(range(0, 900, 100))
        assert np.array_equal(np.concatenate([c[3] for c in chunks]), X)
        assert np.array_equal(np.concatenate([c[4] for c in chunks]), y)

    def test_whole_blocks_never_reach_decode(self, tmp_path, rng, monkeypatch):
        if codecs._LIBDEFLATE is None:
            pytest.skip("libdeflate.so.0 is not installed")
        X = rng.integers(0, 5, size=(900, 6)).astype(np.float64)
        write_sharded_dataset(tmp_path / "zip", X, shard_rows=300, codec="zlib",
                              block_rows=48)
        decoded = []
        decode = codecs.ZlibCodec.decode

        def spy(self, payload, raw_bytes):
            decoded.append(raw_bytes)
            return decode(self, payload, raw_bytes)

        monkeypatch.setattr(codecs.ZlibCodec, "decode", spy)
        matrix = open_sharded_matrix(tmp_path / "zip")
        with open_chunk_stream(matrix, chunk_rows=100, io_workers=2,
                               align_shards=False) as stream:
            chunks = _drain(stream)
        matrix.close()
        assert np.array_equal(np.concatenate([c[3] for c in chunks]), X)
        assert decoded == []


class TestReaderRule:
    """Readers decode what they fetch: one thread kind per decoded stream."""

    @pytest.mark.parametrize("io_workers", [None, 2])
    @pytest.mark.parametrize("decode_workers", [None, 1, 3])
    def test_readers_are_the_only_threads(self, datasets, io_workers, decode_workers):
        tmp_path, X, y = datasets
        raw = open_sharded_matrix(tmp_path / "raw")
        zipped = open_sharded_matrix(tmp_path / "zip")
        options = dict(chunk_rows=70, align_shards=False)
        with open_chunk_stream(raw, labels=raw.lazy_labels, io_workers=2,
                               **options) as stream:
            raw_chunks = _drain(stream)
        before = set(threading.enumerate())
        started = set()
        with open_chunk_stream(zipped, labels=zipped.lazy_labels, io_workers=io_workers,
                               decode_workers=decode_workers, **options) as stream:
            pool = stream.pool
            zip_chunks = _drain(
                stream, lambda: started.update(set(threading.enumerate()) - before)
            )
        assert set(threading.enumerate()) == before  # no reader outlives the stream
        readers = min(max(io_workers or 1, decode_workers or 1), len(raw_chunks))
        assert stream.io_workers == readers
        # The pool starts a thread only when no started one is idle, so a
        # fast read can leave fewer threads than readers, never more.
        assert 1 <= len(started) <= readers
        assert all(t.name.startswith(COMPUTE_THREAD_PREFIX) for t in started)
        assert len(zip_chunks) == len(raw_chunks)
        for a, b in zip(raw_chunks, zip_chunks):
            assert a[:3] == b[:3]
            assert np.array_equal(a[3], b[3]) and np.array_equal(a[4], b[4])
        assert pool.available == pool.buffers
        raw.close()
        zipped.close()

    @pytest.mark.parametrize("forced", [None, 3], ids=["host", "three"])
    def test_default_engine_reads_zlib_on_every_compute_thread(
        self, datasets, monkeypatch, forced
    ):
        # "host" is the runner's own compute_threads(); "three" forces it.
        if forced is not None:
            monkeypatch.setattr(base, "_compute_threads", lambda: forced)
        tmp_path, X, y = datasets
        model = LogisticRegression(max_iterations=2, chunk_size=100).fit(X, y > 0)
        with Session() as session:
            result = session.predict(
                session.open(f"shard://{tmp_path}/zip"), model, engine=StreamingEngine()
            )
        assert result.details["io_workers"] == base.compute_threads()
        assert np.array_equal(result.predictions, model.predict(X))


class TestAccounting:
    def test_decode_stats_populated(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        with open_chunk_stream(matrix, chunk_rows=90, io_workers=2) as stream:
            _drain(stream)
            stats = stream.stats
        assert stats.compressed_bytes > 0
        assert stats.compressed_bytes < stats.bytes_read  # coded < logical
        assert stats.ratio > 1.0
        assert stats.decode_s >= 0.0
        summary = stats.as_dict()
        assert summary["compressed_bytes"] == stats.compressed_bytes
        assert summary["ratio"] == stats.ratio
        matrix.close()

    def test_raw_stream_reports_no_compression(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "raw")
        with open_chunk_stream(matrix, chunk_rows=90, io_workers=2) as stream:
            _drain(stream)
            stats = stream.stats
        assert stats.compressed_bytes == 0
        assert stats.ratio is None
        matrix.close()

    def test_reader_accounting_reports_coded_bytes(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        with open_chunk_stream(matrix, chunk_rows=90, io_workers=2) as stream:
            _drain(stream)
            reader_bytes = sum(r["bytes_read"] for r in stream.reader_stats)
            stats = stream.stats
        # Readers count what they pulled off storage: the coded volume.
        assert reader_bytes == stats.compressed_bytes
        matrix.close()

    def test_compressed_backing_detection(self, datasets):
        tmp_path, X, y = datasets
        zipped = open_sharded_matrix(tmp_path / "zip")
        raw = open_sharded_matrix(tmp_path / "raw")
        assert compressed_backing(zipped) is zipped
        assert compressed_backing(raw) is None
        assert compressed_backing(np.zeros((4, 2))) is None
        zipped.close()
        raw.close()


class TestAllocationDiscipline:
    def test_decode_lands_in_pool_buffers(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        pool = ChunkBufferPool(buffers=4, chunk_rows=90, n_cols=6,
                               dtype=np.float64, label_dtype=np.int64)
        with open_chunk_stream(
            matrix, labels=matrix.lazy_labels, chunk_rows=90,
            io_workers=2, buffer_pool=pool,
        ) as stream:
            for chunk in stream:
                try:
                    assert chunk.lease is not None, "compressed chunks must be pooled"
                    owner = chunk.X.base if chunk.X.base is not None else chunk.X
                    assert owner is chunk.lease.X
                finally:
                    chunk.release()
        assert pool.available == pool.buffers
        assert pool.leases_served > 0
        matrix.close()

    def test_steady_state_allocations_bounded(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        chunk_bytes = 90 * 6 * 8
        pool = ChunkBufferPool(buffers=4, chunk_rows=90, n_cols=6,
                               dtype=np.float64)
        # Warm up one full pass so planners and caches exist.
        with open_chunk_stream(matrix, chunk_rows=90, io_workers=2,
                               buffer_pool=pool) as stream:
            for chunk in stream:
                chunk.release()
        tracemalloc.start()
        with open_chunk_stream(matrix, chunk_rows=90, io_workers=2,
                               buffer_pool=pool) as stream:
            for chunk in stream:
                chunk.release()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The ring is preallocated outside the traced window; the hot path
        # itself must stay within coded payloads + bookkeeping slack.
        assert peak < 8 * chunk_bytes + 256 * 1024, peak
        matrix.close()


class TestErrorPaths:
    def test_close_mid_stream_releases_everything(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        stream = open_chunk_stream(matrix, chunk_rows=50, io_workers=2,
                                   decode_workers=2)
        first = next(iter(stream))
        first.release()
        stream.close()  # leak fixtures assert leases/threads drained
        matrix.close()

    def test_abandoned_stream_mid_iteration(self, datasets):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        stream = open_chunk_stream(matrix, chunk_rows=50, io_workers=2)
        taken = 0
        for chunk in stream:
            chunk.release()
            taken += 1
            if taken == 3:
                break
        stream.close()
        matrix.close()

    @pytest.mark.parametrize("decode_workers", [-1, 0])
    def test_negative_decode_workers_rejected(self, datasets, decode_workers):
        tmp_path, X, y = datasets
        matrix = open_sharded_matrix(tmp_path / "zip")
        with pytest.raises(ValueError, match="decode_workers"):
            open_chunk_stream(matrix, chunk_rows=50, io_workers=2,
                              decode_workers=decode_workers)
        matrix.close()
