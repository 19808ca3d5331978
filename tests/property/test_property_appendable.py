"""Property-based tests for appendable-dataset snapshot isolation.

The invariant under test is the one the live train→publish loop depends on:
a reader that opened a manifest generation sees **exactly** that generation's
rows, bit-identically, no matter how many append batches a concurrent writer
commits while the scan is in flight — on raw (mapped) and zlib (decoded)
shards, through the synchronous, double-buffered, and multi-reader
parallel executors alike.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.api import Session
from repro.api.chunks import open_chunk_stream, plan_chunks
from repro.api.sharded import (
    ShardAppender,
    manifest_generation,
    open_sharded_matrix,
    verify_dataset,
    write_sharded_dataset,
)
from repro.data.formats_v2 import write_blocked_matrix


def _rows(n, cols, offset):
    """Deterministic, row-distinguishable data: row i is offset+i everywhere."""
    base = np.arange(offset, offset + n, dtype=np.float64)
    X = np.repeat(base[:, None], cols, axis=1) + np.arange(cols) / 10.0
    y = (base.astype(np.int64) % 3).astype(np.int64)
    return X, y


def _scan(dataset, io_workers, chunk_rows):
    """Stream every chunk of ``dataset`` and return the concatenated copy."""
    stream = open_chunk_stream(
        dataset.matrix,
        labels=dataset.labels,
        chunk_rows=chunk_rows,
        io_workers=io_workers,
    )
    parts = []
    with stream:
        for chunk in stream:
            parts.append((np.array(chunk.X), np.array(chunk.y)))
            release = getattr(chunk, "release", None)
            if release is not None:
                release()
    X = np.concatenate([p[0] for p in parts]) if parts else np.empty((0, 0))
    y = np.concatenate([p[1] for p in parts]) if parts else np.empty((0,), np.int64)
    return X, y


@st.composite
def append_scenario(draw):
    seed_rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 4))
    shard_rows = draw(st.integers(2, 12))
    batches = draw(st.lists(st.integers(1, 15), min_size=1, max_size=4))
    codec = draw(st.sampled_from([None, "zlib"]))
    io_workers = draw(st.sampled_from([None, 1, 2, 8]))
    chunk_rows = draw(st.integers(1, 16))
    return seed_rows, cols, shard_rows, batches, codec, io_workers, chunk_rows


class TestSnapshotIsolationProperties:
    @given(params=append_scenario())
    @settings(max_examples=25, deadline=None)
    def test_open_snapshot_survives_concurrent_appends(
        self, tmp_path_factory, params
    ):
        """A handle opened at generation g scans g's rows even as the writer
        commits batch after batch behind it."""
        seed_rows, cols, shard_rows, batches, codec, io_workers, chunk_rows = params
        tmp_path = tmp_path_factory.mktemp("append_prop")
        spec = f"shard://{tmp_path / 'ds'}"
        X0, y0 = _rows(seed_rows, cols, 0)

        with Session() as session:
            session.create(spec, X0, y0, shard_rows=shard_rows, codec=codec)
            snapshot = session.open(spec)
            expected_X, expected_y = np.array(X0), np.array(y0)

            offset = seed_rows
            for batch in batches:
                Xb, yb = _rows(batch, cols, offset)
                snapshot.append(Xb, yb)
                offset += batch
                # The pinned handle still scans the original generation.
                got_X, got_y = _scan(snapshot, io_workers, chunk_rows)
                assert got_X.shape == expected_X.shape
                assert np.array_equal(got_X, expected_X)
                assert np.array_equal(got_y, expected_y)

            # A refreshed handle sees everything committed so far.
            latest = session.open(spec)
            all_X, all_y = _rows(offset, cols, 0)
            got_X, got_y = _scan(latest, io_workers, chunk_rows)
            assert np.array_equal(got_X, all_X)
            assert np.array_equal(got_y, all_y)
            latest.close()
            snapshot.close()

    @given(params=append_scenario())
    @settings(max_examples=25, deadline=None)
    def test_mid_scan_appends_do_not_leak_into_reader(
        self, tmp_path_factory, params
    ):
        """Appends interleaved *between chunk fetches* of an in-flight scan
        never surface in that scan — the plan is bound to its generation."""
        seed_rows, cols, shard_rows, batches, codec, io_workers, chunk_rows = params
        tmp_path = tmp_path_factory.mktemp("append_prop_mid")
        spec = f"shard://{tmp_path / 'ds'}"
        X0, y0 = _rows(seed_rows, cols, 0)

        with Session() as session:
            session.create(spec, X0, y0, shard_rows=shard_rows, codec=codec)
            snapshot = session.open(spec)
            writer = session.open(spec)

            stream = open_chunk_stream(
                snapshot.matrix,
                labels=snapshot.labels,
                chunk_rows=chunk_rows,
                io_workers=io_workers,
            )
            parts = []
            offset = seed_rows
            pending = list(batches)
            with stream:
                for chunk in stream:
                    parts.append((np.array(chunk.X), np.array(chunk.y)))
                    release = getattr(chunk, "release", None)
                    if release is not None:
                        release()
                    # Deterministic interleaving: one append per chunk drained.
                    if pending:
                        batch = pending.pop(0)
                        Xb, yb = _rows(batch, cols, offset)
                        writer.append(Xb, yb)
                        offset += batch
            # Any batches left over (scan had fewer chunks) commit now.
            for batch in pending:
                Xb, yb = _rows(batch, cols, offset)
                writer.append(Xb, yb)
                offset += batch

            got_X = np.concatenate([p[0] for p in parts])
            got_y = np.concatenate([p[1] for p in parts])
            assert np.array_equal(got_X, X0)
            assert np.array_equal(got_y, y0)

            # The directory really did advance underneath the reader.
            assert manifest_generation(str(tmp_path / "ds")) == len(batches)

            latest = session.open(spec)
            all_X, all_y = _rows(offset, cols, 0)
            got_X, got_y = _scan(latest, io_workers, chunk_rows)
            assert np.array_equal(got_X, all_X)
            assert np.array_equal(got_y, all_y)
            latest.close()
            writer.close()
            snapshot.close()

    @given(params=append_scenario())
    @settings(max_examples=15, deadline=None)
    def test_every_generation_reopens_bit_identically(
        self, tmp_path_factory, params
    ):
        """After n appends, generations 0..n each reopen to exactly the prefix
        of rows committed at that generation."""
        seed_rows, cols, shard_rows, batches, codec, io_workers, chunk_rows = params
        tmp_path = tmp_path_factory.mktemp("append_prop_gen")
        spec = f"shard://{tmp_path / 'ds'}"
        X0, y0 = _rows(seed_rows, cols, 0)

        with Session() as session:
            session.create(spec, X0, y0, shard_rows=shard_rows, codec=codec)
            writer = session.open(spec)
            totals = [seed_rows]
            offset = seed_rows
            for batch in batches:
                Xb, yb = _rows(batch, cols, offset)
                writer.append(Xb, yb)
                offset += batch
                totals.append(offset)
            writer.close()

            for gen, total in enumerate(totals):
                with open_sharded_matrix(tmp_path / "ds", generation=gen) as matrix:
                    want_X, want_y = _rows(total, cols, 0)
                    stream = open_chunk_stream(
                        matrix,
                        labels=matrix.lazy_labels,
                        chunk_rows=chunk_rows,
                        io_workers=io_workers,
                    )
                    parts = []
                    with stream:
                        for chunk in stream:
                            parts.append((np.array(chunk.X), np.array(chunk.y)))
                            release = getattr(chunk, "release", None)
                            if release is not None:
                                release()
                    got_X = np.concatenate([p[0] for p in parts])
                    got_y = np.concatenate([p[1] for p in parts])
                    assert np.array_equal(got_X, want_X)
                    assert np.array_equal(got_y, want_y)
                    # The plan records which snapshot it was computed against.
                    plan = plan_chunks(matrix, chunk_rows=chunk_rows)
                    assert plan.generation == gen


@st.composite
def coded_tail_scenario(draw):
    geometry = {
        "codec": draw(st.sampled_from(["zlib", "none"])),
        "storage_dtype": draw(st.sampled_from([None, "float32"])),
        "block_rows": draw(st.integers(1, 5)),
    }
    seed_rows = draw(st.integers(1, 20))
    cols = draw(st.integers(1, 3))
    shard_rows = draw(st.integers(2, 12))
    # (rows, open a fresh appender first?) — batches up to 30 rows fill a
    # tail and spill into several new shards of at most 12.
    batches = draw(
        st.lists(st.tuples(st.integers(1, 30), st.booleans()), min_size=1, max_size=5)
    )
    return geometry, seed_rows, cols, shard_rows, batches


class TestCodedTailProperties:
    @given(params=coded_tail_scenario())
    @settings(max_examples=40, deadline=None)
    def test_every_shard_file_is_what_a_whole_write_produces(
        self, tmp_path_factory, params
    ):
        """The appender codes a block once and re-assembles files from kept
        payloads; a reader must not be able to tell.  After every commit —
        on a long-lived appender and on one that recovered the tail from
        disk — each shard file is byte-for-byte ``write_blocked_matrix`` of
        the rows it holds."""
        geometry, seed_rows, cols, shard_rows, batches = params
        tmp_path = tmp_path_factory.mktemp("coded_tail_prop")
        directory = tmp_path / "ds"
        rng = np.random.default_rng(seed_rows * 131 + cols)
        total = seed_rows + sum(rows for rows, _ in batches)
        X = rng.standard_normal((total, cols))
        y = rng.integers(0, 5, total).astype(np.int64)
        write_sharded_dataset(
            directory, X[:seed_rows], y[:seed_rows], shard_rows=shard_rows, **geometry
        )
        stored = X if geometry["storage_dtype"] is None else (
            X.astype(np.float32).astype(np.float64)
        )

        appender = ShardAppender(directory, shard_rows=shard_rows)
        committed = seed_rows
        for rows, fresh in batches:
            if fresh:
                appender = ShardAppender(directory, shard_rows=shard_rows)
            manifest = appender.append(
                X[committed : committed + rows], y[committed : committed + rows]
            )
            committed += rows
            assert manifest.rows == committed
            for shard in manifest.shards:
                reference = tmp_path / "reference.m3b"
                write_blocked_matrix(
                    reference,
                    X[shard.start_row : shard.stop_row],
                    y[shard.start_row : shard.stop_row],
                    **geometry,
                )
                assert (directory / shard.filename).read_bytes() == (
                    reference.read_bytes()
                ), f"{shard.filename} after {committed} rows"
            with open_sharded_matrix(directory) as matrix:
                assert np.array_equal(np.array(matrix[:]), stored[:committed])
                assert np.array_equal(matrix.read_labels(), y[:committed])
            assert verify_dataset(directory) == []
