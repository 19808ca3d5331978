"""The appendable-dataset stack: generations, the appender, and recovery.

Covers the storage-layer contract the live train→publish loop rests on:

* the generation protocol — ``manifest.<gen>.json`` + ``CURRENT`` committed
  atomically, the bare ``manifest.json`` left as generation 0;
* :class:`~repro.api.sharded.ShardAppender` — tail-shard growth, sealing at
  ``shard_rows``, tails re-assembled from coded blocks, each coded once, for
  raw (``none``) and zlib datasets alike;
* snapshot isolation — open handles and pinned generation opens serve
  exactly their generation's rows, bit-identical, no matter how many
  appends commit after them;
* crash recovery — orphan tail rows no generation references are dropped
  on the next append, and committed readers never see them; a corrupt tail
  block is refused, never copied forward.
"""

import math
import re
import threading

from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.chunks import matrix_generation, open_chunk_stream, plan_chunks
from repro.api.sharded import (
    CURRENT_NAME,
    MANIFEST_NAME,
    ShardAppender,
    generation_manifest_name,
    manifest_generation,
    open_sharded_matrix,
    read_manifest,
    verify_dataset,
    write_sharded_dataset,
)
from repro.api.storage import ShardedBackend
from repro.data.codecs import CODEC_REGISTRY, ZlibCodec, register_codec
from repro.data.formats_v2 import (
    ChecksumError,
    read_blocked_header,
    write_blocked_matrix,
)
from repro.faults import set_fault_plan

CODECS = [None, "zlib"]


def _make(rows: int, cols: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((rows, cols)),
        rng.integers(0, 3, rows).astype(np.int64),
    )


def _write(directory: Path, X, y, codec, shard_rows=10):
    write_sharded_dataset(directory, X, y, shard_rows=shard_rows, codec=codec)


def _read_all(matrix) -> np.ndarray:
    return np.array(matrix[:], copy=True)


class TestGenerationProtocol:
    @pytest.mark.parametrize("codec", CODECS)
    def test_static_dataset_is_generation_zero(self, tmp_path, codec):
        X, y = _make(12)
        _write(tmp_path / "ds", X, y, codec)
        assert manifest_generation(tmp_path / "ds") == 0
        assert not (tmp_path / "ds" / CURRENT_NAME).exists()
        with open_sharded_matrix(tmp_path / "ds") as matrix:
            assert matrix.generation == 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_append_commits_new_generation(self, tmp_path, codec):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, codec)
        static = (d / MANIFEST_NAME).read_bytes()
        X2, y2 = _make(7, seed=1)
        appender = ShardAppender(d)
        manifest = appender.append(X2, y2)
        assert manifest.generation == 1
        assert manifest.rows == 19
        assert manifest_generation(d) == 1
        # the committed generation file and the CURRENT pointer
        assert (d / generation_manifest_name(1)).is_file()
        assert (d / CURRENT_NAME).read_text().strip() == "1"
        assert read_manifest(d, generation=None).generation == 1
        # manifest.json stays generation 0, byte for byte, and no
        # manifest.0.json is written
        appender.append(*_make(3, seed=2))
        assert (d / MANIFEST_NAME).read_bytes() == static
        assert not (d / "manifest.0.json").exists()

    @pytest.mark.parametrize("codec", CODECS)
    def test_generation_zero_stays_pinnable_after_appends(self, tmp_path, codec):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, codec)
        ShardAppender(d).append(*_make(9, seed=3))
        with open_sharded_matrix(d, generation=0) as matrix:
            assert matrix.generation == 0
            np.testing.assert_array_equal(_read_all(matrix), X)

    @pytest.mark.parametrize("codec", CODECS)
    def test_directory_with_a_mirror_and_manifest_0_still_works(self, tmp_path, codec):
        # Older builds mirrored the latest generation in manifest.json and
        # kept generation 0 as manifest.0.json; write those two files as
        # they left them.
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, codec)
        (d / "manifest.0.json").write_bytes((d / MANIFEST_NAME).read_bytes())
        X2, y2 = _make(7, seed=1)
        ShardAppender(d).append(X2, y2)
        X3, y3 = _make(4, seed=2)
        ShardAppender(d).append(X3, y3)
        (d / MANIFEST_NAME).write_bytes((d / generation_manifest_name(2)).read_bytes())

        with open_sharded_matrix(d) as matrix:
            assert matrix.generation == 2
            np.testing.assert_array_equal(_read_all(matrix), np.concatenate([X, X2, X3]))
        with open_sharded_matrix(d, generation=0) as matrix:
            assert matrix.generation == 0
            np.testing.assert_array_equal(_read_all(matrix), X)
        X4, y4 = _make(5, seed=4)
        assert ShardAppender(d).append(X4, y4).generation == 3
        with open_sharded_matrix(d) as matrix:
            np.testing.assert_array_equal(
                _read_all(matrix), np.concatenate([X, X2, X3, X4])
            )
            np.testing.assert_array_equal(
                np.asarray(matrix.lazy_labels), np.concatenate([y, y2, y3, y4])
            )
        for generation in range(4):
            assert verify_dataset(d, generation=generation) == []

    def test_create_clears_stale_generation_state(self, tmp_path):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, None)
        ShardAppender(d).append(*_make(5, seed=2))
        assert manifest_generation(d) == 1
        # rewriting the dataset resets it to a static generation-0 layout
        _write(d, X, y, None)
        assert manifest_generation(d) == 0
        assert not (d / CURRENT_NAME).exists()
        assert not (d / "manifest.1.json").exists()

    def test_zero_row_append_commits_nothing(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(12), None)
        manifest = ShardAppender(d).append(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        assert manifest.generation == 0
        assert manifest_generation(d) == 0


class TestShardAppender:
    @pytest.mark.parametrize("codec", CODECS)
    def test_rows_append_bit_identical(self, tmp_path, codec):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, codec)
        X2, y2 = _make(25, seed=1)
        ShardAppender(d).append(X2, y2)
        with open_sharded_matrix(d) as matrix:
            assert matrix.shape == (37, 4)
            np.testing.assert_array_equal(_read_all(matrix)[:12], X)
            np.testing.assert_array_equal(_read_all(matrix)[12:], X2)
            labels = np.asarray(matrix.lazy_labels)
            np.testing.assert_array_equal(labels, np.concatenate([y, y2]))

    @pytest.mark.parametrize("codec", CODECS)
    def test_tail_seals_at_shard_rows(self, tmp_path, codec):
        d = tmp_path / "ds"
        _write(d, *_make(10), codec, shard_rows=10)  # one full, sealed shard
        manifest = ShardAppender(d).append(*_make(15, seed=1))
        sealed = [s for s in manifest.shards if s.sealed]
        assert [s.rows for s in sealed] == [10, 10]
        assert manifest.tail_shard is not None
        assert manifest.tail_shard.rows == 5
        # appending exactly up to the boundary seals the tail
        manifest = ShardAppender(d).append(*_make(5, seed=2))
        assert manifest.tail_shard is None
        assert all(s.sealed and s.rows == 10 for s in manifest.shards)

    @pytest.mark.parametrize("codec", CODECS)
    def test_consecutive_appends_extend_unsealed_tail(self, tmp_path, codec):
        d = tmp_path / "ds"
        _write(d, *_make(10), codec, shard_rows=10)
        parts = [_make(3, seed=s) for s in (1, 2, 3)]
        appender = ShardAppender(d)
        for X, y in parts:
            appender.append(X, y)
        with open_sharded_matrix(d) as matrix:
            got = _read_all(matrix)[10:]
        np.testing.assert_array_equal(got, np.vstack([X for X, _ in parts]))

    def test_appender_validates_shape(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(10), None)
        appender = ShardAppender(d)
        with pytest.raises(ValueError, match="shape"):
            appender.append(np.ones((3, 9)), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="label"):
            appender.append(np.ones((3, 4)), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("codec", CODECS)
    def test_append_to_an_empty_dataset(self, tmp_path, codec):
        # An empty dataset's one shard holds no rows to size new shards by.
        X, y = _make(2)

        def through_session(d):
            with Session() as session:
                session.open(f"shard://{d}").append(X, y)

        for name, append in (
            ("appender", lambda d: ShardAppender(d).append(X, y)),
            ("session", through_session),
        ):
            d = tmp_path / name
            _write(d, np.empty((0, 4)), np.empty(0, np.int64), codec)
            append(d)
            with open_sharded_matrix(d) as matrix:
                np.testing.assert_array_equal(_read_all(matrix), X)
                np.testing.assert_array_equal(matrix.lazy_labels[:], y)

    @pytest.mark.parametrize("codec", CODECS)
    def test_tail_does_not_alias_the_callers_rows(self, tmp_path, codec):
        # A raw tail keeps its full blocks uncopied between commits; they
        # must be the appender's rows, not views of the caller's array.
        d = tmp_path / "ds"
        write_sharded_dataset(d, *_make(4), shard_rows=20, codec=codec, block_rows=2)
        appender = ShardAppender(d, shard_rows=20)
        X2, y2 = _make(5, seed=1)
        expected = X2.copy()
        appender.append(X2, y2)
        X2[:] = -1.0
        X3, y3 = _make(3, seed=2)
        appender.append(X3, y3)
        with open_sharded_matrix(d) as matrix:
            np.testing.assert_array_equal(_read_all(matrix)[4:], np.vstack([expected, X3]))

    def test_unlabelled_dataset_appends_without_labels(self, tmp_path):
        d = tmp_path / "ds"
        X, _ = _make(10)
        write_sharded_dataset(d, X, None, shard_rows=8)
        manifest = ShardAppender(d).append(_make(6, seed=1)[0])
        assert manifest.rows == 16
        assert not manifest.has_labels


class TestSnapshotIsolation:
    @pytest.mark.parametrize("codec", CODECS)
    def test_open_handle_pins_its_generation(self, tmp_path, codec):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, codec)
        with open_sharded_matrix(d) as snapshot:
            before = _read_all(snapshot)
            for seed in (1, 2, 3):
                ShardAppender(d).append(*_make(8, seed=seed))
                assert snapshot.shape == (12, 4)
                np.testing.assert_array_equal(_read_all(snapshot), before)

    @pytest.mark.parametrize("codec", CODECS)
    def test_every_generation_reopens_bit_identical(self, tmp_path, codec):
        d = tmp_path / "ds"
        _write(d, *_make(12), codec)
        expected = {}
        with open_sharded_matrix(d) as m:
            expected[0] = _read_all(m)
        for gen, seed in ((1, 5), (2, 6), (3, 7)):
            ShardAppender(d).append(*_make(9, seed=seed))
            with open_sharded_matrix(d) as m:
                expected[gen] = _read_all(m)
        for gen, want in expected.items():
            with open_sharded_matrix(d, generation=gen) as m:
                assert m.generation == gen
                np.testing.assert_array_equal(_read_all(m), want)

    def test_plan_binds_to_generation(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(12), None)
        with open_sharded_matrix(d) as old:
            plan = plan_chunks(old, chunk_rows=5)
            assert plan.generation == 0
            assert matrix_generation(old) == 0
        ShardAppender(d).append(*_make(8, seed=1))
        with open_sharded_matrix(d) as fresh:
            with pytest.raises(ValueError, match="generation"):
                open_chunk_stream(fresh, plan=plan)
        # ... but the old snapshot still streams the old plan
        with open_sharded_matrix(d, generation=0) as pinned:
            chunks = list(open_chunk_stream(pinned, plan=plan, prefetch=False))
            assert sum(c.rows for c in chunks) == 12

    def test_row_range_plan_covers_exactly_the_delta(self, tmp_path):
        d = tmp_path / "ds"
        X, y = _make(12)
        _write(d, X, y, None)
        X2, y2 = _make(8, seed=1)
        ShardAppender(d).append(X2, y2)
        with open_sharded_matrix(d) as m:
            plan = plan_chunks(m, chunk_rows=3, row_range=(12, 20))
            assert plan.bounds[0][0] == 12 and plan.bounds[-1][1] == 20
            got = [np.array(c.X, copy=True) for c in open_chunk_stream(m, plan=plan, prefetch=False)]
        np.testing.assert_array_equal(np.vstack(got), X2)

    def test_row_range_validates_bounds(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(12), None)
        with open_sharded_matrix(d) as m:
            with pytest.raises(ValueError, match="row_range"):
                plan_chunks(m, row_range=(5, 99))


class TestCrashRecovery:
    def test_recovery_reloads_v2_tail_blocks(self, tmp_path):
        d = tmp_path / "ds"
        write_sharded_dataset(d, *_make(12), shard_rows=10, codec="zlib", block_rows=3)
        X2, y2 = _make(4, seed=1)
        ShardAppender(d).append(X2, y2)
        # a fresh appender (e.g. after a restart) must take the committed
        # tail back from the file — its full block as stored, the rows of
        # its short block decoded — so the next commit preserves them
        X3, y3 = _make(3, seed=2)
        ShardAppender(d).append(X3, y3)
        with open_sharded_matrix(d) as matrix:
            got = _read_all(matrix)
        np.testing.assert_array_equal(got[12:16], X2)
        np.testing.assert_array_equal(got[16:], X3)

    @pytest.mark.parametrize("codec", ["zlib", "none"])
    def test_v2_tail_file_ahead_of_manifest_drops_orphan_rows(self, tmp_path, codec):
        d = tmp_path / "ds"
        geometry = dict(codec=codec, block_rows=4)
        write_sharded_dataset(d, *_make(10), shard_rows=10, **geometry)
        X2, y2 = _make(6, seed=1)      # one full block + a 2-row short block
        tail = ShardAppender(d, shard_rows=20).append(X2, y2).tail_shard
        # crash right after the tail file was renamed into place: its 5 new
        # rows completed the committed short block and started another,
        # but no manifest ever counted them
        set_fault_plan("append.post_rename")
        try:
            with pytest.raises(OSError):
                ShardAppender(d, shard_rows=20).append(*_make(5, seed=2))
        finally:
            set_fault_plan(None)
        assert read_blocked_header(d / tail.filename).rows == 11
        assert read_manifest(d).rows == 16
        # a committed-generation reader (mapped, for ``none``) never sees them
        with open_sharded_matrix(d) as matrix:
            np.testing.assert_array_equal(_read_all(matrix)[10:], X2)
            np.testing.assert_array_equal(matrix.lazy_labels[10:], y2)
        X3, y3 = _make(3, seed=3)
        manifest = ShardAppender(d, shard_rows=20).append(X3, y3)
        assert manifest.rows == 19 and manifest.tail_shard.rows == 9
        write_blocked_matrix(
            tmp_path / "reference.m3b",
            np.concatenate([X2, X3]), np.concatenate([y2, y3]), **geometry,
        )
        assert (d / tail.filename).read_bytes() == (
            tmp_path / "reference.m3b"
        ).read_bytes()
        assert verify_dataset(d) == []

    @pytest.mark.parametrize("block", [0, 1], ids=["kept-as-stored", "decoded-short"])
    def test_corrupt_v2_tail_block_refuses_the_appender(self, tmp_path, block):
        d = tmp_path / "ds"
        write_sharded_dataset(d, *_make(10), shard_rows=10, codec="zlib", block_rows=4)
        tail = ShardAppender(d).append(*_make(6, seed=1)).tail_shard
        path = d / tail.filename
        offset = read_blocked_header(path).blocks[block].segments[0][0]
        raw = bytearray(path.read_bytes())
        raw[offset + 2] ^= 0x40
        path.write_bytes(bytes(raw))
        # either block would be copied, not re-coded: its CRC is checked
        # all the same, and the error names the file and the block
        with pytest.raises(
            ChecksumError, match=re.escape(tail.filename) + rf": block {block} "
        ):
            ShardAppender(d)
        assert path.read_bytes() == bytes(raw)


class _CountingZlib(ZlibCodec):
    """Real zlib counting its ``encode`` calls, which run on encode workers:
    the increment takes a lock so the exact-count asserts stay exact."""

    name = "counting-zlib"

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.encodes = 0

    def encode(self, data):
        with self._lock:
            self.encodes += 1
        return super().encode(data)


@pytest.fixture()
def counting_codec():
    codec = register_codec(_CountingZlib())
    try:
        yield codec
    finally:
        del CODEC_REGISTRY[codec.name]


class TestEncodeOncePerBlock:
    """Codec calls per commit follow the batch, never the rows already in
    the tail: blocks the batch filled + the short block + the labels."""

    BLOCK, BATCH, SHARD = 4, 10, 200

    def _commit(self, appender, codec, tail_rows, seed):
        before = codec.encodes
        appender.append(*_make(self.BATCH, seed=seed))
        grown = tail_rows + self.BATCH
        filled = grown // self.BLOCK - tail_rows // self.BLOCK
        assert codec.encodes - before == filled + (grown % self.BLOCK > 0) + 1
        assert codec.encodes - before <= math.ceil(self.BATCH / self.BLOCK) + 2

    def test_commit_encodes_the_batch_not_the_tail(self, tmp_path, counting_codec):
        d = tmp_path / "ds"
        write_sharded_dataset(
            d, *_make(self.SHARD), shard_rows=self.SHARD,
            codec=counting_codec.name, block_rows=self.BLOCK,
        )
        appender = ShardAppender(d, shard_rows=self.SHARD)
        # every commit from an empty tail to the one that seals it
        for index, tail_rows in enumerate(range(0, self.SHARD, self.BATCH)):
            self._commit(appender, counting_codec, tail_rows, seed=index)
        assert appender.manifest.tail_shard is None

    def test_first_append_of_a_fresh_appender_over_a_nearly_full_tail(
        self, tmp_path, counting_codec
    ):
        d = tmp_path / "ds"
        write_sharded_dataset(
            d, *_make(self.SHARD), shard_rows=self.SHARD,
            codec=counting_codec.name, block_rows=self.BLOCK,
        )
        nearly_full = self.SHARD - self.BATCH - 2
        ShardAppender(d, shard_rows=self.SHARD).append(*_make(nearly_full, seed=1))
        # construction recovers the tail without coding anything …
        before = counting_codec.encodes
        appender = ShardAppender(d, shard_rows=self.SHARD)
        assert counting_codec.encodes == before
        # … and its first commit costs what any other commit costs
        self._commit(appender, counting_codec, nearly_full, seed=2)
        assert verify_dataset(d) == []

    def test_sealing_a_recovered_tail_as_is_codes_only_its_labels(
        self, tmp_path, counting_codec
    ):
        d = tmp_path / "ds"
        geometry = dict(codec=counting_codec.name, block_rows=self.BLOCK)
        write_sharded_dataset(d, *_make(self.SHARD), shard_rows=self.SHARD, **geometry)
        X2, y2 = _make(3 * self.BLOCK + 2, seed=1)   # tail: 3 blocks + a short one
        tail = ShardAppender(d, shard_rows=self.SHARD).append(X2, y2).tail_shard
        # shard_rows shrank to the tail's height: the next commit seals the
        # tail as it stands, every block — the short one too — as stored
        appender = ShardAppender(d, shard_rows=tail.rows)
        before = counting_codec.encodes
        appender.append(*_make(1, seed=2))
        # the sealed tail's labels, then the new tail's short block + labels
        assert counting_codec.encodes - before == 1 + 2
        write_blocked_matrix(tmp_path / "reference.m3b", X2, y2, **geometry)
        assert (d / tail.filename).read_bytes() == (
            tmp_path / "reference.m3b"
        ).read_bytes()
        assert verify_dataset(d) == []


class TestSessionIntegration:
    @pytest.mark.parametrize("codec", CODECS)
    def test_dataset_append_and_refresh(self, tmp_path, codec):
        X, y = _make(30)
        with Session() as session:
            opts = {"shard_rows": 10}
            if codec:
                opts["codec"] = codec
            spec = session.create(f"shard://{tmp_path / 'ds'}", X, y, **opts)
            snap = session.open(spec)
            assert snap.generation == 0
            X2, y2 = _make(12, seed=1)
            assert snap.append(X2, y2) == 1
            # the appending handle still serves its own snapshot
            assert snap.shape == (30, 4)
            np.testing.assert_array_equal(np.asarray(snap.matrix[:]), X)
            fresh = session.refresh(snap)
            assert fresh.generation == 1
            assert fresh.shape == (42, 4)
            np.testing.assert_array_equal(np.asarray(fresh.matrix[30:]), X2)
            # refresh with close_previous closes the stale handle
            final = session.refresh(fresh, close_previous=True)
            assert fresh.closed
            final.close()
            snap.close()

    def test_each_open_reports_the_generation_it_read(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(12), None)
        with Session() as session:
            static = session.open(f"shard://{d}")
            ShardAppender(d).append(*_make(5, seed=1))
            first = session.open(f"shard://{d}")
            ShardAppender(d).append(*_make(5, seed=2))
            second = session.open(f"shard://{d}")
            assert (static.generation, first.generation, second.generation) == (0, 1, 2)
            assert (static.shape[0], first.shape[0], second.shape[0]) == (12, 17, 22)

    def test_memory_backend_rejects_append(self):
        with Session() as session:
            dataset = session.from_arrays(np.ones((4, 2)), name="static")
            with pytest.raises(TypeError, match="append"):
                dataset.append(np.ones((1, 2)))

    def test_info_reports_generation_and_tail(self, tmp_path):
        d = tmp_path / "ds"
        _write(d, *_make(12), None, shard_rows=10)
        backend = ShardedBackend()
        assert "generation" not in backend.info(str(d))  # static dataset
        ShardAppender(d).append(*_make(4, seed=1))
        info = backend.info(str(d))
        assert info["generation"] == 1
        assert info["committed_rows"] == 16
        assert info["tail_shard"] == "shard-00002.m3b"
        assert info["tail_rows"] == 4
        assert info["tail_sealed"] is False
