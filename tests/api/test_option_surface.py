"""The settable surface of the scan path, pinned.

A scan is configured in one place — the ``StreamingEngine`` constructor — and
predicted through one body — ``StreamingPredictor.predict_streaming``.  The
parameter sets below are what traffic sets or takes today (the CLI, the e2e
workloads and their probes); a new option is a reviewed diff of this file,
with the measurement that justifies it.
"""

import inspect

import pytest

import repro.core
from repro.api import ChunkStream, Session, StreamingEngine, open_chunk_stream, plan_chunks
from repro.api.sharded import CompressedShardedMatrix, ShardedMatrix
from repro.data.formats_v2 import BlockedMatrixReader, BlockPayload
from repro.ml.base import StreamingPredictor


def parameters(function) -> tuple:
    return tuple(name for name in inspect.signature(function).parameters if name != "self")


@pytest.mark.parametrize(
    "function, expected",
    [
        (Session.fit, ("model", "dataset", "y", "engine")),
        (Session.predict, ("dataset", "model", "method", "engine")),
        (
            StreamingEngine.__init__,
            ("chunk_rows", "io_workers", "compute_workers", "hints", "release_behind"),
        ),
        (plan_chunks, ("matrix", "chunk_rows", "align_shards", "row_range")),
        (
            # prefetch= and decode_workers= are set by benchmarks/e2e/probes.py:
            # they can only move after a benchmark PR re-points the probes.
            open_chunk_stream,
            ("matrix", "labels", "chunk_rows", "align_shards", "prefetch", "plan",
             "io_workers", "buffer_pool", "hints", "release_behind", "decode_workers",
             "stall_timeout_s"),
        ),
        (BlockedMatrixReader.fetch_block, ("index",)),
        (
            StreamingPredictor.predict_streaming,
            ("chunks", "n_rows", "method", "workers", "out"),
        ),
    ],
    ids=lambda value: getattr(value, "__qualname__", None),
)
def test_parameter_set(function, expected):
    assert parameters(function) == expected


@pytest.mark.parametrize(
    "owner, name",
    [
        (StreamingEngine, "with_options"),
        (StreamingEngine, "with_chunk_rows"),
        (Session, "_streaming_overrides"),
        (StreamingPredictor, "predict_streaming_parallel"),
        (ChunkStream, "blocks"),
        (ShardedMatrix, "iter_shard_chunks"),
        (CompressedShardedMatrix, "iter_shard_chunks"),
        (CompressedShardedMatrix, "read_columns"),
        (BlockedMatrixReader, "read_columns"),
        (repro.core, "M3"),
        (repro, "M3"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_duplicate_path_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_block_payload_carries_no_projection():
    assert list(BlockPayload.__dataclass_fields__) == ["index", "payloads", "compressed_bytes"]


def test_session_takes_no_pipeline_option():
    # The passthrough is gone, not renamed: a pipeline keyword is a TypeError
    # at the call, whatever the engine.
    with Session() as session:
        for call in (session.fit, session.predict):
            for option in ("chunk_rows", "io_workers", "compute_workers"):
                with pytest.raises(TypeError, match=option):
                    call(None, None, engine="streaming", **{option: 2})
