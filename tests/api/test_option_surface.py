"""The settable surface of the scan path and of the request path, pinned.

A scan is configured in one place — the ``StreamingEngine`` constructor — and
predicted through one body — ``StreamingPredictor.predict_streaming``.  A
request is framed, ordered and backpressured in one place — ``NetServer`` over
``ModelServer``, configured by their constructors — and ``m3 serve`` /
``m3 served`` are two transports of that one stack.  The parameter and flag
sets below are what traffic sets or takes today (the CLI, the e2e workloads
and their probes); a new option is a reviewed diff of this file, with the
measurement that justifies it.
"""

import argparse
import inspect

import pytest

import repro.cli
import repro.core
from repro.api import ChunkStream, Session, StreamingEngine, open_chunk_stream, plan_chunks
from repro.api.engines import ExecutionEngine
from repro.api.sharded import CompressedShardedMatrix, ShardedMatrix
from repro.data.formats_v2 import BlockedMatrixReader, BlockPayload
from repro.ml.base import StreamingPredictor
from repro.net import NetServer
from repro.serve import ModelServer, Trainer
from repro.vmem.advisor import advise_block_layout


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
        (
            ModelServer.__init__,
            ("registry", "max_batch", "max_delay_ms", "workers", "max_pending",
             "delay_controller"),
        ),
        (
            NetServer.__init__,
            ("server", "host", "port", "default_method", "max_inflight",
             "max_request_bytes", "drain_timeout_s"),
        ),
        (
            Session.serve,
            ("model_or_path", "name", "max_batch", "max_delay_ms", "workers",
             "max_pending", "registry"),
        ),
        (
            Trainer.__init__,
            ("dataset", "model", "registry", "name", "session", "poll_s", "classes"),
        ),
        (
            advise_block_layout,
            ("rows", "cols", "itemsize", "chunk_rows", "cache_bytes",
             "block_rows_candidates", "page_size"),
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
        (ExecutionEngine, "serve_batch"),
        (ModelServer, "session"),
        (repro.cli, "_predict_via_server"),
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


_DAEMON_FLAGS = {"--model", "--max-batch", "--max-delay-ms", "--workers", "--max-pending",
                 "--proba"}


@pytest.mark.parametrize(
    "command, expected",
    [
        ("serve", _DAEMON_FLAGS | {"--input", "--output"}),
        (
            "served",
            _DAEMON_FLAGS | {"--host", "--port", "--adaptive-delay", "--adaptive-ceiling-ms",
                             "--max-inflight"},
        ),
        (
            "predict",
            {"--model", "--connect", "--engine", "--chunk-rows", "--io-workers",
             "--compute-workers", "--proba", "--output"},
        ),
        (
            "traind",
            {"--model", "--algorithm", "--clusters", "--name", "--poll", "--once",
             "--trained-rows", "--save-model"},
        ),
        (
            "convert",
            {"--codec", "--block-rows", "--dtype", "--layout", "--shard-rows", "--chunk-rows",
             "--auto-block", "--scan-chunk-rows", "--cache-mb"},
        ),
    ],
)
def test_flag_set(command, expected):
    subparsers = next(
        action for action in repro.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        option
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
    }
    assert flags - {"-h", "--help"} == expected


def test_serve_and_served_build_one_stack():
    # Same builder, same arguments: serve's parser fills in what it has no
    # flag for, so _serving_stack never asks which command it serves.
    parser = repro.cli.build_parser()
    serve = vars(parser.parse_args(["serve", "--model", "m.json"]))
    served = vars(parser.parse_args(["served", "--model", "m.json"]))
    for namespace in (serve, served):
        del namespace["func"], namespace["command"]
    assert {key: serve[key] for key in served} == served
    assert set(serve) - set(served) == {"input", "output"}


def test_serve_command_holds_no_request_loop():
    # Framing, submission and in-order answering live in repro.net.server only.
    body = inspect.getsource(repro.cli._cmd_serve)
    for needle in ("parse_request", "submit", "deque", "error_record", "response_record"):
        assert needle not in body
