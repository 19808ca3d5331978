"""The settable surface of the scan path and of the request path, pinned.

A scan is configured in one place — the ``StreamingEngine`` constructor — and
predicted through one body — ``StreamingPredictor.predict_streaming``.  A
request is framed, ordered and backpressured in one place — ``NetServer`` over
``ModelServer``, configured by their constructors — and ``m3 serve`` /
``m3 served`` are two transports of that one stack.  Every v2 write — create,
convert, append — codes its blocks through one ``encode_blocks`` fan-out whose
worker count nothing sets.  The paper's results are
regenerated by one command — ``m3 reproduce``, no flags — over one
``M3RuntimeModel``.  Training and inference run on one ML stack, behind two
fixed engines (``local``, ``streaming``); replaying a recorded trace is
``repro.vmem``'s, not an engine's.  Datasets open one
way — ``Session.open`` — with no config object behind its defaults, and the
estimator surface holds what non-test code calls.  The parameter and
flag sets below are what traffic sets or takes today (the CLI, the e2e
workloads and their probes, the CI drive of every subcommand); a new option
is a reviewed diff of this file, with the measurement that justifies it.
"""

import argparse
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.api.chunks
import repro.api.engines
import repro.api.storage
import repro.cli
import repro.core
import repro.core.allocator
import repro.data
import repro.data.formats
import repro.data.writers
import repro.distributed
import repro.ml
import repro.ml.metrics
import repro.ml.optim
import repro.ml.optim.line_search
from repro.api import (
    ChunkStream,
    MmapBackend,
    Session,
    ShardedBackend,
    StreamingEngine,
    open_chunk_stream,
    plan_chunks,
)
from repro.core import MmapMatrix
from repro.api.chunks import BufferLease, Chunk
from repro.api.dataset import Dataset
from repro.api.engines import ENGINE_REGISTRY, ExecutionEngine, FitResult, PredictResult
from repro.api.convert import convert_dataset
from repro.api.sharded import (
    ShardAppender,
    ShardedMatrix,
    open_sharded_matrix,
    write_sharded_dataset,
    write_streamed_dataset,
)
from repro.bench.figure1a import run_figure1a
from repro.bench.figure1b import run_figure1b
from repro.bench.m3_model import M3RuntimeModel
from repro.bench.reproduce import reproduce
from repro.data.codecs import Codec
from repro.data.formats import open_binary_matrix
from repro.data.writers import write_infimnist_dataset
from repro.data.formats_v2 import (
    BlockedMatrixReader,
    BlockedMatrixWriter,
    BlockPayload,
    encode_block,
    encode_blocks,
    write_blocked_matrix,
)
from repro.ml.base import StreamingPredictor
from repro.ml.optim import DifferentiableObjective
from repro.net import NetClient, NetServer, protocol
from repro.serve import ModelServer, Trainer
from repro.vmem.disk import DiskModel
from repro.vmem.page_cache import PageCacheConfig
from repro.vmem.vm_simulator import VirtualMemoryConfig


def parameters(function) -> tuple:
    return tuple(name for name in inspect.signature(function).parameters if name != "self")


@pytest.mark.parametrize(
    "function, expected",
    [
        # engine= is what the CLI sets; handle_pool_size= stays only for
        # benchmarks/e2e/probes.py, which passes 0, the one value it takes
        # (test_session_pools_no_handles).  There is no config object.
        (Session.__init__, ("engine", "handle_pool_size", "faults")),
        # Every stored dataset is read-only and checksummed: no open takes
        # a mode, and mapped shards are advised sequential at open, always.
        (Session.open, ("spec", "record_trace")),
        (ShardedBackend.open, ("location",)),
        (ShardedBackend.open_from, ("location", "previous")),
        (Dataset.__init__, ("handle", "spec", "backend", "record_trace", "on_close")),
        (MmapMatrix.__init__, ("backing", "source_path", "trace", "data_offset")),
        # mmap:// is one raw shard: its create takes no option.
        (MmapBackend.create, ("location", "data", "labels", "options")),
        # Dataset.append passes trace= only.
        # One sharded reader, read-only, its block cache sized by a constant.
        (ShardedMatrix.__init__, ("directory", "generation")),
        (open_sharded_matrix, ("directory", "generation")),
        (ShardedBackend.append, ("location", "data", "labels", "trace")),
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
        # The write path: encode parallelism is no parameter of any of these.
        (
            BlockedMatrixWriter.__init__,
            ("path", "cols", "block_rows", "codec", "dtype", "storage_dtype"),
        ),
        (
            write_blocked_matrix,
            ("path", "data", "labels", "block_rows", "codec", "storage_dtype"),
        ),
        (
            write_sharded_dataset,
            ("directory", "data", "labels", "shard_rows", "codec", "block_rows",
             "storage_dtype"),
        ),
        (
            convert_dataset,
            ("source", "destination", "codec", "block_rows", "storage_dtype",
             "shard_rows"),
        ),
        (write_infimnist_dataset, ("path", "num_examples", "target_bytes", "seed")),
        (
            write_streamed_dataset,
            ("directory", "bands", "cols", "dtype", "has_labels", "shard_rows", "codec",
             "block_rows", "storage_dtype"),
        ),
        (open_binary_matrix, ("path",)),
        (ShardAppender.__init__, ("directory", "shard_rows", "trace")),
        (encode_block, ("rows", "codec", "storage_dtype")),
        (encode_blocks, ("blocks", "codec", "storage_dtype")),
        (Codec.encode, ("data",)),
        (
            StreamingPredictor.predict_streaming,
            ("chunks", "n_rows", "method", "workers", "out"),
        ),
        (
            # One dispatcher thread: no workers=.
            ModelServer.__init__,
            ("registry", "max_batch", "max_delay_ms", "max_pending", "delay_controller"),
        ),
        (
            NetServer.__init__,
            ("server", "host", "port", "max_inflight", "max_request_bytes",
             "drain_timeout_s"),
        ),
        (protocol.parse_request, ("payload",)),
        (protocol.parse_request_line, ("line",)),
        (protocol.parse_raw_rows_head, ("line",)),
        (NetClient.__init__, ("host", "port", "http", "timeout_s")),
        (
            Session.serve,
            ("model_or_path", "name", "max_batch", "max_delay_ms", "max_pending",
             "registry"),
        ),
        (
            Trainer.__init__,
            ("dataset", "model", "registry", "name", "session", "classes"),
        ),
        # reproduce() takes a subset of what its two model-driven builders take.
        (reproduce, ("sizes_gb", "model", "lr_workload", "kmeans_workload")),
        (run_figure1a, ("sizes_gb", "model", "workload")),
        (run_figure1b, ("dataset_gb", "m3_model", "lr_workload", "kmeans_workload")),
        (M3RuntimeModel.__init__, ("ram_bytes", "disk_profile", "page_size", "chunk_rows")),
        (
            VirtualMemoryConfig.__init__,
            ("ram_bytes", "page_size", "readahead", "disk_profile", "sample_interval_s"),
        ),
        (PageCacheConfig.__init__, ("ram_bytes", "page_size", "readahead", "disk_profile")),
        (DiskModel.__init__, ("profile",)),
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
        (ShardedMatrix, "read_columns"),
        (BlockedMatrixReader, "read_columns"),
        # One sharded reader: its manifest decides mapped or decoded, and
        # holds its codec, geometry and storage dtype.
        (ShardedMatrix, "codec"),
        (ShardedMatrix, "block_rows"),
        (ShardedMatrix, "layout"),
        (ShardedMatrix, "storage_dtype"),
        (ShardedMatrix, "payload_bytes_read"),
        (repro.core, "M3"),
        (repro, "M3"),
        (ExecutionEngine, "serve_batch"),
        (ModelServer, "session"),
        (repro.cli, "_predict_via_server"),
        (repro.cli, "_cmd_figure1a"),
        (repro.cli, "_cmd_figure1b"),
        (repro.cli, "_cmd_table1"),
        (repro.cli, "_cmd_utilization"),
        (repro.vmem, "make_policy"),
        (repro.vmem, "ClockPolicy"),
        (repro.vmem, "FifoPolicy"),
        (repro.bench, "run_utilization_experiment"),
        (repro.bench, "run_cluster_scaling"),
        (repro.bench, "run_raid_ablation"),
        (repro.bench, "rows_to_dicts"),
        (repro.profiling, "PerformancePredictor"),
        (repro.profiling, "EnergyModel"),
        (repro.profiling, "Stopwatch"),
        (repro.profiling, "UtilizationReport"),
        # One ML stack: the in-process mini-Spark and its engine are gone;
        # repro.distributed holds only the paper-scale Spark cost model.
        (repro.api, "DistributedEngine"),
        (repro.api.engines, "DistributedEngine"),
        (repro.api, "register_engine"),
        (repro.api.engines, "register_engine"),
        (repro.distributed, "RDD"),
        (repro.distributed, "JobScheduler"),
        (repro.distributed, "Executor"),
        (repro.distributed, "DistributedLogisticRegression"),
        (repro.distributed, "DistributedKMeans"),
        # One way to open a dataset (Session.open), one chunk-plan type
        # (repro.api.ChunkPlan), and no name only tests reached.
        (repro, "M3Config"),
        (repro, "create_dataset"),
        (repro, "open_dataset"),
        (repro, "load_matrix"),
        (repro.core, "M3Config"),
        (repro.core, "create_dataset"),
        (repro.core, "open_dataset"),
        (repro.core, "load_matrix"),
        (repro.core, "ChunkPlan"),
        (repro.core, "plan_chunks"),
        (repro.core, "iter_chunks"),
        (repro.core, "mmap_free"),
        (repro.core.allocator, "mmap_free"),
        (Session, "release"),
        (repro.data, "load_csv_matrix"),
        (repro.data, "save_csv_matrix"),
        (repro.data, "load_libsvm"),
        (repro.data, "save_libsvm"),
        (repro.data, "DatasetCatalog"),
        (repro.data, "DatasetEntry"),
        (repro.data, "IMAGE_SHAPE"),
        (repro.ml, "GradientDescent"),
        (repro.ml, "SGD"),
        (repro.ml.optim, "GradientDescent"),
        (repro.ml.optim, "SGD"),
        (repro.ml.optim, "backtracking_line_search"),
        (repro.ml.optim.line_search, "backtracking_line_search"),
        (DifferentiableObjective, "num_examples"),
        (repro.ml.metrics, "log_loss"),
        (repro.ml.metrics, "mean_squared_error"),
        (repro.ml.metrics, "r2_score"),
        (repro.ml.metrics, "confusion_matrix"),
        (repro.ml.metrics, "inertia"),
        (repro.api, "register_backend"),
        (repro.api.storage, "register_backend"),
        # Two engines: paper-scale replay is VirtualMemorySimulator.run_trace
        # over any engine's recorded trace.
        (repro.api, "SimulatedEngine"),
        (repro.api.engines, "SimulatedEngine"),
        (FitResult, "simulation"),
        (PredictResult, "simulation"),
        (Dataset, "start_trace"),
        (Dataset, "stop_trace"),
        (MmapMatrix, "attach_trace"),
        # One stored form: the v1 file is read only by m3 convert, storage
        # is read-only, and the one hint path is ReadaheadHinter's.
        (repro.core, "AccessAdvice"),
        (MmapMatrix, "set_advice"),
        (MmapMatrix, "advice"),
        (Dataset, "flush"),
        (Dataset, "__setitem__"),
        (repro.data, "OutOfCoreWriter"),
        (repro.data, "write_binary_matrix"),
        (repro.data, "create_binary_matrix"),
        (repro.data.formats, "write_binary_matrix"),
        (repro.data.formats, "create_binary_matrix"),
        (repro.data.writers, "OutOfCoreWriter"),
        (repro.cli, "_verify_dataset_files"),
        # Concurrency only where threads share work: a lease has one
        # releaser, and a reader count is at least one, never sized from
        # st_dev topology.
        (BufferLease, "retain"),
        (BufferLease, "refs"),
        (Chunk, "retain"),
        (repro.api, "shard_devices"),
        (repro.api.chunks, "shard_devices"),
        (ChunkStream, "_default_io_workers"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_duplicate_path_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_two_fixed_engines():
    assert set(ENGINE_REGISTRY) == {"local", "streaming"}


@pytest.mark.parametrize("module", ["rdd", "executor", "scheduler", "mllib"])
def test_mini_spark_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.distributed.{module}")


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.m3",
        "repro.core.config",
        "repro.core.chunking",
        "repro.data.loaders",
        "repro.data.catalog",
        "repro.ml.optim.gradient_descent",
        "repro.ml.optim.sgd",
        "repro.vmem.advisor",
        "repro.vmem.locality",
        "repro.core.advice",
    ],
)
def test_tests_only_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_session_open_defaults():
    # No trace: Session.open's one default, with no config object behind it.
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(Session.open).parameters.items()
        if name not in ("self", "spec")
    }
    assert defaults == {"record_trace": False}
    with Session() as session:
        assert not hasattr(session, "config")


def test_session_pools_no_handles():
    assert inspect.signature(Session).parameters["handle_pool_size"].default == 0
    Session(handle_pool_size=0).close()
    for size in (1, 8, -1):
        with pytest.raises(ValueError, match="handle_pool_size"):
            Session(handle_pool_size=size)


@pytest.mark.parametrize("option", ["block_rows", "storage_dtype", "layout"])
def test_sharded_create_takes_what_its_callers_set(tmp_path, option):
    # Session.create on shard:// takes shard_rows= and codec= (what the e2e
    # workloads set); block geometry and storage dtype belong to
    # write_sharded_dataset / m3 convert, and no writer takes a layout.
    with Session() as session, pytest.raises(TypeError, match=option):
        session.create(f"shard://{tmp_path}/x", np.zeros((4, 2)), **{option: 2})


def test_sharded_backend_takes_no_constructor_option():
    # make_backend builds every backend with no arguments.
    assert "__init__" not in vars(ShardedBackend)
    assert parameters(ShardedBackend) == ()


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


def _subparsers():
    return next(
        action for action in repro.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


_DAEMON_FLAGS = {"--model", "--max-batch", "--max-delay-ms", "--max-pending"}

#: Every subcommand's flags, 45 in all.  Each one has a passer outside tests/:
#: the "CLI surface" step of .github/workflows/ci.yml sets it
#: (test_ci_passes_every_flag).
FLAGS = {
    "generate": {"--examples", "--seed"},
    "info": {"--verify"},
    "convert": {"--codec", "--dtype"},
    "train": {"--algorithm", "--engine", "--iterations", "--clusters", "--chunk-rows",
              "--io-workers", "--compute-workers", "--save-model"},
    "predict": {"--model", "--connect", "--engine", "--chunk-rows", "--io-workers",
                "--compute-workers", "--proba", "--output"},
    "serve": _DAEMON_FLAGS | {"--input", "--output"},
    "served": _DAEMON_FLAGS | {"--host", "--port", "--adaptive-delay", "--adaptive-ceiling-ms",
                               "--max-inflight"},
    "traind": {"--model", "--algorithm", "--clusters", "--name", "--once", "--trained-rows",
               "--save-model"},
    "reproduce": set(),
    "lint": {"--select", "--format"},
}


@pytest.mark.parametrize("command, expected", sorted(FLAGS.items()))
def test_flag_set(command, expected):
    subparsers = _subparsers()
    flags = {
        option
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
    }
    assert flags - {"-h", "--help"} == expected


def test_every_subcommand_is_censused():
    assert set(FLAGS) == set(_subparsers().choices)
    assert sum(len(flags) for flags in FLAGS.values()) == 45


def _ci_passed_flags():
    """``{subcommand: every word its invocations pass}`` in CI's CLI surface step."""
    workflow = Path(repro.__file__).parents[2] / ".github" / "workflows" / "ci.yml"
    step = workflow.read_text().split("- name: CLI surface\n", 1)[1].split("- name:", 1)[0]
    passed = {}
    for line in step.replace("\\\n", " ").splitlines():
        words = line.split()
        for index in range(len(words) - 1):
            if words[index] in ("m3", "repro") and words[index + 1] in FLAGS:
                passed.setdefault(words[index + 1], set()).update(words[index + 2:])
    return passed


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_ci_passes_every_flag(command):
    # No flag without a passer: the CLI surface step sets each one.
    missing = FLAGS[command] - _ci_passed_flags().get(command, set())
    assert not missing, f"no CI step passes m3 {command} {sorted(missing)}"


@pytest.mark.parametrize("command", ["train", "predict"])
def test_engine_choices(command):
    parser = _subparsers().choices[command]
    engine = next(a for a in parser._actions if "--engine" in a.option_strings)
    assert engine.choices == ["local", "streaming"]


def test_convert_names_each_output_once():
    # 'none' wrote the same mapped raw shards as 'raw'; only 'raw' is left.
    convert = _subparsers().choices["convert"]
    codec = next(a for a in convert._actions if "--codec" in a.option_strings)
    assert codec.choices == ["zlib", "raw"]


def test_one_command_regenerates_the_paper():
    assert not {"figure1a", "figure1b", "table1", "utilization"} & set(_subparsers().choices)


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
