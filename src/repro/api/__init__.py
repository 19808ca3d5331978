"""The unified M3 API: sessions, dataset handles, backends and engines.

This package is the architectural seam of the reproduction.  One
:class:`Session` resolves URI-style dataset specs to pluggable storage
backends, hands out :class:`Dataset` handles (with per-handle access traces
and a real lifecycle), and dispatches training to pluggable execution
engines:

.. code-block:: python

    from repro.api import Session
    from repro.ml import LogisticRegression

    with Session() as session:
        data = session.open("mmap://train.m3")          # or shard://dir/, memory://name
        result = session.fit(LogisticRegression(), data, engine="local")
        served = session.predict(data, result.model, engine="streaming")

Choosing an execution engine
----------------------------

Every engine implements both halves of the lifecycle: ``Session.fit`` trains,
``Session.predict`` serves a fitted model's predictions.

===============  ============================================================
``local``        In-process ``model.fit`` / ``model.predict`` on the
                 (possibly memory-mapped) matrix — the paper's M3 execution
                 model.  Default.
``streaming``    Chunk-pipelined execution: shard-aligned row blocks are
                 prefetched by a reader thread while the previous block
                 trains (``partial_fit``) or predicts (``predict_chunk`` into
                 a preallocated output buffer), so I/O overlaps compute;
                 per-chunk read / I/O-wait / compute times are reported in
                 ``FitResult.details`` / ``PredictResult.details``.  Training
                 requires a streaming estimator
                 (``LogisticRegression(solver="sgd")``,
                 ``SoftmaxRegression(solver="sgd")``, ``MiniBatchKMeans``,
                 ``GaussianNaiveBayes``); serving works with every fitted
                 estimator (``StreamingPredictor``).  The engine for datasets
                 that do not fit in RAM — and the only one that never
                 materialises a sharded dataset's labels.
*(serving)*      Request-level traffic (single rows / small batches from
                 concurrent clients) does not scan at all: ``session.serve``
                 publishes the model into the hot-model registry of
                 :mod:`repro.serve` and answers requests through a
                 micro-batching server, computing each coalesced batch on
                 the per-chunk predict path — bit-identical to in-core
                 ``predict``, with hot-swap and backpressure.
===============  ============================================================

Paper-scale replay is not an engine: open the dataset with
``record_trace=True``, fit or predict on either engine, and replay
``result.trace`` with ``repro.vmem.VirtualMemorySimulator(config).run_trace``
(32 GB RAM desktop, PCIe SSD by default) to predict out-of-core behaviour at
sizes this machine cannot hold.

Table 1's one-line change is ``X, y = session.open("mmap://d.m3").arrays()``:
the estimator code after it is untouched.  ``mmap://`` and ``shard://`` are
one stored form — a directory of checksummed v2 shards — and ``mmap://`` is
its one-shard, raw case, opened as a single zero-copy memory map.
"""

from repro.api.chunks import (
    BufferLease,
    Chunk,
    ChunkBufferPool,
    ChunkPlan,
    ChunkStream,
    ChunkStreamError,
    ChunkStreamStats,
    ReadaheadHinter,
    open_chunk_stream,
    plan_chunks,
)
from repro.api.dataset import Dataset
from repro.api.engines import (
    ENGINE_REGISTRY,
    ExecutionEngine,
    FitResult,
    LocalEngine,
    PredictResult,
    StreamingEngine,
    resolve_engine,
)
from repro.api.session import Session
from repro.api.sharded import (
    ShardedLabels,
    ShardedMatrix,
    ShardManifest,
    read_manifest,
    write_sharded_dataset,
)
from repro.api.storage import (
    BACKEND_REGISTRY,
    DatasetSpec,
    MemoryBackend,
    MmapBackend,
    ShardedBackend,
    StorageBackend,
    StorageHandle,
    make_backend,
    parse_spec,
)

__all__ = [
    "Session",
    "Dataset",
    "FitResult",
    "PredictResult",
    # storage
    "StorageBackend",
    "StorageHandle",
    "MemoryBackend",
    "MmapBackend",
    "ShardedBackend",
    "BACKEND_REGISTRY",
    "DatasetSpec",
    "parse_spec",
    "make_backend",
    # sharded format
    "ShardedMatrix",
    "ShardedLabels",
    "ShardManifest",
    "write_sharded_dataset",
    "read_manifest",
    # chunk pipeline
    "Chunk",
    "ChunkPlan",
    "ChunkStream",
    "ChunkBufferPool",
    "BufferLease",
    "ReadaheadHinter",
    "ChunkStreamError",
    "ChunkStreamStats",
    "plan_chunks",
    "open_chunk_stream",
    # engines
    "ExecutionEngine",
    "LocalEngine",
    "StreamingEngine",
    "ENGINE_REGISTRY",
    "resolve_engine",
]
