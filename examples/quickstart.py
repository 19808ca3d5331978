#!/usr/bin/env python
"""Quickstart: the unified M3 workflow end to end on a laptop-sized dataset.

This example mirrors the paper's Table 1 story through the new
``Session``/``Dataset`` API:

1. materialise an Infimnist-style dataset file on disk,
2. open it through a ``Session`` with one call — the *only* M3-specific line,
3. hand it to completely ordinary estimators — multiclass logistic regression
   trained with 10 iterations of L-BFGS, and k-means with 5 clusters —
4. verify the models behave exactly as they would on an in-memory copy,
5. show that swapping the storage backend (one memory-mapped shard →
   many shards) changes *nothing* downstream,
6. train through the **streaming engine**: chunk-pipelined ``partial_fit``
   with background prefetch, reporting how much of the I/O was hidden
   behind compute, and
7. **serve** the fitted model with ``session.predict``: streaming inference
   drives ``predict`` chunk by chunk through the same prefetch pipeline
   into one preallocated output buffer — bit-identical to in-core
   ``model.predict``, with bounded memory on sharded datasets, and
8. **append** new rows to the sharded dataset and let the trainer daemon
   retrain on just the delta and republish — while a reader opened before
   the append keeps its snapshot (see *Appending and live retraining*).

Picking an execution engine
---------------------------

Every engine trains (``session.fit``) *and* serves (``session.predict``).

=============  ==========================  ===============================
engine         fit                         predict
=============  ==========================  ===============================
``local``      in-process ``fit`` on the   in-core ``predict`` on the
               (memory-mapped) matrix —    same matrix
               the paper's M3 model
``streaming``  ``partial_fit`` over        per-chunk ``predict`` /
               prefetched shard-aligned    ``predict_proba`` into a
               chunks (needs a streaming   preallocated buffer (works
               estimator: SGD solvers,     with every fitted estimator);
               MiniBatchKMeans, naive      per-chunk I/O-wait/compute
               Bayes); accounting in       accounting in
               ``FitResult.details``       ``PredictResult.details``;
                                           chunk inference fans across
                                           ``compute_threads()`` workers
                                           (``compute_workers=N``
                                           overrides; bit-identical)
*(serving)*    —                           request-level traffic goes to
                                           ``session.serve`` instead: a
                                           micro-batching model server
                                           on the per-chunk predict
                                           path — see
                                           *Serving requests* below; the
                                           socket/HTTP transport on the
                                           same server (``m3 served``) is
                                           *Serving over the network*
=============  ==========================  ===============================

A scan is configured in one place, the ``StreamingEngine`` constructor:
``chunk_rows``, ``io_workers`` (reader threads), ``compute_workers``
(data-parallel inference), ``hints`` (OS readahead hints) and
``release_behind`` — see *Tuning the streaming pipeline* below.
``session.fit`` / ``session.predict`` take the engine
(``engine=StreamingEngine(io_workers=0, compute_workers=2)``), not the
options; ``m3 train`` / ``m3 predict`` build theirs from ``--chunk-rows``,
``--io-workers`` and ``--compute-workers``.

**Compute threads.**  The ``local`` engine has no knob, and does not need
one: every full-matrix pass an estimator makes — one L-BFGS
objective evaluation, one Lloyd iteration, k-means++ seeding, ``predict`` —
fans its row chunks over one ordered map (``repro.ml.base.map_row_chunks``)
whose worker count is *CPUs available to the process ÷ BLAS threads*
(``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else the CPU count),
at least 1.  Dividing by the BLAS threads is a measurement, not a courtesy:
on a 2-CPU box one softmax objective pass over a 411 MB map takes 175 ms
serial and 100 ms on two workers with BLAS pinned to one thread, but with
OpenBLAS left at two threads the same two-worker pass takes 197 ms against
170 ms serial (its threaded gemm serialises concurrent callers and gains
nothing on these 10-column products).  So a process that leaves BLAS
unpinned runs the plain serial loop, and ``OPENBLAS_NUM_THREADS=1`` — the
recommended setting for ``m3 train`` / ``m3 predict`` — gives every core to
the chunk map.  Either way the result is the same bits: chunks are sliced in
order on the calling thread (the recorded access trace does not change) and
reduced in chunk order, so fitted attributes and predictions are
bit-identical at any worker count.  ``FitResult.details["compute_threads"]``
and ``m3 info`` (``compute threads: N (BLAS threads: M)``) say what ran.

Replaying a run at paper scale
------------------------------

No engine simulates.  Either engine hands over the access trace of a handle
opened with ``record_trace=True``, and :mod:`repro.vmem` replays it on the
paper's desktop (32 GB RAM, PCIe SSD) or any machine you configure::

    from repro.vmem import VirtualMemoryConfig, VirtualMemorySimulator

    ds = session.open("mmap://d.m3", record_trace=True)
    result = session.fit(model, ds)                  # engine="local" or "streaming"
    sim = VirtualMemorySimulator(VirtualMemoryConfig()).run_trace(result.trace)
    print(sim.wall_time_s, sim.io_utilization, sim.cpu_utilization)

A streaming run's multi-reader schedule replays the same way:
``repro.vmem.trace.reader_log_trace(result.details["reader_log"],
plan.row_bytes)`` interleaves the readers' claims into one trace, to compare
engine-level prefetching against the kernel read-ahead policies of
``repro.vmem.readahead``.

Tuning the streaming pipeline
-----------------------------

``chunk_rows``
    Rows per chunk.  Defaults to the model's own ``chunk_size``/``batch_size``
    (so streaming makes the *same* parameter updates as in-core fit), else an
    auto-sized ~8 MB window with an adaptive warm-up ramp.  Bigger chunks
    amortise per-chunk overhead; smaller chunks bound memory tighter and give
    the pipeline more opportunities to overlap.  Keep it a divisor of the
    shard size when you want every chunk to stay a zero-copy memmap view.
``io_workers``
    Reader threads running ahead of the consumer; one executor serves every
    setting.  ``None`` (default) = one reader with a window of two chunks —
    classic double buffering; ``0`` = one reader per distinct storage device
    (shards grouped by ``st_dev``, so a single-disk dataset does not spawn
    threads that contend for one spindle); ``n`` = exactly ``n`` readers.
    The window of chunks read ahead is ``max(2, 2 × readers)``, capped by the
    buffer ring, and is reported as ``details["prefetch_depth"]``.  Chunks
    are re-emitted in plan order regardless, so results never depend on the
    reader count.  More readers are worth it when the storage is the
    bottleneck — multiple NVMe queues, network-backed shards, cold page
    cache; useless when the dataset is already cached in RAM.
    The engine always reads ahead.  A stream with no thread at all — each
    chunk read inline when the consumer asks for it — is one level down:
    ``repro.api.open_chunk_stream(matrix, prefetch=False)``, which feeds
    ``model.predict_streaming(stream, n_rows)`` directly.
``compute_workers``
    Data-parallel streaming *predict*: each worker runs ``predict_chunk`` and
    writes its disjoint slice of the preallocated output buffer —
    bit-identical to sequential serving.  ``None`` (default) is
    ``repro.ml.base.compute_threads()``, the local engine's rule (CPUs ÷
    BLAS threads, see *Compute threads* above): one worker with BLAS
    unpinned, every core with ``OPENBLAS_NUM_THREADS=1``.  An explicit
    ``n`` overrides it; ``details["compute_workers"]`` reports the count
    that ran.  Over compressed shards each reader decodes what it fetches,
    and the stream runs at least this many readers.  Training ignores it
    otherwise (``partial_fit`` is an ordered reduction), and a model's
    final read pass (MiniBatchKMeans' ``inertia_``) follows
    ``compute_threads()`` whatever it is.
*(buffer ring)*
    Not an engine option: the ring of preallocated chunk buffers that
    absorbs stitched and decoded chunks is sized from the window, so
    steady-state streaming does zero per-chunk allocations and peak memory
    is bounded by ``buffers × chunk bytes`` (``details["buffer_pool_*"]``
    report it).  ``open_chunk_stream(buffer_pool=ChunkBufferPool(...))``
    takes a ring built by the caller instead — one shared across passes, or
    one of a chosen size.
``hints``
    OS readahead hints issued per upcoming chunk: ``MADV_SEQUENTIAL`` per
    shard mapping at open, ``MADV_WILLNEED`` (asynchronous — the kernel
    starts the read while the pipeline does other work) per claimed chunk,
    with a ``posix_fadvise`` fallback for raw files and a counted no-op where
    the OS offers neither (``details["hints_applied"]`` reports how many
    actually landed).  They help most on cold page cache and sequential
    scans of data much larger than RAM — exactly the paper's regime; they do
    nothing measurable on warm, in-RAM datasets.

Compressed datasets
-------------------

Sharded datasets can also be stored *compressed*: the blocked v2 format
splits each shard into fixed-size row blocks (``block_rows``), codes every
block independently with a pluggable codec, and records the geometry in the
shard manifest.  Raw shards (codec ``none``, the default) open memory-mapped;
existing datasets convert with bounded memory::

    m3 convert data/train data/train.z --codec zlib          # raw -> zlib
    m3 convert data/train.z data/train.raw --codec raw       # zlib -> raw
    m3 info shard://data/train.z                             # per-shard ratios

or programmatically with ``session.create(spec, X, y, codec="zlib")`` /
``repro.api.convert.convert_dataset``.  Everything downstream is untouched:
``session.open`` dispatches on the manifest, and the streaming
pipeline's readers fetch *coded* blocks (often several times fewer bytes
off storage) while decompression runs on the compute-worker pool directly
into the preallocated chunk buffers — so a disk-bound scan speeds up by
roughly the compression ratio, and ``fit``/``predict`` stay bit-identical
because zlib is lossless.  ``details`` grows ``decode_s`` /
``compressed_bytes`` / ``ratio`` so you can see the trade.

When to reach for the other knob:

* ``--dtype float32`` halves storage when features tolerate ~7 significant
  digits (sensor data, pixel intensities, one-hot/count features) — not for
  ids or money.  Predictions then differ from float64 at the 1e-6 level.

Serving requests
----------------

Everything above is *scan-level*: one call walks one whole dataset.  Online
traffic — single rows arriving concurrently from many clients — goes through
the serving daemon instead::

    with session.serve(model, max_batch=256, workers=2) as serving:
        result = serving.predict_one(x)            # one row, synchronously
        future = serving.submit(x)                 # future-style async
        batch  = serving.predict_many(X[:32])      # a small batch, synchronously
        serving.swap("retrained.json")             # atomic hot-swap under load
        print(serving.stats().as_dict())           # p50/p99 queue-wait, batches

``session.serve`` publishes the model into a hot-model registry and stands up
a :class:`~repro.serve.ModelServer`: concurrent requests are coalesced into
micro-batches and computed on the per-chunk ``StreamingPredictor`` path
(``repro.serve.server.serve_batch``), so every served prediction is
bit-identical to in-core ``predict`` — and the per-call overhead that
dominates single-row inference is amortised across the batch, which is where
the >= 3x throughput of ``BENCH_serving.json`` comes from.  The knobs:

``max_batch``
    Maximum rows coalesced into one dispatch.
``max_delay_ms``
    How long an underfull batch waits for company.  ``0`` (default)
    dispatches immediately — batches still form under load, because requests
    arriving while a batch computes coalesce into the next dispatch.  Raise
    it only for open-loop traffic worth trading latency for batch size.
``workers``
    Dispatcher threads, each serving one micro-batch at a time.
``max_pending``
    Bounded queue depth; beyond it ``submit`` blocks (backpressure) or
    raises ``ServerSaturated``.

Each response is a ``ServeResult`` carrying exactly one model version
(``name@version``) plus its queue-wait / batch / compute latency split; a
hot-swap mid-flight never tears a batch.

Serving over the network
------------------------

``repro.net`` puts a real socket transport on the same server.
:class:`~repro.net.NetServer` wraps a ``ModelServer`` in an asyncio accept
loop — the one request loop there is — speaking three framings over
keep-alive TCP connections: newline-delimited JSON, raw-row frames (the rows
as the array's own bytes, what ``NetClient`` sends float arrays as) and a
minimal HTTP/1.1 ``POST /predict``, sniffed per frame on one port::

    from repro.net import AdaptiveDelayController, NetClient, NetServer

    controller = AdaptiveDelayController(max_batch=256, ceiling_ms=5.0)
    server = ModelServer(max_batch=256, delay_controller=controller)
    server.publish("default", model)
    with NetServer(server, host="127.0.0.1", port=8443) as net:
        with NetClient(net.host, net.port) as client:
            future = client.submit(x)        # pipelined raw-row frames
            result = future.result()         # one model version + latency split

Backpressure maps straight onto the server's queue: when ``max_pending`` is
full (or a connection exceeds ``max_inflight`` pipelined frames) the
offending request is answered with a typed ``saturated`` error record —
HTTP clients get a 429 — the connection stays open, and earlier requests
still complete in order.  ``close()`` (or SIGTERM in the daemon) drains
gracefully: intake stops, every in-flight request is answered by exactly one
model version, then connections shut down.  The three transport stages are
named fault sites (``net.accept`` / ``net.read`` / ``net.write``): an
injected fault drops only its own connection, typed — never the listener.

The :class:`~repro.net.AdaptiveDelayController` replaces hand-tuning
``max_delay_ms`` for open-loop traffic: it EWMA-tracks wire inter-arrival
gaps and sets the coalescing window to ``gap * (max_batch - 1)``, clamped
to ``ceiling_ms`` — and *exactly 0* when arrivals are slow enough that
waiting could not fill a worthwhile batch (or after ~1s idle), so bursts
coalesce into full micro-batches while low-rate traffic pays nothing.
``benchmarks/bench_net.py`` (→ ``BENCH_net.json``) drives open-loop Poisson
and bursty arrivals over the socket: adaptive sustains >= 1.3x the
throughput of per-request dispatch at high load, with low-load p50 within
10% of a zero-delay server.

The daemon form is ``m3 served --model model.json --port 8443``
(``--adaptive-delay`` / ``--adaptive-ceiling-ms`` arm the controller,
``--max-inflight`` bounds per-connection pipelining; SIGTERM drains), and
``m3 predict --connect HOST:PORT`` routes a whole dataset through a running
daemon row by row — bit-identical to the scan path.  ``m3 serve --model
model.json`` is the stdio transport of ``served``: the same stack on a
loopback port, stdin pumped into one connection of it and the responses to
stdout, so a pipe speaks every framing the socket does.

Appending and live retraining
-----------------------------

Sharded datasets are *appendable*: new rows land while readers keep
answering from the snapshot they opened.  Each committed append writes a new
manifest generation (``manifest.<gen>.json`` plus an atomically-renamed
``CURRENT`` pointer); open handles pin the generation they were opened at,
so a scan that started before an append finishes on exactly the rows it
planned over — bit-identical, even with several readers.
``session.refresh(dataset)`` opts a handle into the latest generation, and
``m3 info`` reports the generation, committed rows and tail-shard state::

    ds = session.open("shard://data/clicks")       # pins generation g
    ds.append(X_new, y_new)                        # commits generation g+1
    fresh = session.refresh(ds)                    # re-opens at g+1

The train side of the loop is the trainer daemon: ``m3 traind`` (or
:class:`repro.serve.Trainer`) polls the manifest, streams **only the delta
rows** of each new generation through ``partial_fit``, and publishes the
refreshed model into the same hot-model registry the server resolves from —
so serving traffic hot-swaps to each new version while every in-flight
request is still answered by exactly one version::

    registry = ModelRegistry()
    with session.serve(model, name="live", registry=registry) as serving:
        with Trainer("shard://data/clicks", model, registry=registry,
                     name="live") as trainer:
            trainer.start()               # poll → delta-train → publish
            ...                           # appends land, versions roll
            trainer.stop()

The CLI form is ``m3 traind data/clicks --algorithm softmax`` — the same
poll/train/publish loop in the foreground, with ``--once`` for a single
catch-up pass.  ``--model saved.json --trained-rows N`` resumes a saved
``MiniBatchKMeans`` (its fitted centres and counts are its streaming state);
a saved SGD or naive-Bayes model holds no such state, so its ``partial_fit``
raises ``NotResumableError`` and ``m3 traind`` refuses it (exit 2) rather
than restart it from zeros.  ``benchmarks/bench_updates.py`` measures both halves: mixed
append/scan throughput against the static baseline, and delta-``partial_fit``
against a full refit.

Surviving faults
----------------

Every stage above — block fetches, decodes, buffer leases, append commit
steps, trainer polls, serve dispatches — carries a *named fault-injection
site* (``repro.faults.fault_sites()`` lists them; ``src/repro/faults/README.md``
is the catalogue).  Arm sites with a spec, either process-wide via the
environment or scoped to a session::

    REPRO_FAULTS="read.gather:p=0.1:n=5:seed=7" python train.py
    with Session(faults="read.gather:n=3:seed=7") as session: ...

Injected faults ride the *real* error paths, and the hardened pipeline has
to absorb them with its production machinery:

* **checksums** — every v2 block (and the v2 trailer) carries a CRC32;
  corruption surfaces as a ``ChecksumError`` naming the shard and block,
  and ``m3 info --verify <spec>`` scrubs a whole dataset on demand;
* **retries** — transient read/lease errors are retried with bounded
  exponential backoff and jitter; an exhausted budget raises a typed
  ``RetriesExhausted`` chained from the last cause, and
  ``FitResult.details`` reports ``retries`` / ``faults_injected``;
* **bounded waits** — every pipeline wait carries a deadline
  (``stall_timeout_s``), so a wedged producer raises a diagnostic
  ``ChunkStreamError`` naming the due chunk, each reader's last claim and
  the unreleased buffers instead of hanging
  (lint rule R005 keeps new code honest);
* **graceful degradation** — a failing serve dispatch fails only its own
  requests (``ServeError``); the server keeps serving and its stats count
  ``failed_requests`` / ``retries`` / ``faults_injected``.

The contract, enforced by the chaos CI job and a hypothesis property test:
under any single-site fault plan a fit completes **bit-identical** to the
fault-free baseline or raises a documented typed error — never a hang,
never a leak, never a silently different model.

Table 1's one changed line, and what the session adds around it::

    X, y = session.open("mmap://d.m3").arrays()   # the changed line
    model.fit(X, y)                               # unchanged
    session.create("mmap://d.m3", X, y)           # write one mapped shard
    session.open(spec, record_trace=True).trace   # access pattern, per handle
    session.fit(model, ds, engine="streaming")    # or local

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Session, StreamingEngine
from repro.data.writers import write_infimnist_dataset
from repro.ml import KMeans, SoftmaxRegression
from repro.ml.metrics import accuracy, clustering_purity


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp, Session() as session:
        dataset_path = Path(tmp) / "infimnist_quickstart.m3"

        # 1. Generate 4,000 deformed digit images (784 features each) on disk:
        #    one raw, checksummed shard, which the OS maps at open.
        started = time.perf_counter()
        manifest = write_infimnist_dataset(dataset_path, num_examples=4000, seed=7)
        print(
            f"generated {manifest.rows} x {manifest.cols} dataset "
            f"({manifest.compressed_bytes / 1e6:.1f} MB) in "
            f"{time.perf_counter() - started:.1f}s"
        )

        # 2. Open it through the session.  This is the only M3-specific line.
        dataset = session.open(f"mmap://{dataset_path}")
        labels = np.asarray(dataset.labels)
        print(f"opened {dataset!r}")

        # 3a. Classification: multinomial logistic regression, 10 L-BFGS
        #     iterations, dispatched through the session's execution engine.
        classifier = SoftmaxRegression(max_iterations=10, l2_penalty=1e-4, seed=0)
        fit = session.fit(classifier, dataset, y=labels)
        predictions = classifier.predict(dataset.matrix)
        print(
            f"softmax regression: training accuracy {accuracy(labels, predictions):.3f} "
            f"({fit.wall_time_s:.1f}s, {classifier.result_.iterations} iterations)"
        )

        # 3b. Clustering: k-means with the paper's settings (k=5, 10 iterations).
        clusterer = KMeans(n_clusters=5, max_iterations=10, seed=0)
        fit = session.fit(clusterer, dataset)
        assignments = clusterer.predict(dataset.matrix)
        print(
            f"k-means: inertia {clusterer.inertia_:.3g}, "
            f"purity vs digit labels {clustering_purity(labels, assignments):.3f} "
            f"({fit.wall_time_s:.1f}s, {clusterer.n_iter_} iterations)"
        )

        # 4. Transparency check: an in-memory copy gives the identical model.
        in_memory_dataset = session.from_arrays(np.asarray(dataset), labels, name="copy")
        in_memory = SoftmaxRegression(max_iterations=10, l2_penalty=1e-4, seed=0)
        session.fit(in_memory, in_memory_dataset, y=labels)
        delta = float(np.max(np.abs(in_memory.coef_ - classifier.coef_)))
        print(f"max |coef(in-memory) - coef(memory-mapped)| = {delta:.2e}")
        assert delta < 1e-10, "memory mapping must not change the learned model"

        # 5. Swap the storage backend: shard the matrix across multiple files.
        #    Only the spec changes — estimator and session code are untouched.
        shard_spec = f"shard://{Path(tmp) / 'infimnist_shards'}"
        session.create(shard_spec, np.asarray(dataset), labels, shard_rows=1024)
        sharded = session.open(shard_spec)
        print(f"re-opened as {sharded!r}")
        sharded_clf = SoftmaxRegression(max_iterations=10, l2_penalty=1e-4, seed=0)
        session.fit(sharded_clf, sharded, y=labels)
        delta = float(np.max(np.abs(sharded_clf.coef_ - classifier.coef_)))
        print(f"max |coef(sharded) - coef(memory-mapped)| = {delta:.2e}")
        assert delta < 1e-10, "sharding must not change the learned model"

        # 6. Stream the training: the chunk pipeline feeds partial_fit with
        #    shard-aligned row blocks while a background thread prefetches
        #    the next block.  Only the engine (and an SGD solver) change —
        #    and the streamed model matches the in-core SGD model exactly,
        #    because both run the same partial_fit loop.
        # chunk_size matches shard_rows, so in-core batches and shard-aligned
        # streaming chunks cover identical row ranges.
        sgd_args = dict(
            max_iterations=10, l2_penalty=1e-4, solver="sgd", seed=0, chunk_size=1024
        )
        in_core_sgd = SoftmaxRegression(**sgd_args)
        session.fit(in_core_sgd, sharded, y=labels, engine="local")
        streaming_clf = SoftmaxRegression(**sgd_args)
        fit = session.fit(streaming_clf, sharded, y=labels, engine="streaming")
        stats = fit.details
        delta = float(np.max(np.abs(streaming_clf.coef_ - in_core_sgd.coef_)))
        overlap = stats["io_overlap"]  # None when the stream recorded no reads
        print(
            f"streaming engine: max |coef(streamed) - coef(in-core SGD)| = "
            f"{delta:.2e} — {stats['chunks']} chunks, "
            f"{stats['bytes_read'] / 1e6:.1f} MB read, io-wait "
            f"{stats['io_wait_s'] * 1e3:.0f}ms vs compute "
            f"{stats['compute_s'] * 1e3:.0f}ms "
            + ("(no reads recorded)" if overlap is None
               else f"({overlap * 100:.0f}% of reads overlapped)")
        )
        assert delta < 1e-10, "streaming must not change the learned model"

        # 7. Serve the model: streaming inference drives predict chunk by
        #    chunk through the same prefetch pipeline, writing into one
        #    preallocated output buffer — the sharded matrix is never
        #    materialised, yet the predictions are bit-identical to the
        #    in-core path.
        served = session.predict(sharded, streaming_clf, engine="streaming")
        in_core_predictions = streaming_clf.predict(np.asarray(sharded))
        assert np.array_equal(served.predictions, in_core_predictions), (
            "streaming inference must be bit-identical to in-core predict"
        )
        stats = served.details
        print(
            f"streaming inference: {served.n_rows} rows served in "
            f"{served.wall_time_s * 1e3:.0f}ms ({stats['chunks']} chunks, "
            f"{stats['bytes_read'] / 1e6:.1f} MB read, predictions identical "
            f"to in-core predict), accuracy "
            f"{accuracy(labels, served.predictions):.3f}"
        )

        # 8. Parallelise the pipeline: topology-sized readers (io_workers=0)
        #    plus data-parallel chunk inference (compute_workers=2).  Chunks
        #    re-emit in plan order and workers write disjoint output slices,
        #    so the result is still bit-identical — only the wall clock and
        #    the reader accounting change.
        parallel = session.predict(
            sharded, streaming_clf,
            engine=StreamingEngine(io_workers=0, compute_workers=2),
        )
        assert np.array_equal(parallel.predictions, served.predictions), (
            "parallel serving must stay bit-identical to sequential serving"
        )
        stats = parallel.details
        print(
            f"parallel pipeline: {stats['io_workers']} readers "
            f"({', '.join(str(r['chunks']) for r in stats['readers'])} chunks each), "
            f"{stats['compute_workers']} compute workers, "
            f"{stats['hints_applied']} OS readahead hints applied — "
            f"predictions unchanged"
        )

        # 9. Serve requests: the scan above answered one dataset; online
        #    traffic is single rows from many clients.  session.serve stands
        #    up the micro-batching model server — concurrent requests
        #    coalesce into batched dispatches, every response names exactly
        #    one model version, and a hot-swap lands atomically under load.
        X = np.asarray(sharded)
        with session.serve(streaming_clf, max_batch=64, workers=2) as serving:
            one = serving.predict_one(X[0])
            futures = [serving.submit(X[i]) for i in range(1, 65)]
            answers = [f.result() for f in futures]
            assert one.predictions[0] == in_core_predictions[0]
            assert all(
                a.predictions[0] == in_core_predictions[1 + i]
                for i, a in enumerate(answers)
            ), "served rows must match in-core predict"
            swapped = serving.swap(in_core_sgd)  # retrained model, same traffic
            assert serving.predict_one(X[0]).model_version == swapped.version
            stats = serving.stats().as_dict()
        print(
            f"request serving: {stats['requests']} requests in "
            f"{stats['batches']} micro-batches (mean "
            f"{stats['mean_batch_rows']:.1f} rows/batch), queue-wait p99 "
            f"{stats['queue_wait_p99_s'] * 1e3:.2f}ms, served by "
            f"{one.model_key} then hot-swapped to @{swapped.version}"
        )

        # 10. Put a network front end on it: NetServer speaks newline-
        #     delimited JSON and HTTP POST over real keep-alive sockets
        #     through the same codec as the stdin loop, and the adaptive
        #     delay controller learns the batching window from wire
        #     inter-arrival times (collapsing to 0 at low load).
        from repro.net import AdaptiveDelayController, NetClient, NetServer
        from repro.serve import ModelServer

        controller = AdaptiveDelayController(max_batch=64, ceiling_ms=5.0)
        model_server = ModelServer(max_batch=64, delay_controller=controller)
        model_server.publish("default", streaming_clf)
        with NetServer(model_server) as net:
            with NetClient(net.host, net.port) as client:
                wire_futures = [client.submit(X[i], request_id=i)
                                for i in range(64)]
                wire = [f.result(timeout=30.0) for f in wire_futures]
            net_stats = net.stats()
        model_server.close()
        assert all(
            w.predictions[0] == in_core_predictions[i]
            for i, w in enumerate(wire)
        ), "network serving must match in-core predict"
        print(
            f"network serving: {net_stats.requests} requests over "
            f"{net_stats.connections} keep-alive connection(s) at "
            f"{net.host}:{net.port}, adaptive window "
            f"{controller.snapshot()['delay_ms']:.3f}ms — every wire answer "
            f"matches in-core predict"
        )

        # 11. Append and retrain live: the sharded dataset is appendable.
        #     A handle opened now pins the current manifest generation; the
        #     append commits a new generation behind it; the trainer daemon
        #     tails the commit, partial_fits on only the delta rows, and
        #     publishes the refreshed model into the registry the server
        #     resolves from — traffic hot-swaps, the pinned reader does not.
        from repro.serve import ModelRegistry, Trainer

        registry = ModelRegistry()
        pinned = session.open(shard_spec)  # snapshot of generation 0
        rows_before = pinned.shape[0]
        with session.serve(streaming_clf, name="live", registry=registry) as serving:
            with Trainer(
                shard_spec, streaming_clf, registry=registry, name="live",
                session=session,
            ) as trainer:
                trainer.mark_trained(rows_before, generation=0)
                writer = session.open(shard_spec)
                writer.append(X[:1024], labels[:1024])  # commits generation 1
                writer.close()
                update = trainer.poll_once()
                answer = serving.predict_one(X[0])
        assert update is not None and update.rows == 1024
        assert answer.model_key == f"live@{update.version.version}"
        assert pinned.shape[0] == rows_before, "pinned reader must keep its snapshot"
        fresh = session.refresh(pinned, close_previous=True)
        print(
            f"appendable dataset: appended 1024 rows (generation "
            f"{update.generation}), trainer published {update.version.key} "
            f"from {update.rows} delta rows in {update.chunks} chunks, "
            f"serving answered with {answer.model_key}; the pinned reader "
            f"kept {rows_before} rows while a refreshed handle sees "
            f"{fresh.shape[0]}"
        )
        fresh.close()

        # 12. Checking concurrency invariants: everything above leaned on
        #     locks, bounded buffer rings, and reader threads.  Two tools
        #     keep that machinery honest.  `m3 lint src/repro` (or any
        #     path) statically checks lock-rank discipline, resource
        #     cleanup, and thread hygiene — exit 0 means clean.  And with
        #     REPRO_ANALYSIS=1 in the environment (set it before building
        #     the session), every lock in the pipeline becomes an
        #     OrderedLock: an acquisition that inverts the declared rank
        #     order raises LockOrderViolation immediately instead of
        #     deadlocking some unlucky run.
        from repro.analysis import GRAPH, LockOrderViolation, OrderedLock

        first = OrderedLock("quickstart.first", rank=1)
        second = OrderedLock("quickstart.second", rank=2)
        with first:
            with second:  # ranks strictly increase: fine
                pass
        try:
            with second:
                first.acquire()  # rank 1 while holding rank 2: refused
            raise AssertionError("inversion should have been refused")
        except LockOrderViolation as violation:
            print(f"lock-order harness: caught inversion — {violation}")
        finally:
            GRAPH.clear()

        # 13. Surviving faults: every block fetch, decode, lease, commit
        #     step and dispatch in the pipeline above carries a named fault
        #     injection site (`python -c "import repro.faults as f;
        #     print(f.fault_sites())"` lists them; src/repro/faults/README.md
        #     is the catalogue).  Arm a site — via REPRO_FAULTS in the
        #     environment or Session(faults=...) — and the pipeline has to
        #     absorb the failure with its real machinery: block CRCs catch
        #     corruption (`m3 info --verify` scrubs a dataset on demand),
        #     bounded retries with backoff absorb transient read errors, a
        #     stalled stream raises a diagnostic instead of hanging, and a
        #     failing dispatch fails only its own requests while the server
        #     keeps serving.  Here: three injected read faults, one seed,
        #     and the fit still lands bit-identical to a fault-free run —
        #     the retries are visible in the stream accounting.
        from repro.faults import FaultPlan

        grown = session.open(shard_spec)  # includes the rows appended above
        grown_labels = np.asarray(grown.labels)
        calm = SoftmaxRegression(**sgd_args)
        session.fit(calm, grown, y=grown_labels, engine="streaming")

        plan = FaultPlan.parse("read.gather:n=3:seed=7")
        with Session(engine="streaming", faults=plan) as chaos_session:
            chaos_ds = chaos_session.open(shard_spec)
            survivor = SoftmaxRegression(**sgd_args)
            fit = chaos_session.fit(survivor, chaos_ds, y=grown_labels)
        grown.close()
        delta = float(np.max(np.abs(survivor.coef_ - calm.coef_)))
        print(
            f"fault injection: {plan.fires()} faults fired, "
            f"{fit.details['retries']} retries absorbed them, max "
            f"|coef(faulted) - coef(fault-free)| = {delta:.2e}"
        )
        assert delta < 1e-10, "retried reads must not change the learned model"

        print(
            "quickstart finished: memory-mapped, in-memory, sharded and "
            "streaming training all agree — streaming serving matches "
            "in-core inference bit for bit, the model server answers "
            "request-level traffic from the same session — over stdin and "
            "over real sockets alike, with an adaptively learned batching "
            "window — appends retrain "
            "and republish live without disturbing pinned readers, the "
            "concurrency analyzer watches the locks that make it safe, and "
            "injected faults are absorbed by checksums, retries and bounded "
            "waits without changing a single learned coefficient"
        )


if __name__ == "__main__":
    main()
