"""Command-line interface.

``python -m repro`` (or the installed ``m3`` script) exposes the main
reproduction entry points:

* ``m3 generate`` — materialise an Infimnist-style dataset as ``mmap://``
  stores it: a directory holding one raw, checksummed v2 shard.
* ``m3 info`` — describe a dataset (rows, columns, dtype, backend, shards;
  sharded datasets additionally report codec, block geometry and per-shard
  compression ratios).
* ``m3 convert`` — re-encode a dataset as raw (memory-mapped) or
  compressed blocked v2 shards (``--codec``, ``--dtype``); the block and
  shard geometry are the library's defaults and new shards are row-major.
  It is the one command that reads a v1 ``.m3`` file, v1 shard directories
  and column-layout datasets written by older versions; every other command
  refuses them, naming ``m3 convert SRC DST --codec raw|zlib``.
* ``m3 train`` — train logistic regression or k-means on a dataset through
  the unified :class:`~repro.api.Session` API (``--engine local``, the
  default); ``--engine streaming [--chunk-rows N]`` trains
  through the chunk pipeline (``partial_fit`` over prefetched shard-aligned
  row blocks) and reports per-chunk I/O-wait vs compute time;
  ``--io-workers N`` sets the pipeline's reader threads (omit = one
  reader, ``0`` = one reader per storage device);
  ``--save-model PATH`` persists the fitted model as JSON for serving.
* ``m3 predict`` — serve a saved model's predictions over a dataset;
  ``--engine streaming`` predicts chunk by chunk through the prefetching
  pipeline (bounded memory on sharded datasets), ``--io-workers`` /
  ``--compute-workers`` parallelise the read and inference sides of the
  pipeline (omit ``--compute-workers`` = the engine's default, CPUs ÷ BLAS
  threads as ``m3 info`` prints it; a value overrides it), ``--proba``
  emits class probabilities, ``--output`` writes the
  predictions as ``.npy``; ``--connect HOST:PORT`` sends every row as a
  request to a running ``m3 served`` instead (same predictions).  Replaying
  a run's access trace at paper scale is library code, not a flag: see
  :mod:`repro.vmem`.
* ``m3 served`` — the network serving daemon: a saved model in the
  hot-model registry, the micro-batcher (``--max-batch``, ``--workers``,
  ``--max-delay-ms`` or ``--adaptive-delay``) and, in front, the one
  request loop there is (``repro.net.NetServer``): a TCP listener taking
  JSONL, raw-row frames (rows as the array's own bytes — what ``NetClient``
  sends float arrays as) and HTTP/1.1 ``POST /predict``, sniffed per frame
  on one port (``--port 0`` = ephemeral, printed to stderr); SIGTERM drains.
* ``m3 serve`` — the stdio transport of ``served``: the same stack on a
  loopback port, stdin (``--input``) pumped into one connection of it and
  the responses, in request order, to stdout (``--output``); every frame,
  limit and typed refusal is the socket's.
* ``m3 traind`` — the trainer daemon: tail an appendable ``shard://``
  dataset's generations, ``partial_fit`` each delta, publish versions.
* ``m3 reproduce`` — regenerate Figure 1a, the utilisation finding, Figure 1b
  and Table 1 once and print them, with every claim the paper makes about
  them checked, as the Markdown committed as ``REPRODUCTION.md``; no flags;
  exit code 1 if a claim fails.
* ``m3 lint`` — the static half of ``repro.analysis``: project-specific
  concurrency and resource-safety rules (lock ranks, leak-free cleanup,
  thread hygiene, API surface) over any path, defaulting to the installed
  ``repro`` package; exit code 0 = clean, 1 = findings, 2 = usage error.

Dataset arguments accept plain paths as well as URI-style specs
(``mmap://data.m3``, ``shard://directory/``); every dataset is a directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List, Optional, Tuple

import numpy as np


def _checked_number(text: str, convert: Any, in_range: Any, requirement: str) -> Any:
    """``convert(text)`` if ``in_range`` holds for it, else a usage error.

    Rejecting an out-of-range number here gives a one-line exit-2 usage
    error instead of a traceback from deep inside the library.
    """
    try:
        value = convert(text)
    except ValueError:
        noun = "an integer" if convert is int else "a number"
        raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
    if not in_range(value):
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive integers."""
    return _checked_number(text, int, lambda value: value > 0, "a positive integer")


def _non_negative_int(text: str) -> int:
    """argparse type for flags where 0 is meaningful (``--io-workers 0`` = auto)."""
    return _checked_number(text, int, lambda value: value >= 0, "a non-negative integer")


def _non_negative_float(text: str) -> float:
    """argparse type for finite, non-negative durations (``--max-delay-ms``)."""
    return _checked_number(
        text, float, lambda value: 0 <= value < float("inf"), "a finite non-negative number"
    )


def _hostport(text: str) -> "Tuple[str, int]":
    """Parse ``HOST:PORT`` for ``--connect`` (argparse type); an IPv6 host
    is written in brackets, ``[::1]:PORT``, and returned without them."""
    host, separator, port_text = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not separator or not host or not 0 < port < 65536:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 1-65535, got {text!r}"
        )
    return host, port


def _overlap_text(io_overlap) -> str:
    """Human-readable io_overlap (which is None when nothing was read)."""
    if io_overlap is None:
        return "no reads recorded"
    return f"{io_overlap * 100:.0f}% of reads overlapped with compute"


def _streaming_flags_misused(args: argparse.Namespace) -> bool:
    """True (after printing the usage error) when a streaming-only flag lacks
    ``--engine streaming``."""
    if args.engine == "streaming":
        return False
    for flag, value in (
        ("--chunk-rows", args.chunk_rows),
        ("--io-workers", getattr(args, "io_workers", None)),
        ("--compute-workers", getattr(args, "compute_workers", None)),
    ):
        if value is not None:
            print(f"error: {flag} requires --engine streaming", file=sys.stderr)
            return True
    return False


def _resolve_engine_arg(args: argparse.Namespace) -> "Any":
    """``--engine`` as ``Session`` takes it: the streaming engine configured
    from ``--chunk-rows/--io-workers/--compute-workers``, else the name."""
    if args.engine != "streaming":
        return args.engine
    from repro.api import StreamingEngine

    return StreamingEngine(
        chunk_rows=args.chunk_rows,
        io_workers=args.io_workers,
        compute_workers=args.compute_workers,
    )


def _print_pipeline_details(details: dict) -> None:
    """The chunk pipeline's accounting line(s), shared by train and predict."""
    print(
        f"chunk pipeline: {details['chunks']} chunks of <= "
        f"{details['chunk_rows']} rows"
        + (f" over {details['passes']} pass(es)" if "passes" in details else "")
        + f", {details['bytes_read'] / 1e6:.1f} MB read in {details['read_s']:.2f}s, "
        f"io-wait {details['io_wait_s']:.2f}s, compute {details['compute_s']:.2f}s, "
        f"{_overlap_text(details['io_overlap'])}"
    )
    if details.get("compressed_bytes"):
        ratio = details.get("ratio")
        ratio_text = f"{ratio:.2f}x ratio, " if ratio else ""
        print(
            f"compressed stream: {details['compressed_bytes'] / 1e6:.1f} MB coded "
            f"({ratio_text}decode {details.get('decode_s', 0.0):.2f}s on the "
            f"compute pool)"
        )
    readers = details.get("readers")
    if readers:
        per_reader = ", ".join(
            f"r{entry['reader']}: {entry['chunks']} chunks / {entry['read_s']:.2f}s"
            for entry in readers
        )
        print(
            f"parallel readers: {details['io_workers']} "
            f"({per_reader}), {details['hints_applied']} readahead hints applied, "
            f"{details['compute_workers']} compute worker(s)"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.writers import write_infimnist_dataset

    manifest = write_infimnist_dataset(args.output, num_examples=args.examples, seed=args.seed)
    print(
        f"wrote {manifest.rows} x {manifest.cols} "
        f"({manifest.compressed_bytes / 1e6:.1f} MB, one raw shard) to {args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.ml.base import blas_threads, compute_threads

    with Session() as session:
        info = session.info(args.dataset)
    preferred = ("backend", "path", "rows", "cols", "dtype", "has_labels",
                 "nbytes", "file_bytes", "num_shards", "generation",
                 "committed_rows", "tail_shard", "tail_rows", "tail_sealed",
                 "format_version", "codec", "block_rows",
                 "storage_dtype", "compressed_bytes", "compression_ratio")
    ordered = [k for k in preferred if k in info]
    ordered += [k for k in info if k not in preferred]
    width = max(len(key) for key in ordered)
    for key in ordered:
        value = info[key]
        if key == "shard_ratios":
            value = ", ".join(
                f"{entry['filename']}={entry['ratio']:.2f}x"
                if entry["ratio"] is not None
                else f"{entry['filename']}=?"
                for entry in value
            )
        elif key == "compression_ratio" and value is not None:
            value = f"{value:.2f}"
        print(f"{key:<{width}}  {value}")
    # What a full-matrix pass over this dataset would fan out over, here and now.
    print(f"compute threads: {compute_threads()} (BLAS threads: {blas_threads()})")
    if args.verify:
        from repro.api.sharded import verify_dataset

        # Every block of every shard, mapped ones included: read, CRC-checked
        # and decoded (the info above already refused a legacy form).
        problems = verify_dataset(info["path"])
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            print(
                f"verify: FAILED — {len(problems)} problem(s) found",
                file=sys.stderr,
            )
            return 1
        print("verify: OK — every block read, CRC-checked and decoded")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.api.convert import convert_dataset

    manifest = convert_dataset(
        args.source,
        args.destination,
        codec=None if args.codec == "raw" else args.codec,
        storage_dtype=args.dtype,
    )
    ratio = manifest.ratio
    if manifest.codec != "none":
        kind = f"{manifest.codec}-compressed"
    else:
        kind = "uncompressed, memory-mapped" if manifest.mapped else "uncompressed"
    print(
        f"wrote {manifest.rows} x {manifest.cols} as {len(manifest.shards)} {kind} "
        f"v2 shard(s) to {args.destination} (block_rows={manifest.block_rows}, "
        f"storage dtype {np.dtype(manifest.storage_dtype).name}, "
        f"compression {f'{ratio:.2f}x' if ratio else 'n/a'})"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.ml import KMeans, LogisticRegression, MiniBatchKMeans, SoftmaxRegression

    streaming = args.engine == "streaming"
    if _streaming_flags_misused(args):
        return 2
    engine = _resolve_engine_arg(args)
    with Session() as session:
        dataset = session.open(args.dataset)
        if args.algorithm == "logistic":
            labels = np.asarray(dataset.labels)
            multiclass = np.unique(labels).shape[0] > 2
            # The streaming engine trains through partial_fit, which the
            # linear models implement for their SGD solver.
            solver = "sgd" if streaming else "lbfgs"
            if multiclass:
                model = SoftmaxRegression(max_iterations=args.iterations, solver=solver)
            else:
                model = LogisticRegression(max_iterations=args.iterations, solver=solver)
            result = session.fit(model, dataset, y=labels, engine=engine)
            accuracy = result.model.score(dataset.matrix, labels)
            print(
                f"trained in {result.wall_time_s:.2f}s ({result.engine} engine, "
                f"{dataset.backend_name} backend), training accuracy {accuracy:.3f}"
            )
        else:
            if streaming:
                model = MiniBatchKMeans(
                    n_clusters=args.clusters, max_epochs=args.iterations, seed=0
                )
            else:
                model = KMeans(
                    n_clusters=args.clusters, max_iterations=args.iterations, seed=0
                )
            result = session.fit(model, dataset, engine=engine)
            print(
                f"trained in {result.wall_time_s:.2f}s ({result.engine} engine, "
                f"{dataset.backend_name} backend), inertia {result.model.inertia_:.4g}, "
                f"{result.model.n_iter_} iterations"
            )
        if streaming:
            _print_pipeline_details(result.details)
        if args.save_model is not None:
            from repro.ml import save_model

            save_model(args.save_model, result.model)
            print(f"saved {type(result.model).__name__} to {args.save_model}")
    return 0


def _print_serve_stats(stats: "Any") -> None:
    """The micro-batching server's accounting line (``m3 serve`` / ``m3 served``)."""
    summary = stats.as_dict()
    print(
        f"server: {summary['requests']} requests ({summary['rows']} rows) in "
        f"{summary['batches']} micro-batches "
        f"(mean {summary['mean_batch_rows']:.1f} rows/batch), queue-wait "
        f"p50 {summary['queue_wait_p50_s'] * 1e3:.2f}ms / "
        f"p99 {summary['queue_wait_p99_s'] * 1e3:.2f}ms, compute "
        f"{summary['compute_s']:.2f}s, {summary['errors']} errors "
        f"({summary['failed_requests']} requests failed), "
        f"{summary['rejected']} rejected, {summary['retries']} retries, "
        f"{summary['faults_injected']} faults injected",
        file=sys.stderr,
    )


def _predict_via_connect(dataset, method: str, args) -> "Any":
    """Route every dataset row through a remote ``m3 served`` daemon.

    Each row becomes one pipelined request over a keep-alive ``NetClient``
    connection — a raw-row frame when the daemon offers it (float rows
    travel as their own bytes), a JSON line otherwise — so the remote
    micro-batcher coalesces them exactly as it would any other client's
    traffic, and the gathered predictions are identical to the scan's.
    """
    import time

    from repro.net import NetClient

    host, port = args.connect
    X = dataset.matrix
    n_rows = int(X.shape[0])
    began = time.perf_counter()
    with NetClient(host, port) as client:
        futures = [
            client.submit(np.asarray(X[i : i + 1]), method=method)
            for i in range(n_rows)
        ]
        pieces = [future.result(timeout=client.timeout_s) for future in futures]
    elapsed = time.perf_counter() - began
    predictions = (
        np.concatenate([piece.predictions for piece in pieces], axis=0)
        if pieces
        else np.empty((0,), dtype=np.float64)
    )
    rate = n_rows / elapsed if elapsed > 0 else float("inf")
    model_key = pieces[-1].model_key if pieces else "-"
    print(
        f"served {n_rows} predictions ({method}) by {host}:{port} "
        f"({model_key}) in {elapsed:.2f}s (network client, "
        f"{dataset.backend_name} backend, {rate:.0f} rows/s)"
    )
    return predictions


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.ml import load_model

    if _streaming_flags_misused(args):
        return 2
    if args.connect is not None:
        if args.model is not None:
            print(
                "error: --model does not apply to --connect (the serving "
                "daemon already holds the model)",
                file=sys.stderr,
            )
            return 2
        for flag, value in (
            ("--chunk-rows", args.chunk_rows),
            ("--io-workers", args.io_workers),
            ("--compute-workers", args.compute_workers),
        ):
            if value is not None:
                print(
                    f"error: {flag} does not apply to --connect (the remote "
                    f"daemon owns the serving knobs)",
                    file=sys.stderr,
                )
                return 2
    elif args.model is None:
        print(
            "error: --model is required (or --connect HOST:PORT to use a "
            "remote serving daemon)",
            file=sys.stderr,
        )
        return 2
    method = "predict_proba" if args.proba else "predict"
    with Session() as session:
        dataset = session.open(args.dataset)
        if args.connect is not None:
            predictions = _predict_via_connect(dataset, method, args)
        else:
            model = load_model(args.model)
            result = session.predict(
                dataset, model, method=method, engine=_resolve_engine_arg(args)
            )
            predictions = result.predictions
            rows = result.n_rows
            rate = rows / result.wall_time_s if result.wall_time_s > 0 else float("inf")
            print(
                f"served {rows} predictions ({method}) with {type(model).__name__} "
                f"in {result.wall_time_s:.2f}s ({result.engine} engine, "
                f"{dataset.backend_name} backend, {rate:.0f} rows/s)"
            )
            if args.engine == "streaming":
                _print_pipeline_details(result.details)
            # Only classifiers predict in label space; a clusterer's arbitrary
            # cluster indices must not be scored against class labels.
            if method == "predict" and dataset.has_labels and hasattr(model, "classes_"):
                labels = np.asarray(dataset.labels)
                if predictions.shape == labels.shape:
                    accuracy = float(np.mean(predictions == labels))
                    print(f"accuracy against the dataset's labels: {accuracy:.3f}")
    if args.output is not None:
        np.save(args.output, predictions)
        print(f"wrote predictions to {args.output}")
    return 0


def _serving_stack(args: argparse.Namespace) -> "Tuple[Any, Any]":
    """The one request front end, as both ``m3 serve`` and ``m3 served`` run
    it: the model published as ``default``, a ``ModelServer`` over that
    registry, a ``NetServer`` listening in front of it.

    Returns the published version and the ``NetServer``, which owns the rest
    (``net.server``; ``net.close()`` drains the whole stack).
    """
    from repro.net import AdaptiveDelayController, NetServer
    from repro.serve import ModelRegistry, ModelServer

    registry = ModelRegistry()
    version = registry.publish("default", args.model)
    controller = None
    if args.adaptive_delay:
        controller = AdaptiveDelayController(
            max_batch=args.max_batch, ceiling_ms=args.adaptive_ceiling_ms
        )
    server = ModelServer(
        registry=registry,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        workers=args.workers,
        max_pending=args.max_pending,
        delay_controller=controller,
    )
    net = NetServer(
        server,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
    )
    return version, net


def _cmd_serve(args: argparse.Namespace) -> int:
    """The stdio transport of the serving front end.

    Stands up the same stack ``m3 served`` runs, on an ephemeral loopback
    port, and pumps bytes: stdin (or ``--input``) into one connection of
    it, that connection's responses to stdout (or ``--output``).  Framing,
    ordering, backpressure and the typed refusals are the ``NetServer``'s,
    so every frame the socket takes — JSON lines, raw-row frames, HTTP
    ``POST /predict`` — stdin takes too.  End of input half-closes the
    connection; the server flushes every response in order and hangs up.
    """
    import socket
    import threading
    from contextlib import nullcontext, suppress

    # One connection never has more in flight than the queue holds, so a
    # long stdin script meets backpressure, not `saturated` refusals.
    args.max_inflight = min(args.max_inflight, args.max_pending)
    version, net = _serving_stack(args)

    def copy_responses(conn: socket.socket, sink: "Any") -> None:
        try:
            for data in iter(lambda: conn.recv(1 << 16), b""):
                sink.write(data)
                sink.flush()
        except OSError:
            pass  # a reset that raced our sends, or a sink that went away
        finally:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)  # fails a pump blocked in sendall

    with net, (
        nullcontext(sys.stdin.buffer) if args.input is None else open(args.input, "rb")
    ) as source, (
        nullcontext(sys.stdout.buffer) if args.output is None else open(args.output, "wb")
    ) as sink, socket.create_connection(net.address) as conn:
        print(
            f"serving {type(version.model).__name__} as {version.key} "
            f"(max_batch={args.max_batch}, max_delay={args.max_delay_ms}ms, "
            f"workers={args.workers}); JSONL, raw-row frames or HTTP POST /predict",
            file=sys.stderr,
        )
        responses = threading.Thread(
            target=copy_responses, args=(conn, sink), name="m3-serve-stdout", daemon=True
        )
        responses.start()
        try:
            # read1: hand over whatever has arrived, so a client that waits
            # for an answer before its next request gets one.
            for data in iter(lambda: source.read1(1 << 16), b""):
                conn.sendall(data)
        except OSError:
            pass  # the server answered a frame it cannot re-frame after, and hung up
        finally:
            # Half-close; the hang-up that follows it is what ends the copier.
            with suppress(OSError):
                conn.shutdown(socket.SHUT_WR)
            responses.join(timeout=net.drain_timeout_s + 10.0)
    _print_serve_stats(net.server.stats())
    print(f"served {net.stats().responses} request(s)", file=sys.stderr)
    return 0


def _cmd_served(args: argparse.Namespace) -> int:
    """The network serving daemon: the serving stack's listener, exposed.

    Binds ``--host``/``--port`` (``0`` picks an ephemeral port; the bound
    address is printed to stderr) and drains gracefully on SIGTERM/SIGINT:
    stop accepting, answer every in-flight request, then shut the
    dispatchers down.
    """
    import signal
    import threading

    version, net = _serving_stack(args)
    controller = net.server.delay_controller
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda _signum, _frame: net.request_shutdown())
    delay_text = (
        f"adaptive (ceiling {args.adaptive_ceiling_ms}ms)"
        if controller is not None
        else f"{args.max_delay_ms}ms"
    )
    print(
        f"serving {type(version.model).__name__} as {version.key} on "
        f"{net.host}:{net.port} (max_batch={args.max_batch}, "
        f"max_delay={delay_text}, workers={args.workers}); "
        f"JSONL, raw-row frames or HTTP POST /predict; SIGTERM drains",
        file=sys.stderr,
        flush=True,
    )
    try:
        net.serve_forever()
    finally:
        net.close()
        summary = net.stats().as_dict()
        print(
            f"net: {summary['connections']} connection(s), "
            f"{summary['requests']} requests, {summary['responses']} responses, "
            f"{summary['errors']} errors ({summary['saturated']} saturated), "
            f"{summary['dropped_connections']} dropped connection(s)",
            file=sys.stderr,
        )
        if controller is not None:
            snap = controller.snapshot()
            gap = snap["gap_ewma_ms"]
            gap_text = "n/a (idle)" if gap != gap else f"{gap:.3f}ms"
            print(
                f"adaptive delay: learned window {snap['delay_ms']:.3f}ms "
                f"(inter-arrival EWMA {gap_text}, "
                f"ceiling {snap['ceiling_ms']:.1f}ms)",
                file=sys.stderr,
            )
        _print_serve_stats(net.server.stats())
    print("drained and closed", file=sys.stderr)
    return 0


def _cmd_traind(args: argparse.Namespace) -> int:
    """The trainer daemon: tail committed generations, train deltas, publish.

    Polls the appendable dataset's manifest; each newly committed generation
    is caught up by reading only its delta rows, on the polling thread, and
    training them through ``partial_fit`` one plan chunk at a time, after
    which the refreshed model is published as the next version (and
    optionally saved as a servable JSON artifact).  ``--once`` runs a single
    poll — the batch form, useful in pipelines and tests; without it the
    daemon polls until interrupted.
    """
    from repro.ml import GaussianNaiveBayes, LogisticRegression, MiniBatchKMeans, SoftmaxRegression
    from repro.ml.base import NotResumableError
    from repro.ml.persistence import load_model, save_model
    from repro.serve import Trainer
    from repro.serve.trainer import POLL_S, CursorPastDataError

    if args.model is not None:
        model = load_model(args.model)
        if not hasattr(model, "partial_fit"):
            print(
                f"{type(model).__name__} does not support partial_fit; "
                f"the trainer daemon needs a streaming estimator",
                file=sys.stderr,
            )
            return 2
        try:
            model.check_resumable()
        except NotResumableError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.algorithm == "logistic":
        model = LogisticRegression(solver="sgd")
    elif args.algorithm == "softmax":
        model = SoftmaxRegression(solver="sgd")
    elif args.algorithm == "nb":
        model = GaussianNaiveBayes()
    else:
        model = MiniBatchKMeans(n_clusters=args.clusters, seed=0)

    def report(update) -> None:
        rate = update.rows / update.train_s if update.train_s > 0 else float("inf")
        print(
            f"generation {update.generation}: trained {update.rows} delta "
            f"row(s) in {update.chunks} chunk(s) ({update.train_s:.3f}s, "
            f"{rate:.0f} rows/s), published {update.version.key}",
            flush=True,
        )
        if args.save_model is not None:
            save_model(args.save_model, update.version.model)
            print(f"saved {update.version.key} to {args.save_model}", flush=True)

    with Trainer(args.dataset, model, name=args.name) as trainer:
        if args.trained_rows:
            # The model was fitted offline on the dataset's first N rows;
            # start the cursor there instead of retraining from row 0.
            try:
                trainer.mark_trained(args.trained_rows)
            except CursorPastDataError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        print(
            f"tailing {trainer.spec.scheme}://{trainer.spec.location} with "
            f"{type(model).__name__} as {args.name!r} "
            f"(poll every {POLL_S}s); Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            published = trainer.run(max_polls=1 if args.once else None, on_update=report)
        except KeyboardInterrupt:
            published = trainer.stats.updates
            print("interrupted", file=sys.stderr)
        summary = trainer.stats.as_dict()
        print(
            f"trainer: {summary['polls']} poll(s), {published} version(s) "
            f"published, {summary['rows_trained']} row(s) trained in "
            f"{summary['train_s']:.3f}s (caught up to generation "
            f"{summary['last_generation']})",
            file=sys.stderr,
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.bench.reproduce import render, reproduce

    result = reproduce()
    print(render(result))
    return 0 if result.holds else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.findings import format_text, report_as_dict
    from repro.analysis.linter import LintError, lint_paths

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        # Default target: the installed repro package itself.
        paths = [Path(__file__).resolve().parent]
    try:
        report = lint_paths(paths, select=args.select)
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report_as_dict(report.findings, report.files, report.selected), indent=2))
    else:
        for line in format_text(report.findings):
            print(line)
        noun = "finding" if len(report.findings) == 1 else "findings"
        print(
            f"m3 lint: {len(report.findings)} {noun} in {report.files} file(s) "
            f"(rules: {', '.join(report.selected)})"
        )
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="m3",
        description="Reproduction of 'M3: Scaling Up Machine Learning via Memory Mapping'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate an Infimnist-style dataset (one raw, mapped v2 shard)"
    )
    generate.add_argument("output", type=Path,
                          help="output dataset directory (open it as mmap://OUTPUT)")
    generate.add_argument("--examples", type=_positive_int, default=10000,
                          help="number of images")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="describe a dataset (its shard manifest)")
    info.add_argument("dataset", type=str, help="a dataset path or URI spec")
    info.add_argument("--verify", action="store_true",
                      help="scrub the dataset: read every block, check CRCs, "
                           "decode every segment; exit 1 listing problems")
    info.set_defaults(func=_cmd_info)

    convert = sub.add_parser(
        "convert",
        help="re-encode a dataset as raw or compressed blocked v2 shards",
    )
    convert.add_argument("source", type=str,
                         help="a dataset directory, or a legacy v1 .m3 file")
    convert.add_argument("destination", type=Path,
                         help="output shard directory (created; must not "
                              "already hold a dataset)")
    convert.add_argument("--codec", choices=["zlib", "raw"], default="zlib",
                         help="target encoding: 'zlib' compresses every block, "
                              "'raw' stores uncompressed blocks that open "
                              "memory-mapped (zero-copy reads)")
    convert.add_argument("--dtype", choices=["float64", "float32", "float16"],
                         default=None,
                         help="on-disk storage dtype (narrower than the "
                              "logical dtype trades precision for size and "
                              "is decoded, not mapped)")
    convert.set_defaults(func=_cmd_convert)

    train = sub.add_parser("train", help="train a model on a dataset")
    train.add_argument("dataset", type=str,
                       help="a labelled dataset: path or URI spec (mmap://, shard://)")
    train.add_argument("--algorithm", choices=["logistic", "kmeans"], default="logistic")
    train.add_argument("--engine", choices=["local", "streaming"], default="local",
                       help="execution engine; 'streaming' trains via partial_fit "
                            "over prefetched shard-aligned chunks and reports "
                            "I/O-wait vs compute")
    train.add_argument("--iterations", type=_positive_int, default=10)
    train.add_argument("--clusters", type=_positive_int, default=5)
    train.add_argument("--chunk-rows", type=_positive_int, default=None,
                       help="rows per streaming chunk (streaming engine only; "
                            "defaults to the model's batch size, or an "
                            "auto-sized adaptive window)")
    train.add_argument("--io-workers", type=_non_negative_int, default=None,
                       help="reader threads of the chunk pipeline "
                            "(streaming engine only; omit = one reader, "
                            "0 = one reader per device)")
    train.add_argument("--compute-workers", type=_positive_int, default=None,
                       help="inference threads, and at least as many "
                            "readers of compressed shards (streaming "
                            "engine only; omit = CPUs / BLAS threads, as "
                            "'m3 info' prints; training itself stays an "
                            "ordered reduction)")
    train.add_argument("--save-model", type=Path, default=None,
                       help="write the fitted model to this path as JSON "
                            "(servable with 'm3 predict --model')")
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="serve a saved model's predictions")
    predict.add_argument("dataset", type=str,
                         help="a dataset: path or URI spec (mmap://, shard://)")
    predict.add_argument("--model", type=Path, default=None,
                         help="saved model JSON (from 'm3 train --save-model'); "
                              "required unless --connect routes to a remote "
                              "daemon that already holds the model")
    predict.add_argument("--connect", type=_hostport, default=None,
                         metavar="HOST:PORT",
                         help="route every row as a pipelined request "
                              "through a running 'm3 served' daemon instead "
                              "of predicting in-process")
    predict.add_argument("--engine", choices=["local", "streaming"], default="local",
                         help="execution engine; 'streaming' predicts chunk by "
                              "chunk through the prefetching pipeline (bounded "
                              "memory on sharded datasets)")
    predict.add_argument("--chunk-rows", type=_positive_int, default=None,
                         help="rows per streaming chunk (streaming engine only)")
    predict.add_argument("--io-workers", type=_non_negative_int, default=None,
                         help="reader threads of the chunk pipeline "
                              "(streaming engine only; omit = one reader, "
                              "0 = one reader per device)")
    predict.add_argument("--compute-workers", type=_positive_int, default=None,
                         help="worker threads for data-parallel chunk inference "
                              "(streaming engine only; omit = CPUs / BLAS "
                              "threads, as 'm3 info' prints; each writes a "
                              "disjoint slice of the output buffer)")
    predict.add_argument("--proba", action="store_true",
                         help="emit class probabilities (predict_proba) instead "
                              "of labels")
    predict.add_argument("--output", type=Path, default=None,
                         help="write the predictions to this path as .npy")
    predict.set_defaults(func=_cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="run the serving front end over stdin/stdout: the requests "
             "'served' takes from sockets, one connection's worth",
    )
    served = sub.add_parser(
        "served",
        help="run the network serving daemon: JSONL, raw-row and HTTP "
             "predict requests over TCP, graceful drain on SIGTERM",
    )
    for daemon in (serve, served):  # one stack (_serving_stack), one set of flags
        daemon.add_argument("--model", type=Path, required=True,
                            help="saved model JSON (from 'm3 train --save-model') "
                                 "published into the hot-model registry")
        daemon.add_argument("--max-batch", type=_positive_int, default=256,
                            help="rows per coalesced micro-batch")
        daemon.add_argument("--max-delay-ms", type=_non_negative_float, default=0.0,
                            help="how long an underfull micro-batch waits for "
                                 "more requests; 0 = dispatch immediately "
                                 "(batches still form under load)")
        daemon.add_argument("--workers", type=_positive_int, default=1,
                            help="dispatcher threads")
        daemon.add_argument("--max-pending", type=_positive_int, default=1024,
                            help="bounded request-queue depth: beyond it, a "
                                 "typed 'saturated' error / HTTP 429 ('serve' "
                                 "reads stdin no further ahead instead)")
    serve.add_argument("--input", type=Path, default=None,
                       help="read requests from this file instead of stdin")
    serve.add_argument("--output", type=Path, default=None,
                       help="write responses to this file instead of stdout")
    # What else _serving_stack reads: an unannounced loopback listener, the
    # fixed coalesce window, served's in-flight default.
    serve.set_defaults(func=_cmd_serve, host="127.0.0.1", port=0, max_inflight=256,
                       adaptive_delay=False, adaptive_ceiling_ms=5.0)
    served.add_argument("--host", type=str, default="127.0.0.1",
                        help="bind address")
    served.add_argument("--port", type=_non_negative_int, default=0,
                        help="TCP port (0 = pick an ephemeral port; the bound "
                             "address is printed to stderr)")
    served.add_argument("--adaptive-delay", action="store_true",
                        help="learn the coalesce window from the observed "
                             "arrival rate (EWMA inter-arrival estimate, "
                             "clamped to --adaptive-ceiling-ms, exactly 0 at "
                             "low load) instead of the fixed --max-delay-ms")
    served.add_argument("--adaptive-ceiling-ms", type=_non_negative_float, default=5.0,
                        help="upper clamp on the learned delay — the "
                             "worst-case latency tax under --adaptive-delay")
    served.add_argument("--max-inflight", type=_positive_int, default=256,
                        help="per-connection cap on unanswered requests "
                             "before TCP backpressure pushes back")
    served.set_defaults(func=_cmd_served)

    traind = sub.add_parser(
        "traind",
        help="run the trainer daemon: tail an appendable dataset, read and "
             "train each delta on the polling thread, publish model versions",
    )
    traind.add_argument("dataset", type=str,
                        help="an appendable sharded dataset: path or shard:// spec")
    traind.add_argument("--model", type=Path, default=None,
                        help="saved MiniBatchKMeans JSON to resume (any other "
                             "estimator's file lacks its streaming state and "
                             "is refused); omitted, a fresh --algorithm model")
    traind.add_argument("--algorithm",
                        choices=["logistic", "softmax", "nb", "kmeans"],
                        default="logistic",
                        help="fresh streaming model to train when no --model "
                             "is given")
    traind.add_argument("--clusters", type=_positive_int, default=8,
                        help="cluster count (with --algorithm kmeans)")
    traind.add_argument("--name", type=str, default="default",
                        help="registry name versions are published under")
    traind.add_argument("--once", action="store_true",
                        help="poll exactly once and exit (batch catch-up)")
    traind.add_argument("--trained-rows", type=_non_negative_int, default=0,
                        help="rows the warm-start model was already fitted "
                             "on; the delta cursor starts there")
    traind.add_argument("--save-model", type=Path, default=None,
                        help="write each published version to this path as "
                             "servable JSON ('m3 serve --model' picks it up)")
    traind.set_defaults(func=_cmd_traind)

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate every figure and table of the paper as one Markdown "
             "document (REPRODUCTION.md); exit 1 if a claim of the paper fails",
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    lint = sub.add_parser(
        "lint",
        help="static concurrency & resource-safety analysis (rules R001-R005)",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--select", type=str, default=None,
                      help="comma-separated rule ids to run (e.g. R001,R003; "
                           "default: all)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format (json is schema-stable for CI)")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
