"""Per-layer probes: the hardware floors and one timed call per public layer entry.

A probe times calls into a layer's public functions from outside; nothing in
``src/`` is instrumented.  ``floor_probes`` uses numpy and the standard
library only.  Layer probes are properties of (code, machine), not of a
workload, so they run on their own small datasets, the same ones whatever
workload the traced run is for; what differs per workload is the span
waterfall (``trace.*``).  ``BENCHMARK.json`` declares every name and unit.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import tracemalloc
import zlib
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

from harness import (
    CLASSES, COLS, Sizes, Tracer, fresh_dir, make_data, median, percentile, time_samples,
)

#: layer rate -> the floor it is read against, for the floor table.
FLOOR_OF = {
    "core.mmap_matrix.scan_gb_per_s": "floor.memmap_scan_gb_per_s",
    "api.sharded.gather_gb_per_s": "floor.memmap_scan_gb_per_s",
    "data.codecs.zlib_decode_mb_per_s": "floor.zlib_decompress_mb_per_s",
    "data.formats_v2.decode_block_mb_per_s": "floor.zlib_decompress_mb_per_s",
    "api.sharded.decode_into_mb_per_s": "floor.zlib_decompress_mb_per_s",
    "api.chunks.drain_parallel_zlib_mb_per_s": "floor.zlib_decompress_mb_per_s",
    "api.sharded.verify_mb_per_s": "floor.zlib_decompress_mb_per_s",
    "data.codecs.zlib_encode_mb_per_s": "floor.zlib_compress_mb_per_s",
    "data.formats_v2.write_mb_per_s": "floor.zlib_compress_mb_per_s",
    "api.convert.convert_mb_per_s": "floor.zlib_compress_mb_per_s",
    "net.server.rtt_ms_p50": "floor.loopback_echo_rtt_ms_p50",
    "net.server.wire_overhead_ms_p50": "floor.loopback_echo_rtt_ms_p50",
    "net.protocol.encode_request_us_p50": "floor.json_row_roundtrip_us_p50",
    "net.protocol.parse_request_us_p50": "floor.json_row_roundtrip_us_p50",
}

#: span name prefix -> trace.self_frac.* group
SPAN_GROUPS = (
    ("api.sharded.decode_into", "decode"),
    ("api.sharded.append", "write"),
    ("api.", "storage"),
    ("ml.", "ml"),
    ("serve.", "serve"),
    ("net.", "protocol"),
)


def _p50_us(fn: Callable[[], Any], samples: int) -> float:
    return median(time_samples(fn, samples)) * 1e6


def _p50_ms(fn: Callable[[], Any], samples: int) -> float:
    return median(time_samples(fn, samples)) * 1e3


def _rate(units: float, fn: Callable[[], Any], samples: int) -> float:
    """``units`` per second at the median wall time of ``fn``."""
    return units / median(time_samples(fn, samples))


# -- floors (numpy / stdlib only) ----------------------------------------------


def _echo_server(listener: socket.socket) -> None:
    connection, _ = listener.accept()
    with connection:
        buffered = b""
        while True:
            data = connection.recv(65536)
            if not data:
                return
            buffered += data
            while b"\n" in buffered:
                line, _, buffered = buffered.partition(b"\n")
                connection.sendall(line + b"\n")


def floor_probes(sizes: Sizes, work: Path, X: np.ndarray) -> Dict[str, float]:
    n = sizes.probe_samples
    out: Dict[str, float] = {}

    path = work / "floor.bin"
    X.tofile(path)
    mapped = np.memmap(path, dtype=np.float64, mode="r", shape=X.shape)
    out["floor.memmap_scan_gb_per_s"] = _rate(X.nbytes / 1e9, lambda: float(mapped.sum()), n)
    del mapped

    block = X[: max(1, (1 << 20) // (COLS * 8))].tobytes()   # the default ~1 MiB block
    coded = zlib.compress(block)
    out["floor.zlib_decompress_mb_per_s"] = _rate(len(block) / 1e6, lambda: zlib.decompress(coded), n)
    out["floor.zlib_compress_mb_per_s"] = _rate(len(block) / 1e6, lambda: zlib.compress(block), n)

    chunk, weights = X[:1024], np.ones((COLS, CLASSES))
    flop = 2.0 * chunk.shape[0] * COLS * CLASSES
    out["floor.gemm_gflop_per_s"] = _rate(flop / 1e9, lambda: chunk @ weights, n * 4)

    row = X[0]
    out["floor.json_row_roundtrip_us_p50"] = _p50_us(
        lambda: json.loads(json.dumps(row.tolist())), n * 4)

    line = json.dumps(row.tolist()).encode("utf-8") + b"\n"   # a request's size
    listener = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(target=_echo_server, args=(listener,), name="floor-echo")
    thread.start()
    try:
        with socket.create_connection(listener.getsockname()) as client:
            reader = client.makefile("rb")

            def echo() -> None:
                client.sendall(line)
                reader.readline()

            out["floor.loopback_echo_rtt_ms_p50"] = _p50_ms(echo, n * 8)
            reader.close()
    finally:
        thread.join(timeout=10.0)
        listener.close()

    fd = os.open(work / "fsync.bin", os.O_CREAT | os.O_WRONLY)
    page = bytes(4096)
    try:
        def sync() -> None:
            os.pwrite(fd, page, 0)
            os.fsync(fd)

        out["floor.fsync_4k_ms_p50"] = _p50_ms(sync, n * 2)
    finally:
        os.close(fd)
    return out


# -- layers ---------------------------------------------------------------------


def _wchar() -> int:
    """Bytes this process has passed to write-like syscalls (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for entry in handle:
            if entry.startswith("wchar:"):
                return int(entry.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _drain(stream: Any) -> int:
    chunks = 0
    with stream:
        for chunk in stream:
            chunk.release()
            chunks += 1
    return chunks


def layer_probes(sizes: Sizes, work: Path, seed: int) -> Dict[str, float]:
    """Every non-trace per-layer metric, on ``sizes.probe_rows`` generated rows."""
    X, y = make_data(seed, sizes.probe_rows)
    out = floor_probes(sizes, work, X)
    out.update(_storage_probes(sizes, work, X, y))
    out.update(_serving_probes(sizes, work, X, y))
    return out


def _storage_probes(sizes: Sizes, work: Path, X: np.ndarray, y: np.ndarray) -> Dict[str, float]:
    """core / ml / api.* / data.* and the trainer: everything that scans or appends."""
    from repro import Session
    from repro.api import StreamingEngine, open_chunk_stream, plan_chunks
    from repro.api.convert import convert_dataset
    from repro.api.sharded import ShardAppender, open_sharded_matrix, verify_dataset
    from repro.data.codecs import get_codec
    from repro.data.formats_v2 import BlockedMatrixReader, write_blocked_matrix
    from repro.ml import SoftmaxRegression
    from repro.ml.cluster.minibatch_kmeans import MiniBatchKMeans
    from repro.serve import ModelRegistry, Trainer

    n = sizes.probe_samples
    rows = sizes.probe_rows
    shard_rows = rows // 4
    classes = np.arange(CLASSES)
    megabytes = X.nbytes / 1e6
    chunk = min(1024, rows)
    out: Dict[str, float] = {}

    session = Session()
    pool_free = Session(handle_pool_size=0)
    try:
        mmap_spec = session.create(f"mmap://{work / 'probe.m3'}", X, y)
        raw_dir, zlib_dir = work / "probe-raw", work / "probe-zlib"
        raw_spec = session.create(f"shard://{raw_dir}", X, y, shard_rows=shard_rows)
        zlib_spec = session.create(f"shard://{zlib_dir}", X, y, shard_rows=shard_rows, codec="zlib")

        # core.mmap_matrix
        out["core.mmap_matrix.open_ms"] = _p50_ms(lambda: pool_free.open(mmap_spec).close(), n)
        with session.open(mmap_spec) as mapped:
            matrix = mapped.matrix

            def scan() -> None:
                for start in range(0, rows, 1024):
                    float(np.asarray(matrix[start:start + 1024]).sum())

            out["core.mmap_matrix.scan_gb_per_s"] = _rate(X.nbytes / 1e9, scan, n)
            iterations = 3
            lbfgs_s = median(time_samples(
                lambda: session.fit(SoftmaxRegression(max_iterations=iterations), mapped,
                                    engine="local"), 3, warmup=0))
        with session.from_arrays(X, y, name="probe-twin") as twin:
            memory_s = median(time_samples(
                lambda: session.fit(SoftmaxRegression(max_iterations=iterations), twin,
                                    engine="local"), 3, warmup=0))
        out["core.mmap_matrix.mmap_over_memory_ratio"] = lbfgs_s / memory_s
        out["ml.lbfgs_iter_s"] = lbfgs_s / iterations

        # ml: one 1024-row chunk through each streaming entry point
        chunk_X, chunk_y = X[:1024], y[:1024]
        classifier = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024, seed=0)
        out["ml.partial_fit_ms_p50"] = _p50_ms(
            lambda: classifier.partial_fit(chunk_X, chunk_y, classes=classes), n)
        clusterer = MiniBatchKMeans(n_clusters=10, max_epochs=1, batch_size=1024, seed=0)
        out["ml.kmeans_partial_fit_ms_p50"] = _p50_ms(
            lambda: clusterer.partial_fit(chunk_X), max(3, n // 3))
        out["ml.predict_chunk_ms_p50"] = _p50_ms(lambda: classifier.predict_chunk(chunk_X), n)

        # api.chunks: the three executors drained with no compute, then decode overlap
        raw = open_sharded_matrix(raw_dir)
        coded = open_sharded_matrix(zlib_dir)
        try:
            out["api.chunks.plan_us"] = _p50_us(lambda: plan_chunks(raw, chunk_rows=1024), n)
            plan = plan_chunks(raw, chunk_rows=1024)
            labels = raw.lazy_labels
            for label, options in (("sync", {"prefetch": False}), ("prefetch", {}),
                                   ("parallel", {"io_workers": 2})):
                out[f"api.chunks.drain_{label}_chunks_per_s"] = _rate(
                    plan.num_chunks,
                    lambda: _drain(open_chunk_stream(raw, labels=labels, plan=plan, **options)), n)
            zlib_plan = plan_chunks(coded, chunk_rows=1024)
            out["api.chunks.drain_parallel_zlib_mb_per_s"] = _rate(
                megabytes,
                lambda: _drain(open_chunk_stream(coded, plan=zlib_plan, io_workers=2,
                                                 decode_workers=2)), max(3, n // 3))

            # api.sharded: reads
            straddle = np.empty((shard_rows, COLS), dtype=np.float64)
            out["api.sharded.gather_gb_per_s"] = _rate(
                straddle.nbytes / 1e9,
                lambda: raw.gather_into(shard_rows // 2, shard_rows // 2 + shard_rows, straddle), n)
            out["api.sharded.fetch_compressed_ms_p50"] = _p50_ms(
                lambda: coded.fetch_compressed(0, chunk), n)
            fetched = coded.fetch_compressed(0, chunk)
            buffer = np.empty((chunk, COLS), dtype=np.float64)
            out["api.sharded.decode_into_mb_per_s"] = _rate(
                buffer.nbytes / 1e6, lambda: coded.decode_into(fetched, buffer), n)
            out["api.sharded.stored_bytes_per_user_byte"] = coded.compressed_nbytes / coded.nbytes
        finally:
            raw.close()
            coded.close()
        out["api.sharded.verify_mb_per_s"] = _rate(
            megabytes, lambda: verify_dataset(zlib_dir), max(3, n // 3))

        # api.chunks / api.engines through the public results of the engines
        with session.open(zlib_spec) as dataset:
            fitted = session.fit(
                SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024, seed=0),
                dataset, engine=StreamingEngine(io_workers=2, compute_workers=2))
        out["api.chunks.io_wait_frac"] = fitted.details["io_wait_s"] / fitted.wall_time_s
        with session.open(raw_spec) as dataset:
            tracemalloc.start()
            session.predict(dataset, classifier, engine=StreamingEngine())
            out["api.chunks.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()

            def engine_fit() -> None:
                session.fit(SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024,
                                              seed=0), dataset, engine=StreamingEngine())

            def bare_fit() -> None:
                model = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=1024, seed=0)
                for start in range(0, rows, 1024):
                    model.partial_fit(X[start:start + 1024], y[start:start + 1024], classes=classes)

            engine_s = median(time_samples(engine_fit, max(3, n // 3)))
            bare_s = median(time_samples(bare_fit, max(3, n // 3)))
        out["api.engines.fit_overhead_frac"] = (engine_s - bare_s) / engine_s

        # data.codecs / data.formats_v2 / api.convert
        codec = get_codec("zlib")
        block_rows = max(1, (1 << 20) // (COLS * 8))
        block = X[:block_rows].tobytes()
        payload = codec.encode(block)
        scratch = bytearray(len(block))
        out["data.codecs.zlib_decode_mb_per_s"] = _rate(
            len(block) / 1e6, lambda: codec.decode_into(payload, memoryview(scratch)), n)
        out["data.codecs.zlib_encode_mb_per_s"] = _rate(
            len(block) / 1e6, lambda: codec.encode(block), n)
        blocked = work / "probe.m3b"
        out["data.formats_v2.write_mb_per_s"] = _rate(
            megabytes, lambda: write_blocked_matrix(blocked, X, y), 3)
        reader = BlockedMatrixReader(blocked)
        try:
            out["data.formats_v2.fetch_block_us_p50"] = _p50_us(lambda: reader.fetch_block(0), n)
            one = reader.fetch_block(0)
            first = reader.header.blocks[0]
            target = np.empty((first.stop_row, COLS), dtype=np.float64)
            out["data.formats_v2.decode_block_mb_per_s"] = _rate(
                target.nbytes / 1e6,
                lambda: reader.decode_block_into(one, 0, first.stop_row, target), n)
        finally:
            reader.close()
        out["api.convert.convert_mb_per_s"] = _rate(
            megabytes,
            lambda: convert_dataset(raw_dir, fresh_dir(work / "probe-converted") / "out"),
            3)

        # api.session: a pool miss and a pool hit on the dataset the trainer re-opens
        out["api.session.open_ms_p50"] = _p50_ms(lambda: pool_free.open(zlib_spec).close(), n)
        with session.open(zlib_spec):
            out["api.session.reopen_ms_p50"] = _p50_ms(lambda: session.open(zlib_spec).close(), n)

        # api.sharded appends (both formats) and the trainer / registry beside them
        base, step, appends = sizes.probe_append
        for label, codec_name in (("zlib", "zlib"), ("raw", None)):
            directory = fresh_dir(work / f"probe-append-{label}")
            options = {"shard_rows": base}
            if codec_name:
                options["codec"] = codec_name
            spec = session.create(f"shard://{directory}", X[:base], y[:base], **options)
            registry = ModelRegistry()
            trainer = Trainer(spec, SoftmaxRegression(solver="sgd", max_iterations=1,
                                                      chunk_size=1024, seed=0),
                              registry=registry, name="probe", session=session, classes=classes)
            try:
                trainer.poll_once()
                appender = ShardAppender(directory, shard_rows=base)
                commit_s, delta_s = [], []
                written_before = _wchar()
                for index in range(appends):
                    low = base + index * step
                    began = time.perf_counter()
                    appender.append(X[low:low + step], y[low:low + step])
                    committed = time.perf_counter()
                    trainer.poll_once()
                    commit_s.append(committed - began)
                    delta_s.append(time.perf_counter() - committed)
                written = _wchar() - written_before
                out[f"api.sharded.append_{label}_ms_p50"] = median(commit_s) * 1e3
                if label == "zlib":
                    out["api.sharded.append_bytes_written_per_user_byte"] = (
                        written / (appends * step * COLS * 8))
                    out["serve.trainer.delta_rows_per_s"] = step / median(delta_s)
                    out["serve.trainer.poll_idle_us_p50"] = _p50_us(trainer.poll_once, n)
                    model = trainer.model
                    out["serve.registry.publish_us_p50"] = _p50_us(
                        lambda: registry.publish("probe", model), n)
                    out["serve.registry.resolve_us_p50"] = _p50_us(
                        lambda: registry.resolve("probe"), n * 4)
            finally:
                trainer.close()
    finally:
        pool_free.close()
        session.close()
    return out


def _serving_probes(sizes: Sizes, work: Path, X: np.ndarray, y: np.ndarray) -> Dict[str, float]:
    """serve.server in process, net.protocol alone, then the daemon over the wire."""
    from repro.ml import SoftmaxRegression
    from repro.ml.persistence import save_model
    from repro.net import NetClient, protocol
    from repro.serve import ModelRegistry, ModelServer
    from workloads import Daemon, pipelined

    n = sizes.probe_samples
    rows = sizes.probe_rows
    out: Dict[str, float] = {}
    classifier = SoftmaxRegression(solver="sgd", max_iterations=1, chunk_size=256, seed=0)
    classifier.fit(X[: sizes.serve_train_rows], y[: sizes.serve_train_rows])
    model_path = save_model(work / "probe-model.json", classifier)
    row, batch = X[0], X[:64]
    registry = ModelRegistry()
    registry.publish("default", model_path)
    server = ModelServer(registry=registry)
    try:
        out["serve.server.inproc_rtt_ms_p50"] = _p50_ms(lambda: server.predict_one(row), n * 4)
        out["serve.server.inproc_batch64_ms_p50"] = _p50_ms(lambda: server.predict_many(batch), n)
        one_result = server.predict_one(row)
        batch_result = server.predict_many(batch)
    finally:
        server.close()
    burst = ModelServer(registry=registry)
    try:
        window, count = sizes.serve_window
        pipelined(burst, [X[index % rows] for index in range(count)], window)
        stats = burst.stats()
        out["serve.server.queue_wait_ms_p50"] = stats.queue_wait_percentile(50) * 1e3
        out["serve.server.mean_batch_rows"] = stats.mean_batch_rows
    finally:
        burst.close()

    protocol_us = 0.0
    for prefix, rows_in, result in (("", row, one_result), ("batch64_", batch, batch_result)):
        line = protocol.encode_request(rows_in)
        record = protocol.response_record(result)
        body = protocol.encode_record(record)
        timings = {
            "encode_request": _p50_us(lambda: protocol.encode_request(rows_in), n),
            "parse_request": _p50_us(lambda: protocol.parse_request_line(line), n),
            "encode_response": _p50_us(
                lambda: protocol.encode_record(protocol.response_record(result)), n),
            "parse_response": _p50_us(lambda: np.asarray(json.loads(body)["predictions"]), n),
        }
        for name, value in timings.items():
            out[f"net.protocol.{prefix}{name}_us_p50"] = value
        if not prefix:
            out["net.protocol.request_bytes"] = float(len(line) + 1)
            protocol_us = sum(timings.values())

    daemon = Daemon(model_path)
    try:
        with NetClient(daemon.host, daemon.port) as client:
            for index in range(sizes.serve_warmup):
                client.predict_one(X[index % rows])
            rtt_s = time_samples(lambda: client.predict_one(row), sizes.serve_single, warmup=0)
            out["net.server.rtt_ms_p50"] = median(rtt_s) * 1e3
            out["net.server.rtt_ms_p99"] = percentile(rtt_s, 99) * 1e3
            out["net.server.wire_overhead_ms_p50"] = (
                out["net.server.rtt_ms_p50"] - out["serve.server.inproc_rtt_ms_p50"]
                - protocol_us / 1e3)
            out.update(_open_loop(client, X, sizes))
        with NetClient(daemon.host, daemon.port, http=True) as client:
            out["net.server.http_rtt_ms_p50"] = _p50_ms(
                lambda: client.predict_one(row), max(10, sizes.serve_single // 4))
    finally:
        code, requests, responses = daemon.stop()
    if code != 0 or requests != responses:
        raise RuntimeError(f"probe daemon exit {code}: {requests} requests, {responses} responses")
    return out


def _open_loop(client: Any, X: np.ndarray, sizes: Sizes) -> Dict[str, float]:
    """Poisson arrivals at a fixed rate; latency counts from the *due* time."""
    rate, seconds = sizes.open_loop
    rng = np.random.default_rng(0)
    due = np.cumsum(rng.exponential(1.0 / rate, size=max(1, int(rate * seconds))))
    done = [0.0] * len(due)
    late = []
    futures = []
    origin = time.perf_counter() + 0.01
    for index, offset in enumerate(due):
        target = origin + offset
        while True:
            remaining = target - time.perf_counter()
            if remaining <= 0:
                break
            if remaining > 0.002:
                time.sleep(remaining - 0.001)
        late.append(time.perf_counter() - target)
        future = client.submit(X[index % len(X)])
        future.add_done_callback(
            lambda _f, index=index: done.__setitem__(index, time.perf_counter()))
        futures.append(future)
    for future in futures:
        future.result(timeout=60.0)
    latency_ms = [(done[i] - (origin + due[i])) * 1e3 for i in range(len(due))]
    return {
        "net.server.open_1000_ms_p50": percentile(latency_ms, 50),
        "net.server.open_1000_ms_p99": percentile(latency_ms, 99),
        "net.server.open_1000_slo25ms_frac": float(np.mean(np.asarray(latency_ms) <= 25.0)),
        "net.server.open_gen_late_ms_p99": percentile(late, 99) * 1e3,
    }


# -- the waterfall of one traced run ----------------------------------------------


def trace_metrics(tracer: Tracer, untraced_wall_s: float) -> Dict[str, float]:
    wall = tracer.wall()
    self_times = tracer.self_times()
    groups = {group: 0.0 for _, group in SPAN_GROUPS}
    for name, seconds in self_times.items():
        for prefix, group in SPAN_GROUPS:
            if name.startswith(prefix):
                groups[group] += seconds
                break
    out = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_frac": wall / untraced_wall_s - 1.0,
        "trace.unattributed_frac": self_times.get("workload", 0.0) / wall,
        "trace.spans": float(len(tracer.spans)),
    }
    for group, seconds in groups.items():
        out[f"trace.self_frac.{group}"] = seconds / wall
    return out
