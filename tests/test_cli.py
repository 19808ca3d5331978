"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.api.sharded import open_sharded_matrix, verify_dataset
from repro.cli import build_parser, main
from repro.data.writers import write_infimnist_dataset
from repro.ml import base


def _rows(dataset):
    """Every row of a dataset directory, as an in-memory array."""
    with open_sharded_matrix(dataset) as matrix:
        return np.array(matrix[:])


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["train", "d.m3", "--iterations", "3"])
        assert args.command == "train"
        assert args.iterations == 3

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGenerateAndTrain:
    def test_generate_creates_dataset(self, tmp_path, capsys):
        output = tmp_path / "cli.m3"
        exit_code = main(["generate", str(output), "--examples", "64", "--seed", "1"])
        assert exit_code == 0
        assert output.exists()
        assert "64 x 784" in capsys.readouterr().out

    def test_generate_writes_the_rows_and_labels_it_always_wrote(self, tmp_path):
        # SHA-256 of the rows and of the labels that `m3 generate --examples
        # 1100 --seed 3` wrote as a single v1 .m3 file: 1100 rows cross a
        # 1024-row write chunk and many 167-row blocks.  The one raw shard
        # it writes now holds the very same bytes, and scrubs clean.
        import hashlib

        output = tmp_path / "d.m3"
        assert main(["generate", str(output), "--examples", "1100", "--seed", "3"]) == 0
        with open_sharded_matrix(output) as matrix:
            assert matrix.mapped and matrix.num_shards == 1
            rows = hashlib.sha256(np.ascontiguousarray(matrix[:]).tobytes()).hexdigest()
            labels = hashlib.sha256(matrix.lazy_labels[:].tobytes()).hexdigest()
        assert rows == "31129008c11cf5b1de93e117ca26dc808713d559c84750f6a0cf7cacb79a7d60"
        assert labels == "d88e5303aeba1c70462c490bf65e1cd195f421308ce6f44be83b065bce4cc543"
        assert verify_dataset(output) == []

    def test_train_logistic(self, tmp_path, capsys):
        dataset = tmp_path / "train.m3"
        write_infimnist_dataset(dataset, num_examples=200, seed=0)
        exit_code = main(["train", str(dataset), "--algorithm", "logistic", "--iterations", "3"])
        assert exit_code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_train_kmeans(self, tmp_path, capsys):
        dataset = tmp_path / "cluster.m3"
        write_infimnist_dataset(dataset, num_examples=150, seed=0)
        exit_code = main(["train", str(dataset), "--algorithm", "kmeans", "--clusters", "3",
                          "--iterations", "3"])
        assert exit_code == 0
        assert "inertia" in capsys.readouterr().out

    def test_train_streaming_engine(self, tmp_path, capsys):
        dataset = tmp_path / "stream.m3"
        write_infimnist_dataset(dataset, num_examples=200, seed=0)
        exit_code = main(["train", str(dataset), "--algorithm", "logistic",
                          "--iterations", "2", "--engine", "streaming",
                          "--chunk-rows", "64"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "streaming engine" in out
        assert "chunk pipeline" in out and "io-wait" in out

    def test_train_streaming_kmeans(self, tmp_path, capsys):
        dataset = tmp_path / "stream_km.m3"
        write_infimnist_dataset(dataset, num_examples=150, seed=0)
        exit_code = main(["train", str(dataset), "--algorithm", "kmeans",
                          "--clusters", "3", "--iterations", "2",
                          "--engine", "streaming"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "inertia" in out and "chunk pipeline" in out

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_simulated_engine_is_gone(self, command, capsys):
        # Paper-scale replay is VirtualMemorySimulator.run_trace over a
        # recorded trace, not an engine.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "whatever.m3", "--engine", "simulated"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'simulated'" in capsys.readouterr().err

    def test_train_sharded_backend(self, tmp_path, capsys):
        import numpy as np

        from repro.api import Session

        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 8))
        y = (X[:, 0] > 0).astype(np.int64)
        with Session() as session:
            session.create(f"shard://{tmp_path}/shards", X, y, shard_rows=50)
        exit_code = main(["train", f"shard://{tmp_path}/shards", "--iterations", "3"])
        assert exit_code == 0
        assert "shard backend" in capsys.readouterr().out


_CHUNK_ROWS_CASES = [
    ([command, "whatever.m3", *extra, "--engine", "streaming", "--chunk-rows", bad],
     "--chunk-rows", "integer")
    for command, extra in (("train", []), ("predict", ["--model", "m.json"]))
    for bad in ("0", "-4", "x")
]


class TestChunkRowsValidation:
    """Out-of-range numbers are rejected at the CLI layer, not deep in the library."""

    @pytest.mark.parametrize(
        "argv, flag, message",
        _CHUNK_ROWS_CASES + [
            (["generate", "out.m3", "--examples", "0"], "--examples", "positive integer"),
            (["train", "whatever.m3", "--iterations", "0"], "--iterations", "positive integer"),
            (["traind", "shard://tail", "--trained-rows", "-5"], "--trained-rows",
             "non-negative integer"),
            (["serve", "--model", "m.json", "--max-delay-ms", "-1"], "--max-delay-ms",
             "non-negative number"),
            (["served", "--model", "m.json", "--max-delay-ms", "-1"], "--max-delay-ms",
             "non-negative number"),
            (["served", "--model", "m.json", "--adaptive-ceiling-ms", "-1"],
             "--adaptive-ceiling-ms", "non-negative number"),
            (["served", "--model", "m.json", "--max-delay-ms", "nan"], "--max-delay-ms",
             "non-negative number"),
        ],
    )
    def test_out_of_range_number_rejected(self, argv, flag, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        err = capsys.readouterr().err
        assert flag in err and message in err

    def test_chunk_rows_without_streaming_engine_rejected(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text("{}")
        exit_code = main(["predict", "whatever.m3", "--model", str(model_path),
                          "--engine", "local", "--chunk-rows", "64"])
        assert exit_code == 2
        assert "--engine streaming" in capsys.readouterr().err

    def test_train_chunk_rows_without_streaming_engine_rejected(self, capsys):
        # train must reject the combination like predict does, not silently
        # discard the flag.
        exit_code = main(["train", "whatever.m3", "--engine", "local",
                          "--chunk-rows", "64"])
        assert exit_code == 2
        assert "--engine streaming" in capsys.readouterr().err


class TestPredict:
    @pytest.fixture()
    def trained(self, tmp_path):
        dataset = tmp_path / "serve.m3"
        write_infimnist_dataset(dataset, num_examples=200, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["train", str(dataset), "--algorithm", "logistic",
                     "--iterations", "2", "--save-model", str(model_path)]) == 0
        return dataset, model_path

    def test_train_saves_model(self, trained):
        _, model_path = trained
        assert model_path.exists()
        payload = model_path.read_text()
        assert '"m3-model"' in payload and "SoftmaxRegression" in payload

    def test_predict_local(self, trained, capsys):
        dataset, model_path = trained
        exit_code = main(["predict", str(dataset), "--model", str(model_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "served 200 predictions" in out
        assert "accuracy against the dataset's labels" in out

    def test_predict_streaming_reports_pipeline(self, trained, capsys):
        dataset, model_path = trained
        exit_code = main(["predict", str(dataset), "--model", str(model_path),
                          "--engine", "streaming", "--chunk-rows", "64"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "streaming engine" in out
        assert "chunk pipeline" in out and "io-wait" in out

    def test_predict_writes_output_and_proba(self, trained, tmp_path, capsys):
        dataset, model_path = trained
        output = tmp_path / "preds.npy"
        exit_code = main(["predict", str(dataset), "--model", str(model_path),
                          "--proba", "--output", str(output)])
        assert exit_code == 0
        assert "predict_proba" in capsys.readouterr().out
        preds = np.load(output)
        assert preds.shape == (200, 10)  # ten digit classes
        assert np.allclose(preds.sum(axis=1), 1.0)

    def test_predict_with_clusterer_reports_no_accuracy(self, tmp_path, capsys):
        # Cluster indices are not class labels: scoring them against the
        # dataset's labels would print a meaningless accuracy.
        dataset = tmp_path / "cluster.m3"
        write_infimnist_dataset(dataset, num_examples=150, seed=0)
        model_path = tmp_path / "km.json"
        assert main(["train", str(dataset), "--algorithm", "kmeans",
                     "--clusters", "3", "--iterations", "2",
                     "--save-model", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["predict", str(dataset), "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "served 150 predictions" in out
        assert "accuracy" not in out

    def test_predict_streaming_matches_local(self, trained, tmp_path):
        dataset, model_path = trained
        out_local = tmp_path / "local.npy"
        out_stream = tmp_path / "stream.npy"
        assert main(["predict", str(dataset), "--model", str(model_path),
                     "--output", str(out_local)]) == 0
        assert main(["predict", str(dataset), "--model", str(model_path),
                     "--engine", "streaming", "--output", str(out_stream)]) == 0
        np.testing.assert_array_equal(np.load(out_local), np.load(out_stream))


class TestInfo:
    def test_info_mmap_file(self, tmp_path, capsys):
        dataset = tmp_path / "info.m3"
        write_infimnist_dataset(dataset, num_examples=32, seed=0)
        exit_code = main(["info", str(dataset)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "backend" in out and "mmap" in out
        assert "rows" in out and "32" in out

    def test_info_sharded_directory(self, tmp_path, capsys):
        import numpy as np

        from repro.api import Session

        with Session() as session:
            session.create(f"shard://{tmp_path}/s", np.zeros((40, 3)), shard_rows=16)
        exit_code = main(["info", f"shard://{tmp_path}/s"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "num_shards" in out and "3" in out

    def test_info_names_a_raw_shard_whose_rows_are_not_64_byte_aligned(
        self, tmp_path, capsys
    ):
        from repro import Session
        from repro.api.sharded import write_sharded_dataset

        X = np.arange(60.0).reshape(20, 3)
        write_sharded_dataset(tmp_path / "old", X, np.arange(20) % 2, shard_rows=20)
        _rows_at_byte_32(tmp_path / "old" / "shard-00000.m3b")
        with Session() as session, session.open(tmp_path / "old") as dataset:
            np.testing.assert_array_equal(np.asarray(dataset), X)  # still reads
            info = dataset.info()
        assert info["misaligned_shards"] == ["shard-00000.m3b"]
        assert f"m3 convert {tmp_path / 'old'} DST --codec raw" in info["remedy"]
        assert main(["info", str(tmp_path / "old")]) == 0
        out = capsys.readouterr().out
        assert "misaligned_shards  shard-00000.m3b" in out
        assert "--codec raw" in out
        # The remedy works: the converted copy's rows start at byte 64.
        assert main(["convert", str(tmp_path / "old"), str(tmp_path / "new"),
                     "--codec", "raw"]) == 0
        assert main(["info", str(tmp_path / "new")]) == 0
        assert "misaligned" not in capsys.readouterr().out
        with Session() as session, session.open(tmp_path / "new") as dataset:
            assert "misaligned_shards" not in dataset.info()


def _rows_at_byte_32(path):
    """Rewrite a raw v2 shard with its rows at byte 32, as raw shards were
    once laid out: the 32 padding bytes go and every offset moves down."""
    import json

    from repro.data.codecs import crc32
    from repro.data.formats_v2 import BLOCKED_PREFIX, BLOCKED_PREFIX_SIZE, RAW_DATA_OFFSET

    raw = path.read_bytes()
    magic, version, _, header_offset, header_len = BLOCKED_PREFIX.unpack(
        raw[:BLOCKED_PREFIX_SIZE]
    )
    header = json.loads(raw[header_offset:header_offset + header_len])
    shift = RAW_DATA_OFFSET - BLOCKED_PREFIX_SIZE
    for block in header["blocks"]:
        for segment in block["segments"]:
            segment[0] -= shift
    if header["labels"]:
        header["labels"][0] -= shift
    body = raw[RAW_DATA_OFFSET:header_offset]
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(
        BLOCKED_PREFIX.pack(magic, version, crc32(payload),
                            BLOCKED_PREFIX_SIZE + len(body), len(payload))
        + body + payload
    )


class TestReproductionCommands:
    """``m3 reproduce`` itself is driven in tests/bench/test_reproduce.py."""

    @pytest.mark.parametrize("command", ["figure1a", "figure1b", "table1", "utilization"])
    def test_the_four_figure_commands_are_gone_not_aliased(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_reproduce_takes_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "--sizes", "10"])
        assert exit_info.value.code == 2


class TestParallelPipelineFlags:
    """--io-workers / --compute-workers: the parallel chunk pipeline knobs."""

    @pytest.fixture()
    def sharded(self, tmp_path):
        from repro.api import Session

        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 8))
        y = (X @ rng.normal(size=8) > 0).astype(np.int64)
        spec = f"shard://{tmp_path}/cli_shards"
        with Session() as session:
            session.create(spec, X, y, shard_rows=100)
        return spec

    def test_train_with_parallel_readers(self, sharded, capsys):
        exit_code = main(["train", sharded, "--algorithm", "logistic",
                          "--iterations", "2", "--engine", "streaming",
                          "--chunk-rows", "100", "--io-workers", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "parallel readers: 2" in out
        assert "readahead hints" in out

    def test_predict_with_parallel_pipeline(self, sharded, tmp_path, capsys):
        model_path = tmp_path / "par.json"
        assert main(["train", sharded, "--algorithm", "logistic",
                     "--iterations", "2", "--engine", "streaming",
                     "--save-model", str(model_path)]) == 0
        capsys.readouterr()
        exit_code = main(["predict", sharded, "--model", str(model_path),
                          "--engine", "streaming", "--io-workers", "2",
                          "--compute-workers", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "served 400 predictions" in out
        assert "parallel readers: 2" in out

    @pytest.mark.parametrize("proba", [[], ["--proba"]], ids=["predict", "proba"])
    def test_default_compute_workers_match_one_worker(
        self, sharded, tmp_path, monkeypatch, capsys, proba
    ):
        # Omitting --compute-workers means the engine default, CPUs / BLAS
        # threads: two workers here, whatever the runner.
        monkeypatch.setattr(base, "available_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        model_path = tmp_path / "m.json"
        assert main(["train", sharded, "--algorithm", "logistic",
                     "--iterations", "2", "--save-model", str(model_path)]) == 0
        outputs = []
        for extra in ([], ["--compute-workers", "1"]):
            output = tmp_path / f"p{len(outputs)}.npy"
            assert main(["predict", sharded, "--model", str(model_path),
                         "--engine", "streaming", "--chunk-rows", "50",
                         "--output", str(output), *proba, *extra]) == 0
            outputs.append(np.load(output))
        out = capsys.readouterr().out
        assert out.count("2 compute worker(s)") == 1
        assert out.count("1 compute worker(s)") == 1
        np.testing.assert_array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("flag", ["--io-workers", "--compute-workers"])
    def test_flags_require_streaming_engine(self, tmp_path, flag, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text("{}")
        exit_code = main(["predict", "whatever.m3", "--model", str(model_path),
                          "--engine", "local", flag, "2"])
        assert exit_code == 2
        assert f"{flag} requires --engine streaming" in capsys.readouterr().err

    def test_train_flags_require_streaming_engine(self, capsys):
        exit_code = main(["train", "whatever.m3", "--engine", "local",
                          "--io-workers", "2"])
        assert exit_code == 2
        assert "--io-workers requires --engine streaming" in capsys.readouterr().err

    def test_negative_io_workers_rejected(self, capsys):
        # A reader count is at least one: 0 is refused like -1.
        for count in ("-1", "0"):
            with pytest.raises(SystemExit) as excinfo:
                main(["train", "whatever.m3", "--engine", "streaming",
                      "--io-workers", count])
            assert excinfo.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err


class TestServe:
    @pytest.fixture()
    def trained(self, tmp_path):
        dataset = tmp_path / "serve_cmd.m3"
        write_infimnist_dataset(dataset, num_examples=150, seed=3)
        model_path = tmp_path / "model.json"
        assert main(["train", str(dataset), "--algorithm", "logistic",
                     "--iterations", "2", "--save-model", str(model_path)]) == 0
        return dataset, model_path

    def test_serve_jsonl_loop(self, trained, tmp_path, capsys):
        import json

        from repro.ml import load_model

        dataset, model_path = trained
        matrix = _rows(dataset)
        model = load_model(model_path)
        expected = model.predict(np.asarray(matrix[:4]))
        requests = tmp_path / "requests.jsonl"
        lines = [json.dumps(list(map(float, np.asarray(matrix[i]))))
                 for i in range(2)]
        lines += [json.dumps({"id": i, "x": list(map(float, np.asarray(matrix[i])))})
                  for i in (2, 3)]
        requests.write_text("\n".join(lines) + "\n")
        responses_path = tmp_path / "responses.jsonl"
        exit_code = main([
            "serve", "--model", str(model_path), "--input", str(requests),
            "--output", str(responses_path), "--max-batch", "8",
            "--max-delay-ms", "1",
        ])
        assert exit_code == 0
        responses = [json.loads(line) for line in
                     responses_path.read_text().splitlines()]
        assert len(responses) == 4
        for i, payload in enumerate(responses):
            assert payload["model"] == "default@1"
            assert payload["predictions"] == [int(expected[i])]
            assert payload["queue_wait_ms"] >= 0
            assert payload["batch_rows"] >= 1
        assert responses[2]["id"] == 2 and responses[3]["id"] == 3
        err = capsys.readouterr().err
        assert "serving SoftmaxRegression as default@1" in err
        assert "served 4 request(s)" in err

    def test_serve_reports_bad_lines_and_continues(self, trained, tmp_path, capsys):
        import json

        dataset, model_path = trained
        matrix = _rows(dataset)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "this is not json\n"
            + json.dumps(list(map(float, np.asarray(matrix[0])))) + "\n"
        )
        responses_path = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(model_path),
                     "--input", str(requests),
                     "--output", str(responses_path)]) == 0
        responses = [json.loads(line) for line in
                     responses_path.read_text().splitlines()]
        assert len(responses) == 2
        assert "error" in responses[0]
        assert "predictions" in responses[1]

    def test_serve_request_method_override(self, trained, tmp_path):
        import json

        dataset, model_path = trained
        matrix = _rows(dataset)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({
            "id": "p", "x": list(map(float, np.asarray(matrix[0]))),
            "method": "predict_proba",
        }) + "\n")
        responses_path = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(model_path),
                     "--input", str(requests),
                     "--output", str(responses_path)]) == 0
        payload = json.loads(responses_path.read_text().splitlines()[0])
        assert len(payload["predictions"][0]) == 10  # 10-class probabilities


class TestTraind:
    """``m3 traind --once``: one catch-up poll over an appendable dataset."""

    @pytest.fixture()
    def appendable(self, tmp_path):
        from repro.api import Session

        rng = np.random.default_rng(21)
        X = rng.normal(size=(360, 6))
        y = (np.arange(360) % 3).astype(np.int64)
        spec = f"shard://{tmp_path / 'tail'}"
        with Session() as session:
            session.create(spec, X[:240], y[:240], shard_rows=120)
        return spec, X, y

    @staticmethod
    def _append(spec, X, y):
        from repro.api import Session

        with Session() as session:
            with session.open(spec) as dataset:
                dataset.append(X, y)

    def test_once_trains_every_row_and_saves_a_loadable_model(
        self, appendable, tmp_path, capsys
    ):
        from repro.ml import load_model

        spec, X, _y = appendable
        saved = tmp_path / "live.json"
        assert main(["traind", spec, "--once", "--algorithm", "softmax",
                     "--save-model", str(saved)]) == 0
        captured = capsys.readouterr()
        assert "generation 0: trained 240 delta row(s)" in captured.out
        assert "published default@1" in captured.out
        assert f"saved default@1 to {saved}" in captured.out
        assert "1 version(s) published, 240 row(s) trained" in captured.err
        assert load_model(saved).predict(X[:5]).shape == (5,)

    def test_once_resumes_a_saved_kmeans_bit_identically(self, appendable, tmp_path, capsys):
        from repro.ml import MiniBatchKMeans, load_model

        spec, X, y = appendable
        first, resumed = tmp_path / "first.json", tmp_path / "resumed.json"
        assert main(["traind", spec, "--once", "--algorithm", "kmeans",
                     "--clusters", "3", "--save-model", str(first)]) == 0
        self._append(spec, X[240:], y[240:])
        assert main(["traind", spec, "--once", "--model", str(first),
                     "--trained-rows", "240", "--save-model", str(resumed)]) == 0
        assert "trained 120 delta row(s) in 1 chunk(s)" in capsys.readouterr().out
        # The live twin never leaves memory; chunks are the 120-row shards.
        live = MiniBatchKMeans(n_clusters=3, seed=0)
        for start in (0, 120, 240):
            live.partial_fit(X[start : start + 120])
        loaded = load_model(resumed)
        np.testing.assert_array_equal(loaded.cluster_centers_, live.cluster_centers_)
        np.testing.assert_array_equal(loaded.counts_, live.counts_)

    @pytest.mark.parametrize("algorithm", ["softmax", "nb"])
    def test_model_that_cannot_resume_is_refused_before_tailing(
        self, appendable, tmp_path, algorithm, capsys
    ):
        spec, _X, _y = appendable
        saved = tmp_path / "model.json"
        assert main(["traind", spec, "--once", "--algorithm", algorithm,
                     "--save-model", str(saved)]) == 0
        capsys.readouterr()
        assert main(["traind", spec, "--once", "--model", str(saved),
                     "--trained-rows", "240"]) == 2
        captured = capsys.readouterr()
        assert "only MiniBatchKMeans resumes" in captured.err
        assert "tailing" not in captured.err and captured.out == ""

    def test_trained_rows_past_the_data_is_refused(self, appendable, capsys):
        spec, _X, _y = appendable
        assert main(["traind", spec, "--once", "--algorithm", "kmeans",
                     "--trained-rows", "300"]) == 2
        captured = capsys.readouterr()
        assert "committed 240 row(s), fewer than the 300 marked as trained" in captured.err
        assert "tailing" not in captured.err and captured.out == ""


class TestConvertCommand:
    @pytest.fixture()
    def v1_dataset(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 5, size=(600, 16)).astype(np.float64)
        y = rng.integers(0, 3, size=600).astype(np.int64)
        from repro.api.sharded import write_sharded_dataset

        write_sharded_dataset(tmp_path / "v1", X, y, shard_rows=200)
        return tmp_path, X, y

    def test_convert_to_v2_and_info(self, v1_dataset, capsys):
        tmp_path, X, y = v1_dataset
        exit_code = main(["convert", str(tmp_path / "v1"), str(tmp_path / "v2"),
                          "--codec", "zlib"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "zlib-compressed v2" in out and "block_rows=" in out
        assert main(["info", f"shard://{tmp_path / 'v2'}"]) == 0
        info = capsys.readouterr().out
        assert "codec" in info and "zlib" in info
        assert "compression_ratio" in info and "shard_ratios" in info

    def test_converted_data_round_trips(self, v1_dataset):
        tmp_path, X, y = v1_dataset
        assert main(["convert", str(tmp_path / "v1"), str(tmp_path / "v2")]) == 0
        from repro.api.sharded import open_sharded_matrix

        matrix = open_sharded_matrix(tmp_path / "v2")
        np.testing.assert_array_equal(matrix[:], X)
        matrix.close()

    def test_convert_back_to_raw(self, v1_dataset, capsys):
        tmp_path, X, _y = v1_dataset
        assert main(["convert", str(tmp_path / "v1"), str(tmp_path / "v2")]) == 0
        assert main(["convert", str(tmp_path / "v2"), str(tmp_path / "raw"),
                     "--codec", "raw"]) == 0
        assert "uncompressed, memory-mapped v2 shard(s)" in capsys.readouterr().out
        from repro.api.sharded import ShardedMatrix, open_sharded_matrix

        with open_sharded_matrix(tmp_path / "raw") as matrix:
            assert type(matrix) is ShardedMatrix
            np.testing.assert_array_equal(matrix[:], X)

    def test_streaming_predict_reports_decode_line(self, v1_dataset, tmp_path, capsys):
        tmp_dir, _X, _y = v1_dataset
        assert main(["convert", str(tmp_dir / "v1"), str(tmp_dir / "v2")]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", f"shard://{tmp_dir / 'v2'}", "--algorithm",
                     "logistic", "--iterations", "2", "--engine", "streaming",
                     "--io-workers", "2", "--save-model", str(model_path)]) == 0
        assert "compressed stream:" in capsys.readouterr().out
        assert main(["predict", f"shard://{tmp_dir / 'v2'}", "--model",
                     str(model_path), "--engine", "streaming",
                     "--io-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "compressed stream:" in out and "decode" in out
