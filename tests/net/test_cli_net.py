"""CLI wiring for the network front end: m3 served, its stdio transport
m3 serve, and m3 predict --connect."""

import inspect
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.sharded import open_sharded_matrix
from repro.cli import build_parser, main
from repro.data.writers import write_infimnist_dataset
from repro.ml import load_model
from repro.net import NetClient, NetServer, protocol
from repro.serve import ModelRegistry, ModelServer


def _rows(dataset):
    """Every row of a dataset directory, as an in-memory array."""
    with open_sharded_matrix(dataset) as matrix:
        return np.array(matrix[:])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_net")
    dataset = root / "served.m3"
    write_infimnist_dataset(dataset, num_examples=120, seed=5)
    model_path = root / "model.json"
    assert main(["train", str(dataset), "--algorithm", "logistic",
                 "--iterations", "2", "--save-model", str(model_path)]) == 0
    return dataset, model_path


class TestParserWiring:
    def test_served_defaults(self):
        args = build_parser().parse_args(["served", "--model", "m.json"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.max_batch == 256
        assert args.max_delay_ms == 0.0
        assert args.adaptive_delay is False
        assert args.adaptive_ceiling_ms == 5.0
        assert not hasattr(args, "workers")
        assert args.max_pending == 1024
        assert args.max_inflight == 256

    @pytest.mark.parametrize(
        "text, expected",
        [("10.0.0.7:9000", ("10.0.0.7", 9000)), ("[::1]:9000", ("::1", 9000)),
         ("[fe80::1%eth0]:80", ("fe80::1%eth0", 80))],
    )
    def test_connect_parses_host_and_port(self, text, expected):
        args = build_parser().parse_args(["predict", "data.m3", "--connect", text])
        assert args.connect == expected

    @pytest.mark.parametrize("bad", ["localhost", "host:0", "host:70000",
                                     "host:http", ":8000", "[]:8000"])
    def test_malformed_hostport_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "data.m3", "--connect", bad])
        assert "HOST:PORT" in capsys.readouterr().err


class TestPredictConnectValidation:
    def test_model_does_not_apply_to_connect(self, trained, capsys):
        dataset, model_path = trained
        code = main(["predict", str(dataset), "--connect", "127.0.0.1:9",
                     "--model", str(model_path)])
        assert code == 2
        assert "does not apply to --connect" in capsys.readouterr().err

    def test_scan_knobs_do_not_apply_to_connect(self, trained, capsys):
        dataset, _ = trained
        code = main(["predict", str(dataset), "--connect", "127.0.0.1:9",
                     "--engine", "streaming", "--io-workers", "4"])
        assert code == 2
        assert "does not apply to --connect" in capsys.readouterr().err

    def test_model_required_without_connect(self, trained, capsys):
        dataset, _ = trained
        code = main(["predict", str(dataset)])
        assert code == 2
        assert "--model is required" in capsys.readouterr().err


def _serving_net(model_path, **net_kwargs):
    registry = ModelRegistry()
    registry.publish("default", str(model_path))
    server = ModelServer(registry=registry, max_batch=32, max_delay_ms=1.0)
    return NetServer(server, **net_kwargs), server


class TestPredictConnect:
    def test_connect_matches_the_scan_path(self, trained, tmp_path, capsys):
        dataset, model_path = trained
        scan_out = tmp_path / "scan.npy"
        served_out = tmp_path / "served.npy"
        assert main(["predict", str(dataset), "--model", str(model_path),
                     "--output", str(scan_out)]) == 0
        net, server = _serving_net(model_path)
        try:
            code = main(["predict", str(dataset),
                         "--connect", f"{net.host}:{net.port}",
                         "--output", str(served_out)])
        finally:
            net.close()
            server.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "network client" in out
        assert f"by {net.host}:{net.port}" in out
        np.testing.assert_array_equal(np.load(served_out), np.load(scan_out))


class TestServeIsTheSocketOnStdio:
    """``m3 serve`` pumps stdin through one connection of the ``served``
    stack, so what the socket takes, stdin takes."""

    def _serve(self, model_path, tmp_path, request_bytes):
        requests = tmp_path / "requests.bin"
        requests.write_bytes(request_bytes)
        responses = tmp_path / "responses.bin"
        assert main(["serve", "--model", str(model_path), "--input", str(requests),
                     "--output", str(responses)]) == 0
        return responses.read_bytes()

    def test_raw_row_and_http_frames_answered_in_order_beside_json_lines(
        self, trained, tmp_path, capsys
    ):
        dataset, model_path = trained
        matrix = _rows(dataset)
        rows = np.asarray(matrix[:4], dtype=np.float64)
        expected = load_model(model_path).predict(rows)
        body = protocol.encode_request(rows[2], request_id="http")
        out = self._serve(model_path, tmp_path, b"".join([
            (protocol.encode_request(rows[0], request_id="json") + "\n").encode(),
            protocol.encode_raw_rows_request(rows[1:2], request_id="raw"),
            protocol.http_request_bytes(body, host="stdin", keep_alive=True),
            (protocol.encode_request(rows[3], request_id="last") + "\n").encode(),
        ]))
        first, second, rest = out.split(b"\n", 2)
        head, _, rest = rest.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        records = [json.loads(first), json.loads(second),
                   json.loads(rest[:length]), json.loads(rest[length:])]
        assert [record["id"] for record in records] == ["json", "raw", "http", "last"]
        assert [record["predictions"] for record in records] == [[int(p)] for p in expected]
        assert all(record["model"] == "default@1" for record in records)
        assert "served 4 request(s)" in capsys.readouterr().err

    def test_over_limit_line_answered_bad_request(self, trained, tmp_path):
        dataset, model_path = trained
        matrix = _rows(dataset)
        good = (json.dumps(list(map(float, np.asarray(matrix[0])))) + "\n").encode()
        limit = inspect.signature(NetServer).parameters["max_request_bytes"].default
        out = self._serve(model_path, tmp_path, good + b"[" + b"1" * limit + b"]\n" + good)
        records = [json.loads(line) for line in out.splitlines()]
        # Answered, then hung up on: what follows an unframeable line is not read.
        assert len(records) == 2
        assert "predictions" in records[0]
        assert records[1]["error"]["kind"] == "bad_request"
        assert "limit" in records[1]["error"]["message"]


class TestServedEndToEnd:
    def test_served_banner_sigterm_drain(self, trained):
        dataset, model_path = trained
        matrix = _rows(dataset)
        expected = load_model(model_path).predict(np.asarray(matrix[:6]))
        src_root = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "served",
             "--model", str(model_path), "--port", "0",
             "--adaptive-delay", "--max-batch", "32"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r" on ([\d.]+):(\d+) \(", banner)
            assert match, f"no address in banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            assert "max_delay=adaptive (ceiling 5.0ms)" in banner
            assert "SIGTERM drains" in banner
            with NetClient(host, port, timeout_s=15.0) as client:
                futures = [client.submit(np.asarray(matrix[i]), request_id=i)
                           for i in range(6)]
                results = [future.result(timeout=30.0) for future in futures]
            served = np.concatenate([r.predictions for r in results])
            np.testing.assert_array_equal(served, expected)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert "net: 1 connection(s), 6 requests, 6 responses" in err
        assert "adaptive delay: learned window" in err
        assert "drained and closed" in err
