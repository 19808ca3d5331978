"""Integration tests: NetServer round trips over real sockets."""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.net import NetClient, NetResult, NetServer, RemoteError
from repro.serve import ModelServer, ServerClosed, ServerSaturated


class _BlockingModel:
    """A 'model' whose predict blocks until released — for queue tests."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def predict(self, X):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return np.zeros(np.asarray(X).shape[0])


class TestRoundTrips:
    """Through ``NetClient``, once per request framing (``framed``)."""

    def test_predictions_bit_identical_to_in_core(self, live, problem, fitted, framed):
        X, _ = problem
        net = live()
        expected = fitted.predict(X[:20])
        with NetClient(net.host, net.port) as client:
            futures = [client.submit(framed(X[i]), request_id=i) for i in range(20)]
            results = [future.result(timeout=30.0) for future in futures]
        served = np.concatenate([r.predictions for r in results])
        np.testing.assert_array_equal(served, expected)
        assert [r.id for r in results] == list(range(20))
        assert all(r.model_key == "default@1" for r in results)

    def test_net_result_accessors(self, live, problem, framed):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            result = client.predict_one(framed(X[0]))
        assert isinstance(result, NetResult)
        assert result.model_name == "default"
        assert result.model_version == 1
        assert result.prediction == result.predictions[0]
        assert result.queue_wait_ms >= 0.0
        assert result.compute_ms >= 0.0
        assert result.batch_rows >= 1

    def test_batch_request(self, live, problem, fitted, framed):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            result = client.predict(framed(X[:12]))
        np.testing.assert_array_equal(result.predictions, fitted.predict(X[:12]))

    def test_method_override(self, live, problem, softmax_fitted, framed):
        X, _ = problem
        net = live(model=softmax_fitted)
        with NetClient(net.host, net.port) as client:
            result = client.predict(framed(X[:5]), method="predict_proba")
        np.testing.assert_array_equal(
            result.predictions, softmax_fitted.predict_proba(X[:5])
        )
        assert result.predictions.shape == (5, 3)

    def test_request_naming_no_method_gets_predict(self, live, problem, softmax_fitted, framed):
        X, _ = problem
        net = live(model=softmax_fitted)
        with NetClient(net.host, net.port) as client:
            result = client.predict(framed(X[:3]))
        np.testing.assert_array_equal(result.predictions, softmax_fitted.predict(X[:3]))

    def test_model_routing(self, live, problem, fitted, softmax_fitted, framed):
        X, _ = problem
        net = live()
        net.server.publish("soft", softmax_fitted)
        with NetClient(net.host, net.port) as client:
            result = client.predict(framed(X[:4]), model="soft")
        assert result.model_key == "soft@1"
        np.testing.assert_array_equal(
            result.predictions, softmax_fitted.predict(X[:4])
        )

    def test_unknown_model_raises_typed_remote_error(self, live, problem, framed):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.predict(framed(X[0]), model="missing")
        assert excinfo.value.kind == "model"
        assert "missing" in excinfo.value.remote_message

    def test_blank_lines_are_ignored(self, live, problem):
        X, _ = problem
        net = live()
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            body = json.dumps(list(map(float, X[0])))
            sock.sendall(b"\n\n" + body.encode() + b"\n")
            record = json.loads(sock.makefile("rb").readline())
        assert record["model"] == "default@1"
        assert "error" not in record

    def test_unparseable_line_gets_a_bad_request_record(self, live):
        net = live()
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            record = json.loads(reader.readline())
            assert record["error"]["kind"] == "bad_request"
            assert record["id"] is None
            # The connection survives the bad frame.
            sock.sendall(b'{"no_x": 1}\n')
            record = json.loads(reader.readline())
            assert record["error"]["kind"] == "bad_request"

    def test_submit_on_closed_client_raises(self, live, problem):
        X, _ = problem
        net = live()
        client = NetClient(net.host, net.port)
        client.close()
        with pytest.raises(ServerClosed, match="client connection"):
            client.submit(X[0])


class TestHttpRoundTrips:
    def test_http_client_matches_in_core(self, live, problem, fitted):
        X, _ = problem
        net = live()
        expected = fitted.predict(X[:8])
        with NetClient(net.host, net.port, http=True) as client:
            results = [client.predict_one(X[i]) for i in range(8)]
        served = np.concatenate([r.predictions for r in results])
        np.testing.assert_array_equal(served, expected)
        # Eight requests rode one keep-alive connection.
        assert net.stats().connections == 1

    def test_stdlib_http_client_interop(self, live, problem, fitted):
        X, _ = problem
        net = live()
        conn = http.client.HTTPConnection(net.host, net.port, timeout=10)
        try:
            for i in range(3):
                body = json.dumps({"id": i, "x": list(map(float, X[i]))})
                conn.request("POST", "/predict", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                record = json.loads(response.read())
                assert record["id"] == i
                assert record["predictions"] == [int(fitted.predict(X[i : i + 1])[0])]
                assert record["model"] == "default@1"
        finally:
            conn.close()
        assert net.stats().connections == 1  # keep-alive reuse

    def test_get_is_405_and_unknown_path_is_404(self, live):
        net = live()
        conn = http.client.HTTPConnection(net.host, net.port, timeout=10)
        try:
            conn.request("GET", "/predict")
            response = conn.getresponse()
            assert response.status == 405
            assert json.loads(response.read())["error"]["kind"] == "bad_request"
            conn.request("POST", "/nope", body="[1.0]")
            response = conn.getresponse()
            assert response.status == 404
            assert "no such path" in json.loads(response.read())["error"]["message"]
        finally:
            conn.close()

    def test_unknown_model_is_a_400(self, live, problem):
        X, _ = problem
        net = live()
        conn = http.client.HTTPConnection(net.host, net.port, timeout=10)
        try:
            body = json.dumps({"x": list(map(float, X[0])), "model": "missing"})
            conn.request("POST", "/predict", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["kind"] == "model"
        finally:
            conn.close()

    def test_connection_close_header_is_honored(self, live, problem):
        X, _ = problem
        net = live()
        from repro.net import protocol

        body = protocol.encode_request(list(map(float, X[0])))
        raw = protocol.http_request_bytes(body, keep_alive=False)
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            sock.sendall(raw)
            data = sock.makefile("rb").read()  # server hangs up after one response
        head, _, payload = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in head
        assert json.loads(payload)["model"] == "default@1"

    def test_auto_mode_serves_both_framings_on_one_port(self, live, problem, fitted):
        X, _ = problem
        net = live()
        expected = int(fitted.predict(X[:1])[0])
        with NetClient(net.host, net.port) as jsonl_client:
            assert jsonl_client.predict_one(X[0]).prediction == expected
        with NetClient(net.host, net.port, http=True) as http_client:
            assert http_client.predict_one(X[0]).prediction == expected
        assert net.stats().connections == 2


class TestConstructorValidation:
    def test_invalid_max_inflight_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            NetServer(ModelServer(), max_inflight=0)


class TestSaturation:
    def test_saturated_raises_the_native_type(self, live, problem, framed):
        X, _ = problem
        model = _BlockingModel()
        net = live(model=model, server_kwargs={
            "max_batch": 1, "max_pending": 1, "max_delay_ms": 0.0,
        })
        try:
            with NetClient(net.host, net.port) as client:
                first = client.submit(framed(X[0]))
                assert model.started.wait(timeout=10.0)
                queued = client.submit(framed(X[1]))     # fills the one queue slot
                refused = client.submit(framed(X[2]))    # typed backpressure
                # Wait until the server has parsed (and fated) all three
                # frames before unblocking the dispatcher — otherwise the
                # freed queue slot would let the third request in.
                for _ in range(200):
                    if net.stats().requests == 3:
                        break
                    time.sleep(0.01)
                assert net.stats().requests == 3
                # Responses flush in request order, so the saturated error
                # record arrives after the blocked requests complete.
                model.release.set()
                assert first.result(timeout=10.0).predictions.shape == (1,)
                assert queued.result(timeout=10.0).predictions.shape == (1,)
                with pytest.raises(ServerSaturated):
                    refused.result(timeout=10.0)
            # The loop thread bumps the response counters after flushing
            # each write; the client's futures can resolve a beat earlier.
            for _ in range(200):
                if net.stats().responses == 3:
                    break
                time.sleep(0.01)
            stats = net.stats()
            assert stats.saturated == 1
            assert stats.errors == 1
            assert stats.requests == 3
            assert stats.responses == 3
            assert stats.dropped_connections == 0
        finally:
            model.release.set()

    def test_http_saturation_is_a_429(self, live, problem, wait_stats):
        X, _ = problem
        model = _BlockingModel()
        net = live(model=model, server_kwargs={
            "max_batch": 1, "max_pending": 1, "max_delay_ms": 0.0,
        })
        try:
            with NetClient(net.host, net.port) as jsonl_client:
                jsonl_client.submit(X[0])
                assert model.started.wait(timeout=10.0)
                jsonl_client.submit(X[1])  # fills the one queue slot...
                # ...once the server has read it (see wait_stats).
                assert wait_stats(net, lambda s: s.requests == 2).requests == 2
                conn = http.client.HTTPConnection(net.host, net.port, timeout=10)
                try:
                    conn.request("POST", "/predict",
                                 body=json.dumps(list(map(float, X[2]))))
                    response = conn.getresponse()
                    assert response.status == 429
                    record = json.loads(response.read())
                    assert record["error"]["kind"] == "saturated"
                finally:
                    conn.close()
                model.release.set()
        finally:
            model.release.set()


class TestLifecycleAndStats:
    def test_ephemeral_port_is_bound_and_reported(self, live):
        net = live(port=0)
        assert net.port != 0
        assert net.address == (net.host, net.port)
        assert "listening" in repr(net)

    def test_stats_accounting_balances(self, live, problem, framed):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            futures = [client.submit(framed(X[i])) for i in range(10)]
            for future in futures:
                future.result(timeout=30.0)
        # Response counters land on the loop thread after each flush and
        # can trail the client-side futures by a beat.
        for _ in range(200):
            if net.stats().responses == 10:
                break
            time.sleep(0.01)
        stats = net.stats()
        assert stats.connections == 1
        assert stats.requests == 10
        assert stats.responses == 10
        assert stats.errors == 0
        assert stats.as_dict()["requests"] == 10
        # The snapshot is independent of the live counters.
        snapshot = stats.snapshot()
        assert snapshot is not stats
        assert snapshot == stats  # every dataclass field, not a hand-kept list

    def test_active_drops_to_zero_after_clients_leave(self, live, problem):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            client.predict_one(X[0])
        deadline = threading.Event()
        for _ in range(100):
            if net.stats().active == 0:
                break
            deadline.wait(0.05)
        assert net.stats().active == 0

    def test_context_manager_closes(self, fitted):
        server = ModelServer(max_batch=8)
        server.publish("default", fitted)
        with NetServer(server) as net:
            port = net.port
            assert not net.closed
        assert net.closed
        # The ModelServer was drained by the front end's close.
        assert server.closed
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
        server.close()
