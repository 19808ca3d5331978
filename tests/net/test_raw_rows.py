"""The raw-row request frame: equivalence with JSON lines, the hello, the door."""

import itertools
import json
import socket
import threading

import numpy as np
import pytest

from repro.net import NetClient, RemoteError, protocol


def _exchange(net, data, n_lines):
    """Send raw bytes on a fresh connection; the next ``n_lines`` answers, then
    whether the server hung up."""
    with socket.create_connection((net.host, net.port), timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(data)
        records = [json.loads(reader.readline()) for _ in range(n_lines)]
        sock.settimeout(0.25)
        try:
            closed = reader.readline() == b""
        except OSError:
            closed = False
    return records, closed


class TestEquivalence:
    @pytest.mark.parametrize("n_rows", [1, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("method", ["predict", "predict_proba"])
    @pytest.mark.parametrize("routed", [False, True])
    def test_json_and_raw_frames_interleaved_agree(
        self, live, problem, softmax_fitted, n_rows, dtype, method, routed, wait_stats
    ):
        X, _ = problem
        net = live(model=softmax_fitted)
        net.server.publish("other", softmax_fitted)
        pool = np.tile(X, (2, 1)).astype(dtype)
        batches = [pool[i : i + n_rows] for i in range(0, 6 * n_rows, n_rows)]
        with NetClient(net.host, net.port) as client:
            assert "raw-row" in repr(client)
            futures = []
            for i, (rows, as_json) in enumerate(zip(batches, itertools.cycle([False, True]))):
                routing = {"request_id": i, "model": "other"} if routed else {}
                futures.append(client.submit(
                    rows.tolist() if as_json else rows, method=method, **routing
                ))
            results = [future.result(timeout=30.0) for future in futures]
        # float32 rows reach the model as the float64 values their JSON
        # spelling parses to, whichever frame carried them; a served row has
        # the bits of its row in an in-core full-matrix call.
        in_core = getattr(softmax_fitted, method)(pool.astype(np.float64))
        for i, result in enumerate(results):
            expected = in_core[i * n_rows : (i + 1) * n_rows]
            np.testing.assert_array_equal(result.predictions, expected)
            assert result.id == (i if routed else None)
            assert result.model_key == ("other@1" if routed else "default@1")
        # Six requests, six responses: the hello is neither.
        stats = wait_stats(net, lambda s: s.responses == 6)
        assert (stats.requests, stats.responses, stats.errors) == (6, 6, 0)

    def test_non_contiguous_rows_travel_in_c_order(self, live, problem, fitted):
        X, _ = problem
        net = live()
        view = np.asfortranarray(X[:9])
        with NetClient(net.host, net.port) as client:
            result = client.predict(view)
        np.testing.assert_array_equal(result.predictions, fitted.predict(X[:9]))

    @pytest.mark.parametrize("rows, message", [
        (np.zeros((2, 2, 2)), "2-D"),
        (np.zeros((0, 8)), "at least one row"),
        ([], "at least one row"),
    ])
    def test_what_the_frame_cannot_carry_goes_as_json_and_fails_typed(
        self, live, rows, message
    ):
        net = live()
        with NetClient(net.host, net.port) as client:
            with pytest.raises(RemoteError, match=message) as excinfo:
                client.predict(rows)
        assert excinfo.value.kind == "model"

    def test_integer_rows_go_as_json(self, live, problem, fitted):
        net = live()
        rows = np.arange(16).reshape(2, 8)
        with NetClient(net.host, net.port) as client:
            result = client.predict(rows)
        np.testing.assert_array_equal(result.predictions, fitted.predict(rows))


class TestHello:
    def test_auto_server_advertises_the_frame_and_counts_nothing(self, live):
        net = live()
        records, closed = _exchange(net, protocol.HELLO_LINE, 1)
        assert records == [protocol.hello_record()]
        assert records[0]["frames"] == ["M3ROWS"]
        assert not closed
        stats = net.stats()
        assert (stats.requests, stats.responses, stats.errors) == (0, 0, 0)

    def test_peer_without_the_frame_keeps_the_client_on_json_lines(self, problem, fitted):
        """Version skew: a peer that predates the frame answers the hello as
        the malformed request it is; every ndarray then goes as a JSON line."""
        X, _ = problem
        received = []

        def jsonl_only_peer(listener):
            conn, _addr = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    received.append(line)
                    try:
                        request = protocol.parse_request_line(line.decode())
                        record = {
                            "id": request.id,
                            "model": "default@1",
                            "predictions": fitted.predict(np.asarray(request.rows)).tolist(),
                        }
                    except protocol.ProtocolError as error:
                        record = protocol.error_record(error)
                    stream.write((protocol.encode_record(record) + "\n").encode())
                    stream.flush()

        with socket.create_server(("127.0.0.1", 0)) as listener:
            peer = threading.Thread(target=jsonl_only_peer, args=(listener,), daemon=True)
            peer.start()
            with NetClient(*listener.getsockname()) as client:
                assert "jsonl" in repr(client)
                result = client.predict(X[:5])
            peer.join(timeout=10)
        np.testing.assert_array_equal(result.predictions, fitted.predict(X[:5]))
        assert received[0] == protocol.HELLO_LINE
        assert [json.loads(line) for line in received[1:]] == [X[:5].tolist()]

    def test_http_client_sends_no_hello(self, live, problem):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port, http=True) as client:
            assert "http" in repr(client)
            client.predict_one(X[0])
        assert net.stats().requests == 1


_BAD_HEADS = [
    b"M3ROWS not json",
    b"M3ROWS [1, 2]",
    b'M3ROWS {"shape": [1, 8]}',
    b'M3ROWS {"dtype": "<i8", "shape": [1, 8]}',
    b'M3ROWS {"dtype": ["<f8"], "shape": [1, 8]}',
    b'M3ROWS {"dtype": "<f8"}',
    b'M3ROWS {"dtype": "<f8", "shape": 8}',
    b'M3ROWS {"dtype": "<f8", "shape": []}',
    b'M3ROWS {"dtype": "<f8", "shape": [1, 2, 4]}',
    b'M3ROWS {"dtype": "<f8", "shape": [1, 8.0]}',
    b'M3ROWS {"dtype": "<f8", "shape": [true, 8]}',
    b'M3ROWS {"dtype": "<f8", "shape": [-1, 8]}',
    b'M3ROWS {"dtype": "<f8", "shape": [0, 8]}',
    b'M3ROWS {"dtype": "<f8", "shape": [1, 0]}',
    b'M3ROWS {"dtype": "<f8", "shape": [1, 8], "method": 3}',
    b'M3ROWS {"dtype": "<f8", "shape": [1, 8], "model": ["default"]}',
    b"M3ROWS \xff\xfe",
]


class TestAtTheDoor:
    @pytest.mark.parametrize("head", _BAD_HEADS)
    def test_malformed_head_is_a_bad_request_then_a_hang_up(self, live, head, wait_stats):
        net = live()
        records, closed = _exchange(net, head + b"\n", 1)
        assert records[0]["error"]["kind"] == "bad_request"
        # The payload length is unknown: the stream cannot be re-framed.
        assert closed
        stats = wait_stats(net, lambda s: s.active == 0)
        assert (stats.requests, stats.responses, stats.errors) == (1, 1, 1)
        assert stats.dropped_connections == 0

    def test_oversize_payload_is_refused_from_the_head(self, live):
        net = live(max_request_bytes=4096)
        # 4104 bytes declared, none sent: the refusal cannot have read them.
        head = b'M3ROWS {"id": 5, "dtype": "<f8", "shape": [1, 513]}\n'
        records, closed = _exchange(net, head, 1)
        assert records[0]["error"]["kind"] == "bad_request"
        assert "4104 bytes exceeds the 4096-byte limit" in records[0]["error"]["message"]
        assert closed

    def test_payload_at_the_limit_is_served(self, live, problem, fitted):
        X, _ = problem
        net = live(max_request_bytes=64 * 8)
        with NetClient(net.host, net.port) as client:
            result = client.predict(X[:8])
        np.testing.assert_array_equal(result.predictions, fitted.predict(X[:8]))

    @pytest.mark.parametrize("framing", ["raw-row", "http"])
    def test_a_torn_payload_drops_the_connection(self, live, problem, framing, wait_stats):
        X, _ = problem
        net = live()
        if framing == "raw-row":
            frame = protocol.encode_raw_rows_request(X[:4])
        else:
            frame = protocol.http_request_bytes(protocol.encode_request(X[:4]))
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            sock.sendall(frame[:-9])
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").read() == b""   # no record: a bare close
        stats = wait_stats(net, lambda s: s.dropped_connections == 1)
        assert stats.dropped_connections == 1
        assert (stats.requests, stats.responses) == (0, 0)

    def test_wrong_width_is_a_model_error_and_the_connection_survives(
        self, live, problem, softmax_fitted
    ):
        X, _ = problem
        net = live(model=softmax_fitted)
        with NetClient(net.host, net.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.predict(np.zeros((2, 5)))
            assert excinfo.value.kind == "model"
            assert client.predict(X[:2]).predictions.shape == (2,)

    def test_oversize_json_line_gets_a_typed_record(self, live, wait_stats):
        net = live(max_request_bytes=4096)
        unhandled = []
        net._loop.call_soon_threadsafe(
            net._loop.set_exception_handler,
            lambda _loop, context: unhandled.append(context),
        )
        line = b"[" + b"1.0, " * 1000 + b"1.0]\n"
        assert len(line) > 4096
        records, closed = _exchange(net, line, 1)
        assert records[0]["error"]["kind"] == "bad_request"
        assert "4096-byte limit" in records[0]["error"]["message"]
        assert closed
        stats = wait_stats(net, lambda s: s.active == 0)
        assert (stats.requests, stats.responses, stats.errors) == (1, 1, 1)
        assert stats.dropped_connections == 0
        assert unhandled == []

    def test_empty_array_is_refused_with_a_clear_message(self, live):
        net = live()
        records, _closed = _exchange(net, b"[]\n", 1)
        assert records[0]["error"]["kind"] == "model"
        assert "at least one row of at least one feature" in records[0]["error"]["message"]
        assert "gufunc" not in records[0]["error"]["message"]


class TestDeepPipelining:
    def test_thousands_in_flight_before_the_first_result(self, live, problem,
                                                         softmax_fitted):
        """The reader must not wait on a sender blocked in ``sendall``: with
        more unread response bytes than the socket buffers hold, that is a
        four-party deadlock (client reader, client sender, server writer,
        server reader)."""
        X, _ = problem
        # A small in-flight cap makes the server stop reading early; the
        # list spelling keeps this on the JSON path the wedge was found on.
        net = live(model=softmax_fitted, max_inflight=8)
        rows = np.tile(X, (2, 1)).tolist()
        done = []

        def run():
            with NetClient(net.host, net.port) as client:
                futures = [client.submit(rows, method="predict_proba")
                           for _ in range(600)]
                done.extend(f.result(timeout=30.0).predictions.shape for f in futures)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive(), "client and server wedged on full socket buffers"
        assert done == [(400, 3)] * 600
