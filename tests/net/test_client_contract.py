"""What NetClient promises its callers: a synchronous call reads its own
answer on the calling thread, ``submit`` futures resolve (and run their
callbacks) as their answers arrive, and no timeout, close or hang-up ever
leaves a later call reading somebody else's answer."""

import socket
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.net import NetClient, ProtocolError, RemoteError
from repro.serve import ServerClosed, ServerSaturated

FEATURES = 8


class _FirstColumn:
    """A served 'model' that answers each row with its first feature, so an
    answer names the row it belongs to.  A batch holding a row whose second
    feature is positive sleeps that many seconds first (a late answer); with
    ``gate`` set, every batch waits for it."""

    def __init__(self, gate=None):
        self.gate = gate
        self.started = threading.Event()

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        delay = float(X[:, 1].max())
        if delay > 0:
            time.sleep(delay)
        return X[:, 0]


def _row(value, delay=0.0):
    row = np.zeros(FEATURES)
    row[0], row[1] = value, delay
    return row


def _readers():
    return {t for t in threading.enumerate() if t.name == "m3-net-client"}


@pytest.fixture()
def serving(live):
    """``serving(**server_kwargs)``: a NetServer over a ``_FirstColumn`` model."""
    def start(gate=None, **server_kwargs):
        model = _FirstColumn(gate)
        return live(model=model, server_kwargs=server_kwargs), model

    return start


class TestSynchronousCalls:
    def test_closed_loop_calls_start_no_reader_thread(self, serving, framed):
        net, _ = serving()
        before = _readers()
        with NetClient(net.host, net.port) as client:
            for i in range(50):
                assert client.predict_one(framed(_row(i))).prediction == i
            assert client.predict(framed(np.stack([_row(7), _row(8)]))).predictions.tolist() == [7, 8]
            assert _readers() - before == set()

    def test_a_call_behind_pipelined_futures_gets_its_own_answer(self, serving, framed):
        gate = threading.Event()
        net, model = serving(gate=gate)
        with NetClient(net.host, net.port) as client:
            futures = [client.submit(framed(_row(i)), request_id=i) for i in range(16)]
            assert model.started.wait(timeout=10.0)  # the futures are held
            opener = threading.Timer(0.1, gate.set)
            opener.start()
            try:
                assert client.predict_one(framed(_row(100))).prediction == 100
                assert client.predict_one(framed(_row(101))).prediction == 101
            finally:
                gate.set()
                opener.join()
            results = [future.result(timeout=10.0) for future in futures]
        assert [(r.id, r.prediction) for r in results] == [(i, i) for i in range(16)]

    @pytest.mark.parametrize("then", ["predict", "submit"])
    def test_a_timed_out_call_leaves_the_connection_in_step(self, serving, framed, then):
        net, _ = serving()
        before = _readers()
        with NetClient(net.host, net.port) as client:
            began = time.perf_counter()
            with pytest.raises(FutureTimeout):
                client.predict_one(framed(_row(-1, delay=0.5)), timeout_s=0.1)
            assert time.perf_counter() - began < 0.4
            # The late answer (-1) is skipped by whoever reads next.
            for i in range(5):
                if then == "predict":
                    result = client.predict_one(framed(_row(i)))
                else:
                    result = client.submit(framed(_row(i))).result(timeout=10.0)
                assert result.prediction == i
            if then == "predict":
                assert _readers() - before == set()

    def test_a_timed_out_http_call_leaves_the_connection_in_step(self, serving):
        net, _ = serving()
        with NetClient(net.host, net.port, http=True) as client:
            with pytest.raises(FutureTimeout):
                client.predict_one(_row(-1, delay=0.5).tolist(), timeout_s=0.1)
            for i in range(5):
                assert client.predict_one(_row(i).tolist()).prediction == i

    def test_typed_remote_errors_keep_their_types(self, serving, framed):
        gate = threading.Event()
        net, model = serving(gate=gate, max_batch=1, workers=1, max_pending=1,
                             max_delay_ms=0.0)
        try:
            with NetClient(net.host, net.port) as holder, \
                    NetClient(net.host, net.port) as client:
                with pytest.raises(RemoteError) as refused:
                    client.predict("not rows")
                assert refused.value.kind == "bad_request"
                first = holder.submit(framed(_row(1)))
                assert model.started.wait(timeout=10.0)
                queued = holder.submit(framed(_row(2)))  # fills the one queue slot
                for _ in range(500):
                    if net.stats().requests == 3:
                        break
                    time.sleep(0.01)
                with pytest.raises(ServerSaturated):
                    client.predict_one(framed(_row(3)))
                gate.set()
                assert first.result(timeout=10.0).prediction == 1
                assert queued.result(timeout=10.0).prediction == 2
                assert client.predict_one(framed(_row(4))).prediction == 4
        finally:
            gate.set()


class TestFutures:
    def test_futures_run_their_callbacks_before_any_result_call(self, serving, framed):
        net, _ = serving()
        seen = []
        all_done = threading.Event()

        def record(future):
            seen.append(future.result().id)
            if len(seen) == 32:
                all_done.set()

        with NetClient(net.host, net.port) as client:
            futures = [client.submit(framed(_row(i)), request_id=i) for i in range(32)]
            for future in futures:
                future.add_done_callback(record)
            assert all_done.wait(timeout=10.0)
        assert sorted(seen) == list(range(32))

    def test_threads_mixing_calls_and_futures_get_their_own_rows(self, serving, framed):
        net, _ = serving()
        failures = []

        def run(client, k):
            try:
                for i in range(100):
                    value = 1000 * k + i
                    if i % 3 == 0:
                        result = client.submit(framed(_row(value))).result(timeout=10.0)
                    else:
                        result = client.predict_one(framed(_row(value)))
                    assert result.prediction == value
            except Exception as error:  # noqa: BLE001 — reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with NetClient(net.host, net.port) as client:
                threads = [threading.Thread(target=run, args=(client, k)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestEndings:
    def test_close_from_another_thread_ends_a_waiting_call(self, serving, framed):
        gate = threading.Event()
        net, _ = serving(gate=gate)
        client = NetClient(net.host, net.port)
        closer = threading.Timer(0.2, client.close)
        try:
            closer.start()
            began = time.perf_counter()
            with pytest.raises(ConnectionError):
                client.predict_one(framed(_row(1)))
            assert time.perf_counter() - began < 5.0
            with pytest.raises(ServerClosed):
                client.predict_one(framed(_row(2)))
        finally:
            gate.set()
            closer.join()
            client.close()

    @pytest.mark.parametrize("submitted", [False, True], ids=["predict-only", "reader-parked"])
    def test_a_server_hang_up_while_idle_raises_promptly(self, serving, framed, submitted):
        net, _ = serving()
        before = _readers()
        with NetClient(net.host, net.port) as client:
            if submitted:
                assert client.submit(framed(_row(1))).result(timeout=10.0).prediction == 1
            assert client.predict_one(framed(_row(2))).prediction == 2
            net.close()  # the drain hangs up on the idle connection
            began = time.perf_counter()
            with pytest.raises((ConnectionError, ServerClosed)):
                client.predict_one(framed(_row(3)))
            with pytest.raises((ConnectionError, ServerClosed)):
                client.submit(framed(_row(4))).result(timeout=10.0)
            assert time.perf_counter() - began < 5.0
            for reader in _readers() - before:
                reader.join(timeout=5.0)  # a parked reader woke and ended
            assert _readers() - before == set()

    def test_a_closed_client_leaves_no_reader_thread(self, serving, framed):
        net, _ = serving()
        before = _readers()
        client = NetClient(net.host, net.port)
        try:
            futures = [client.submit(framed(_row(i))) for i in range(8)]
            assert [f.result(timeout=10.0).prediction for f in futures] == list(range(8))
            assert len(_readers() - before) == 1
        finally:
            client.close()
        assert _readers() - before == set()


class TestMalformedAnswers:
    def test_an_answer_that_is_not_a_record_raises_a_protocol_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def serve():
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as lines:
                    for _ in lines:  # the hello, then each request
                        conn.sendall(b"[1, 2]\n")

            server = threading.Thread(target=serve)
            server.start()
            try:
                with NetClient(*listener.getsockname()[:2], timeout_s=5.0) as client:
                    with pytest.raises(ProtocolError):
                        client.predict_one(_row(1))
                    with pytest.raises(ProtocolError):
                        client.submit(_row(2)).result(timeout=5.0)
                    with pytest.raises(ProtocolError):
                        client.predict_one(_row(3))
            finally:
                server.join(timeout=10.0)
            assert not server.is_alive()
