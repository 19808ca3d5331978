"""Graceful drain, keep-alive under swap, and shutdown lifecycle tests."""

import threading
import time

import numpy as np
import pytest

from repro.net import NetClient, NetServer
from repro.serve import ModelServer, ServerClosed


class _BlockingModel:
    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def predict(self, X):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return np.zeros(np.asarray(X).shape[0])


class TestGracefulDrain:
    def test_inflight_requests_are_answered_before_close_returns(self, live, problem,
                                                                 framed, wait_stats):
        X, _ = problem
        model = _BlockingModel()
        net = live(model=model, server_kwargs={
            "max_batch": 1, "max_delay_ms": 0.0,
        })
        try:
            with NetClient(net.host, net.port) as client:
                futures = [client.submit(framed(X[i]), request_id=i) for i in range(4)]
                assert model.started.wait(timeout=10.0)
                # In flight = read by the server, not still in the client's stack.
                assert wait_stats(net, lambda s: s.requests == 4).requests == 4
                closer = threading.Thread(target=net.close)
                closer.start()
                # The drain must wait for the dispatcher, not abandon it.
                time.sleep(0.05)
                assert closer.is_alive()
                model.release.set()
                closer.join(timeout=30.0)
                assert not closer.is_alive()
                # Every request accepted before the drain got its answer.
                results = [future.result(timeout=10.0) for future in futures]
            assert [r.id for r in results] == list(range(4))
            assert net.stats().responses == 4
        finally:
            model.release.set()

    def test_close_is_idempotent(self, live, problem):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            client.predict_one(X[0])
        net.close()
        net.close()
        assert net.closed
        assert "closed" in repr(net)

    def test_drain_closes_the_model_server_intake(self, live, problem):
        X, _ = problem
        net = live()
        net.close()
        with pytest.raises(ServerClosed):
            net.server.submit(X[0])

    def test_client_sees_eof_after_drain(self, live, problem):
        X, _ = problem
        net = live()
        client = NetClient(net.host, net.port)
        try:
            client.predict_one(X[0])
            net.close()
            # The server hung up; a submit now either fails to send or its
            # future fails with the relayed connection error.
            with pytest.raises((OSError, ServerClosed)):
                future = client.submit(X[1])
                future.result(timeout=10.0)
        finally:
            client.close()

    def test_serve_forever_unblocks_on_request_shutdown(self, live):
        net = live()
        runner = threading.Thread(target=net.serve_forever, kwargs={"poll_s": 0.05})
        runner.start()
        time.sleep(0.1)
        assert runner.is_alive()
        net.request_shutdown()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert net.closed


class TestKeepAliveAcrossSwap:
    def test_every_response_names_exactly_one_version(self, live, problem, fitted,
                                                      framed):
        X, _ = problem
        net = live()
        expected = fitted.predict(X)
        swapped = threading.Event()

        def swap():
            time.sleep(0.01)
            net.server.publish("default", fitted)  # default@2, same weights
            swapped.set()

        swapper = threading.Thread(target=swap)
        swapper.start()
        try:
            with NetClient(net.host, net.port) as client:
                futures = [client.submit(framed(X[i]), request_id=i) for i in range(60)]
                results = [future.result(timeout=30.0) for future in futures]
        finally:
            swapper.join(timeout=10.0)
        assert swapped.is_set()
        for i, result in enumerate(results):
            # One connection rode across the hot swap; each response was
            # served wholly by one published version.
            assert result.model_key in ("default@1", "default@2")
            assert result.predictions[0] == expected[i]

    def test_swap_then_predict_serves_the_new_version(self, live, problem,
                                                      fitted, softmax_fitted, framed):
        X, _ = problem
        net = live()
        with NetClient(net.host, net.port) as client:
            before = client.predict_one(framed(X[0]))
            net.server.publish("default", softmax_fitted)
            after = client.predict_one(framed(X[0]))
        assert before.model_key == "default@1"
        assert after.model_key == "default@2"
        assert after.prediction == softmax_fitted.predict(X[:1])[0]


class TestConcurrentClientsThroughDrain:
    def test_requests_complete_or_fail_typed(self, live, problem, fitted, framed):
        X, _ = problem
        net = live()
        expected = fitted.predict(X)
        outcomes = []
        outcomes_lock = threading.Lock()

        def run_client(offset):
            try:
                with NetClient(net.host, net.port, timeout_s=10.0) as client:
                    for i in range(offset, offset + 8):
                        result = client.predict_one(framed(X[i]))
                        with outcomes_lock:
                            outcomes.append(("ok", i, result.predictions[0]))
            except (OSError, ServerClosed) as error:
                # The drain won the race: a typed refusal, never a hang.
                with outcomes_lock:
                    outcomes.append(("refused", offset, type(error).__name__))

        clients = [threading.Thread(target=run_client, args=(k * 8,))
                   for k in range(3)]
        for thread in clients:
            thread.start()
        time.sleep(0.05)
        net.close()
        for thread in clients:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert outcomes  # every client reported something
        for outcome in outcomes:
            if outcome[0] == "ok":
                _, i, prediction = outcome
                assert prediction == expected[i]

    def test_connect_after_close_is_refused(self, live):
        net = live()
        host, port = net.address
        net.close()
        import socket

        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5).close()


class TestNoLeaks:
    def test_threads_are_joined_by_close(self, fitted, problem):
        X, _ = problem
        before = {t.name for t in threading.enumerate()}
        server = ModelServer(max_batch=8)
        server.publish("default", fitted)
        net = NetServer(server)
        with NetClient(net.host, net.port) as client:
            client.predict_one(X[0])
        net.close()
        server.close()
        # The event-loop thread is gone; only the client's daemon reader
        # may still be winding down (it is daemonic and joined bounded).
        after = {t.name for t in threading.enumerate()}
        assert "m3-net-loop" not in after
        assert not any(name.startswith("m3-serve-") for name in after - before)
