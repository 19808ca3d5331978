"""How a connection reads frames: stalled frames, the drain grace window, and
what the loop creates per frame."""

import asyncio
import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.net import NetClient, protocol
from repro.net import server as net_server


def _answers(sock):
    """Every record line the server writes before it hangs up."""
    sock.settimeout(20)
    return [json.loads(line) for line in sock.makefile("rb")]


class TestStalledFrames:
    @pytest.mark.parametrize("stall", ["raw-row payload", "http headers"])
    def test_a_frame_that_stops_arriving_drops_only_its_connection(
        self, live, problem, fitted, stall, monkeypatch, wait_stats
    ):
        X, _ = problem
        monkeypatch.setattr(net_server, "FRAME_READ_TIMEOUT_S", 0.2)
        net = live()
        if stall == "raw-row payload":
            frame = protocol.encode_raw_rows_request(X[:4])
            stalled = frame[: frame.index(b"\n") + 1]  # the head, no payload
        else:
            stalled = b"POST /predict HTTP/1.1\r\nHost: x\r\n"  # no blank line
        with NetClient(net.host, net.port) as healthy, \
                socket.create_connection((net.host, net.port), timeout=10) as sock:
            sock.sendall(stalled)
            # The stalled connection blocks nobody while it waits...
            for i in range(5):
                assert healthy.predict_one(X[i]).prediction == fitted.predict(X[i : i + 1])[0]
            # ...and is hung up on, unanswered, once the frame is overdue.
            assert sock.makefile("rb").read() == b""
            stats = wait_stats(net, lambda s: s.dropped_connections == 1)
            assert stats.dropped_connections == 1
            assert healthy.predict(X[:3]).predictions.shape == (3,)
        stats = wait_stats(net, lambda s: s.active == 0)
        assert (stats.requests, stats.responses, stats.dropped_connections) == (6, 6, 1)


    def test_an_unterminated_first_line_is_timed_like_the_rest_of_a_frame(
        self, live, monkeypatch, wait_stats
    ):
        monkeypatch.setattr(net_server, "FRAME_READ_TIMEOUT_S", 0.2)
        net = live()
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            sock.sendall(b"[" + b"1.0, " * 200_000)  # 1 MB of a JSON line, no newline
            sent = time.perf_counter()
            try:
                tail = sock.makefile("rb").read()
            except ConnectionResetError:
                tail = b""  # hung up with bytes of ours unread
            assert tail == b""
            assert time.perf_counter() - sent < 1.0
        stats = wait_stats(net, lambda s: s.active == 0)
        assert (stats.requests, stats.dropped_connections) == (0, 1)

    def test_an_idle_connection_with_nothing_buffered_is_never_timed(
        self, live, problem, fitted, monkeypatch
    ):
        X, _ = problem
        monkeypatch.setattr(net_server, "FRAME_READ_TIMEOUT_S", 0.2)
        net = live()
        with NetClient(net.host, net.port) as client:
            assert client.predict_one(X[0]).prediction == fitted.predict(X[:1])[0]
            time.sleep(0.8)  # four frame timeouts, between frames
            assert client.predict_one(X[1]).prediction == fitted.predict(X[1:2])[0]
        assert net.stats().dropped_connections == 0


class TestDrainGrace:
    def test_a_partial_first_line_is_a_frame_under_way(self, live, problem, fitted):
        X, _ = problem
        net = live()
        line = (protocol.encode_request(X[:1].tolist()) + "\n").encode("utf-8")
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(protocol.HELLO_LINE)  # the connection is up before the drain
            assert json.loads(reader.readline()) == protocol.hello_record()
            sock.sendall(line[:10])
            time.sleep(0.05)
            closer = threading.Thread(target=net.close)
            closer.start()
            time.sleep(0.3)  # six grace windows with nothing sent
            sock.sendall(line[10:])
            sock.settimeout(20)
            records = [json.loads(answer) for answer in reader]  # read to the hang-up
            closer.join(timeout=30)
            assert not closer.is_alive()
        assert len(records) == 1
        np.testing.assert_array_equal(records[0]["predictions"], fitted.predict(X[:1]))

    def test_frames_sent_just_before_close_are_all_answered(self, live, problem, fitted):
        X, _ = problem
        net = live()
        frames = b"".join(
            protocol.encode_raw_rows_request(X[i], request_id=i) for i in range(40)
        )
        with socket.create_connection((net.host, net.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(protocol.HELLO_LINE)  # the connection is up before the drain
            assert json.loads(reader.readline()) == protocol.hello_record()
            sock.sendall(frames)
            closer = threading.Thread(target=net.close)
            closer.start()
            sock.settimeout(20)
            records = [json.loads(line) for line in reader]  # read to the hang-up
            closer.join(timeout=30)
            assert not closer.is_alive()
        assert [record["id"] for record in records] == list(range(40))
        served = np.concatenate([record["predictions"] for record in records])
        np.testing.assert_array_equal(served, fitted.predict(X[:40]))


class TestNoTaskPerFrame:
    def test_frames_create_no_tasks_on_the_loop(self, live, problem):
        X, _ = problem
        net = live()
        created = []
        installed = threading.Event()

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def install():
            net._loop.set_task_factory(counting_factory)
            installed.set()

        with NetClient(net.host, net.port) as client:
            net._loop.call_soon_threadsafe(install)
            assert installed.wait(timeout=10)
            futures = [client.submit(X[i % 200], request_id=i) for i in range(1000)]
            assert [f.result(timeout=30).id for f in futures] == list(range(1000))
            for i in range(500):
                client.predict_one(X[i % 200])
        assert net.stats().requests == 1500
        assert created == []


class TestAnswerHop:
    def test_no_answer_is_lost_between_dispatcher_and_the_loop(self, live, problem, fitted):
        """The dispatcher completes the requests of short pipelined bursts
        while the loop clears the hop flag, switching threads every
        microsecond: the last answer of every burst, which no later
        completion would flush, arrives — in order, with its own rows."""
        X, _ = problem
        expected = fitted.predict(X)
        net = live(server_kwargs={"max_batch": 1, "max_delay_ms": 0.0})
        failures = []

        def run(offset):
            try:
                with NetClient(net.host, net.port) as client:
                    for burst in range(100):
                        rows = [(offset + 3 * burst + i) % 200 for i in range(3)]
                        futures = [client.submit(X[row], request_id=row) for row in rows]
                        results = [future.result(timeout=10) for future in futures]
                        assert [r.id for r in results] == rows
                        assert [r.prediction for r in results] == list(expected[rows])
            except Exception as error:  # noqa: BLE001 — reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=run, args=(k * 50,)) for k in range(3)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
