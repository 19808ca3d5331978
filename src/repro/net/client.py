"""The serving client: a keep-alive pipelined connection (or HTTP POST)
against a NetServer.

:class:`NetClient` is the caller-side half of :mod:`repro.net`: it holds
one keep-alive connection, pipelines requests (``submit`` returns a
future, so a caller keeping several in flight is what the server's
micro-batcher coalesces), and decodes responses through the same
:mod:`repro.net.protocol` codec the server encodes with — including the
typed wire errors, so a remote ``ServerSaturated`` raises
``ServerSaturated`` here, not a stringly-typed lookalike.

Pipelined mode (default) asks the server once, at connect, whether it
reads raw-row frames (the hello of :mod:`repro.net.protocol`).  If it
does, float64/float32 ``ndarray`` rows travel as their own bytes — no
decimal text on either side — and everything else (lists, integer or
ragged input) as the JSON line it always was, on the same connection; if
it does not (a peer that predates the frame), every request is a JSON
line.  Responses are JSON record lines either way, in request order (the
server answers in order per connection), and one thread at a time reads
them.  A ``predict``/``predict_one`` made while no ``submit`` future is
pending sends its frame and reads its own answer on the calling thread:
one round trip, no thread hop.  ``submit`` futures are resolved — their
done callbacks run — by a daemon reader thread as their answers arrive;
it starts at the first ``submit``, reads only while futures are pending
and parks while none are, so any number of requests can be in flight
before the first ``result()``, and a ``predict`` made meanwhile joins
them.  HTTP mode trades pipelining for framing interoperability: every
call is one synchronous ``POST /predict`` round trip on the calling
thread (``submit`` returns an already-completed future), so the two
modes are drop-in swappable.

A synchronous call that times out leaves its answer on the way; whoever
reads next — the reader or the next synchronous call — skips it, so
every call still gets its own answer.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

import numpy as np

from repro.analysis.runtime import make_lock
from repro.net import protocol
from repro.serve.server import ServerClosed

__all__ = ["NetClient", "NetResult"]

#: Bytes asked of the socket per receive.
_RECV_BYTES = 1 << 16


@dataclass(frozen=True)
class NetResult:
    """One served response as it crossed the wire.

    The client-side mirror of :class:`~repro.serve.server.ServeResult`:
    the same predictions and accounting, minus server-internal fields
    that never leave the process.
    """

    predictions: np.ndarray
    model_key: str
    queue_wait_ms: float
    compute_ms: float
    batch_rows: int
    id: Optional[Any] = None

    @property
    def model_name(self) -> str:
        """The registry name the serving version was published under."""
        return self.model_key.rsplit("@", 1)[0]

    @property
    def model_version(self) -> int:
        """The registry version that served the request."""
        return int(self.model_key.rsplit("@", 1)[1])

    @property
    def prediction(self) -> Any:
        """The first (for single-row requests: the only) row's prediction."""
        return self.predictions[0]


class NetClient:
    """A keep-alive client for one :class:`~repro.net.server.NetServer`.

    Parameters
    ----------
    host, port:
        The server's bound address.
    http:
        ``False`` (default): raw-row frames / JSON lines over one
        connection, pipelined through ``submit``.  ``True``: one
        synchronous HTTP/1.1 ``POST /predict`` per request.
    timeout_s:
        Connect (and hello) timeout, the default ``predict``/``predict_one``
        timeout, and (HTTP mode) the bound on each ``submit`` round trip.
        A synchronous call waits for its answer with ``poll`` against its
        deadline — the socket itself blocks, since an idle keep-alive
        connection is a normal state — and one that times out never
        desynchronises the connection: its late answer is skipped.

    Concurrent synchronous calls take turns on the connection: one that
    finds another call sending or reading joins the pipeline instead, as
    ``submit(...).result(timeout)`` does.
    """

    def __init__(
        self,
        host: str,
        port: int,
        http: bool = False,
        timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.http = http
        self.timeout_s = timeout_s
        #: Held to send a frame (so wire order is ``_pending`` order) and
        #: across a synchronous round trip.
        self._lock = make_lock("repro.net.client.NetClient._lock")
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.settimeout(None)
        self._rx = _Receiver(self._sock)
        #: ``submit`` futures whose answers are still to come, in wire order.
        self._pending: Deque["Future[NetResult]"] = deque()
        #: One release per pending future (and one from close()): the
        #: reader reads an answer per acquire, and parks between.
        self._due = threading.Semaphore(0)
        self._closed = False
        self._reader: Optional[threading.Thread] = None
        #: Whether float ndarray rows go out as raw-row frames (else JSON lines).
        self._raw_rows = False if http else self._hello()

    def _hello(self) -> bool:
        """Ask the server, once, whether it reads raw-row frames.

        A connection that is already dead (reset at accept, say) answers
        nothing: that is "no" here and an error on the first request,
        where callers already handle one.  A live server that stays silent
        past ``timeout_s`` would desynchronise the in-order reads with a
        late answer, so that one raises.
        """
        try:
            self._sock.sendall(protocol.HELLO_LINE)
            return protocol.hello_offers_raw_rows(
                self._rx.line(time.monotonic() + self.timeout_s)
            )
        except FutureTimeout:
            self._sock.close()
            raise
        except OSError:
            return False

    # -- request side --------------------------------------------------------

    def _frame(
        self,
        rows: Any,
        method: Optional[str],
        model: Optional[str],
        request_id: Optional[Any],
    ) -> bytes:
        """One request as the bytes this connection sends."""
        if self._raw_rows and protocol.raw_rows_dtype(rows) is not None:
            return protocol.encode_raw_rows_request(
                rows, request_id=request_id, method=method, model=model
            )
        body = protocol.encode_request(
            rows, request_id=request_id, method=method, model=model
        )
        if self.http:
            return protocol.http_request_bytes(body, host=self.host, keep_alive=True)
        return (body + "\n").encode("utf-8")

    def submit(
        self,
        rows: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        request_id: Optional[Any] = None,
    ) -> "Future[NetResult]":
        """Send one request; returns a future of its :class:`NetResult`.

        In pipelined mode the future resolves — and runs its done
        callbacks, on the reader thread — when the server's in-order
        response arrives (keep several in flight to feed the server's
        micro-batcher).  In HTTP mode the round trip happens inline and
        the returned future is already completed — same call shape, no
        pipelining.
        """
        return self._send(self._frame(rows, method, model, request_id), self.timeout_s)

    def _send(self, data: bytes, timeout: float) -> "Future[NetResult]":
        future: "Future[NetResult]" = Future()
        if self.http:
            try:
                with self._lock:
                    result = self._roundtrip(data, timeout)
            except Exception as error:  # noqa: BLE001 — relayed through the future, like JSONL mode
                future.set_exception(error)
            else:
                future.set_result(result)
            return future
        # Held across the send so wire order equals _pending order.  The
        # reader takes it only on its way out, after unblocking the send.
        with self._lock:
            if self._closed:
                raise ServerClosed("client connection is closed")
            self._pending.append(future)
            try:
                self._sock.sendall(data)
            except OSError:
                self._pending.pop()
                raise
            if self._reader is None:
                self._reader = threading.Thread(
                    target=self._read_loop, name="m3-net-client", daemon=True
                )
                self._reader.start()
        self._due.release()
        return future

    def predict(
        self,
        rows: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> NetResult:
        """Serve a row or small batch synchronously.

        With no ``submit`` future pending and no other call on the
        connection, the calling thread sends the frame and reads the answer
        itself; otherwise the request joins the pipeline and this waits on
        its future.  Raises ``concurrent.futures.TimeoutError`` after
        ``timeout_s`` (default: the client's), with the connection still in
        step.
        """
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        data = self._frame(rows, method, model, None)
        if self._lock.acquire(blocking=False):
            try:
                if not self._pending:
                    return self._roundtrip(data, timeout)
            finally:
                self._lock.release()
        return self._send(data, timeout).result(timeout=timeout)

    def predict_one(
        self,
        x: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> NetResult:
        """Serve one row synchronously."""
        return self.predict(x, method=method, model=model, timeout_s=timeout_s)

    def _roundtrip(self, data: bytes, timeout: float) -> NetResult:
        """Send one frame and read its answer on this thread.

        The caller holds ``_lock`` with no ``submit`` future pending, so no
        other thread reads: the next answer on the socket that is not
        already late is this frame's.
        """
        if self._closed:
            raise ServerClosed("client connection is closed")
        deadline = time.monotonic() + timeout
        try:
            self._sock.sendall(data)
            record = self._rx.record(deadline, self.http)
        except FutureTimeout:
            raise  # the connection is in step: the answer is counted late
        except BaseException:
            # A broken or unframeable stream, or an interrupt that may have
            # torn a frame: nothing after it can be trusted.
            self._closed = True
            self._shutdown()
            self._due.release()  # a parked reader wakes, finds nothing owed, ends
            raise
        outcome = _outcome(record)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    # -- response side (reader thread) ---------------------------------------

    def _read_loop(self) -> None:
        failure: BaseException = ConnectionError("connection closed")
        try:
            while True:
                self._due.acquire()  # parked until a submit is owed an answer
                if not self._pending:
                    break  # woken by close() or a hang-up: nothing is owed
                record = self._rx.record(None, http=False)
                # No lock: a sender may hold it while blocked in sendall on
                # a socket the server fills only as fast as this loop drains
                # responses.  deque.popleft is atomic, and a response can
                # only follow its own request's append.
                future = self._pending.popleft()  # lint: disable=R003 — atomic; see above
                _resolve(future, record)
        except (OSError, ValueError) as error:
            failure = error
        finally:
            # Fail a sender blocked in sendall (it holds the lock) first.
            self._shutdown()
            with self._lock:
                leftovers = list(self._pending)
                self._pending.clear()
                self._closed = True
            for future in leftovers:
                if future.set_running_or_notify_cancel():
                    future.set_exception(failure)

    # -- lifecycle -----------------------------------------------------------

    def _shutdown(self) -> None:
        """End the connection both ways; a blocked send or read returns."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected

    def close(self) -> None:
        """Close the connection: a call waiting for its answer and every
        outstanding future fail with a ``ConnectionError``.  Idempotent."""
        self._shutdown()
        with self._lock:  # free once a round trip under way sees the end
            self._closed = True
        self._due.release()  # a parked reader wakes to the end of the stream
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "http" if self.http else "raw-row" if self._raw_rows else "jsonl"
        state = "closed" if self._closed else "connected"
        return f"NetClient({self.host}:{self.port}, {mode}, {state})"


class _Receiver:
    """The read side of a client connection: answers off the socket, each
    wait bounded by a deadline.

    One thread reads at a time, handed over by :class:`NetClient`: the
    caller holding its lock while no ``submit`` future is pending, else its
    reader thread.  ``late`` counts answers whose callers stopped waiting;
    the next :meth:`record` skips them first.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.late = 0
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)

    def record(self, deadline: Optional[float], http: bool) -> Any:
        """The next answer's JSON document (a line, or an HTTP body).  If
        ``deadline`` passes first, that answer is counted late."""
        read = self._http_body if http else self.line
        try:
            while self.late:
                read(deadline)
                self.late -= 1
            body = read(deadline)
        except FutureTimeout:
            self.late += 1
            raise
        return json.loads(body) if body else {}

    def line(self, deadline: Optional[float]) -> bytes:
        """The next line, newline included."""
        end = self.buf.find(b"\n")
        while end < 0:
            scanned = len(self.buf)
            self._fill(deadline)
            end = self.buf.find(b"\n", scanned)
        line = bytes(self.buf[: end + 1])
        del self.buf[: end + 1]
        return line

    def _http_body(self, deadline: Optional[float]) -> bytes:
        """The body of the next HTTP response."""
        status_line = self.line(deadline)
        parts = status_line.decode("ascii", errors="replace").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise protocol.ProtocolError(f"malformed HTTP status line: {status_line!r}")
        header_lines = []
        while True:
            line = self.line(deadline)
            if line in (b"\r\n", b"\n"):
                break
            header_lines.append(line)
        length = int(protocol.parse_http_headers(header_lines).get("content-length", "0"))
        while len(self.buf) < length:
            self._fill(deadline)
        body = bytes(self.buf[:length])
        del self.buf[:length]
        return body

    def _fill(self, deadline: Optional[float]) -> None:
        """Append what the socket has next, once it has something (``None``:
        wait as long as it takes)."""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.poller.poll(remaining * 1e3):
                raise FutureTimeout("no answer within the timeout")
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            raise ConnectionError("connection closed")
        self.buf += data


def _outcome(record: Any) -> "NetResult | BaseException":
    """What an answer's record carries: its result, the typed error it
    names, or a ``ProtocolError`` if it is neither."""
    if not isinstance(record, dict):
        return protocol.ProtocolError(
            f"response is a JSON {type(record).__name__}, not a record"
        )
    if record.get("error") is not None:
        return protocol.exception_for_error(record["error"])
    try:
        return _result_from(record)
    except (KeyError, TypeError, ValueError) as problem:
        return protocol.ProtocolError(f"malformed response record: {problem}")


def _resolve(future: "Future[NetResult]", record: Any) -> None:
    if not future.set_running_or_notify_cancel():
        return
    outcome = _outcome(record)
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


def _result_from(record: Dict[str, Any]) -> NetResult:
    """Decode one response record into a :class:`NetResult`."""
    return NetResult(
        predictions=np.asarray(record["predictions"]),
        model_key=str(record["model"]),
        queue_wait_ms=float(record.get("queue_wait_ms", 0.0)),
        compute_ms=float(record.get("compute_ms", 0.0)),
        batch_rows=int(record.get("batch_rows", 0)),
        id=record.get("id"),
    )
