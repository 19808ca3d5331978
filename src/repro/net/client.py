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
line.  Responses are JSON record lines either way: a daemon reader thread
resolves futures in request order (the server answers in order per
connection) and never waits on a sender, so any number of requests can be
in flight before the first ``result()``.  HTTP mode trades pipelining for
framing interoperability: each ``submit`` is one synchronous
``POST /predict`` round trip returning an already-completed future, so the
two modes are drop-in swappable.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.net import protocol
from repro.serve.server import ServerClosed

__all__ = ["NetClient", "NetResult"]


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
        ``False`` (default): pipelined raw-row frames / JSON lines over
        one connection.  ``True``: one synchronous HTTP/1.1
        ``POST /predict`` per request.
    timeout_s:
        Connect (and hello) timeout, the default ``predict``/``predict_one``
        result timeout, and (HTTP mode) the per-round-trip socket timeout.
        Pipelined mode reads with no socket timeout — an idle keep-alive
        connection is a normal state — and bounds callers through
        ``Future.result(timeout)`` instead.
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
        self._lock = make_lock("repro.net.client.NetClient._lock")
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._rfile = self._sock.makefile("rb")
        self._pending: Deque["Future[NetResult]"] = deque()
        self._closed = False
        self._reader: Optional[threading.Thread] = None
        #: Whether float ndarray rows go out as raw-row frames (else JSON lines).
        self._raw_rows = False
        if not http:
            self._raw_rows = self._hello()
            self._sock.settimeout(None)
            self._reader = threading.Thread(
                target=self._read_loop, name="m3-net-client", daemon=True
            )
            self._reader.start()

    def _hello(self) -> bool:
        """Ask the server, once, whether it reads raw-row frames.

        A connection that is already dead (reset at accept, say) answers
        nothing: that is "no" here and an error on the first ``submit``,
        where callers already handle one.  A live server that stays silent
        past ``timeout_s`` would desynchronise the in-order reader with a
        late answer, so that one raises.
        """
        try:
            self._sock.sendall(protocol.HELLO_LINE)
            return protocol.hello_offers_raw_rows(self._rfile.readline())
        except TimeoutError:
            self._rfile.close()
            self._sock.close()
            raise
        except OSError:
            return False

    # -- request side --------------------------------------------------------

    def submit(
        self,
        rows: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        request_id: Optional[Any] = None,
    ) -> "Future[NetResult]":
        """Send one request; returns a future of its :class:`NetResult`.

        In pipelined mode the future resolves when the server's in-order
        response arrives (keep several in flight to feed the server's
        micro-batcher).  In HTTP mode the round trip happens inline and
        the returned future is already completed — same call shape, no
        pipelining.
        """
        if self.http:
            future: "Future[NetResult]" = Future()
            try:
                result = self._http_roundtrip(rows, method, model, request_id)
            except Exception as error:  # noqa: BLE001 — relayed through the future, like JSONL mode
                future.set_exception(error)
            else:
                future.set_result(result)
            return future
        if self._raw_rows and protocol.raw_rows_dtype(rows) is not None:
            data = protocol.encode_raw_rows_request(
                rows, request_id=request_id, method=method, model=model
            )
        else:
            body = protocol.encode_request(
                rows, request_id=request_id, method=method, model=model
            )
            data = (body + "\n").encode("utf-8")
        future = Future()
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
        return future

    def predict(
        self,
        rows: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> NetResult:
        """Serve a row or small batch synchronously (submit + wait)."""
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        return self.submit(rows, method=method, model=model).result(timeout=timeout)

    def predict_one(
        self,
        x: Any,
        method: Optional[str] = None,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> NetResult:
        """Serve one row synchronously."""
        return self.predict(x, method=method, model=model, timeout_s=timeout_s)

    # -- response side (reader thread) ---------------------------------------

    def _read_loop(self) -> None:
        failure: Optional[BaseException] = None
        try:
            while True:
                line = self._rfile.readline()
                if not line:
                    break
                record = json.loads(line.decode("utf-8"))
                # No lock: a sender may hold it while blocked in sendall on
                # a socket the server fills only as fast as this loop drains
                # responses.  deque.popleft is atomic, and a response can
                # only follow its own request's append.
                try:
                    future = self._pending.popleft()  # lint: disable=R003 — atomic; see above
                except IndexError:
                    continue
                self._resolve(future, record)
        except (OSError, ValueError) as error:
            failure = error
        finally:
            # Fail a sender blocked in sendall (it holds the lock) first.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already disconnected
            with self._lock:
                leftovers = list(self._pending)
                self._pending.clear()
                self._closed = True
            relayed = (
                failure
                if failure is not None
                else ConnectionError("connection closed by the server")
            )
            for future in leftovers:
                if future.set_running_or_notify_cancel():
                    future.set_exception(relayed)

    @staticmethod
    def _resolve(future: "Future[NetResult]", record: Dict[str, Any]) -> None:
        if not future.set_running_or_notify_cancel():
            return
        if record.get("error") is not None:
            future.set_exception(protocol.exception_for_error(record["error"]))
            return
        try:
            result = _result_from(record)
        except (KeyError, TypeError, ValueError) as error:
            future.set_exception(
                protocol.ProtocolError(f"malformed response record: {error}")
            )
            return
        future.set_result(result)

    # -- HTTP mode -----------------------------------------------------------

    def _http_roundtrip(
        self,
        rows: Any,
        method: Optional[str],
        model: Optional[str],
        request_id: Optional[Any],
    ) -> NetResult:
        body = protocol.encode_request(
            rows, request_id=request_id, method=method, model=model
        )
        data = protocol.http_request_bytes(body, host=self.host, keep_alive=True)
        with self._lock:
            if self._closed:
                raise ServerClosed("client connection is closed")
            self._sock.sendall(data)
            _status, record = self._read_http_response()  # lint: caller-holds-lock
        if record.get("error") is not None:
            raise protocol.exception_for_error(record["error"])
        return _result_from(record)

    def _read_http_response(self) -> Tuple[int, Dict[str, Any]]:  # lint: caller-holds-lock
        status_line = self._rfile.readline()
        if not status_line:
            raise ConnectionError("connection closed by the server")
        parts = status_line.decode("ascii", errors="replace").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise protocol.ProtocolError(
                f"malformed HTTP status line: {status_line!r}"
            )
        status = int(parts[1])
        header_lines = []
        while True:
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("connection closed mid-response")
            if line in (b"\r\n", b"\n"):
                break
            header_lines.append(line)
        headers = protocol.parse_http_headers(header_lines)
        length = int(headers.get("content-length", "0"))
        body = self._rfile.read(length) if length else b""
        record: Dict[str, Any] = json.loads(body.decode("utf-8")) if body else {}
        return status, record

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the connection; outstanding futures fail with a
        ``ConnectionError``.  Idempotent."""
        with self._lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "http" if self.http else "raw-row" if self._raw_rows else "jsonl"
        state = "closed" if self._closed else "connected"
        return f"NetClient({self.host}:{self.port}, {mode}, {state})"


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
