"""The network serving front end: a socket/HTTP transport for ``ModelServer``.

``ModelServer`` was built transport-agnostic — a bounded queue, dispatcher
threads, and futures.  :class:`NetServer` puts a wire on it: an asyncio
TCP listener (run on one dedicated event-loop thread) speaking

* **JSONL** — one request per line, one response per line, in request
  order, over a keep-alive connection,
* **raw-row frames** — a one-line head, then the rows as the array's own
  bytes (``np.frombuffer`` on arrival, no decimal text either way);
  answered, in order, with the same JSON record lines, and free to
  interleave with JSON lines on one connection, and
* **HTTP/1.1 POST** — one request per ``POST /predict`` body, the same
  JSON documents, with wire errors mapped to statuses (429 for
  backpressure, 400/404/405 for client bugs, 500/503 for server-side
  trouble).

The first line of every frame is sniffed, so one port — one connection,
even — serves all three and answers the client hello that advertises the
raw-row frame (:func:`repro.net.protocol.hello_record`).  This is the only
request loop there is: ``m3 served`` exposes the listener, ``m3 serve``
pumps stdin/stdout through one loopback connection of it.

Each connection is one :class:`asyncio.Protocol`, with no task or queue:
the callback that receives bytes parses, submits and queues (in request
order) every complete frame buffered; a request future's done callback
makes one thread hop to the loop, which writes every answered entry at the
head of that queue.  Flow control: at ``max_inflight`` unanswered requests,
or while the write buffer is over its high-water mark, the connection stops
reading and TCP backpressure reaches the client; a full ``ModelServer``
queue (``max_pending``) refuses just the overflowing request with a typed
``saturated`` record (HTTP 429), via ``submit(block=False)``.  A frame
whose first byte arrived must finish within :data:`FRAME_READ_TIMEOUT_S`.

Graceful drain (:meth:`close`, or SIGTERM via :meth:`request_shutdown` +
:meth:`serve_forever`): stop accepting; answer every frame the clients
already sent; close each connection once it is flushed and quiet for a
grace window, abort the rest at ``drain_timeout_s``; then drain the
``ModelServer`` (serve its queue, join its dispatchers).

Fault sites ``net.accept`` / ``net.read`` / ``net.write`` drop a
connection at each transport stage exactly as a reset, torn frame, or
broken pipe would — only that connection dies; the listener, the other
connections and the dispatchers keep serving.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.faults import InjectedFault, maybe_fire
from repro.net import protocol
from repro.serve.server import ModelServer, ServeResult, ServerSaturated

__all__ = ["NetServer", "NetStats"]

#: How long close() waits for connections to flush before aborting them.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: A frame whose first byte arrived (the rest of its first line, HTTP headers
#: and body, a raw-row payload) must arrive within this bound, or the
#: connection drops.  A connection with nothing buffered waits untimed.
FRAME_READ_TIMEOUT_S = 30.0

#: A draining connection quiet for this long has nothing more pipelined.
_DRAIN_GRACE_S = 0.05

# What a connection's parser waits for (the values it yields).
_IDLE = "idle"  # the next frame's first byte
_BODY = "body"  # the rest of a frame whose first byte has arrived
_HELD = "held"  # flow control: answers to flush before the next frame
_DONE = "done"  # nothing: the connection reads no more


@dataclass
class NetStats:
    """Transport-level accounting — the socket sibling of ``ServeStats``.

    Counts frames and connections, not batches: ``requests`` is every
    accepted frame (including ones refused with a typed error),
    ``responses`` every record actually written back, ``saturated`` the
    backpressure refusals among ``errors``.  The hello exchange is
    neither a request nor a response.
    """

    connections: int = 0
    active: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0
    saturated: int = 0
    dropped_connections: int = 0
    faults_injected: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly summary."""
        return asdict(self)

    def snapshot(self) -> "NetStats":
        """An independent copy (the live object keeps accumulating).  Copying
        ``__dict__`` is one C call the GIL never releases inside, so a reader
        on any thread sees the loop thread's counters at one instant."""
        return NetStats(**self.__dict__)


@dataclass(slots=True)
class _Entry:
    """One accepted frame awaiting its in-order response."""

    future: Optional["Future[ServeResult]"] = None
    error: Optional[BaseException] = None
    request_id: Optional[Any] = None
    http: bool = False
    #: False = answer this frame, then hang up (``Connection: close``,
    #: or a frame after which the stream cannot be re-framed).
    keep_alive: bool = True
    #: Explicit HTTP status override (404/405); None = derive from kind.
    status: Optional[int] = None
    #: The client hello: answered in order like a request, counted as none.
    hello: bool = False


#: A parser step: yields what it waits for, returns its result.
_Parse = Generator[str, None, Any]


class _Connection(asyncio.Protocol):
    """One accepted socket: frames parsed as their bytes arrive, answered in
    request order.  Every method runs on the event-loop thread except
    :meth:`_on_done`, a request future's done callback."""

    def __init__(self, net: "NetServer", sock: socket.socket) -> None:
        self.net = net
        self.sock = sock
        self.loop = asyncio.get_running_loop()
        self.transport: Any = None  # an asyncio.Transport once wired up
        self.buf = bytearray()
        self.pos = self.scan = 0  # first unparsed byte; where to look for "\n"
        self.eof = False
        #: Accepted frames, oldest first; the head is the next to answer.
        self.entries: Deque[_Entry] = deque()
        self.frames = self._frames()
        self.state = _IDLE
        self.parsed = 0  # frames completed, so a frame timer sees progress
        self.timer: Optional[asyncio.TimerHandle] = None
        self.write_paused = False
        self.hop_pending = False
        self.broken = False  # a write failed: consume entries, write nothing
        self.lost = False
        self.heard = False  # bytes arrived since the last drain tick
        self.dropped = self.injected = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        try:
            maybe_fire("net.accept")
        except InjectedFault:
            self._stop_reading(dropped=True, injected=True)
            transport.close()

    def data_received(self, data: bytes) -> None:
        self.heard = True
        self.buf += data
        self._parse()
        self._answer()

    def eof_received(self) -> bool:
        self.eof = True
        self.data_received(b"")  # the end completes or tears the last frame
        return True  # half-closed: the answers still go out

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._answer()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost = True
        # A reset, or an end inside a frame, drops the connection; our own
        # abort after a failed write between frames does not.
        self._stop_reading(dropped=exc is not None or self.state is _BODY)
        self._forget()

    # -- reading -------------------------------------------------------------

    def _held(self) -> bool:
        return self.write_paused or len(self.entries) >= self.net.max_inflight

    def _parse(self) -> None:
        """Run the parser over what is buffered, then settle the frame timer
        and the read side to what it waits for."""
        if self.state is _DONE:
            return
        try:
            self.state = next(self.frames)
        except (StopIteration, EOFError, OSError) as end:  # OSError: net.read's fault
            dropped = not isinstance(end, StopIteration)
            self._stop_reading(dropped, injected=isinstance(end, InjectedFault))
            return
        del self.buf[: self.pos]
        self.scan -= self.pos
        self.pos = 0
        if self.state is _BODY and self.timer is None:
            self._frame_timeout()
        elif self.state is not _BODY and self.timer is not None:
            self.timer.cancel()
            self.timer = None
        reading = self.state is not _HELD
        if reading != self.transport.is_reading() and not self.eof:
            (self.transport.resume_reading if reading else self.transport.pause_reading)()

    def _frame_timeout(self, parsed: int = -1) -> None:
        """Arm the frame timer (no argument), or fire it: a frame still
        arriving with no frame completed since arming drops the connection."""
        if parsed != self.parsed:  # arming, or frames completed meanwhile
            self.timer = self.loop.call_later(
                FRAME_READ_TIMEOUT_S, self._frame_timeout, self.parsed
            )
            return
        self.timer = None
        self._stop_reading(dropped=True)
        self._answer()

    def _stop_reading(self, dropped: bool = False, injected: bool = False) -> None:
        """Parse no more: close once the accepted frames are answered."""
        if self.state is _DONE:
            return
        self.state = _DONE
        self.frames.close()
        self.dropped, self.injected = dropped, injected
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.transport is not None and not self.lost:
            self.transport.pause_reading()

    def _frames(self) -> _Parse:
        """The parser: one frame after another until the connection is done."""
        while True:
            while self._held():
                yield _HELD
            try:
                first = yield from self._line(_IDLE)
            except protocol.ProtocolError as error:
                self._push(self.net._refused(error))
                return
            if not first:
                return  # end of stream between frames
            maybe_fire("net.read")
            entry = yield from self._request(first)
            self.parsed += 1
            if entry is None:
                continue  # blank JSONL line
            self._push(entry)
            if not entry.keep_alive:
                return  # answer, then hang up

    def _line(self, waiting: str = _BODY) -> _Parse:
        """The next line, newline included (at end of stream: the
        unterminated rest, ``b""`` if none).  A line over
        ``max_request_bytes`` is a typed ``ProtocolError``: what follows
        cannot be told from its tail, so callers answer, then hang up."""
        limit = self.net.max_request_bytes
        while True:
            end = self.buf.find(b"\n", self.scan)
            if (end if end >= 0 else len(self.buf)) - self.pos > limit:
                raise protocol.ProtocolError(
                    f"a frame line exceeds the {limit}-byte limit"
                )
            if end >= 0 or self.eof:
                start = self.pos
                self.pos = self.scan = end + 1 if end >= 0 else len(self.buf)
                return self.buf[start : self.pos]
            self.scan = len(self.buf)
            # A partial line is a frame under way, whatever it waits for.
            yield _BODY if self.scan > self.pos else waiting

    def _exactly(self, n: int) -> _Parse:
        """The next ``n`` bytes."""
        while len(self.buf) - self.pos < n:
            if self.eof:
                raise EOFError  # the client hung up inside a frame
            yield _BODY
        start = self.pos
        self.pos = self.scan = start + n
        return self.buf[start : self.pos]

    def _request(self, first: bytearray) -> _Parse:
        net = self.net
        if protocol.looks_like_http(first):
            return (yield from self._http_request(first))
        if protocol.looks_like_raw_rows(first):
            try:
                head = protocol.parse_raw_rows_head(first)
                if head.nbytes > net.max_request_bytes:
                    raise protocol.ProtocolError(
                        f"raw-row payload of {head.nbytes} bytes exceeds the "
                        f"{net.max_request_bytes}-byte limit"
                    )
            except protocol.ProtocolError as error:
                # Without a trusted payload length the next head cannot be found.
                return net._refused(error)
            payload = yield from self._exactly(head.nbytes)
            return net._submitted(head.request, payload)
        if protocol.looks_like_hello(first):
            return _Entry(hello=True)
        text = first.decode("utf-8", errors="replace").strip()
        if not text:
            return None
        return net._submitted(protocol.parse_request_line, text)

    def _http_request(self, first: bytearray) -> _Parse:
        net = self.net
        try:
            method, path = protocol.parse_http_request_head(first)
            header_lines: List[bytearray] = []
            while True:
                line = yield from self._line()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise EOFError  # the client hung up inside a frame
                if len(header_lines) >= 100:
                    raise protocol.ProtocolError("too many HTTP headers")
                header_lines.append(line)
            try:
                headers = protocol.parse_http_headers(header_lines)
                length = int(headers.get("content-length", "0"))
            except (protocol.ProtocolError, ValueError) as error:
                raise protocol.ProtocolError(f"malformed HTTP headers: {error}") from None
            if length < 0 or length > net.max_request_bytes:
                raise protocol.ProtocolError(
                    f"request body of {length} bytes exceeds the "
                    f"{net.max_request_bytes}-byte limit"
                )
        except protocol.ProtocolError as error:
            return net._refused(error, http=True)
        keep_alive = headers.get("connection", "keep-alive").strip().lower() != "close"
        body = (yield from self._exactly(length)) if length else b""
        if method != "POST":
            status, message = 405, f"method {method} not allowed (POST a request document)"
        elif path not in ("/predict", "/"):
            status, message = 404, f"no such path {path!r} (use /predict)"
        else:
            text = body.decode("utf-8", errors="replace")
            return net._submitted(protocol.parse_request_line, text, True, keep_alive)
        error = protocol.ProtocolError(message)
        return net._counted(_Entry(error=error, http=True, keep_alive=keep_alive, status=status))

    # -- answering -----------------------------------------------------------

    def _push(self, entry: _Entry) -> None:
        self.entries.append(entry)
        if entry.future is not None:
            entry.future.add_done_callback(self._on_done)

    def _on_done(self, _future: "Future[ServeResult]") -> None:
        """A dispatcher finished a request: one hop to the loop to answer it.
        A pending hop answers it too (it clears the flag, then checks the
        futures), so completions that land together share one wake-up; two
        dispatchers racing past the check cost a spare hop, never a lost one."""
        if not self.hop_pending:
            self.hop_pending = True
            with contextlib.suppress(RuntimeError):  # a closed loop: nobody to answer
                self.loop.call_soon_threadsafe(self._answer)

    def _answer(self) -> None:
        """Write every answered entry at the head of the queue, in request
        order; resume the parser when that releases flow control, and close
        the connection once it reads no more and owes nothing."""
        self.hop_pending = False
        while True:
            self._write_answered()
            if self.state is not _HELD or self._held() or self.lost:
                break
            self._parse()
        if self.state is _DONE and not self.entries and not self.lost:
            self.transport.close()

    def _write_answered(self) -> None:
        stats, entries = self.net._stats, self.entries
        out: List[bytes] = []
        while entries:
            entry = entries[0]
            future = entry.future
            if future is not None and not future.done():
                break
            entries.popleft()
            if self.broken or self.lost:
                continue  # the future completed server-side; nowhere to write
            error = entry.error
            result: Optional[ServeResult] = None
            if error is None and future is not None:
                try:
                    result = future.result()
                except Exception as request_error:  # noqa: BLE001 — relayed as a typed wire error
                    error = request_error
            if entry.hello:
                status, record = 200, protocol.hello_record()
            elif error is not None:
                record = protocol.error_record(error, entry.request_id)
                status = entry.status or protocol.status_for_kind(record["error"]["kind"])
            else:
                assert result is not None
                status, record = 200, protocol.response_record(result, entry.request_id)
            try:
                maybe_fire("net.write")
            except InjectedFault:
                self.broken = True
                stats.faults_injected += 1
                continue
            if entry.http:
                out.append(protocol.http_response_bytes(status, record, entry.keep_alive))
            else:
                out.append((protocol.encode_record(record) + "\n").encode("utf-8"))
            if not entry.hello:
                stats.responses += 1
            if error is not None:
                stats.errors += 1
                if isinstance(error, ServerSaturated):
                    stats.saturated += 1
        if out:
            self.transport.write(out[0] if len(out) == 1 else b"".join(out))
        if self.broken and not self.lost:
            self.transport.abort()

    def drain_tick(self) -> None:
        """One grace window of a drain has passed: read no more once the
        client sent nothing in it and no frame is still arriving."""
        wired = self.transport is not None and not self.lost
        if wired and not self.heard and self.state is _IDLE:
            self._stop_reading()
            self._answer()
        self.heard = False

    def abandon(self) -> None:
        """The drain ran out of time: close the socket whatever it owes."""
        if self.transport is not None:
            self.transport.abort()
        with contextlib.suppress(OSError):
            self.sock.close()
        self._forget()

    def _forget(self) -> None:
        """The connection is over: settle its accounting (once)."""
        net = self.net
        if self in net._conns:
            net._conns.discard(self)
            net._stats.active -= 1
            net._stats.dropped_connections += self.dropped
            net._stats.faults_injected += self.injected


class NetServer:
    """A TCP front end (JSONL, raw-row frames, HTTP/1.1 POST) over one
    :class:`ModelServer`.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.server.ModelServer` requests dispatch
        through.  :meth:`close` drains it, so the usual ownership is one
        server per front end.
    host, port:
        Bind address.  ``port=0`` (the default) picks an ephemeral port;
        the bound address is in :attr:`host`/:attr:`port` once the
        constructor returns.
    max_inflight:
        Per-connection cap on submitted-but-unanswered requests; at it the
        connection stops reading and TCP backpressure reaches the client.
    max_request_bytes:
        Upper bound on one JSON line, HTTP body or raw-row payload
        (oversized requests get a typed ``bad_request`` error, then the
        connection closes).
    drain_timeout_s:
        How long a graceful drain waits for in-flight connections to
        flush before aborting them.
    """

    def __init__(
        self,
        server: ModelServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        max_request_bytes: int = 8 << 20,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.server = server
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_request_bytes = max_request_bytes
        self.drain_timeout_s = drain_timeout_s
        # Loop-confined: only the event-loop thread touches the connection
        # set and writes the counters (stats() reads them; see snapshot).
        self._stats = NetStats()
        self._conns: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._shutdown_requested = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        self._thread = threading.Thread(target=self._run, name="m3-net-loop", daemon=True)
        self._thread.start()
        started = self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            raise error
        if not started:
            raise RuntimeError(f"network server on {host}:{port} failed to start within 10s")

    # -- event-loop thread ---------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — relayed to the starting thread
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # The accept loop is ours, not asyncio.start_server's: a teardown
        # racing asyncio's own several-iteration wiring of a connection
        # leaks its FD, and its client blocks forever.  With each socket
        # registered the instant accept() returns, shutdown can always
        # force-close whatever the wiring never finished.
        lsock = socket.create_server((self.host, self.port), backlog=128)
        lsock.setblocking(False)
        self.host, self.port = lsock.getsockname()[:2]
        accept_task = asyncio.ensure_future(self._accept_loop(lsock))
        self._ready.set()
        try:
            # asyncio.Event has no timeout form; close() bounds the whole
            # loop thread with a joined deadline instead.
            await self._stop_event.wait()  # lint: disable=R005 — bounded by close()'s thread join
        finally:
            # Graceful drain: 1) stop accepting, 2) let every connection
            # answer what its client sent and close once quiet, 3) abort
            # whatever is still open at the deadline.
            accept_task.cancel()
            try:
                await accept_task
            except asyncio.CancelledError:
                pass
            lsock.close()
            for conn in self._conns:
                conn.heard = False
            deadline = self._loop.time() + self.drain_timeout_s
            while self._conns and self._loop.time() < deadline:
                await asyncio.sleep(_DRAIN_GRACE_S)
                for conn in list(self._conns):
                    conn.drain_tick()
            # Even a connection whose wiring never finished is closed here.
            for conn in list(self._conns):
                conn.abandon()
            # Transport close() finishes via call_soon callbacks; give
            # them the loop iterations they need before asyncio.run tears
            # the loop down (a closed loop never runs them).
            for _ in range(3):
                await asyncio.sleep(0)

    async def _accept_loop(self, lsock: socket.socket) -> None:
        assert self._loop is not None
        while True:
            try:
                sock, _addr = await self._loop.sock_accept(lsock)
            except OSError:
                return  # listener torn down under us by a racing close()
            conn = _Connection(self, sock)
            self._conns.add(conn)
            self._stats.connections += 1
            self._stats.active += 1
            try:
                await self._loop.connect_accepted_socket(lambda: conn, sock)
            except OSError:
                conn.abandon()

    def _counted(self, entry: _Entry) -> _Entry:
        """Count one accepted frame (runs on the event-loop thread)."""
        self._stats.requests += 1
        return entry

    def _refused(self, error: protocol.ProtocolError, http: bool = False) -> _Entry:
        """A frame answered ``bad_request`` and followed by a hang-up, because
        the bytes after it cannot be framed."""
        return self._counted(_Entry(error=error, http=http, keep_alive=False))

    def _submitted(
        self,
        decode: Callable[[Any], protocol.Request],
        body: Any,
        http: bool = False,
        keep_alive: bool = True,
    ) -> _Entry:
        """Decode one fully-read frame body and hand it to the ``ModelServer``."""
        entry = _Entry(http=http, keep_alive=keep_alive)
        try:
            request = decode(body)
            entry.request_id = request.id
            # Never blocks: a full ModelServer queue surfaces as a typed
            # `saturated` record (HTTP 429) on this one request, while the
            # connection — and every other request on it — stays healthy.
            entry.future = self.server.submit(
                request.rows, method=request.method, model=request.model, block=False
            )
        except Exception as error:  # noqa: BLE001 — any submit failure becomes a typed wire error
            entry.error = error
        return self._counted(entry)

    # -- lifecycle (caller threads) ------------------------------------------

    def close(self) -> None:
        """Graceful drain, idempotent: stop accepting, flush in-flight
        requests, then close the ``ModelServer`` (serve its queue, join its
        dispatchers).  Concurrent calls each wait for the same drain."""
        self._closed = True
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop already exited on its own
        self._thread.join(timeout=self.drain_timeout_s + 10.0)
        self.server.close()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to begin the graceful drain.

        Async-signal-safe (sets one event): the ``m3 served`` SIGTERM /
        SIGINT handlers call this directly.
        """
        self._shutdown_requested.set()

    def serve_forever(self, poll_s: float = 0.5) -> None:
        """Block until :meth:`request_shutdown`, then :meth:`close`.

        Returns early (and still drains) if the event-loop thread dies.
        """
        while not self._shutdown_requested.wait(timeout=poll_s):
            if not self._thread.is_alive():
                break
        self.close()

    # -- introspection -------------------------------------------------------

    def stats(self) -> NetStats:
        """A snapshot of the transport-level accounting."""
        return self._stats.snapshot()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun."""
        return self._closed

    def __enter__(self) -> "NetServer":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "listening"
        return f"NetServer({self.host}:{self.port}, {state}, on {self.server!r})"
