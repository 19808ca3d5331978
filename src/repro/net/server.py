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

Flow control is layered: per connection, at most ``max_inflight``
requests are in flight before the reader stops pulling frames (TCP
backpressure pushes back to the client); across the server, the
``ModelServer``'s own ``max_pending`` bound turns into a typed
``saturated`` wire record (HTTP 429) via ``submit(block=False)`` — the
connection stays healthy, only the overflowing request is refused.

Graceful drain (:meth:`close`, or SIGTERM via :meth:`request_shutdown` +
:meth:`serve_forever`): stop accepting connections, wake idle readers,
flush every in-flight request's response, then drain the ``ModelServer``
(which serves its queue and joins its dispatchers).  A client that keeps
pipelining through a drain gets every accepted request answered before
its connection closes.

Fault sites ``net.accept`` / ``net.read`` / ``net.write`` drop a
connection at each transport stage exactly as a reset, torn frame, or
broken pipe would — only that connection dies; the listener, the other
connections and the dispatchers keep serving.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.runtime import make_lock
from repro.faults import InjectedFault, maybe_fire
from repro.net import protocol
from repro.serve.server import ModelServer, ServeResult, ServerSaturated

__all__ = ["NetServer", "NetStats"]

#: How long close() waits for in-flight connections to flush before
#: cancelling their tasks.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

#: Per-read timeout for HTTP header/body continuation bytes: a frame the
#: client started must finish arriving within this bound.
FRAME_READ_TIMEOUT_S = 30.0


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
        """An independent copy (the live object keeps accumulating)."""
        return replace(self)


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
        Per-connection cap on submitted-but-unanswered requests; beyond
        it the reader stops pulling frames and TCP backpressure reaches
        the client.
    max_request_bytes:
        Upper bound on one JSON line, HTTP body or raw-row payload
        (oversized requests get a typed ``bad_request`` error, then the
        connection closes).
    drain_timeout_s:
        How long a graceful drain waits for in-flight connections to
        flush before cancelling them.
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
        self._lock = make_lock("repro.net.server.NetServer._lock")
        self._stats = NetStats()
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._conn_socks: Set[socket.socket] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._shutdown_requested = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="m3-net-loop", daemon=True
        )
        self._thread.start()
        started = self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            raise error
        if not started:
            raise RuntimeError(
                f"network server on {host}:{port} failed to start within 10s"
            )

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
        self._drain_event = asyncio.Event()
        # The accept loop is ours, not asyncio.start_server's: owning the
        # raw connection socket from the instant accept() returns is what
        # makes the drain airtight.  asyncio's internal accept task wires
        # a connection up across several loop iterations, and a teardown
        # racing those iterations discards the queued callbacks — leaking
        # an open FD whose client then blocks forever on a connection no
        # one remembers.  With the socket registered first, shutdown can
        # always force-close whatever the wiring never finished.
        lsock = socket.create_server((self.host, self.port), backlog=128)
        lsock.setblocking(False)
        sockname = lsock.getsockname()
        self.host, self.port = sockname[0], int(sockname[1])
        accept_task = asyncio.ensure_future(self._accept_loop(lsock))
        self._ready.set()
        try:
            # asyncio.Event has no timeout form; close() bounds the whole
            # loop thread with a joined deadline instead.
            await self._stop_event.wait()  # lint: disable=R005 — bounded by close()'s thread join
        finally:
            # Graceful drain: 1) stop accepting, 2) wake idle readers so
            # keep-alive connections flush their in-flight responses and
            # exit, 3) give stragglers a bounded grace, then cancel.
            accept_task.cancel()
            try:
                await accept_task
            except asyncio.CancelledError:
                pass
            lsock.close()
            self._drain_event.set()
            deadline = self._loop.time() + self.drain_timeout_s
            while True:
                with self._lock:
                    tasks = [task for task in self._conn_tasks if not task.done()]
                if not tasks:
                    break
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    for task in tasks:
                        task.cancel()
                    await asyncio.gather(*tasks, return_exceptions=True)
                    break
                await asyncio.wait(tasks, timeout=remaining)
            # Force-close any connection socket still registered: even a
            # connection whose handler was cancelled before it ever ran
            # gets its FD closed here, so no client is ever stranded on a
            # silent, never-closed socket.
            with self._lock:
                leftovers = list(self._conn_socks)
                self._conn_socks.clear()
            for conn in leftovers:
                try:
                    conn.close()
                except OSError:
                    pass
            # Transport close() finishes via call_soon callbacks; give
            # them the loop iterations they need before asyncio.run tears
            # the loop down (a closed loop never runs them).
            for _ in range(3):
                await asyncio.sleep(0)

    async def _accept_loop(self, lsock: socket.socket) -> None:
        assert self._loop is not None
        while True:
            try:
                conn, _addr = await self._loop.sock_accept(lsock)
            except OSError:
                return  # listener torn down under us by a racing close()
            conn.setblocking(False)
            task = asyncio.ensure_future(self._handle_connection(conn))
            with self._lock:
                self._conn_socks.add(conn)
                self._conn_tasks.add(task)
                self._stats.connections += 1
                self._stats.active += 1

    async def _handle_connection(self, conn: socket.socket) -> None:
        task = asyncio.current_task()
        assert self._loop is not None
        dropped = False
        injected = False
        writer: Optional[asyncio.StreamWriter] = None
        try:
            reader = asyncio.StreamReader(
                limit=self.max_request_bytes, loop=self._loop
            )
            protocol_ = asyncio.StreamReaderProtocol(reader, loop=self._loop)
            transport, _ = await self._loop.connect_accepted_socket(
                lambda: protocol_, conn
            )
            writer = asyncio.StreamWriter(transport, protocol_, reader, self._loop)
            maybe_fire("net.accept")
            await self._serve_connection(reader, writer)
        except InjectedFault:
            dropped = True
            injected = True
        except (OSError, ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            dropped = True
        finally:
            try:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (OSError, ConnectionError):
                        pass
            finally:
                # Belt over the transport machinery: close the raw socket
                # directly (a no-op when the transport already did), even
                # if wait_closed was cancelled out from under us.
                try:
                    conn.close()
                except OSError:
                    pass
                with self._lock:
                    if task is not None:
                        self._conn_tasks.discard(task)
                    self._conn_socks.discard(conn)
                    self._stats.active -= 1
                    if dropped:
                        self._stats.dropped_connections += 1
                    if injected:
                        self._stats.faults_injected += 1

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._drain_event is not None
        pending: "asyncio.Queue[Optional[_Entry]]" = asyncio.Queue()
        inflight = asyncio.Semaphore(self.max_inflight)
        writer_task = asyncio.ensure_future(
            self._write_responses(writer, pending, inflight)
        )
        try:
            while True:
                try:
                    if self._drain_event.is_set():
                        # Draining: keep consuming frames the client already
                        # pipelined into the socket, stop once it goes quiet.
                        first = await self._grace_readline(reader)
                    else:
                        first = await self._read_frame_head(reader)
                except protocol.ProtocolError as error:
                    entry: Optional[_Entry] = self._refused(error)
                else:
                    if first is None:
                        break  # EOF, drain quiescence, or the drain began while idle
                    maybe_fire("net.read")
                    entry = await self._read_request(first, reader)
                if entry is None:
                    continue  # blank JSONL line
                await inflight.acquire()
                pending.put_nowait(entry)
                if not entry.keep_alive:
                    break  # answer, then hang up
        finally:
            # Always flush: every accepted entry gets its response written
            # (drain included) before the connection handler returns.
            pending.put_nowait(None)
            await writer_task

    async def _read_frame_head(
        self, reader: asyncio.StreamReader
    ) -> Optional[bytes]:
        """The next frame's first line; ``None`` at EOF or when a drain begins.

        An idle keep-alive connection legitimately waits here for minutes,
        so the read is raced against the drain event instead of carrying
        its own deadline — close() always wins the race.
        """
        assert self._drain_event is not None
        read_task = asyncio.ensure_future(self._readline(reader))
        drain_task = asyncio.ensure_future(
            self._drain_event.wait()  # lint: disable=R005 — raced against the read; set by close()
        )
        done, _pending = await asyncio.wait(  # lint: disable=R005 — drain_task bounds the race
            {read_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if read_task in done:
            drain_task.cancel()
            try:
                await drain_task
            except asyncio.CancelledError:
                pass
            return read_task.result() or None
        # Drain won.  Cancelling a readline that has not completed loses
        # nothing (StreamReader only consumes the buffer once a full line
        # is there), but the readline may have completed in the window
        # since the race settled — recover that frame instead of dropping
        # it; the grace loop above picks up anything still buffered.
        read_task.cancel()
        try:
            line = await read_task
        except (asyncio.CancelledError, OSError, ConnectionError):
            return None
        return line or None

    async def _readline(self, reader: asyncio.StreamReader) -> bytes:
        """``reader.readline()`` with its over-limit ``ValueError`` made typed.

        StreamReader drops what it buffered of a line longer than
        ``max_request_bytes``, so the frame is lost and whatever follows
        cannot be told from its tail: callers answer, then hang up.
        """
        try:
            return await reader.readline()
        except ValueError:
            raise protocol.ProtocolError(
                f"a frame line exceeds the {self.max_request_bytes}-byte limit"
            ) from None

    async def _grace_readline(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        """One more frame line during a drain, or ``None`` once quiescent.

        Requests the client pipelined before the drain began are sitting
        in socket buffers; answering them is what makes the drain
        graceful.  A short bounded wait per line distinguishes "more
        buffered frames" from "the client is done".
        """
        try:
            line = await asyncio.wait_for(self._readline(reader), timeout=0.05)
        except asyncio.TimeoutError:
            return None
        return line or None

    async def _read_request(
        self, first: bytes, reader: asyncio.StreamReader
    ) -> Optional[_Entry]:
        if protocol.looks_like_http(first):
            return await self._read_http_request(first, reader)
        if protocol.looks_like_raw_rows(first):
            return await self._read_raw_rows_request(first, reader)
        if protocol.looks_like_hello(first):
            return _Entry(hello=True)
        text = first.decode("utf-8", errors="replace").strip()
        if not text:
            return None
        return self._submitted(protocol.parse_request_line, text)

    async def _read_raw_rows_request(
        self, first: bytes, reader: asyncio.StreamReader
    ) -> _Entry:
        try:
            head = protocol.parse_raw_rows_head(first)
            if head.nbytes > self.max_request_bytes:
                raise protocol.ProtocolError(
                    f"raw-row payload of {head.nbytes} bytes exceeds the "
                    f"{self.max_request_bytes}-byte limit"
                )
        except protocol.ProtocolError as error:
            # Without a trusted payload length the next head cannot be found.
            return self._refused(error)
        payload = await asyncio.wait_for(
            reader.readexactly(head.nbytes), timeout=FRAME_READ_TIMEOUT_S
        )
        return self._submitted(head.request, payload)

    async def _read_http_request(
        self, first: bytes, reader: asyncio.StreamReader
    ) -> _Entry:
        try:
            method, path = protocol.parse_http_request_head(first)
        except protocol.ProtocolError as error:
            return self._refused(error, http=True)
        header_lines: List[bytes] = []
        while True:
            try:
                line = await asyncio.wait_for(
                    self._readline(reader), timeout=FRAME_READ_TIMEOUT_S
                )
            except protocol.ProtocolError as error:
                return self._refused(error, http=True)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise asyncio.IncompleteReadError(partial=b"", expected=None)
            if len(header_lines) >= 100:
                return self._refused(
                    protocol.ProtocolError("too many HTTP headers"), http=True
                )
            header_lines.append(line)
        try:
            headers = protocol.parse_http_headers(header_lines)
            length = int(headers.get("content-length", "0"))
        except (protocol.ProtocolError, ValueError) as error:
            return self._refused(
                protocol.ProtocolError(f"malformed HTTP headers: {error}"), http=True
            )
        keep_alive = headers.get("connection", "keep-alive").strip().lower() != "close"
        if length < 0 or length > self.max_request_bytes:
            return self._refused(
                protocol.ProtocolError(
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_request_bytes}-byte limit"
                ),
                http=True,
            )
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=FRAME_READ_TIMEOUT_S
            )
        if method != "POST":
            error = protocol.ProtocolError(
                f"method {method} not allowed (POST a request document)"
            )
            return self._counted(
                _Entry(error=error, http=True, keep_alive=keep_alive, status=405)
            )
        if path not in ("/predict", "/"):
            error = protocol.ProtocolError(f"no such path {path!r} (use /predict)")
            return self._counted(
                _Entry(error=error, http=True, keep_alive=keep_alive, status=404)
            )
        return self._submitted(
            protocol.parse_request_line,
            body.decode("utf-8", errors="replace"),
            http=True,
            keep_alive=keep_alive,
        )

    def _counted(self, entry: _Entry) -> _Entry:
        """Count one accepted frame (runs on the event-loop thread)."""
        with self._lock:
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

    async def _write_responses(
        self,
        writer: asyncio.StreamWriter,
        pending: "asyncio.Queue[Optional[_Entry]]",
        inflight: asyncio.Semaphore,
    ) -> None:
        """Flush responses in request order (head-of-line await per entry).

        A write failure (real or injected) marks the connection broken:
        remaining entries are still consumed — their futures complete
        server-side — but nothing more is written, and the transport is
        aborted so the reader side unblocks.
        """
        broken = False
        while True:
            entry = await pending.get()
            if entry is None:
                return
            error = entry.error
            result: Optional[ServeResult] = None
            if error is None and entry.future is not None:
                try:
                    result = await asyncio.wrap_future(entry.future)
                except Exception as request_error:  # noqa: BLE001 — relayed as a typed wire error
                    error = request_error
            if entry.hello:
                record = protocol.hello_record()
                status = 200
            elif error is not None:
                record = protocol.error_record(error, entry.request_id)
                status = entry.status or protocol.status_for_kind(
                    record["error"]["kind"]
                )
            else:
                assert result is not None
                record = protocol.response_record(result, entry.request_id)
                status = 200
            if not broken:
                try:
                    maybe_fire("net.write")
                    if entry.http:
                        writer.write(
                            protocol.http_response_bytes(
                                status, record, keep_alive=entry.keep_alive
                            )
                        )
                    else:
                        writer.write(
                            (protocol.encode_record(record) + "\n").encode("utf-8")
                        )
                    await writer.drain()
                    with self._lock:
                        if not entry.hello:
                            self._stats.responses += 1
                        if error is not None:
                            self._stats.errors += 1
                            if isinstance(error, ServerSaturated):
                                self._stats.saturated += 1
                except (OSError, ConnectionError) as write_error:
                    broken = True
                    with self._lock:
                        if isinstance(write_error, InjectedFault):
                            self._stats.faults_injected += 1
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
            inflight.release()

    # -- lifecycle (caller threads) ------------------------------------------

    def close(self) -> None:
        """Graceful drain, idempotent: stop accepting, flush in-flight
        requests, then close the ``ModelServer`` (serve its queue, join its
        dispatchers)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        loop = self._loop
        stop = self._stop_event
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
        with self._lock:
            return self._stats.snapshot()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun."""
        with self._lock:
            return self._closed

    def __enter__(self) -> "NetServer":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "listening"
        return (
            f"NetServer({self.host}:{self.port}, {state}, on {self.server!r})"
        )
