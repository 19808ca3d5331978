"""The serving wire protocol: one codec for every ModelServer transport.

``m3 serve`` (stdin/stdout JSONL), :class:`repro.net.NetServer` (TCP
JSONL, raw-row frames and HTTP/1.1 POST) and :class:`repro.net.NetClient`
all frame requests and responses through this module, so the stdin and
socket paths cannot drift: a request means the same thing, and a response
record carries the same fields, wherever it travels.

Requests — one JSON document per line (JSONL) or per POST body (HTTP)::

    [1.5, 2.0, ...]                        # one row, default method/model
    [[...], [...]]                         # a small batch of rows
    {"id": 7, "x": [...], "method": "predict_proba", "model": "default"}

or one **raw-row frame** (TCP only): the rows travel as the array's own
bytes instead of decimal text, so neither side translates them::

    frame   = head LF payload
    head    = "M3ROWS " json-object        # one ASCII line
    payload = rows * cols * itemsize bytes, C order, little-endian

    M3ROWS {"id": 7, "method": "predict_proba", "model": "default",
            "dtype": "<f8", "shape": [64, 784]}\n<401408 raw bytes>

``dtype`` is ``"<f8"`` or ``"<f4"`` (float32 rows are upcast on arrival to
the float64 values their JSON spelling would parse to); ``shape`` is
``[cols]`` for one row or ``[rows, cols]``, every extent a positive
integer; ``id``/``method``/``model`` are optional and mean what they mean
in the JSON object form.  A frame is sniffed by its magic, per frame, so
JSON lines and raw-row frames interleave freely on one connection.  A head
that does not parse is answered with a ``bad_request`` record and the
connection closes: with the payload length unknown the stream cannot be
re-framed.

Hello — how a client learns that the server reads raw-row frames.  It
sends the line :data:`HELLO_LINE` once, at connect; :class:`NetServer`
answers :func:`hello_record` (and counts neither line as a request), a peer
that predates the frame answers the line as the malformed request it is — a
``bad_request`` record — and the client stays on JSON lines::

    > {"hello": "m3"}
    < {"hello": "m3", "frames": ["M3ROWS"]}

Responses are always one JSON record, whatever framed the request.  They
mirror :class:`~repro.serve.server.ServeResult`::

    {"id": 7, "predictions": [...], "model": "default@3",
     "queue_wait_ms": 0.41, "compute_ms": 0.85, "batch_rows": 96}

Errors are **typed records**, not bare strings: the ``error`` object
names a ``kind`` (mapped to an HTTP status in POST mode), carries the
human message, and — when the failure traces back to an injected or
device fault — the fault ``site``::

    {"id": 7, "error": {"kind": "saturated", "message": "...", "site": null}}

``kind`` values and their HTTP statuses live in :data:`ERROR_STATUS`;
:func:`error_record` maps server-side exceptions onto kinds, and
:func:`exception_for_error` maps a received record back onto the same
typed exceptions (``ServerSaturated``, ``ServeError``, ...) so a
``NetClient`` caller handles a remote failure with exactly the code that
handles a local one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.server import (
    DEFAULT_MODEL_NAME,
    ServeError,
    ServeResult,
    ServerClosed,
    ServerSaturated,
)

__all__ = [
    "ProtocolError",
    "RemoteError",
    "Request",
    "ERROR_STATUS",
    "parse_request",
    "parse_request_line",
    "encode_request",
    "RAW_ROWS_MAGIC",
    "RawRowsHead",
    "raw_rows_dtype",
    "encode_raw_rows_request",
    "parse_raw_rows_head",
    "looks_like_raw_rows",
    "HELLO_LINE",
    "hello_record",
    "looks_like_hello",
    "hello_offers_raw_rows",
    "response_record",
    "error_record",
    "error_kind",
    "error_site",
    "status_for_kind",
    "exception_for_error",
    "encode_record",
    "http_response_bytes",
    "http_request_bytes",
    "parse_http_request_head",
    "parse_http_headers",
    "looks_like_http",
]

#: Wire error ``kind`` -> HTTP status code for the POST transport.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,  # unparseable frame / malformed request document
    "model": 400,        # model-level: unknown name, bad method, shape mismatch
    "saturated": 429,    # backpressure: the bounded request queue is full
    "serve": 500,        # serving-pipeline failure (ServeError)
    "internal": 500,     # anything else — a server bug, not a client one
    "closed": 503,       # the server is draining / closed
}

_STATUS_TEXT: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A frame that does not parse as a request or response document."""


class RemoteError(RuntimeError):
    """A far-side error relayed over the wire with no richer local type.

    ``saturated``/``closed``/``serve`` records map back onto their native
    exceptions; every other ``kind`` (``bad_request``, ``model``,
    ``internal``) raises this, carrying the wire fields.
    """

    def __init__(self, kind: str, message: str, site: Optional[str] = None) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.remote_message = message
        self.site = site


@dataclass(frozen=True)
class Request:
    """One decoded predict request: rows plus routing fields.

    ``rows`` stays whatever JSON decoded to (a list, or nested lists) —
    validation and array conversion belong to ``ModelServer.submit``.
    """

    rows: Any
    id: Optional[Any] = None
    method: str = "predict"
    model: str = DEFAULT_MODEL_NAME


def _routing_fields(payload: Dict[str, Any]) -> Tuple[Optional[Any], str, str]:
    """``(id, method, model)`` of a request object or a raw-row head; a
    request that names none gets ``predict`` on the default model."""
    method = payload.get("method", "predict")
    model = payload.get("model", DEFAULT_MODEL_NAME)
    if not isinstance(method, str):
        raise ProtocolError(f"request 'method' must be a string, got {method!r}")
    if not isinstance(model, str):
        raise ProtocolError(f"request 'model' must be a string, got {model!r}")
    return payload.get("id"), method, model


def parse_request(payload: Any) -> Request:
    """Decode one already-JSON-parsed request document into a :class:`Request`.

    Raises :class:`ProtocolError` for documents that are neither a bare
    array of features nor an object with an ``x`` field.
    """
    if isinstance(payload, list):
        return Request(rows=payload)
    if isinstance(payload, dict) and "x" in payload:
        request_id, method, model = _routing_fields(payload)
        return Request(rows=payload["x"], id=request_id, method=method, model=model)
    raise ProtocolError(
        "a request must be a JSON array of features or an object with an "
        "'x' field"
    )


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None


def parse_request_line(line: str) -> Request:
    """Decode one JSONL request line (or HTTP POST body) into a :class:`Request`."""
    return parse_request(_parse_json(line))


def _request_object(
    fields: Dict[str, Any],
    request_id: Optional[Any],
    method: Optional[str],
    model: Optional[str],
) -> Dict[str, Any]:
    """``fields`` plus the routing fields that were given (the rest stay off the wire)."""
    if request_id is not None:
        fields["id"] = request_id
    if method is not None:
        fields["method"] = method
    if model is not None:
        fields["model"] = model
    return fields


def encode_request(
    rows: Any,
    request_id: Optional[Any] = None,
    method: Optional[str] = None,
    model: Optional[str] = None,
) -> str:
    """Encode a request as one JSON document (no trailing newline).

    Omitted fields stay off the wire, so a plain single-row request with
    server-side defaults encodes as the compact bare-array form.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if request_id is None and method is None and model is None:
        return json.dumps(rows)
    return json.dumps(_request_object({"x": rows}, request_id, method, model))


# -- raw-row frames -----------------------------------------------------------

#: The name :func:`hello_record` advertises the frame under.
_RAW_ROWS_FRAME = "M3ROWS"

#: First bytes of a raw-row frame's head line.  No JSON document and no
#: HTTP method starts with them, so one ``startswith`` tells the framings apart.
RAW_ROWS_MAGIC = _RAW_ROWS_FRAME.encode("ascii") + b" "

#: Wire ``dtype`` -> numpy dtype of the payload.
_RAW_DTYPES: Dict[str, np.dtype] = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


@dataclass(frozen=True)
class RawRowsHead:
    """The decoded head line of one raw-row frame: routing fields + payload layout."""

    dtype: np.dtype
    shape: Tuple[int, ...]
    id: Optional[Any] = None
    method: str = "predict"
    model: str = DEFAULT_MODEL_NAME

    @property
    def nbytes(self) -> int:
        """How many payload bytes follow the head line."""
        return math.prod(self.shape) * self.dtype.itemsize

    def request(self, payload: bytes) -> Request:
        """The :class:`Request` whose rows are a view of ``payload`` (no copy
        for float64; float32 is upcast, as its JSON spelling would be)."""
        rows = np.frombuffer(payload, dtype=self.dtype).reshape(self.shape)
        return Request(
            rows=rows.astype(np.float64, copy=False),
            id=self.id,
            method=self.method,
            model=self.model,
        )


def raw_rows_dtype(rows: Any) -> Optional[str]:
    """The wire ``dtype`` a raw-row frame would carry ``rows`` as, or ``None``.

    ``None`` — lists, integer or ragged input, empty or >2-D arrays — means
    the rows travel as a JSON document, where the server's own validation
    names what is wrong with them.
    """
    if not isinstance(rows, np.ndarray) or rows.ndim not in (1, 2) or rows.size == 0:
        return None
    name = f"<f{rows.dtype.itemsize}"
    return name if rows.dtype.kind == "f" and name in _RAW_DTYPES else None


def encode_raw_rows_request(
    rows: np.ndarray,
    request_id: Optional[Any] = None,
    method: Optional[str] = None,
    model: Optional[str] = None,
) -> bytes:
    """Encode ``rows`` (see :func:`raw_rows_dtype`) as one complete raw-row frame."""
    name = raw_rows_dtype(rows)
    if name is None:
        raise ProtocolError(
            "a raw-row frame carries a non-empty 1-D or 2-D float64/float32 array"
        )
    head = _request_object(
        {"dtype": name, "shape": list(rows.shape)}, request_id, method, model
    )
    payload = rows.astype(_RAW_DTYPES[name], copy=False).tobytes()
    return b"".join((RAW_ROWS_MAGIC, json.dumps(head).encode("ascii"), b"\n", payload))


def parse_raw_rows_head(line: bytes) -> RawRowsHead:
    """Decode a raw-row frame's head line (magic included).

    Raises :class:`ProtocolError` for anything but a JSON object naming a
    known ``dtype`` and a 1-D or 2-D ``shape`` of positive integers, with
    string ``method``/``model`` where present.
    """
    try:
        text = line[len(RAW_ROWS_MAGIC):].decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("raw-row head is not UTF-8") from None
    payload = _parse_json(text)
    if not isinstance(payload, dict):
        raise ProtocolError("a raw-row head must be a JSON object")
    request_id, method, model = _routing_fields(payload)
    wire_dtype = payload.get("dtype")
    dtype = _RAW_DTYPES.get(wire_dtype) if isinstance(wire_dtype, str) else None
    if dtype is None:
        raise ProtocolError(
            f"raw-row 'dtype' must be one of {sorted(_RAW_DTYPES)}, got {wire_dtype!r}"
        )
    shape = payload.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) not in (1, 2)
        or not all(type(extent) is int and extent > 0 for extent in shape)
    ):
        raise ProtocolError(
            f"raw-row 'shape' must be [cols] or [rows, cols] in positive "
            f"integers, got {shape!r}"
        )
    return RawRowsHead(
        dtype=dtype, shape=tuple(shape), id=request_id, method=method, model=model
    )


def looks_like_raw_rows(first_line: bytes) -> bool:
    """Whether a frame's first line is a raw-row head (vs a JSON line)."""
    return first_line.startswith(RAW_ROWS_MAGIC)


# -- hello --------------------------------------------------------------------

#: What a client sends once, at connect, to ask which frames the server reads.
HELLO_LINE = b'{"hello": "m3"}\n'
_HELLO_BODY = HELLO_LINE.rstrip()


def hello_record() -> Dict[str, Any]:
    """The answer to :data:`HELLO_LINE` from a server that reads raw-row frames."""
    return {"hello": "m3", "frames": [_RAW_ROWS_FRAME]}


def looks_like_hello(first_line: bytes) -> bool:
    """Whether a frame's first line is the client hello (vs a request)."""
    return (
        first_line.startswith(_HELLO_BODY)
        and not first_line[len(_HELLO_BODY):].strip()
    )


def hello_offers_raw_rows(reply_line: bytes) -> bool:
    """Whether the reply to :data:`HELLO_LINE` advertises raw-row frames.

    Anything else — a ``bad_request`` record from a JSONL-only server, an
    HTTP status line, an empty read — means "stay on JSON lines".
    """
    try:
        reply = json.loads(reply_line)
    except ValueError:
        return False
    frames = reply.get("frames") if isinstance(reply, dict) else None
    return isinstance(frames, list) and _RAW_ROWS_FRAME in frames


def response_record(result: ServeResult, request_id: Optional[Any] = None) -> Dict[str, Any]:
    """The JSON-ready response record for one served request."""
    return {
        "id": request_id,
        "predictions": np.asarray(result.predictions).tolist(),
        "model": result.model_key,
        "queue_wait_ms": result.queue_wait_s * 1e3,
        "compute_ms": result.compute_s * 1e3,
        "batch_rows": result.batch_rows,
    }


def error_kind(error: BaseException) -> str:
    """The wire ``kind`` for a server-side exception (see :data:`ERROR_STATUS`)."""
    if isinstance(error, ServerSaturated):
        return "saturated"
    if isinstance(error, ServerClosed):
        return "closed"
    if isinstance(error, ServeError):
        return "serve"
    if isinstance(error, ProtocolError):
        return "bad_request"
    if isinstance(error, (KeyError, ValueError, TypeError, AttributeError)):
        # Model-level trouble: unknown model name, bad method, shape
        # mismatch — the client's bug, reported as such.
        return "model"
    return "internal"


def error_site(error: BaseException) -> Optional[str]:
    """The fault-injection ``site`` behind ``error``, if any, via the cause chain."""
    seen = 0
    current: Optional[BaseException] = error
    while current is not None and seen < 8:
        site = getattr(current, "site", None)
        if isinstance(site, str):
            return site
        current = current.__cause__
        seen += 1
    return None


def error_record(error: BaseException, request_id: Optional[Any] = None) -> Dict[str, Any]:
    """The typed JSON-ready error record for a failed request."""
    message = str(error)
    if isinstance(error, KeyError) and error.args:
        # str(KeyError("x")) is "'x'" — unhelpful on the wire.
        message = str(error.args[0])
    return {
        "id": request_id,
        "error": {
            "kind": error_kind(error),
            "message": message,
            "site": error_site(error),
        },
    }


def status_for_kind(kind: str) -> int:
    """The HTTP status for a wire error ``kind`` (500 for unknown kinds)."""
    return ERROR_STATUS.get(kind, 500)


def exception_for_error(error_payload: Any) -> BaseException:
    """Rebuild the typed exception a received error record describes.

    The client-side inverse of :func:`error_record`: ``saturated``,
    ``closed`` and ``serve`` kinds come back as their native serving
    exceptions (with ``.site`` attached when the record carries one);
    everything else raises :class:`RemoteError`.
    """
    if not isinstance(error_payload, dict):
        return RemoteError("internal", str(error_payload))
    kind = error_payload.get("kind", "internal")
    message = error_payload.get("message", "")
    site = error_payload.get("site")
    rebuilt: BaseException
    if kind == "saturated":
        rebuilt = ServerSaturated(message)
    elif kind == "closed":
        rebuilt = ServerClosed(message)
    elif kind == "serve":
        rebuilt = ServeError(message)
    else:
        return RemoteError(str(kind), str(message), site)
    if isinstance(site, str):
        rebuilt.site = site  # type: ignore[attr-defined]
    return rebuilt


def encode_record(record: Dict[str, Any]) -> str:
    """One response/error record as a JSON line body (no trailing newline)."""
    return json.dumps(record)


# -- minimal HTTP/1.1 framing -------------------------------------------------


def http_response_bytes(
    status: int, record: Dict[str, Any], keep_alive: bool = True
) -> bytes:
    """Frame one JSON record as an HTTP/1.1 response."""
    body = encode_record(record).encode("utf-8")
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def http_request_bytes(
    body: str, host: str = "localhost", path: str = "/predict", keep_alive: bool = True
) -> bytes:
    """Frame one JSON request document as an HTTP/1.1 POST."""
    encoded = body.encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(encoded)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + encoded


def parse_http_request_head(line: bytes) -> Tuple[str, str]:
    """Split an HTTP request line into ``(method, path)``.

    Raises :class:`ProtocolError` when the line is not an HTTP/1.x
    request head.
    """
    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ProtocolError("request head is not ASCII") from None
    parts = text.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed HTTP request line: {text!r}")
    return parts[0].upper(), parts[1]


def parse_http_headers(lines: List[bytes]) -> Dict[str, str]:
    """Parse raw header lines into a lower-cased name -> value dict."""
    headers: Dict[str, str] = {}
    for raw in lines:
        text = raw.decode("latin-1").strip()
        if not text:
            continue
        name, separator, value = text.partition(":")
        if not separator:
            raise ProtocolError(f"malformed HTTP header line: {text!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


_HTTP_METHODS = (b"POST ", b"GET ", b"PUT ", b"DELETE ", b"HEAD ", b"OPTIONS ", b"PATCH ")


def looks_like_http(first_line: bytes) -> bool:
    """Whether a frame's first line opens an HTTP exchange (vs a JSON line)."""
    return first_line.startswith(_HTTP_METHODS)
