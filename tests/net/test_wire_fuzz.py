"""Byte-level fuzz of every wire framing ``NetServer`` reads.

Whatever bytes a connection carries — JSON lines, HTTP heads / headers /
bodies, raw-row heads with truncated, oversize, over-long or garbage
payloads, plain noise — every frame gets exactly one typed record or the
connection closes.  Never an unhandled task exception, a hang, or a dead
listener; and the transport's books balance (``requests == responses``)
for the frames that were answered.
"""

import gc
import json
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import NetClient, NetServer, protocol
from repro.serve import ModelServer

MAX_REQUEST_BYTES = 2048
COLS = 8
ROWS = np.random.default_rng(5).normal(size=(16, COLS))


@pytest.fixture(scope="module")
def fuzzed(softmax_fitted):
    """One server for every example, its loop's unhandled exceptions recorded."""
    server = ModelServer(max_batch=64, max_delay_ms=0.0)
    server.publish("default", softmax_fitted)
    net = NetServer(server, max_request_bytes=MAX_REQUEST_BYTES)
    unhandled = []
    net._loop.call_soon_threadsafe(
        net._loop.set_exception_handler,
        lambda _loop, context: unhandled.append(context),
    )
    yield net, unhandled
    net.close()
    server.close()


# -- frames -------------------------------------------------------------------

def _json_line(index):
    return (protocol.encode_request(ROWS[index % 16], request_id=index) + "\n").encode()


def _raw_frame(index, n_rows=1, dtype=np.float64):
    rows = ROWS[index % 16] if n_rows == 1 else np.resize(ROWS, (n_rows, COLS))
    return protocol.encode_raw_rows_request(rows.astype(dtype), request_id=index)


def _http_frame(index, **kwargs):
    return protocol.http_request_bytes(
        protocol.encode_request(ROWS[index % 16], request_id=index), **kwargs
    )


indices = st.integers(min_value=0, max_value=999)
noise = st.binary(max_size=120)

valid_frames = st.one_of(
    indices.map(_json_line),
    indices.map(_raw_frame),
    st.builds(_raw_frame, indices, st.integers(1, 20), st.sampled_from([np.float64, np.float32])),
    indices.map(_http_frame),
    st.just(protocol.HELLO_LINE),
)


@st.composite
def torn(draw, frames):
    """A frame cut short, or with bytes spliced into it."""
    frame = draw(frames)
    cut = draw(st.integers(0, len(frame)))
    return frame[:cut] + draw(noise) if draw(st.booleans()) else frame[:cut]


hostile_frames = st.one_of(
    noise,
    noise.map(lambda junk: junk + b"\n"),
    st.just(b"\n"),
    noise.map(lambda junk: protocol.RAW_ROWS_MAGIC + junk + b"\n"),
    # A declared payload past the limit, with and without bytes behind it.
    st.builds(
        lambda rows, junk: b'M3ROWS {"dtype": "<f8", "shape": [%d, 8]}\n' % rows + junk,
        st.integers(MAX_REQUEST_BYTES // 64 + 1, 10**12), noise,
    ),
    # Lines longer than the reader's limit, in each framing.
    st.sampled_from([b"[", b'M3ROWS {"pad": "', b"POST /predict HTTP/1.1\r\nX-Pad: "]).map(
        lambda opening: opening + b"1" * (MAX_REQUEST_BYTES + 64) + b"\n"
    ),
    st.builds(
        lambda verb, path, headers, body: (
            verb + b" " + path + b" HTTP/1.1\r\n" + headers + b"\r\n" + body
        ),
        st.sampled_from([b"POST", b"GET", b"PUT", b"BREW"]),
        st.sampled_from([b"/predict", b"/", b"/nope", b"\xff"]),
        st.sampled_from([
            b"", b"Content-Length: 5\r\n", b"Content-Length: -1\r\n",
            b"Content-Length: 99999999\r\n", b"Content-Length: abc\r\n",
            b"no colon here\r\n", b"Connection: close\r\nContent-Length: 3\r\n",
        ]),
        noise,
    ),
    torn(valid_frames),
)

streams = st.lists(st.one_of(valid_frames, hostile_frames), min_size=1, max_size=8)


# -- the connection -----------------------------------------------------------

def _converse(net, data):
    """Send ``data``, half-close, and read every answer up to the hang-up."""
    received = bytearray()
    with socket.create_connection((net.host, net.port), timeout=20) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)   # socket.timeout here = the server hung
                if not chunk:
                    break
                received += chunk
        except (ConnectionResetError, BrokenPipeError):
            pass  # the server hung up on unread noise: what arrived still counts
    return bytes(received)


def _records(answer):
    """Split an answer stream into its JSON records (JSONL lines and HTTP
    responses interleave, as their requests did)."""
    records = []
    while answer:
        if answer.startswith(b"HTTP/1.1 "):
            head, _, rest = answer.partition(b"\r\n\r\n")
            headers = protocol.parse_http_headers(head.split(b"\r\n")[1:])
            length = int(headers["content-length"])
            body, answer = rest[:length], rest[length:]
            status = int(head.split()[1])
            record = json.loads(body)
            assert (status == 200) == ("error" not in record), (status, record)
        else:
            line, _, answer = answer.partition(b"\n")
            record = json.loads(line)
        records.append(record)
    return records


def _assert_typed(record):
    if "hello" in record:
        assert record == protocol.hello_record()
    elif "error" in record:
        assert record["error"]["kind"] in protocol.ERROR_STATUS, record
        assert isinstance(record["error"]["message"], str)
    else:
        assert record["model"] == "default@1", record
        assert isinstance(record["predictions"], list)


def _settled(net, tries=500):
    for _ in range(tries):
        stats = net.stats()
        if stats.active == 0:
            return stats
        time.sleep(0.01)
    raise AssertionError(f"a connection never finished: {net.stats()}")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(frames=streams)
def test_any_bytes_get_typed_records_or_a_hang_up(fuzzed, frames):
    net, unhandled = fuzzed
    before = _settled(net)
    answer = _converse(net, b"".join(frames))
    after = _settled(net)
    records = _records(answer)
    for record in records:
        _assert_typed(record)
    answered = sum("hello" not in record for record in records)
    assert after.requests - before.requests == after.responses - before.responses
    assert answered == after.responses - before.responses
    gc.collect()  # a never-retrieved task exception reports from its finaliser
    assert unhandled == []
    # The listener outlives whatever that was.
    with NetClient(net.host, net.port) as client:
        assert client.predict_one(ROWS[0]).model_key == "default@1"


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(["json", "raw", "http"]), min_size=1, max_size=12))
def test_well_formed_frames_of_every_framing_interleave(fuzzed, softmax_fitted, kinds):
    net, unhandled = fuzzed
    encode = {"json": _json_line, "raw": _raw_frame, "http": _http_frame}
    data = b"".join(encode[kind](index) for index, kind in enumerate(kinds))
    records = _records(_converse(net, data))
    assert [record.get("id") for record in records] == list(range(len(kinds)))
    expected = softmax_fitted.predict(ROWS)
    for index, record in enumerate(records):
        assert record["predictions"] == [int(expected[index % 16])], record
    assert unhandled == []
