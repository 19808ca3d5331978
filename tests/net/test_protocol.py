"""Tests for the shared serving wire codec (`repro.net.protocol`)."""

import json

import numpy as np
import pytest

from repro.faults import InjectedFault
from repro.net import protocol
from repro.net.protocol import ProtocolError, RemoteError
from repro.serve.server import (
    ServeError,
    ServeResult,
    ServerClosed,
    ServerSaturated,
)


def _result(predictions, version=1):
    return ServeResult(
        predictions=np.asarray(predictions),
        model_name="default",
        model_version=version,
        method="predict",
        queue_wait_s=0.0005,
        batch_s=0.001,
        compute_s=0.002,
        batch_rows=len(predictions),
        batch_requests=1,
    )


class TestParseRequest:
    def test_bare_array_is_a_default_request(self):
        request = protocol.parse_request([1.0, 2.0, 3.0])
        assert request.rows == [1.0, 2.0, 3.0]
        assert request.id is None
        assert request.method == "predict"
        assert request.model == "default"

    def test_nested_array_is_a_batch(self):
        request = protocol.parse_request([[1.0, 2.0], [3.0, 4.0]])
        assert request.rows == [[1.0, 2.0], [3.0, 4.0]]

    def test_object_form_carries_routing_fields(self):
        request = protocol.parse_request(
            {"id": 7, "x": [1.0], "method": "predict_proba", "model": "other"}
        )
        assert request.id == 7
        assert request.rows == [1.0]
        assert request.method == "predict_proba"
        assert request.model == "other"

    def test_bare_array_gets_predict_on_the_default_model(self):
        request = protocol.parse_request([1.0])
        assert request.method == "predict"
        assert request.model == protocol.DEFAULT_MODEL_NAME

    def test_object_without_x_rejected(self):
        with pytest.raises(ProtocolError, match="'x' field"):
            protocol.parse_request({"rows": [1.0]})

    def test_scalar_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request(42)

    def test_non_string_method_rejected(self):
        with pytest.raises(ProtocolError, match="method"):
            protocol.parse_request({"x": [1.0], "method": 3})

    def test_non_string_model_rejected(self):
        with pytest.raises(ProtocolError, match="model"):
            protocol.parse_request({"x": [1.0], "model": ["default"]})

    def test_invalid_json_line_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.parse_request_line("this is not json")


class TestEncodeRequest:
    def test_plain_rows_encode_to_the_compact_array_form(self):
        assert protocol.encode_request([1.0, 2.0]) == "[1.0, 2.0]"

    def test_ndarray_rows_are_listified(self):
        body = protocol.encode_request(np.array([1.0, 2.0]))
        assert json.loads(body) == [1.0, 2.0]

    def test_routing_fields_switch_to_the_object_form(self):
        body = protocol.encode_request(
            [1.0], request_id=9, method="predict_proba", model="other"
        )
        payload = json.loads(body)
        assert payload == {"x": [1.0], "id": 9, "method": "predict_proba",
                           "model": "other"}

    def test_round_trips_through_parse(self):
        body = protocol.encode_request([1.0, 2.0], request_id="r1",
                                       method="predict_proba")
        request = protocol.parse_request_line(body)
        assert request.rows == [1.0, 2.0]
        assert request.id == "r1"
        assert request.method == "predict_proba"


class TestRawRowsFrame:
    @pytest.mark.parametrize("rows", [
        np.arange(6.0),
        np.arange(12.0).reshape(3, 4),
        np.arange(12.0, dtype=np.float32).reshape(3, 4),
        np.arange(12.0).reshape(3, 4).T,          # not C-contiguous
        np.arange(12.0).reshape(3, 4).astype(">f8"),
    ])
    def test_round_trips_bit_for_bit(self, rows):
        frame = protocol.encode_raw_rows_request(
            rows, request_id=[1, "a"], method="predict_proba", model="other"
        )
        line, _, payload = frame.partition(b"\n")
        assert protocol.looks_like_raw_rows(line)
        head = protocol.parse_raw_rows_head(line + b"\n")
        assert head.nbytes == len(payload)
        request = head.request(payload)
        assert request.rows.dtype == np.float64
        np.testing.assert_array_equal(request.rows, rows)
        assert request.rows.shape == rows.shape
        assert (request.id, request.method, request.model) == (
            [1, "a"], "predict_proba", "other")

    def test_omitted_routing_fields_stay_off_the_wire_and_take_defaults(self):
        line = protocol.encode_raw_rows_request(np.zeros(3)).split(b"\n", 1)[0]
        assert json.loads(line[len(protocol.RAW_ROWS_MAGIC):]) == {
            "dtype": "<f8", "shape": [3]}
        head = protocol.parse_raw_rows_head(line)
        assert (head.id, head.method, head.model) == (None, "predict", protocol.DEFAULT_MODEL_NAME)

    def test_float32_upcasts_to_what_its_json_spelling_parses_to(self):
        rows = np.array([0.1, 1 / 3, 2.5e-7], dtype=np.float32)
        frame = protocol.encode_raw_rows_request(rows)
        line, _, payload = frame.partition(b"\n")
        raw = protocol.parse_raw_rows_head(line).request(payload).rows
        via_json = np.asarray(protocol.parse_request_line(
            protocol.encode_request(rows)).rows)
        assert raw.dtype == via_json.dtype == np.float64
        np.testing.assert_array_equal(raw, via_json)

    @pytest.mark.parametrize("rows", [
        [1.0, 2.0], np.arange(4), np.zeros((0, 3)), np.zeros((2, 0)),
        np.zeros((1, 2, 3)), np.float64(1.0), np.zeros(3, dtype=np.float16),
        np.zeros(3, dtype=np.complex64), np.array(["a"]),
    ])
    def test_what_the_frame_does_not_carry(self, rows):
        assert protocol.raw_rows_dtype(rows) is None
        with pytest.raises(ProtocolError, match="raw-row frame"):
            protocol.encode_raw_rows_request(rows)

    @pytest.mark.parametrize("body, match", [
        (b"nope", "not valid JSON"),
        (b"[1]", "JSON object"),
        (b'{"shape": [2]}', "dtype"),
        (b'{"dtype": "<f2", "shape": [2]}', "dtype"),
        (b'{"dtype": {}, "shape": [2]}', "dtype"),
        (b'{"dtype": "<f8"}', "shape"),
        (b'{"dtype": "<f8", "shape": [1, 2, 3]}', "shape"),
        (b'{"dtype": "<f8", "shape": [2.0]}', "shape"),
        (b'{"dtype": "<f8", "shape": [false]}', "shape"),
        (b'{"dtype": "<f8", "shape": [0]}', "shape"),
        (b'{"dtype": "<f8", "shape": [-3, 2]}', "shape"),
        (b'{"dtype": "<f8", "shape": [2], "method": 1}', "method"),
        (b'{"dtype": "<f8", "shape": [2], "model": null}', "model"),
        (b"\xff", "UTF-8"),
    ])
    def test_malformed_heads_rejected(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.parse_raw_rows_head(protocol.RAW_ROWS_MAGIC + body + b"\n")

    def test_a_huge_declared_shape_is_just_a_number(self):
        head = protocol.parse_raw_rows_head(
            b'M3ROWS {"dtype": "<f4", "shape": [%d, %d]}\n' % (10**30, 10**30))
        assert head.nbytes == 4 * 10**60


class TestHello:
    def test_sniff(self):
        assert protocol.looks_like_hello(protocol.HELLO_LINE)
        assert protocol.looks_like_hello(b'{"hello": "m3"}\r\n')
        assert not protocol.looks_like_hello(b'{"hello": "m3", "x": [1.0]}\n')
        assert not protocol.looks_like_hello(b"[1.0]\n")

    def test_the_hello_is_a_malformed_request_to_the_json_codec(self):
        with pytest.raises(ProtocolError, match="'x' field"):
            protocol.parse_request_line(protocol.HELLO_LINE.decode())

    @pytest.mark.parametrize("reply, offered", [
        (json.dumps(protocol.hello_record()).encode() + b"\n", True),
        (b'{"hello": "m3", "frames": ["M3ROWS", "FUTURE"]}\n', True),
        (b'{"hello": "m3", "frames": []}\n', False),
        (b'{"hello": "m3", "frames": "M3ROWS"}\n', False),
        (b'{"id": null, "error": {"kind": "bad_request"}}\n', False),
        (b"HTTP/1.1 400 Bad Request\r\n", False),
        (b"[1]\n", False),
        (b"\xff\n", False),
        (b"", False),
    ])
    def test_reply(self, reply, offered):
        assert protocol.hello_offers_raw_rows(reply) is offered


class TestResponseRecord:
    def test_mirrors_serve_result(self):
        record = protocol.response_record(_result([1, 0, 1], version=3), 11)
        assert record["id"] == 11
        assert record["predictions"] == [1, 0, 1]
        assert record["model"] == "default@3"
        assert record["queue_wait_ms"] == pytest.approx(0.5)
        assert record["compute_ms"] == pytest.approx(2.0)
        assert record["batch_rows"] == 3

    def test_encode_record_is_one_json_line(self):
        text = protocol.encode_record(protocol.response_record(_result([1])))
        assert "\n" not in text
        assert json.loads(text)["model"] == "default@1"


class TestErrorMapping:
    @pytest.mark.parametrize("error, kind", [
        (ServerSaturated("full"), "saturated"),
        (ServerClosed("closed"), "closed"),
        (ServeError("boom"), "serve"),
        (ProtocolError("bad"), "bad_request"),
        (KeyError("missing"), "model"),
        (ValueError("shape"), "model"),
        (TypeError("method"), "model"),
        (AttributeError("predict_proba"), "model"),
        (RuntimeError("bug"), "internal"),
    ])
    def test_error_kind(self, error, kind):
        assert protocol.error_kind(error) == kind

    @pytest.mark.parametrize("kind, status", [
        ("bad_request", 400), ("model", 400), ("saturated", 429),
        ("serve", 500), ("internal", 500), ("closed", 503),
    ])
    def test_status_for_kind(self, kind, status):
        assert protocol.status_for_kind(kind) == status

    def test_unknown_kind_maps_to_500(self):
        assert protocol.status_for_kind("martian") == 500

    def test_error_record_shape(self):
        record = protocol.error_record(ServerSaturated("queue full"), 5)
        assert record["id"] == 5
        assert record["error"]["kind"] == "saturated"
        assert record["error"]["message"] == "queue full"
        assert record["error"]["site"] is None

    def test_key_error_message_is_unquoted(self):
        record = protocol.error_record(KeyError("missing"))
        assert record["error"]["message"] == "missing"

    def test_error_site_walks_the_cause_chain(self):
        inner = InjectedFault("net.read", 1)
        outer = ServeError("request failed")
        outer.__cause__ = inner
        assert protocol.error_site(outer) == "net.read"
        assert protocol.error_record(outer)["error"]["site"] == "net.read"

    def test_error_site_depth_is_bounded(self):
        deep = InjectedFault("net.read", 1)
        error: BaseException = deep
        for _ in range(9):
            wrapper = RuntimeError("layer")
            wrapper.__cause__ = error
            error = wrapper
        assert protocol.error_site(error) is None


class TestExceptionForError:
    @pytest.mark.parametrize("original", [
        ServerSaturated("queue full"),
        ServerClosed("draining"),
        ServeError("dispatch blew up"),
    ])
    def test_native_kinds_round_trip(self, original):
        record = protocol.error_record(original)
        rebuilt = protocol.exception_for_error(record["error"])
        assert type(rebuilt) is type(original)
        assert str(rebuilt) == str(original)

    def test_site_survives_the_round_trip(self):
        error = ServeError("request failed")
        error.__cause__ = InjectedFault("net.write", 2)
        rebuilt = protocol.exception_for_error(
            protocol.error_record(error)["error"]
        )
        assert isinstance(rebuilt, ServeError)
        assert rebuilt.site == "net.write"

    def test_other_kinds_become_remote_errors(self):
        rebuilt = protocol.exception_for_error(
            {"kind": "model", "message": "no such model", "site": None}
        )
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.kind == "model"
        assert rebuilt.remote_message == "no such model"
        assert "[model] no such model" in str(rebuilt)

    def test_non_dict_payload_becomes_internal_remote_error(self):
        rebuilt = protocol.exception_for_error("oops")
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.kind == "internal"


class TestHttpFraming:
    def test_response_bytes_round_trip(self):
        record = {"id": 1, "predictions": [0], "model": "default@1"}
        raw = protocol.http_response_bytes(200, record, keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        headers = protocol.parse_http_headers([line for line in lines[1:]])
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert headers["connection"] == "keep-alive"
        assert json.loads(body) == record

    def test_close_mode_sets_the_connection_header(self):
        raw = protocol.http_response_bytes(429, {"error": {}}, keep_alive=False)
        assert b"HTTP/1.1 429 Too Many Requests" in raw
        assert b"Connection: close" in raw

    def test_request_bytes_parse_back(self):
        raw = protocol.http_request_bytes('{"x": [1.0]}', host="example")
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        method, path = protocol.parse_http_request_head(lines[0])
        assert (method, path) == ("POST", "/predict")
        headers = protocol.parse_http_headers(lines[1:])
        assert headers["host"] == "example"
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body) == {"x": [1.0]}

    def test_malformed_request_head_rejected(self):
        with pytest.raises(ProtocolError, match="malformed HTTP request line"):
            protocol.parse_http_request_head(b"POST /predict")
        with pytest.raises(ProtocolError, match="malformed HTTP request line"):
            protocol.parse_http_request_head(b"POST /predict SPDY/3")

    def test_non_ascii_head_rejected(self):
        with pytest.raises(ProtocolError, match="not ASCII"):
            protocol.parse_http_request_head("POST /prédire HTTP/1.1".encode())

    def test_malformed_header_line_rejected(self):
        with pytest.raises(ProtocolError, match="malformed HTTP header"):
            protocol.parse_http_headers([b"no-colon-here\r\n"])

    def test_looks_like_http_sniff(self):
        assert protocol.looks_like_http(b"POST /predict HTTP/1.1\r\n")
        assert protocol.looks_like_http(b"GET / HTTP/1.1\r\n")
        assert not protocol.looks_like_http(b"[1.0, 2.0]\n")
        assert not protocol.looks_like_http(b'{"x": [1.0]}\n')
