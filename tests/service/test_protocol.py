"""The newline-delimited JSON wire protocol: framing, envelopes, and
field extraction."""

from __future__ import annotations

import json

import pytest

from repro.errors import BudgetExceededError, ProtocolError, ServiceError
from repro.service import MAX_LINE_BYTES, decode_request, encode_response
from repro.service.protocol import (
    error_response,
    get_bool,
    get_number,
    get_str,
    get_str_list,
    ok_response,
)


class TestDecodeRequest:
    def test_round_trip(self):
        payload = decode_request(b'{"id": 7, "op": "ping"}\n')
        assert payload == {"id": 7, "op": "ping"}

    def test_accepts_str_lines(self):
        assert decode_request('{"op": "stats"}')["op"] == "stats"

    def test_oversized_line(self):
        line = b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_request(line)

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_request(b'{"op": "\xff\xfe"}')

    def test_invalid_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_request(b"{not json}")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_request(b'["op", "ping"]')

    def test_missing_op(self):
        with pytest.raises(ProtocolError, match="missing the 'op'"):
            decode_request(b'{"id": 1}')

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(b'{"op": "self-destruct"}')


class TestEnvelopes:
    def test_encode_is_one_compact_line(self):
        encoded = encode_response(ok_response(1, {"pong": True}))
        assert encoded == b'{"id":1,"ok":true,"result":{"pong":true}}\n'
        assert encoded.count(b"\n") == 1

    def test_ok_envelope(self):
        assert ok_response("abc", {"x": 1}) == {
            "id": "abc",
            "ok": True,
            "result": {"x": 1},
        }

    def test_error_envelope_keeps_taxonomy_type(self):
        response = error_response(2, ServiceError("unknown schema_id"))
        assert response["ok"] is False
        assert response["error"]["type"] == "ServiceError"
        assert "unknown schema_id" in response["error"]["message"]

    def test_error_envelope_budget_trip(self):
        error = BudgetExceededError("deadline", limit=0.1, progress=None)
        assert error_response(None, error)["error"]["type"] == "BudgetExceededError"

    def test_error_envelope_masks_non_taxonomy(self):
        assert error_response(1, RuntimeError("boom"))["error"]["type"] == (
            "InternalError"
        )

    def test_envelopes_are_json_serializable(self):
        line = encode_response(error_response(3, ProtocolError("bad")))
        assert json.loads(line)["error"]["type"] == "ProtocolError"


class TestFieldExtraction:
    def test_get_str(self):
        assert get_str({"a": "x"}, "a") == "x"
        assert get_str({}, "a", None) is None
        with pytest.raises(ProtocolError, match="missing"):
            get_str({}, "a")
        with pytest.raises(ProtocolError, match="string"):
            get_str({"a": 3}, "a")

    def test_get_bool(self):
        assert get_bool({"a": True}, "a") is True
        assert get_bool({}, "a") is False
        assert get_bool({}, "a", True) is True
        with pytest.raises(ProtocolError, match="boolean"):
            get_bool({"a": "yes"}, "a")

    def test_get_number(self):
        assert get_number({"a": 1.5}, "a") == 1.5
        assert get_number({}, "a") is None
        with pytest.raises(ProtocolError, match="number"):
            get_number({"a": "3"}, "a")
        with pytest.raises(ProtocolError, match=">= 0"):
            get_number({"a": -1}, "a")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_get_number_rejects_non_finite(self, literal):
        payload = json.loads('{"a": %s}' % literal)
        with pytest.raises(ProtocolError, match="finite"):
            get_number(payload, "a")
        assert get_number({"a": 10**400}, "a", integer=True) == 10**400

    def test_get_number_integer_mode(self):
        assert get_number({"a": 3}, "a", integer=True) == 3
        with pytest.raises(ProtocolError, match="integer"):
            get_number({"a": 3.5}, "a", integer=True)
        with pytest.raises(ProtocolError, match="integer"):
            get_number({"a": True}, "a", integer=True)

    def test_get_str_list(self):
        assert get_str_list({"docs": ["a", "b"]}, "docs") == ["a", "b"]
        with pytest.raises(ProtocolError, match="missing"):
            get_str_list({}, "docs")
        with pytest.raises(ProtocolError, match="list of strings"):
            get_str_list({"docs": ["a", 1]}, "docs")
