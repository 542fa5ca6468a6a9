"""The newline-delimited JSON wire protocol.

One request per line, one response line per request, over any byte
stream (the server uses asyncio TCP streams).  Requests are JSON objects

``{"id": <any JSON>, "op": <operation>, ...parameters}``

and responses echo the id:

``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"type": <taxonomy class>, "message": ...}}``

Operations, their parameters, and the latency-budget cookbook are
documented in ``docs/SERVICE.md``.  This module is pure data plumbing:
parsing, shape validation (raising
:class:`repro.errors.ProtocolError`), and response envelopes.  It never
touches schemas or budgets.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import ProtocolError, ReproError

__all__ = [
    "MAX_LINE_BYTES",
    "OPERATIONS",
    "decode_request",
    "encode_response",
    "error_response",
    "ok_response",
]

#: Hard cap on one request/response line (protects the server from
#: unbounded buffering; the asyncio stream limit is set to this).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The operations the server dispatches on.
OPERATIONS = frozenset(
    {"register_schema", "validate", "validate_batch", "approximate", "stats", "ping"}
)

_MISSING = object()


def _refuse_constant(literal: str) -> Any:
    raise ProtocolError(f"request is not valid JSON: {literal} is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ProtocolError(
            f"request is not valid JSON: {literal[:40]} is not a finite number"
        )
    return value


#: Strict JSON numbers.  Plain ``json.loads`` accepts ``NaN`` and
#: ``Infinity`` and reads an overflowing literal such as ``1e400`` as
#: infinity; an id holding one would be echoed as text that is not JSON.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


def decode_request(line: "bytes | str") -> dict[str, Any]:
    """Parse one request line into its payload dict.

    Raises :class:`ProtocolError` on oversized lines, non-JSON (including
    the non-finite numbers ``NaN``, ``Infinity`` and overflowing float
    literals), non-object payloads, or a missing/unknown ``op``.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not valid UTF-8: {error}") from error
    try:
        payload = _DECODER.decode(line)
    except ValueError as error:  # JSONDecodeError, or an int too long to convert
        raise ProtocolError(f"request is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op is None:
        raise ProtocolError("request is missing the 'op' field")
    if op not in OPERATIONS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(sorted(OPERATIONS))})"
        )
    return payload


def encode_response(response: dict[str, Any]) -> bytes:
    """One response line, newline-terminated, compact separators."""
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, error: BaseException) -> dict[str, Any]:
    """The error envelope for a failed request.

    ``type`` is the taxonomy class name (:class:`ReproError` subclasses
    keep their own; anything else — which should not happen — is reported
    as ``InternalError``).
    """
    if isinstance(error, ReproError):
        error_type = type(error).__name__
    else:  # pragma: no cover - defensive: non-taxonomy escape
        error_type = "InternalError"
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": str(error)},
    }


# ----------------------------------------------------------------------
# Field extraction
# ----------------------------------------------------------------------

def get_str(payload: dict[str, Any], name: str, default: Any = _MISSING) -> Any:
    """*name* as a string; *default* when absent (required when omitted)."""
    value = payload.get(name, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError(f"request is missing the {name!r} field")
        return default
    if not isinstance(value, str):
        raise ProtocolError(f"{name!r} must be a string, got {type(value).__name__}")
    return value


def get_bool(payload: dict[str, Any], name: str, default: bool = False) -> bool:
    value = payload.get(name, _MISSING)
    if value is _MISSING:
        return default
    if not isinstance(value, bool):
        raise ProtocolError(f"{name!r} must be a boolean, got {type(value).__name__}")
    return value


def get_number(
    payload: dict[str, Any],
    name: str,
    default: Any = None,
    *,
    integer: bool = False,
) -> Any:
    """*name* as a finite non-negative number (int when ``integer``),
    else *default*.  ``json.loads`` accepts the non-standard literals
    ``NaN`` and ``Infinity``; both are rejected here."""
    value = payload.get(name, _MISSING)
    if value is _MISSING:
        return default
    numeric = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, numeric):
        kind = "an integer" if integer else "a number"
        raise ProtocolError(f"{name!r} must be {kind}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ProtocolError(f"{name!r} must be a finite number, got {value}")
    if value < 0:
        raise ProtocolError(f"{name!r} must be >= 0, got {value}")
    return value


def get_str_list(payload: dict[str, Any], name: str) -> list[str]:
    value = payload.get(name, _MISSING)
    if value is _MISSING:
        raise ProtocolError(f"request is missing the {name!r} field")
    if not isinstance(value, list) or any(not isinstance(item, str) for item in value):
        raise ProtocolError(f"{name!r} must be a list of strings")
    return value
