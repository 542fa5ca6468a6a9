"""Answer checks: every response against an answer the server did not produce.

A check returns ``None`` for a correct response or a one-line reason.
Validate verdicts are compared with the generator's; approximations are
parsed back and must be single-type, accept the input members sampled
from the input schema (decided with the path-dict
``EDTD.possible_types_reference``, not the arena kernel) and, for the
Theorem 3.2 schema ``D_n``, have exactly ``2^(n+1)`` types.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.schemas.text_format import loads
from repro.schemas.type_automaton import is_single_type
from repro.trees.tree import Tree


def envelope_error(response: Any) -> str | None:
    """The reason a response is not a success envelope, if it is not."""
    if not isinstance(response, dict):
        return "response is not a JSON object"
    if response.get("ok") is not True:
        error = response.get("error") or {}
        return f"error envelope: {error.get('type')}: {error.get('message')}"
    if not isinstance(response.get("result"), dict):
        return "success envelope without a result object"
    return None


def check_validate(response: Any, valid: bool) -> str | None:
    """A validate response must carry the generator's verdict."""
    problem = envelope_error(response)
    if problem is not None:
        return problem
    verdict = response["result"].get("verdict")
    expected = "valid" if valid else "invalid"
    if verdict != expected:
        return f"verdict {verdict!r}, expected {expected!r}"
    return None


def check_register(response: Any) -> str | None:
    problem = envelope_error(response)
    if problem is not None:
        return problem
    if not isinstance(response["result"].get("schema_id"), str):
        return "register_schema result without a schema_id"
    return None


def _accepts_reference(schema: Any, tree: Tree) -> bool:
    return bool(schema.possible_types_reference(tree) & schema.starts)


def check_approximation(
    response: Any, members: list[Tree], n: int | None = None
) -> str | None:
    """An approximate response must be a single-type schema accepting
    every sampled input member, with 2^(n+1) types for ``D_n``."""
    problem = envelope_error(response)
    if problem is not None:
        return problem
    text = response["result"].get("schema")
    if not isinstance(text, str):
        return "approximate result without schema text"
    try:
        schema = loads(text)
    except ReproError as error:
        return f"approximation does not parse: {error}"
    if not is_single_type(schema):
        return "approximation is not single-type"
    for member in members:
        if not _accepts_reference(schema, member):
            return f"approximation rejects input member {member}"
    if n is not None and len(schema.types) != 2 ** (n + 1):
        return f"D_{n} approximation has {len(schema.types)} types, expected {2 ** (n + 1)}"
    if response["result"].get("types") != len(schema.types):
        return "result 'types' does not match the schema text"
    return None
