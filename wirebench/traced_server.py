"""Span-recording launcher for ``repro serve`` (the traced run).

Usage: ``python traced_server.py SPANS_JSON <repro CLI arguments>``

Before handing over to :func:`repro.cli.main`, this wraps each layer's
public entry point where its caller looks it up, so the program itself is
unchanged.  Every call records a span ``(id, parent, request id, name,
start_ns, end_ns, note)``; the request id is the client's ``id``, carried
in a context variable that ``asyncio.to_thread`` copies into worker
threads.  Spans stay in memory and are written to SPANS_JSON, with the
memo-cache counters, when the server shuts down.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
from time import perf_counter_ns
from typing import Any, Callable

_SPANS: list[tuple] = []
_IDS = itertools.count(1)
_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)
_REQUEST: contextvars.ContextVar[Any] = contextvars.ContextVar("request", default=None)


def _wrap(name: str, func: Callable, note: Callable[[Any], Any] | None = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = next(_IDS)
        token = _PARENT.set(span)
        start = perf_counter_ns()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            _PARENT.reset(token)
            _SPANS.append(
                (span, _PARENT.get(), _REQUEST.get(), name, start, end,
                 note(result) if note is not None and result is not None else None)
            )

    return wrapper


def _wrap_request(func: Callable) -> Callable:
    """``ValidationService.handle_request``: sets the request id."""

    @functools.wraps(func)
    async def wrapper(self: Any, payload: dict) -> Any:
        request = _REQUEST.set(payload.get("id"))
        span = next(_IDS)
        token = _PARENT.set(span)
        start = perf_counter_ns()
        try:
            return await func(self, payload)
        finally:
            end = perf_counter_ns()
            _PARENT.reset(token)
            _SPANS.append((span, _PARENT.get(), _REQUEST.get(), "service.server.handle_request",
                           start, end, payload.get("op")))
            _REQUEST.reset(request)

    return wrapper


def _patch(owner: Any, attribute: str, name: str, note: Callable | None = None) -> None:
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(_wrap(name, original.__func__, note)))
    else:
        setattr(owner, attribute, _wrap(name, original, note))


def install() -> None:
    """Wrap every traced layer entry point (see wirebench/README.md)."""
    import repro.api as api
    import repro.core.upper as upper
    import repro.schemas.edtd as edtd
    import repro.schemas.minimize as schemas_minimize
    import repro.schemas.ops as schemas_ops
    import repro.schemas.text_format as text_format
    import repro.service.protocol as protocol
    import repro.service.registry as registry
    import repro.service.server as server
    import repro.strings.kernels as kernels
    import repro.strings.minimize as strings_minimize
    import repro.strings.schema_guided as schema_guided
    import repro.tree_automata.kernels as tree_kernels
    from repro.cache.store import ArtifactCache
    from repro.schemas.dfa_xsd import DFAXSD
    from repro.schemas.st_edtd import SingleTypeEDTD
    from repro.trees.arena import ArenaTree

    server.ValidationService.handle_request = _wrap_request(
        server.ValidationService.handle_request
    )
    _patch(protocol, "decode_request", "service.protocol.decode")
    _patch(protocol, "encode_response", "service.protocol.encode")
    _patch(registry.SchemaRegistry, "lookup", "service.registry.lookup")
    _patch(registry.SchemaRegistry, "register", "service.registry.register")
    _patch(registry, "compile_schema", "api.compile")
    _patch(api.CompiledSchema, "validate", "api.validate")
    _patch(api.CompiledSchema, "approximate_upper", "api.approximate")
    _patch(api, "from_xml", "trees.xml_io.from_xml")
    _patch(ArenaTree, "from_tree", "trees.arena.from_tree")
    _patch(edtd.EDTD, "accepts", "schemas.edtd.accepts")
    _patch(SingleTypeEDTD, "accepts", "schemas.edtd.accepts")
    _patch(tree_kernels, "edtd_type_masks", "tree_automata.kernels.type_masks")
    _patch(text_format, "loads", "schemas.text_format.loads")
    _patch(api, "_loads_schema", "schemas.text_format.loads")
    _patch(server, "_dumps_schema", "schemas.text_format.dumps")
    _patch(api, "minimal_upper_approximation", "core.upper")
    _patch(upper, "type_automaton", "schemas.type_automaton")
    _patch(upper, "determinize", "strings.determinize", note=lambda dfa: len(dfa.states))
    for module in (kernels, edtd, upper, schemas_ops):
        _patch(module, "cached_min_dfa", "strings.kernels.content_model")
    for module in (kernels, edtd):
        _patch(module, "cached_content_model", "strings.kernels.content_model")
    _patch(kernels, "structural_key", "strings.kernels.structural_key")
    _patch(kernels, "hopcroft_refine", "strings.kernels.hopcroft")
    for module in (schema_guided, upper):
        _patch(module, "cached_guided_min_dfa", "strings.schema_guided")
    for module in (strings_minimize, edtd, schemas_minimize):
        _patch(module, "minimize_dfa", "strings.minimize.minimize_dfa")
    _patch(DFAXSD, "to_single_type", "schemas.dfa_xsd.to_single_type")
    _patch(edtd.EDTD, "reduced", "schemas.edtd.reduced")
    _patch(SingleTypeEDTD, "reduced", "schemas.edtd.reduced")
    _patch(upper, "minimize_single_type", "schemas.minimize.minimize_single_type")
    _patch(ArtifactCache, "get", "cache.store.get", note=lambda loaded: 1)
    _patch(ArtifactCache, "put", "cache.store.put")


def memo_stats() -> dict[str, dict]:
    """Hit/miss counters of all nine memo tiers, by tier name."""
    import repro.strings.kernels as kernels
    import repro.strings.schema_guided as schema_guided
    import repro.tree_automata.kernels as tree_kernels
    import repro.tree_automata.schema_guided as tree_guided

    stats: dict[str, dict] = {}
    for module in (kernels, schema_guided, tree_kernels, tree_guided):
        stats.update(module.cache_stats())
    return stats


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": _SPANS, "memo": memo_stats()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
