"""Command-line interface: ``python -m repro <command> ...``.

Commands operate on schema files in the text format of
:mod:`repro.schemas.text_format` and XML documents (element-only
fragments):

* ``info SCHEMA``                     — sizes, single-type?, definable?
* ``validate SCHEMA DOC.xml``         — validate a document
* ``union A B [-o OUT]``              — minimal upper approx of the union
* ``intersect A B [-o OUT]``          — the (exact) intersection
* ``difference A B [-o OUT]``         — minimal upper approx of A minus B
* ``complement A [-o OUT]``           — minimal upper approx of the complement
* ``to-xsd A [-o OUT]``               — minimal upper approx of any EDTD
* ``lower A B [-o OUT]``              — maximal lower approx of A | B fixing A
* ``minimize A [-o OUT]``             — type-minimal equivalent XSD
* ``export-xsd A [-o OUT]``           — render as a W3C xs:schema document
* ``import-xsd A.xsd [-o OUT]``       — convert an xs:schema document to the text format
* ``merge S1 S2 ... [-o OUT]``        — minimal upper approx of an n-ary union
* ``included A B``                    — is L(A) a subset of L(B)? (B single-type)
* ``compat OLD NEW``                  — classify a schema evolution, with witness documents
* ``serve [--host H] [--port P]``     — long-lived validation service (NDJSON over TCP)

Every schema-producing command minimizes its output and prints it (or
writes it with ``-o``).

Resource governance: the global flags ``--timeout SECONDS``,
``--max-states N`` and ``--max-steps N`` install a
:class:`repro.runtime.Budget` around the command, so hostile or
pathological schemas (the constructions are worst-case exponential)
terminate promptly with a clean one-line diagnostic.

Caching: ``--cache-dir PATH`` opens (creating if needed) a persistent
:class:`repro.cache.ArtifactCache` there for the command's constructions;
without the flag the ``REPRO_CACHE_DIR`` environment variable applies;
``--no-cache`` disables both.

Observability: the global flag ``--trace`` renders the span tree of
every governed construction the command ran to stderr; ``--trace-json
PATH`` writes the same trace (plus the metrics registry) as JSON
conforming to ``repro/observability/trace_schema.json``.  Both emit
even when the command fails or the budget trips, so partial traces of
interrupted constructions are preserved.

Exit codes: ``0`` success, ``1`` negative answer (invalid document,
not included, not backward-compatible), ``2`` bad input or I/O error,
``3`` resource budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import cache as _cache
from repro.core.decision import is_single_type_definable
from repro.core.lower import maximal_lower_union
from repro.core.upper import (
    minimal_upper_approximation,
    upper_complement,
    upper_difference,
    upper_intersection,
    upper_union,
)
from repro.errors import BudgetExceededError, ReproError
from repro.observability import Trace
from repro.runtime import Budget
from repro.schemas.inclusion import included_in_single_type
from repro.schemas.minimize import minimize_single_type
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.text_format import dumps, load_file
from repro.schemas.type_automaton import is_single_type


def _load_single_type(path: str) -> SingleTypeEDTD:
    schema = load_file(path)
    if not isinstance(schema, SingleTypeEDTD):
        raise ReproError(
            f"{path}: schema is not single-type; this command needs an XSD "
            "(run 'to-xsd' first)"
        )
    return schema


def _load_guide(args):
    """The ``--guide`` schema, loaded, or None (universal guide) without
    the flag.  ``main`` has already rejected --guide without
    --strategy schema-guided."""
    if getattr(args, "guide", None):
        return load_file(args.guide)
    return None


def _emit(schema, output: str | None) -> None:
    text = dumps(schema)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_info(args) -> int:
    schema = load_file(args.schema)
    single = is_single_type(schema)
    print(f"types:        {schema.type_size()}")
    print(f"size:         {schema.size()}")
    print(f"alphabet:     {', '.join(sorted(map(str, schema.alphabet)))}")
    print(f"single-type:  {single}")
    if not single:
        print(f"ST-definable: {is_single_type_definable(schema)}")
    print(f"empty:        {schema.is_empty_language()}")
    return 0


def _cmd_validate(args) -> int:
    from repro.api import validate

    schema = load_file(args.schema)
    with open(args.document, encoding="utf-8") as handle:
        text = handle.read()
    # One governed pass from text to verdict, under the command's budget.
    if validate(schema, text).valid:
        print("valid")
        return 0
    print("INVALID")
    return 1


def _cmd_union(args) -> int:
    left = _load_single_type(args.left)
    right = _load_single_type(args.right)
    _emit(
        minimize_single_type(
            upper_union(left, right, strategy=args.strategy, guide=_load_guide(args))
        ),
        args.output,
    )
    return 0


def _cmd_intersect(args) -> int:
    left = _load_single_type(args.left)
    right = _load_single_type(args.right)
    _emit(minimize_single_type(upper_intersection(left, right)), args.output)
    return 0


def _cmd_difference(args) -> int:
    left = _load_single_type(args.left)
    right = _load_single_type(args.right)
    _emit(
        minimize_single_type(
            upper_difference(left, right, strategy=args.strategy, guide=_load_guide(args))
        ),
        args.output,
    )
    return 0


def _cmd_complement(args) -> int:
    schema = _load_single_type(args.schema)
    _emit(
        minimize_single_type(
            upper_complement(schema, strategy=args.strategy, guide=_load_guide(args))
        ),
        args.output,
    )
    return 0


def _cmd_to_xsd(args) -> int:
    schema = load_file(args.schema)
    _emit(
        minimize_single_type(
            minimal_upper_approximation(
                schema, strategy=args.strategy, guide=_load_guide(args)
            )
        ),
        args.output,
    )
    return 0


def _cmd_lower(args) -> int:
    left = _load_single_type(args.left)
    right = _load_single_type(args.right)
    _emit(minimize_single_type(maximal_lower_union(left, right)), args.output)
    return 0


def _cmd_export_xsd(args) -> int:
    from repro.schemas.xsd_export import export_xsd

    schema = _load_single_type(args.schema)
    document = export_xsd(schema)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    else:
        sys.stdout.write(document + "\n")
    return 0


def _cmd_minimize(args) -> int:
    schema = _load_single_type(args.schema)
    _emit(minimize_single_type(schema), args.output)
    return 0


def _cmd_import_xsd(args) -> int:
    from repro.schemas.xsd_import import import_xsd

    with open(args.schema, encoding="utf-8") as handle:
        schema = import_xsd(handle.read())
    _emit(schema, args.output)
    return 0


def _cmd_merge(args) -> int:
    from repro.core.nary import merge_all

    schemas = [_load_single_type(path) for path in args.schemas]
    _emit(minimize_single_type(merge_all(schemas)), args.output)
    return 0


def _cmd_compat(args) -> int:
    from repro.core.compat import check_compatibility
    from repro.trees.xml_io import to_xml

    old = _load_single_type(args.left)
    new = _load_single_type(args.right)
    report = check_compatibility(old, new)
    print(report.verdict.value)
    if report.old_only is not None:
        print("document valid only under the OLD schema:")
        print(to_xml(report.old_only))
    if report.new_only is not None:
        print("document valid only under the NEW schema:")
        print(to_xml(report.new_only))
    return 0 if report.backward_compatible else 1


def _cmd_included(args) -> int:
    sub = load_file(args.left)
    sup = _load_single_type(args.right)
    answer = included_in_single_type(sub, sup)
    print("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.api import Settings
    from repro.service import serve

    # The global governor flags become per-request *defaults* — a
    # long-lived server must not share one budget across every request
    # (main() deliberately skips installing the ambient budget for this
    # command).
    settings = Settings(
        timeout=args.timeout,
        max_states=args.max_states,
        max_steps=args.max_steps,
        strategy=args.strategy,
    )
    print(
        f"repro service listening on {args.host}:{args.port} "
        f"(registry capacity {args.registry_capacity}); Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                capacity=args.registry_capacity,
                settings=settings,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Single-type approximations of regular tree languages",
    )
    governor = parser.add_argument_group(
        "resource limits",
        "bound the worst-case-exponential constructions; exceeding a limit "
        "exits with code 3",
    )
    governor.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the whole command",
    )
    governor.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="maximum automaton/product states any construction may build",
    )
    governor.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="maximum abstract construction steps",
    )
    caching = parser.add_argument_group(
        "artifact cache",
        "persistent on-disk cache of compiled automata and approximations",
    )
    caching.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache compiled artifacts under PATH (created if missing); "
        "defaults to $REPRO_CACHE_DIR when set",
    )
    caching.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache, including $REPRO_CACHE_DIR",
    )
    kernel = parser.add_argument_group(
        "determinization strategy",
        "kernel selection for the subset constructions behind the "
        "approximation commands",
    )
    # Validated in main() rather than via argparse choices= so the
    # subcommand action stays the parser's only choices-bearing action.
    kernel.add_argument(
        "--strategy",
        default="blind",
        metavar="{blind,schema-guided}",
        help="determinization kernel: 'blind' explores every reachable "
        "subset; 'schema-guided' prunes subsets unreachable under the "
        "guiding schema (see --guide)",
    )
    kernel.add_argument(
        "--guide",
        default=None,
        metavar="SCHEMA",
        help="guiding schema file for --strategy schema-guided (its "
        "valid-ancestor strings prune the subset construction); omitted, "
        "the universal guide is used and nothing is pruned",
    )
    observability = parser.add_argument_group(
        "observability",
        "structured tracing of the governed constructions the command runs",
    )
    observability.add_argument(
        "--trace",
        action="store_true",
        help="render the span tree of the command to stderr",
    )
    observability.add_argument(
        "--trace-json",
        default=None,
        metavar="PATH",
        help="write the trace (span tree + metrics) as JSON to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def schema_cmd(name, func, help_text, *, binary=False, doc=False):
        cmd = sub.add_parser(name, help=help_text)
        if binary:
            cmd.add_argument("left")
            cmd.add_argument("right")
        else:
            cmd.add_argument("schema")
        if doc:
            cmd.add_argument("document")
        if name not in ("info", "validate", "included"):
            cmd.add_argument("-o", "--output", default=None)
        cmd.set_defaults(func=func)
        return cmd

    schema_cmd("info", _cmd_info, "schema statistics")
    schema_cmd("validate", _cmd_validate, "validate an XML document", doc=True)
    schema_cmd("union", _cmd_union, "minimal upper approximation of A | B", binary=True)
    schema_cmd("intersect", _cmd_intersect, "intersection of two XSDs", binary=True)
    schema_cmd(
        "difference", _cmd_difference, "minimal upper approximation of A - B", binary=True
    )
    schema_cmd("complement", _cmd_complement, "minimal upper approximation of the complement")
    schema_cmd("to-xsd", _cmd_to_xsd, "minimal upper approximation of any EDTD")
    schema_cmd(
        "lower", _cmd_lower, "maximal lower approximation of A | B containing A", binary=True
    )
    schema_cmd("minimize", _cmd_minimize, "type-minimal equivalent XSD")
    schema_cmd("export-xsd", _cmd_export_xsd, "render as a W3C xs:schema document")
    schema_cmd("import-xsd", _cmd_import_xsd, "convert an xs:schema document to the text format")
    merge = sub.add_parser("merge", help="minimal upper approximation of S1 | ... | Sn")
    merge.add_argument("schemas", nargs="+")
    merge.add_argument("-o", "--output", default=None)
    merge.set_defaults(func=_cmd_merge)
    compat = sub.add_parser("compat", help="classify an old -> new schema evolution")
    compat.add_argument("left", help="old schema")
    compat.add_argument("right", help="new schema")
    compat.set_defaults(func=_cmd_compat)
    included = sub.add_parser("included", help="is L(A) a subset of L(B)?")
    included.add_argument("left")
    included.add_argument("right")
    included.set_defaults(func=_cmd_included)
    serve = sub.add_parser(
        "serve",
        help="run the long-lived validation service (newline-delimited JSON over TCP)",
        description=(
            "Serve register_schema/validate/validate_batch/approximate over TCP "
            "until interrupted.  The global --timeout/--max-states/--max-steps "
            "flags become per-request budget defaults (not one shared budget); "
            "--strategy is the default compilation strategy; --cache-dir backs "
            "the schema registry with the persistent artifact store.  See "
            "docs/SERVICE.md for the wire protocol."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8743, help="TCP port")
    serve.add_argument(
        "--registry-capacity",
        type=int,
        default=128,
        metavar="N",
        help="max resident compiled schemas (LRU beyond this)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


EXIT_BAD_INPUT = 2
EXIT_BUDGET_EXCEEDED = 3


def _build_budget(args) -> Budget | None:
    if args.timeout is None and args.max_states is None and args.max_steps is None:
        return None
    return Budget(
        timeout=args.timeout,
        max_states=args.max_states,
        max_steps=args.max_steps,
    )


def _emit_trace(trace: Trace, args) -> None:
    if args.trace:
        print(trace.render(), file=sys.stderr)
    if args.trace_json:
        with open(args.trace_json, "w", encoding="utf-8") as handle:
            handle.write(trace.to_json())
            handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = _build_budget(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.no_cache and args.cache_dir:
        print("error: --no-cache and --cache-dir are mutually exclusive", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.strategy not in ("blind", "schema-guided"):
        print(
            f"error: unknown strategy {args.strategy!r} "
            "(choose from 'blind', 'schema-guided')",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if args.guide and args.strategy != "schema-guided":
        print(
            "error: --guide requires --strategy schema-guided", file=sys.stderr
        )
        return EXIT_BAD_INPUT
    trace = Trace(args.command) if (args.trace or args.trace_json) else None
    try:
        with contextlib.ExitStack() as stack:
            if budget is not None and args.command != "serve":
                # serve maps the governor flags onto *per-request*
                # budgets; one ambient budget shared by every request
                # would exhaust after the first few.
                stack.enter_context(budget)
            if trace is not None:
                stack.enter_context(trace)
            if args.no_cache:
                stack.enter_context(_cache.activation(_cache.DISABLED))
            elif args.cache_dir:
                stack.enter_context(_cache.ArtifactCache(args.cache_dir))
            return args.func(args)
    except BudgetExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        # Emit even on failure: partial traces of interrupted
        # constructions are exactly when you want them.
        if trace is not None:
            _emit_trace(trace, args)


if __name__ == "__main__":
    raise SystemExit(main())
