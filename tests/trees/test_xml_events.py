"""The linear tokenizer :func:`repro.trees.xml_io.xml_events` against a
frozen copy of the earlier quadratic parser.

``_from_xml_reference`` is that parser verbatim (it re-stripped the rest
of the document before every token).  It is the specification of the
error surface: for every input, :func:`from_xml` and the one-pass
``CompiledSchema.validate`` must raise the same exception class with the
same message, line and column — or, on well-formed input, ``from_xml``
must build the same tree.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import compile_schema
from repro.errors import TreeSyntaxError
from repro.runtime.budget import Budget
from repro.schemas.edtd import EDTD
from repro.trees.tree import Tree, unary_tree
from repro.trees.xml_io import CLOSE, LEAF, OPEN, from_xml, to_xml, xml_events
from tests.strategies import examples, hostile_documents, trees

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_TOKEN = re.compile(
    rf"\s*(?:"
    rf"<(?P<open>{_NAME})\s*>"
    rf"|<(?P<selfclose>{_NAME})\s*/\s*>"
    rf"|</(?P<close>{_NAME})\s*>"
    rf")"
)
_DECLARATION = re.compile(r"\s*<!(?P<keyword>[A-Za-z\[]*)")
_PROCESSING = re.compile(r"\s*<\?")


def _syntax_error(message, text, pos):
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return TreeSyntaxError(message, line=line, column=column)


def _from_xml_reference(text, *, max_depth=200, max_nodes=100_000):
    pos = 0
    stack = []
    root = None
    node_count = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        match = _TOKEN.match(text, pos)
        if match is None:
            skipped = len(text) - len(text[pos:].lstrip())
            declaration = _DECLARATION.match(text, pos)
            if declaration is not None:
                if text.startswith("<!--", skipped):
                    raise _syntax_error(
                        "comments are not supported (element-only fragments)",
                        text,
                        skipped,
                    )
                keyword = declaration.group("keyword").rstrip("[").upper()
                what = f"<!{keyword}" if keyword else "markup declaration"
                raise _syntax_error(
                    f"{what} is not allowed: DTD and entity declarations are "
                    "rejected (entity-expansion hardening)",
                    text,
                    skipped,
                )
            if _PROCESSING.match(text, pos) is not None:
                raise _syntax_error(
                    "processing instructions and XML declarations are not "
                    "supported (element-only fragments)",
                    text,
                    skipped,
                )
            snippet = text[pos:pos + 20].strip()
            raise _syntax_error(
                f"unsupported XML content near: {snippet!r}", text, skipped
            )
        token_start = match.start() + len(match.group(0)) - len(match.group(0).lstrip())
        pos = match.end()
        if root is not None:
            raise _syntax_error("content after the root element", text, token_start)
        if match.group("open"):
            if max_depth is not None and len(stack) >= max_depth:
                raise _syntax_error(
                    f"maximum element depth exceeded ({max_depth})",
                    text,
                    token_start,
                )
            node_count += 1
            if max_nodes is not None and node_count > max_nodes:
                raise _syntax_error(
                    f"maximum node count exceeded ({max_nodes})", text, token_start
                )
            stack.append((match.group("open"), []))
        elif match.group("selfclose"):
            if max_depth is not None and len(stack) >= max_depth:
                raise _syntax_error(
                    f"maximum element depth exceeded ({max_depth})",
                    text,
                    token_start,
                )
            node_count += 1
            if max_nodes is not None and node_count > max_nodes:
                raise _syntax_error(
                    f"maximum node count exceeded ({max_nodes})", text, token_start
                )
            node = Tree(match.group("selfclose"))
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
        else:
            name = match.group("close")
            if not stack:
                raise _syntax_error(
                    f"unexpected closing tag </{name}>", text, token_start
                )
            open_name, children = stack.pop()
            if open_name != name:
                raise _syntax_error(
                    f"mismatched tags: <{open_name}> closed by </{name}>",
                    text,
                    token_start,
                )
            node = Tree(open_name, children)
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
    if stack:
        raise _syntax_error(f"unclosed element <{stack[-1][0]}>", text, len(text))
    if root is None:
        raise TreeSyntaxError("no root element found", line=1, column=1)
    return root


def _outcome(parse, text, **limits):
    """("ok", tree) or ("error", class, message, line, column)."""
    try:
        return ("ok", parse(text, **limits))
    except TreeSyntaxError as error:
        return ("error", type(error), str(error), error.line, error.column)


#: One schema whose alphabet covers the labels the hostile soup produces
#: most ("a"); every other label simply has no type.
_HANDLE = compile_schema(
    EDTD(alphabet={"a"}, types={"t"}, rules={"t": "t*"}, starts={"t"}, mu={"t": "a"})
)


def _validate_outcome(text):
    try:
        return ("ok", _HANDLE.validate(text).valid)
    except TreeSyntaxError as error:
        return ("error", type(error), str(error), error.line, error.column)


@given(hostile_documents)
@settings(max_examples=examples(400), deadline=None)
def test_errors_match_the_reference_parser(text):
    expected = _outcome(_from_xml_reference, text)
    assert _outcome(from_xml, text) == expected
    validated = _validate_outcome(text)
    if expected[0] == "error":
        assert validated == expected
    else:
        assert validated == ("ok", _HANDLE.schema.accepts(expected[1]))


@given(hostile_documents, st.integers(min_value=1, max_value=6))
@settings(max_examples=examples(200), deadline=None)
def test_cap_errors_match_the_reference_parser(text, cap):
    limits = {"max_depth": cap, "max_nodes": cap}
    assert _outcome(from_xml, text, **limits) == _outcome(_from_xml_reference, text, **limits)


@given(trees, st.sampled_from([0, 2]), st.integers(min_value=0, max_value=40))
@settings(max_examples=examples(150), deadline=None)
def test_damaged_renderings_match_the_reference_parser(tree, indent, cut):
    text = to_xml(tree, indent=indent) if indent else to_xml(tree, indent=0).replace("\n", "")
    for damaged in (text, text[:cut], text[cut:], text + "<x/>", text.replace(">", " >", 1)):
        assert _outcome(from_xml, damaged) == _outcome(_from_xml_reference, damaged)


class TestEvents:
    def test_event_kinds_in_document_order(self):
        assert list(xml_events("<a>\n  <b/>\n  <c></c>\n</a>")) == [
            (OPEN, "a"),
            (LEAF, "b"),
            (OPEN, "c"),
            (CLOSE, "c"),
            (CLOSE, "a"),
        ]

    def test_events_before_an_error_are_yielded(self):
        events = xml_events("<a><b/><c></a>")
        assert next(events) == (OPEN, "a")
        assert next(events) == (LEAF, "b")
        assert next(events) == (OPEN, "c")
        with pytest.raises(TreeSyntaxError, match="mismatched tags"):
            next(events)

    def test_budget_charged_one_step_per_element(self):
        budget = Budget()
        assert len(list(xml_events("<a><b/><c><d/></c></a>", budget=budget))) == 6
        assert budget.steps == 4

    def test_deep_tree_renders_and_parses_without_recursion(self):
        text = to_xml(unary_tree(["a"] * 5000))
        assert text.count("<a>") == 4999 and text.count("<a/>") == 1
        assert to_xml(from_xml(text, max_depth=None)) == text

    def test_node_cap_document_streams_one_event_per_tag(self):
        text = "<a>" + "<b/>" * 99_999 + "</a>"
        budget = Budget()
        assert sum(1 for _ in xml_events(text, budget=budget)) == 100_001
        assert budget.steps == 100_000


def _fastest_outcome(text, repeats=7):
    """(best wall time of *repeats* ``from_xml`` calls, their outcome)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = _outcome(from_xml, text)
        best = min(best, time.perf_counter() - start)
    return best, outcome


class TestWhitespaceRuns:
    """A whitespace run costs linear time wherever it sits.

    In a run that reaches the end of the text no token can match, and
    ``re`` backtracks a leading ``\\s*`` over the rest of the run at
    every search position: quadratic, so doubling a 4,000-character run
    would take about four times as long.  The tokenizer stops its scan
    at the last non-whitespace character instead.
    """

    SHAPES = {
        "after the root": lambda n: "<a/>" + " " * n,
        "whitespace only": lambda n: " " * n,
        "after an open tag": lambda n: "<a>" + "\n" * n,
        "between tags": lambda n: "<a>" + "\t" * n + "</a>",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_doubling_the_run_less_than_triples_the_time(self, shape):
        make = self.SHAPES[shape]
        single, outcome = _fastest_outcome(make(4000))
        double, _ = _fastest_outcome(make(8000))
        assert double < 3 * single, (single, double)
        assert outcome == _outcome(_from_xml_reference, make(4000))

    def test_long_trailing_run_is_read_once(self):
        text = "<a/>" + " " * 200_000
        assert _fastest_outcome(text, repeats=1)[1] == ("ok", Tree("a"))
        with pytest.raises(TreeSyntaxError, match="no root element found"):
            from_xml(" " * 200_000)

    def test_unicode_whitespace_tail_matches_the_reference_parser(self):
        for tail in ("\u2003", "\u3000\n", "\x1c\x1d", "\x85\xa0"):
            for text in ("<a/>" + tail, tail, "<a>" + tail, "<a/>" + tail + "<b/>"):
                assert _outcome(from_xml, text) == _outcome(_from_xml_reference, text)
