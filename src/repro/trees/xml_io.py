"""Serialization between :class:`Tree` and a structural XML fragment syntax.

The paper abstracts XML documents as unranked trees over element names
(attributes, text and namespaces are out of scope — the EDC constraint only
concerns element structure).  This module converts between the two views so
examples and downstream users can work with familiar markup:

    >>> from repro.trees.xml_io import to_xml, from_xml
    >>> from repro.trees.tree import parse_tree
    >>> print(to_xml(parse_tree("store(item(price))")))
    <store>
      <item>
        <price/>
      </item>
    </store>
    >>> from_xml("<a><b/><b/></a>")
    Tree('a(b, b)')

Only well-formed element-only fragments are supported; text nodes,
attributes, comments and processing instructions are rejected with
:class:`TreeSyntaxError` rather than silently dropped.

Hostile input hardening (this parser is exposed to untrusted documents
via ``repro validate``):

* **DTD / entity declarations are rejected outright** — ``<!DOCTYPE``,
  ``<!ENTITY`` and every other markup declaration.  Entity expansion is
  the classic billion-laughs amplification vector; since the tree model
  has no text content there is no legitimate use for entities here.
* **Depth and node-count limits** — :func:`from_xml` enforces a
  configurable ``max_depth`` (default ``DEFAULT_MAX_DEPTH`` = 200) and
  ``max_nodes`` (default ``DEFAULT_MAX_NODES`` = 100000), so deeply
  nested or enormous documents fail fast with a precise message instead
  of exhausting the recursion limit or memory downstream.
* **Positions** — every :class:`TreeSyntaxError` carries 1-based
  ``line``/``column`` attributes locating the offending token.

Both :func:`from_xml` and the validators read documents through one
linear tokenizer, :func:`xml_events`, which applies every check above and
yields one ``(kind, label)`` event per tag.  Given a
:class:`repro.runtime.Budget` it checks the budget before the first token
and charges one step per element as the element is read, so deadlines and
step limits govern the parse itself.  :func:`events_of_tree` yields the
same events, charged the same way, from a :class:`Tree` that is already
built, so every validator reads one event vocabulary.
"""

from __future__ import annotations

import re as _re
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro import faults as _faults
from repro.errors import TreeSyntaxError
from repro.trees.tree import Tree

if TYPE_CHECKING:
    from repro.runtime.budget import Budget

#: Default cap on element nesting depth for :func:`from_xml`.
DEFAULT_MAX_DEPTH = 200

#: Default cap on the total number of elements for :func:`from_xml`.
DEFAULT_MAX_NODES = 100_000

#: Event kinds of :func:`xml_events`: a start tag, a self-closing tag and
#: an end tag.
OPEN = "open"
LEAF = "leaf"
CLOSE = "close"

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
# One alternative per tag kind, plus a catch-all for any other
# non-whitespace character, so consecutive matches tile the document up
# to trailing whitespace and ``finditer`` never skips content.
_TOKEN = _re.compile(
    rf"\s*(?:<(?:"
    rf"(?P<{OPEN}>{_NAME})\s*>"
    rf"|(?P<{LEAF}>{_NAME})\s*/\s*>"
    rf"|/(?P<{CLOSE}>{_NAME})\s*>"
    rf")|(?P<error>\S))"
)
_DECLARATION = _re.compile(r"\s*<!(?P<keyword>[A-Za-z\[]*)")
_PROCESSING = _re.compile(r"\s*<\?")


def to_xml(tree: Tree, indent: int = 2) -> str:
    """Render *tree* as an indented XML fragment (childless nodes become
    self-closing tags)."""
    lines: list[str] = []
    # (node, depth, label); node None marks a pending end tag.  Iterative,
    # so arbitrarily deep trees are safe.
    stack: list[tuple[Tree | None, int, object]] = [(tree, 0, tree.label)]
    while stack:  # ungoverned: one visit per node of an already-built tree
        node, depth, label = stack.pop()
        pad = " " * (indent * depth)
        if node is None:
            lines.append(f"{pad}</{label}>")
        elif not node.children:
            lines.append(f"{pad}<{label}/>")
        else:
            lines.append(f"{pad}<{label}>")
            stack.append((None, depth, label))
            stack.extend(
                (child, depth + 1, child.label) for child in reversed(node.children)
            )
    return "\n".join(lines)


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset *pos* in *text*."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return line, column


def _syntax_error(message: str, text: str, pos: int) -> TreeSyntaxError:
    line, column = _position(text, pos)
    return TreeSyntaxError(message, line=line, column=column)


def _tag_start(match: "_re.Match[str]") -> int:
    """Offset of the ``<`` that starts a matched tag."""
    return match.end() - len(match.group(0).lstrip())


def _unsupported(text: str, pos: int) -> TreeSyntaxError:
    """The error for content at *pos* (after optional whitespace) that
    starts no element tag."""
    skipped = len(text) - len(text[pos:].lstrip())
    declaration = _DECLARATION.match(text, pos)
    if declaration is not None:
        if text.startswith("<!--", skipped):
            return _syntax_error(
                "comments are not supported (element-only fragments)", text, skipped
            )
        keyword = declaration.group("keyword").rstrip("[").upper()
        what = f"<!{keyword}" if keyword else "markup declaration"
        return _syntax_error(
            f"{what} is not allowed: DTD and entity declarations are "
            "rejected (entity-expansion hardening)",
            text,
            skipped,
        )
    if _PROCESSING.match(text, pos) is not None:
        return _syntax_error(
            "processing instructions and XML declarations are not "
            "supported (element-only fragments)",
            text,
            skipped,
        )
    snippet = text[pos:pos + 20].strip()
    return _syntax_error(f"unsupported XML content near: {snippet!r}", text, skipped)


def xml_events(
    text: str,
    *,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    max_nodes: int | None = DEFAULT_MAX_NODES,
    budget: "Budget | None" = None,
) -> Iterator[tuple[str, str]]:
    """Tokenize an element-only XML fragment in one linear pass.

    Yields ``(OPEN, label)``, ``(LEAF, label)`` (self-closing) and
    ``(CLOSE, label)`` events in document order, and raises
    :class:`TreeSyntaxError` at the first token that makes the document
    malformed: unsupported content, DTD/entity declarations, mismatched
    or unclosed tags, content after the root, or an exceeded
    *max_depth*/*max_nodes* cap (``None`` disables a cap).  Every event
    yielded before an error belongs to a well-formed prefix, so a
    consumer that reads the whole stream has seen a well-formed document.

    With a *budget*, the budget is checked before the first token and
    charged one step per element as the element is read.
    """
    if _faults.ACTIVE:
        # Chaos harness: simulate a failing/truncating reader.  A damaged
        # document must surface as TreeSyntaxError below, never as a
        # silently different tree or verdict — tests/faults/ sweeps this.
        text = _faults.transform("xml.ingest", text)
    if budget is not None:
        budget.check()
    depth_cap = sys.maxsize if max_depth is None else max_depth
    nodes_left = sys.maxsize if max_nodes is None else max_nodes
    open_labels: list[str] = []
    closed = False  # the root element is complete
    # Scan only up to the last non-whitespace character: in a trailing
    # whitespace run no alternative matches, and each failed search would
    # consume the rest of the run before backtracking (quadratic).
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = match.lastgroup
        if kind == "error":
            raise _unsupported(text, match.start())
        if closed:
            raise _syntax_error("content after the root element", text, _tag_start(match))
        if kind == CLOSE:
            name = match[CLOSE]
            if not open_labels:
                raise _syntax_error(
                    f"unexpected closing tag </{name}>", text, _tag_start(match)
                )
            open_name = open_labels.pop()
            if open_name != name:
                raise _syntax_error(
                    f"mismatched tags: <{open_name}> closed by </{name}>",
                    text,
                    _tag_start(match),
                )
            closed = not open_labels
            yield CLOSE, name
            continue
        if len(open_labels) >= depth_cap:
            raise _syntax_error(
                f"maximum element depth exceeded ({max_depth})", text, _tag_start(match)
            )
        nodes_left -= 1
        if nodes_left < 0:
            raise _syntax_error(
                f"maximum node count exceeded ({max_nodes})", text, _tag_start(match)
            )
        if budget is not None:
            budget.tick()
        if kind == OPEN:
            name = match[OPEN]
            open_labels.append(name)
            yield OPEN, name
        else:
            closed = not open_labels
            yield LEAF, match[LEAF]
    if open_labels:
        raise _syntax_error(f"unclosed element <{open_labels[-1]}>", text, len(text))
    if not closed:
        raise TreeSyntaxError("no root element found", line=1, column=1)


def events_of_tree(
    tree: Tree, *, budget: "Budget | None" = None
) -> Iterator[tuple[str, object]]:
    """The tag events of *tree* in :func:`xml_events`'s vocabulary:
    ``list(events_of_tree(t)) == list(xml_events(to_xml(t)))`` whenever
    the labels are tag names, and any hashable label passes through
    unchanged.  Iterative, so arbitrarily deep trees are safe.

    With a *budget*, the budget is checked before the first element and
    charged one step per element as the element is read, as
    :func:`xml_events` charges it.
    """
    if budget is not None:
        budget.check()
    # A pending item is a node still to open or, for an open element,
    # its end-tag event: a tuple, never a Tree, whatever the labels are.
    stack: list[Tree | tuple[str, object]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            yield node
            continue
        if budget is not None:
            budget.tick()
        if node.children:
            stack.append((CLOSE, node.label))
            stack.extend(reversed(node.children))
            yield OPEN, node.label
        else:
            yield LEAF, node.label


def from_xml(
    text: str,
    *,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    max_nodes: int | None = DEFAULT_MAX_NODES,
    budget: "Budget | None" = None,
) -> Tree:
    """Parse an element-only XML fragment into a :class:`Tree`.

    Raises :class:`TreeSyntaxError` — carrying 1-based ``line``/``column``
    attributes — on mismatched tags, trailing content, DTD/entity
    declarations (billion-laughs hardening), or anything that is not a
    start/end/self-closing element tag.

    *max_depth* bounds element nesting and *max_nodes* the total element
    count; pass ``None`` to disable either limit (trusted input only).
    A *budget* is charged one step per element while parsing (see
    :func:`xml_events`).
    """
    # children[-1] collects the children of the innermost open element;
    # children[0] ends up holding the root.
    children: list[list[Tree]] = [[]]
    for kind, label in xml_events(
        text, max_depth=max_depth, max_nodes=max_nodes, budget=budget
    ):
        if kind == OPEN:
            children.append([])
        elif kind == LEAF:
            children[-1].append(Tree(label))
        else:
            node = Tree(label, children.pop())
            children[-1].append(node)
    return children[0][0]
