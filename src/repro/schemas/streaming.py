"""Streaming (SAX-style) one-pass validation against single-type EDTDs.

The paper's introduction motivates the EDC constraint with "a simple
one-pass top-down validation algorithm".  This module is that algorithm in
its natural habitat: a push-based validator consuming start/end element
events with **O(depth) memory** — no document tree is ever built.  The
type of every element is determined the moment its start tag arrives
(single-typedness), and content models are run incrementally.

    validator = StreamingValidator(schema)
    for event in events:          # ("start", label) / ("end",)
        validator.feed(event)
    validator.finish()            # raises ValidationError on bad docs

:func:`validate_events` and :func:`events_of_tree` are the functional
conveniences; :func:`validate_xml_stream` validates XML text through the
shared tokenizer (:func:`repro.trees.xml_io.xml_events`) and the stepwise
evaluator that :meth:`repro.api.CompiledSchema.validate` also runs
(:func:`repro.tree_automata.kernels.edtd_accepts_events`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import TreeSyntaxError, ValidationError
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.tree_automata.kernels import edtd_accepts_events
from repro.trees.tree import Tree
from repro.trees.xml_io import xml_events

Symbol = Hashable

Event = tuple  # ("start", label) or ("end",)

START = "start"
END = "end"


class StreamingValidator:
    """Push-based one-pass validator for a single-type EDTD.

    Raises :class:`ValidationError` eagerly, at the earliest event that
    dooms the document; :meth:`finish` performs the end-of-document check.
    Memory use is proportional to the maximal open-element depth.
    """

    def __init__(self, schema: SingleTypeEDTD) -> None:
        self._schema = schema
        # The schema's own top-down typing tables (built once, at its
        # construction): root label -> type, (parent type, label) -> type.
        self._start_by_label = schema._start_by_label
        self._child_type = schema._child_type
        # Stack frames: (type, content DFA, current DFA state).
        self._stack: list[list] = []
        self._seen_root = False
        self._done = False

    def reset(self) -> None:
        """Prepare the validator for a new document (tables are reused)."""
        self._stack.clear()
        self._seen_root = False
        self._done = False

    # ------------------------------------------------------------------

    def feed(self, event: Event) -> None:
        """Consume one event (``("start", label)`` or ``("end",)``)."""
        if self._done:
            raise ValidationError("content after the root element closed")
        if event[0] == START:
            self._feed_start(event[1])
        elif event[0] == END:
            self._feed_end()
        else:
            raise ValidationError(f"unknown event kind {event[0]!r}")

    def _feed_start(self, label: Symbol) -> None:
        if not self._stack:
            if self._seen_root:
                raise ValidationError("second root element")
            self._seen_root = True
            type_ = self._start_by_label.get(label)
            if type_ is None:
                raise ValidationError(f"root element {label!r} not allowed")
        else:
            parent = self._stack[-1]
            parent_type, parent_dfa, parent_state = parent
            type_ = self._child_type.get((parent_type, label))
            if type_ is None:
                raise ValidationError(
                    f"element {label!r} not allowed under "
                    f"{self._schema.mu[parent_type]!r}"
                )
            next_state = parent_dfa.successor(parent_state, type_)
            if next_state is None:
                raise ValidationError(
                    f"element {label!r} violates the content model of "
                    f"{self._schema.mu[parent_type]!r} at this position"
                )
            parent[2] = next_state
        dfa = self._schema.rules[type_]
        self._stack.append([type_, dfa, dfa.initial])

    def _feed_end(self) -> None:
        if not self._stack:
            raise ValidationError("unmatched end event")
        type_, dfa, state = self._stack.pop()
        if state not in dfa.finals:
            raise ValidationError(
                f"element {self._schema.mu[type_]!r} closed with an "
                "incomplete content model"
            )
        if not self._stack:
            self._done = True

    def finish(self) -> None:
        """End-of-stream check."""
        if self._stack:
            raise ValidationError(
                f"{len(self._stack)} element(s) still open at end of stream"
            )
        if not self._done:
            raise ValidationError("empty document")

    @property
    def depth(self) -> int:
        """Number of currently open elements (the memory footprint)."""
        return len(self._stack)


def events_of_tree(tree: Tree) -> Iterator[Event]:
    """The event stream of a document tree (depth-first; iterative, so
    arbitrarily deep documents are safe)."""
    stack: list[Tree | None] = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            yield (END,)
            continue
        yield (START, node.label)
        stack.append(None)
        stack.extend(reversed(node.children))


def validate_events(
    schema: SingleTypeEDTD,
    events: Iterable[Event],
    validator: StreamingValidator | None = None,
) -> bool:
    """One-pass validation of an event stream; returns a boolean.

    Pass a prebuilt *validator* (it is reset first) to amortize the
    schema-table construction over many documents.
    """
    if validator is None:
        validator = StreamingValidator(schema)
    else:
        validator.reset()
    try:
        for event in events:
            validator.feed(event)
        validator.finish()
    except ValidationError:
        return False
    return True


def validate_xml_stream(schema: SingleTypeEDTD, text: str) -> bool:
    """Validate an XML fragment without materializing the tree; a
    malformed fragment is invalid.  No depth or node cap applies: memory
    stays proportional to the open-element depth.

    Tag names are read as :func:`repro.trees.xml_io.from_xml` reads
    them: an ASCII letter or ``_``, then ASCII letters, digits, ``_``,
    ``.`` and ``-``.  A document whose labels use other characters (such
    as ``é``) is malformed here, so it is invalid against every schema.
    """
    try:
        return edtd_accepts_events(
            schema, xml_events(text, max_depth=None, max_nodes=None)
        )
    except TreeSyntaxError:
        return False
