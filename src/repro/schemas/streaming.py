"""Streaming one-pass validation: no document tree is ever built.

The paper's introduction motivates the EDC constraint with "a simple
one-pass top-down validation algorithm".  This module runs documents
that arrive as a stream through that pass: the stepwise evaluator
:func:`repro.tree_automata.kernels.edtd_accept_steps`, in memory
proportional to the open-element depth.  On a single-type EDTD every
element's type is fixed the moment its start tag arrives; a general EDTD
runs through the same loop with several candidate types per element.

* :func:`validate_events` validates a stream of tag events in the
  tokenizer's vocabulary — ``(OPEN, label)``, ``(LEAF, label)``,
  ``(CLOSE, label)`` of :mod:`repro.trees.xml_io` — and answers
  ``False`` for a stream that is not one well-formed document;
* :func:`validate_xml_stream` validates XML text through the shared
  tokenizer (:func:`repro.trees.xml_io.xml_events`), the same pass
  :meth:`repro.api.CompiledSchema.validate` runs;
* :func:`repro.trees.xml_io.events_of_tree`, re-exported by
  :mod:`repro.schemas`, turns a built tree into its event stream.

    validate_events(schema, events_of_tree(tree)) == schema.accepts(tree)
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import TreeSyntaxError, ValidationError
from repro.schemas.edtd import EDTD
from repro.tree_automata.kernels import edtd_accept_steps, run_steps
from repro.trees.xml_io import CLOSE, LEAF, OPEN, xml_events

Symbol = Hashable

_KINDS = (OPEN, LEAF, CLOSE)


def _well_formed(events: Iterable[tuple[str, Symbol]]) -> Iterator[tuple[str, Symbol]]:
    """Pass *events* through, raising :class:`ValidationError` at the
    first one that cannot continue a single well-formed document: an
    unknown kind, an end tag that closes nothing or another label, a
    second root, and, at the end, unclosed elements or no root."""
    open_labels: list[Symbol] = []
    rooted = False
    for event in events:
        if not (isinstance(event, tuple) and len(event) == 2 and event[0] in _KINDS):
            raise ValidationError(f"unknown event {event!r}")
        kind, label = event
        if kind == CLOSE:
            if not open_labels or open_labels.pop() != label:
                raise ValidationError(f"end tag {label!r} closes no open {label!r}")
        elif rooted and not open_labels:
            raise ValidationError("second root element")
        else:
            rooted = True
            if kind == OPEN:
                open_labels.append(label)
        yield event
    if open_labels:
        raise ValidationError(f"{len(open_labels)} element(s) still open at end of stream")
    if not rooted:
        raise ValidationError("empty document")


def validate_events(schema: EDTD, events: Iterable[tuple[str, Symbol]]) -> bool:
    """One-pass validation of a tag-event stream; ``False`` as well when
    the stream is not one well-formed document."""
    try:
        return run_steps(edtd_accept_steps(schema, _well_formed(events)))
    except ValidationError:
        return False


def validate_xml_stream(schema: EDTD, text: str) -> bool:
    """Validate an XML fragment without materializing the tree; a
    malformed fragment is invalid.  No depth or node cap applies: memory
    stays proportional to the open-element depth.

    Tag names are read as :func:`repro.trees.xml_io.from_xml` reads
    them: an ASCII letter or ``_``, then ASCII letters, digits, ``_``,
    ``.`` and ``-``.  A document whose labels use other characters (such
    as ``é``) is malformed here, so it is invalid against every schema.
    """
    try:
        return run_steps(
            edtd_accept_steps(schema, xml_events(text, max_depth=None, max_nodes=None))
        )
    except TreeSyntaxError:
        return False
