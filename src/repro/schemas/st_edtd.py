"""Single-type EDTDs (Definition 2.4) — the paper's abstraction of XSDs.

A single-type EDTD forbids two distinct types with the same label from
competing for the same position (the Element Declarations Consistent rule).
The payoff is **one-pass top-down validation**: the type of every node
is determined by its parent's type and its own label, so a document
validates in one traversal without backtracking.  Membership
(:meth:`~repro.schemas.edtd.EDTD.accepts`) runs the stepwise evaluator
:func:`repro.tree_automata.kernels.edtd_accept_steps`, which keeps the
set of candidate types of every open element; on a single-type EDTD that
set never holds more than one type, so the run is exactly the paper's
top-down validator.  On a general EDTD the same loop carries several
candidates per element, which is the bottom-up subset simulation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.errors import NotSingleTypeError
from repro.schemas.edtd import EDTD
from repro.schemas.type_automaton import assignable_types, is_single_type
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.strings.regex import Regex

Symbol = Hashable
Type = Hashable


class SingleTypeEDTD(EDTD):
    """An EDTD verified to satisfy the single-type restriction.

    Construction raises :class:`NotSingleTypeError` when the input violates
    Definition 2.4, so holding a ``SingleTypeEDTD`` instance *is* the proof
    of the EDC property.
    """

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        types: Iterable[Type],
        rules: Mapping[Type, DFA | NFA | Regex | str],
        starts: Iterable[Type],
        mu: Mapping[Type, Symbol],
    ) -> None:
        super().__init__(alphabet, types, rules, starts, mu)
        if not is_single_type(self):
            raise NotSingleTypeError(
                "two types with the same label compete for the same position"
            )

    @classmethod
    def from_edtd(cls, edtd: EDTD) -> "SingleTypeEDTD":
        """Upgrade an :class:`EDTD` after checking the single-type property."""
        return cls(edtd.alphabet, edtd.types, edtd.rules, edtd.starts, edtd.mu)

    # The inherited evaluator and reduction, bound in this class's own
    # namespace: wirebench/traced_server.py wraps ``SingleTypeEDTD.accepts``
    # and ``SingleTypeEDTD.reduced`` there by name to time them as layers.
    # Reduction and renaming build ``type(self)``, so they keep the class.
    accepts = EDTD.accepts
    reduced = EDTD.reduced

    def type_of(self, ancestor_string: tuple) -> Type | None:
        """The unique type of a node with the given ancestor string, or
        None: the state the type automaton reaches on it, which is
        deterministic on a single-type EDTD (Observation 2.7(3))."""
        if not ancestor_string:
            return None
        return next(iter(assignable_types(self, ancestor_string)), None)

    def __repr__(self) -> str:
        return (
            f"SingleTypeEDTD(alphabet={sorted(map(str, self.alphabet))}, "
            f"types={len(self.types)}, starts={len(self.starts)})"
        )
