"""Minimization of single-type EDTDs (the paper's reference [20]).

The paper notes ("Contributions") that the outputs of the approximation
algorithms can be minimized in polynomial time, yielding *optimal
representations of optimal approximations*.  We implement the Martens/
Niehren-style PTIME minimization as Moore-machine minimization of the
schema's own type automaton:

* a reduced single-type EDTD is a Moore machine whose states are types,
  whose transition function is the type automaton (deterministic by
  Observation 2.7(3)), and whose output at a type ``tau`` is the pair
  ``(mu(tau), L(mu(d(tau))))``;
* two types are mergeable iff they are Moore-equivalent;
* merging Moore-equivalent types yields the (unique) type-minimal
  single-type EDTD for the language, built once with types ``t0..tN``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.runtime.budget import budget_phase, resolve_budget
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.type_automaton import Q_INIT, type_automaton
from repro.strings.dfa import DFA
from repro.strings.kernels import canonical_repr
from repro.strings.minimize import minimize_dfa, moore_partition

Symbol = Hashable

_SINK_CLASS = ("__dead__",)
_INIT_CLASS = ("__init__",)


def canonical_dfa_key(dfa: DFA, alphabet: Iterable[Symbol]) -> tuple:
    """A hashable canonical form of ``L(dfa)`` over *alphabet*.

    Two DFAs get the same key iff their languages (over the common
    alphabet) are equal: minimize to the complete canonical automaton,
    relabel states in BFS order, then serialize.
    """
    canon = minimize_dfa(dfa.completed(alphabet), complete=True).relabel("c")
    transitions = tuple(
        sorted(
            ((src, repr(sym), dst) for (src, sym), dst in canon.transitions.items()),
        )
    )
    return (
        canon.initial,
        tuple(sorted(canon.finals)),
        transitions,
    )


def minimize_single_type(st_edtd: SingleTypeEDTD, *, budget=None) -> SingleTypeEDTD:
    """Return the type-minimal single-type EDTD for ``L(st_edtd)``.

    The Moore machine refined here is the reduced schema's own type
    automaton, deterministic by Observation 2.7(3): its states are the
    types plus ``q_init``, and a dead state when some transition is
    missing.  Polynomial time — but the *input* here is routinely the
    exponentially large output of Construction 3.1, so the work is
    governed (one step per type; refinement rounds charge through
    :func:`repro.strings.minimize.moore_partition`).

    The result is reduced, built once, and its types are named
    ``t0..tN``; two language-equal inputs yield isomorphic outputs, and
    the names do not depend on hash randomization.
    """
    budget = resolve_budget(budget)
    if not isinstance(st_edtd, SingleTypeEDTD):
        # A plain EDTD is checked (NotSingleTypeError) and upgraded, so
        # the result is a SingleTypeEDTD whatever the input's class.
        st_edtd = SingleTypeEDTD.from_edtd(st_edtd)
    reduced = st_edtd.reduced()
    if not reduced.types:
        return reduced
    # One successor per transition: the type automaton is deterministic.
    # Completion adds a dead state only when a transition is missing.  The
    # dead state takes part in the block numbering below, so adding it
    # always would rename the types of complete schemas.
    automaton = type_automaton(reduced)
    delta = {key: dst for key, (dst,) in automaton.transitions.items()}
    complete = DFA(automaton.states, reduced.alphabet, delta, Q_INIT, ()).completed()

    outputs: dict[object, object] = dict.fromkeys(complete.states, _SINK_CLASS)
    outputs[Q_INIT] = _INIT_CLASS
    with budget_phase(budget, "st-minimize"):
        for type_ in reduced.types:
            if budget is not None:
                budget.tick(1)
            outputs[type_] = (
                reduced.mu[type_],
                canonical_dfa_key(reduced.content_over_sigma(type_), reduced.alphabet),
            )
        partition = moore_partition(
            complete.states,
            complete.alphabet,
            complete.transitions,
            outputs,
            budget=budget,
        )

    # moore_partition numbers blocks in first-occurrence order over an
    # unordered state set, which varies with hash randomization.  Number
    # each block by its canonically smallest member instead, and name the
    # blocks of types ``t0..tN`` in the order of (label, number): two
    # processes (and a cached artifact round-trip) then print
    # byte-identical schemas.
    smallest: dict[int, str] = {}
    for state, block in partition.items():
        key = canonical_repr(state)
        if block not in smallest or key < smallest[block]:
            smallest[block] = key
    number = {block: i for i, block in enumerate(sorted(smallest, key=smallest.__getitem__))}
    label = {partition[type_]: reduced.mu[type_] for type_ in reduced.types}
    order = sorted(label, key=lambda block: canonical_repr((label[block], number[block])))
    name = {block: f"t{i}" for i, block in enumerate(order)}
    return reduced.renamed({type_: name[partition[type_]] for type_ in reduced.types})


def type_minimal_size(st_edtd: SingleTypeEDTD) -> int:
    """The type-size of ``L(st_edtd)`` (Section 2.2): the minimum number of
    types over all single-type EDTDs defining the language."""
    return len(minimize_single_type(st_edtd).types)
