"""Minimal upper XSD-approximations (Section 3).

The central algorithm is Construction 3.1: determinize the type automaton of
an EDTD and union the content models of merged types.  Theorem 3.2 proves
the result is the *unique minimal* upper XSD-approximation — equivalently,
it defines ``closure(L(D))`` under ancestor-guarded subtree exchange.

Everything else in Section 3 is this construction applied to the boolean
EDTD constructions of :mod:`repro.schemas.ops`:

* union of two XSDs (Theorem 3.6) — the type automaton of the disjoint
  union determinizes into reachable *pairs*, so the construction is
  O(|D1| |D2|);
* intersection (Theorem 3.8) — exact, ST-REG is closed under intersection;
* complement (Theorem 3.9) — subsets stay of size <= 2, polynomial;
* difference (Theorem 3.10) — likewise polynomial.

All functions return reduced :class:`SingleTypeEDTD` objects; pass
``minimize=True`` to also minimize the number of types (the paper's
"optimal representations of optimal approximations").
"""

from __future__ import annotations

from repro import observability as _obs
from repro.errors import BudgetExceededError
from repro.runtime.budget import budget_phase, resolve_budget
from repro.schemas.dfa_xsd import DFAXSD
from repro.schemas.edtd import EDTD
from repro.schemas.minimize import minimize_single_type
from repro.schemas.ops import (
    complement_edtd,
    difference_edtd,
    edtd_union,
    st_intersection,
)
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.type_automaton import ancestor_guide, type_automaton
from repro.strings.determinize import determinize
from repro.strings.kernels import cached_min_dfa
from repro.strings.schema_guided import cached_guided_min_dfa, universal_guide
from repro.strings.nfa import NFA


def _as_guide_dfa(guide, budget):
    """Coerce a ``guide=`` argument to a DFA: EDTDs become their
    valid-ancestor-string prefix machine (:func:`ancestor_guide`, built
    under *budget*); DFAs (and None) pass through."""
    if guide is not None and isinstance(guide, EDTD):
        try:
            return ancestor_guide(guide, budget=budget)
        except BudgetExceededError as error:
            # The checkpoint belongs to the guide's own determinization,
            # not the guided run — it must not be fed back into a resume.
            error.checkpoint = None
            raise
    return guide


def minimal_upper_approximation(
    edtd: EDTD,
    *,
    minimize: bool = False,
    strategy: str = "blind",
    guide=None,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Construction 3.1: the unique minimal upper XSD-approximation of
    ``L(edtd)``.

    The result defines ``closure(L(edtd))`` (proof of Theorem 3.2).  It can
    be exponentially larger than the input — Theorem 3.2 shows this cannot
    be avoided; see :func:`repro.families.hard.theorem_3_2_family`.

    Parameters
    ----------
    edtd:
        Any EDTD (reduced internally, Proviso 2.3).
    minimize:
        Also minimize the resulting single-type EDTD (polynomial extra
        cost in the output size).  **Degrades gracefully**: if the budget
        trips during this optional phase, the unminimized — still exactly
        correct — approximation is returned instead of failing.
    budget:
        A :class:`repro.runtime.Budget` governing the construction
        (explicit argument wins over the ``with Budget(...):`` context
        default).  Exhaustion during the mandatory phases raises
        :class:`repro.errors.BudgetExceededError` whose ``checkpoint``
        resumes the subset construction.
    strategy / guide:
        Kernel selection for the subset construction (threaded to
        :func:`repro.strings.determinize.determinize`).  With
        ``strategy="schema-guided"`` the construction prunes subset
        states unreachable under *guide* — a DFA of allowed ancestor
        strings, or an EDTD (coerced via
        :func:`repro.schemas.type_automaton.ancestor_guide`); guiding by
        ``None`` (the universal guide) reproduces the blind construction
        exactly.  A pruning guide restricts the approximation to the
        guide's ancestor universe: the result is exact for documents
        whose ancestor strings the guide accepts.
    checkpoint:
        A :class:`repro.strings.determinize.SubsetCheckpoint` (or, for
        guided runs, a
        :class:`repro.strings.schema_guided.SchemaGuidedCheckpoint`)
        from a previous budget-interrupted run on the *same* EDTD with
        the same strategy and guide.
    trace:
        A :class:`repro.observability.Trace` collecting the construction's
        span tree (explicit argument wins over the ``with Trace():``
        context default).
    """
    budget = resolve_budget(budget)
    reduced = edtd.reduced()
    if not reduced.types:
        empty = SingleTypeEDTD(
            alphabet=reduced.alphabet, types=set(), rules={}, starts=set(), mu={}
        )
        return empty

    with _obs.construction_span(
        "upper-approximation", trace=trace, budget=budget, input_types=len(reduced.types)
    ) as span:
        n = type_automaton(reduced)
        # States are frozensets of types / {Q_INIT}.
        subset_dfa = determinize(
            n,
            budget=budget,
            checkpoint=checkpoint,
            strategy=strategy,
            guide=_as_guide_dfa(guide, budget),
        )

        rules: dict[frozenset, object] = {}
        with _obs.construction_span(
            "content-union", budget=budget
        ), budget_phase(budget, "content-union"):
            try:
                outgoing: dict[frozenset, set] = {}
                if strategy == "schema-guided":
                    for (src, symbol) in subset_dfa.transitions:
                        outgoing.setdefault(src, set()).add(symbol)
                for subset in subset_dfa.states:
                    if subset == subset_dfa.initial:
                        continue
                    if budget is not None:
                        budget.tick(1)
                    union_nfa = _content_union(reduced, subset)
                    # Memoized: merged-type unions repeat across subsets (and
                    # across constructions); hits recharge *budget* with the
                    # recorded construction cost so trips stay deterministic.
                    if strategy == "schema-guided":
                        # The guide reaches the content models too: only the
                        # symbols actually leaving this subset state can occur
                        # as children under a guide-accepted ancestor string,
                        # so the union is determinized under the universal
                        # guide over that symbol set — guide-dead child labels
                        # are pruned *during* the subset construction instead
                        # of restricted away afterwards.
                        rules[subset] = cached_guided_min_dfa(
                            union_nfa,
                            universal_guide(frozenset(outgoing.get(subset, ()))),
                            budget=budget,
                        )
                    else:
                        rules[subset] = cached_min_dfa(union_nfa, budget=budget)
            except BudgetExceededError as error:
                # A checkpoint raised here belongs to a *content* NFA, not the
                # type automaton — it must not be fed back into a resumed run.
                error.checkpoint = None
                raise

        starts = reduced.start_symbols()
        if strategy == "schema-guided":
            # Root labels outside the guide's universe lose their initial
            # transition to pruning; drop them from the start set the same
            # way pruned child labels leave the content models.
            starts = {
                symbol
                for symbol in starts
                if subset_dfa.successor(subset_dfa.initial, symbol) is not None
            }
        xsd = DFAXSD(
            alphabet=reduced.alphabet,
            automaton=subset_dfa,
            rules=rules,
            starts=starts,
        )
        result = xsd.to_single_type().reduced()
        if minimize:
            # Degradation ladder, rung 1: minimization is an optional
            # representation optimization — the unminimized result is already
            # the exact minimal upper approximation, so a budget trip here
            # falls back instead of failing.
            try:
                result = minimize_single_type(result, budget=budget)
            except BudgetExceededError:
                pass
        if span is not None:
            span.annotate(output_types=len(result.types))
        if _obs.ENABLED:
            _obs.METRICS.counter("upper.runs").inc()
            _obs.METRICS.histogram("upper.output_types").observe(len(result.types))
    return result


def _content_union(edtd: EDTD, subset: frozenset) -> NFA:
    """NFA for ``union over tau in subset of mu(d(tau))``."""
    parts = [
        edtd.rules[tau].to_nfa().map_symbols(lambda t: edtd.mu[t])
        for tau in sorted(subset, key=repr)
    ]
    result = parts[0]
    for part in parts[1:]:
        result = result.union(part)
    return result


def upper_union(
    left: SingleTypeEDTD,
    right: SingleTypeEDTD,
    *,
    minimize: bool = False,
    strategy: str = "blind",
    guide=None,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Theorem 3.6: the unique minimal upper XSD-approximation of
    ``L(left) | L(right)``, in time O(|left| |right|).

    Implemented as Construction 3.1 on the disjoint-union EDTD; the subset
    construction only ever produces subsets with at most one type from each
    side (the reachable pairs), so the bound holds.  *strategy*/*guide*
    select the determinization kernel exactly as in
    :func:`minimal_upper_approximation`.
    """
    return minimal_upper_approximation(
        edtd_union(left, right),
        minimize=minimize,
        strategy=strategy,
        guide=guide,
        budget=budget,
        checkpoint=checkpoint,
        trace=trace,
    )


def upper_intersection(
    left: SingleTypeEDTD,
    right: SingleTypeEDTD,
    *,
    minimize: bool = False,
    strategy: str = "blind",
    guide=None,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Theorem 3.8: the minimal upper XSD-approximation of an intersection
    is the intersection itself (ST-REG is closed under intersection).

    *checkpoint* is accepted for keyword-surface uniformity but unused —
    the product construction has no resumable phase.  *strategy*/*guide*
    are likewise accepted for uniformity and ignored: the exact product
    has no subset construction to prune.
    """
    del checkpoint  # no resumable phase
    del strategy, guide  # no subset construction to guide
    budget = resolve_budget(budget)
    with _obs.construction_span(
        "upper-intersection", trace=trace, budget=budget
    ):
        result = st_intersection(left, right, budget=budget)
        if minimize:
            # Same graceful degradation as Construction 3.1: the unminimized
            # intersection is already exact.
            try:
                result = minimize_single_type(result, budget=budget)
            except BudgetExceededError:
                pass
    return result


def upper_complement(
    schema: SingleTypeEDTD,
    *,
    minimize: bool = False,
    strategy: str = "blind",
    guide=None,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Theorem 3.9: minimal upper XSD-approximation of ``T_Sigma - L(D)``,
    in time polynomial in |D|.

    The complement EDTD's type automaton only ever reaches subsets
    ``{tau, a}`` of size <= 2, so Construction 3.1 stays polynomial.
    *strategy*/*guide* select the determinization kernel exactly as in
    :func:`minimal_upper_approximation`.
    """
    budget = resolve_budget(budget)
    return minimal_upper_approximation(
        complement_edtd(schema, budget=budget),
        minimize=minimize,
        strategy=strategy,
        guide=guide,
        budget=budget,
        checkpoint=checkpoint,
        trace=trace,
    )


def upper_difference(
    left: SingleTypeEDTD,
    right: SingleTypeEDTD,
    *,
    minimize: bool = False,
    strategy: str = "blind",
    guide=None,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Theorem 3.10: minimal upper XSD-approximation of
    ``L(left) - L(right)`` in polynomial time.  *strategy*/*guide* select
    the determinization kernel exactly as in
    :func:`minimal_upper_approximation`."""
    budget = resolve_budget(budget)
    return minimal_upper_approximation(
        difference_edtd(left, right, budget=budget),
        minimize=minimize,
        strategy=strategy,
        guide=guide,
        budget=budget,
        checkpoint=checkpoint,
        trace=trace,
    )
