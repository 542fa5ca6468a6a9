"""Maximal lower XSD-approximations of unions (Section 4.2.2).

Maximal lower approximations are not unique in general (Theorem 4.3 — see
:mod:`repro.families.hard`), but fixing one disjunct restores uniqueness:
``L(D1) | nv(D2, D1)`` is the unique maximal lower XSD-approximation of
``L(D1) | L(D2)`` that contains ``L(D1)`` (Theorem 4.8), where
``nv(D2, D1)`` is the set of *non-violating* trees of ``D2``
(Definition 4.4).

The construction classifies the reachable *type pairs* of the product of
the two type automata:

* a pair ``tau = (tau1, tau2)`` is an **s-type** when some subtree
  realizable under ``tau`` in a ``D1``-tree is not realizable under ``tau``
  in any ``D2``-tree — decided by the PTIME inclusion
  ``L(D1^tau1) subseteq L(D2^tau2)`` (Lemma 3.3);
* a pair is a **c-type** when some context realizable under ``tau`` in
  ``D1`` is not a ``D2``-context — decided by the PTIME inclusion of the
  *swap language* ``W(tau)`` (D1-trees whose subtree at a ``tau``-node is
  replaced by a ``D2``-subtree) into ``L(D2)``, again via Lemma 3.3.

Everything runs in time polynomial in ``|D1| + |D2|`` (Lemma 4.6).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro import observability as _obs
from repro.core.upper import minimal_upper_approximation
from repro.runtime.budget import budget_phase, resolve_budget
from repro.schemas.dfa_xsd import from_single_type
from repro.schemas.edtd import EDTD
from repro.schemas.inclusion import included_in_single_type
from repro.schemas.ops import edtd_union
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.strings.builders import contains_symbol_from
from repro.strings.dfa import DFA
from repro.strings.minimize import minimize_dfa

Symbol = Hashable
Type = Hashable

#: Placeholder for an undefined type-automaton component.
BOTTOM = None

Pair = tuple  # (Type | None, Type | None)


class _PairContext:
    """Precomputed product-of-type-automata data shared by the s/c-type
    classification and the nv construction."""

    def __init__(self, d1: SingleTypeEDTD, d2: SingleTypeEDTD) -> None:
        self.d1 = d1
        self.d2 = d2
        self.alphabet = d1.alphabet | d2.alphabet
        self.step1 = _type_transitions(d1)
        self.step2 = _type_transitions(d2)
        self.start1 = {d1.mu[t]: t for t in d1.starts}
        self.start2 = {d2.mu[t]: t for t in d2.starts}
        self.xsd2 = from_single_type(d2) if d2.types else None

    def start_pair(self, label: Symbol) -> Pair:
        return (self.start1.get(label), self.start2.get(label))

    def step(self, pair: Pair, label: Symbol) -> Pair:
        t1, t2 = pair
        n1 = self.step1.get((t1, label)) if t1 is not None else None
        n2 = self.step2.get((t2, label)) if t2 is not None else None
        return (n1, n2)

    def reachable_pairs_from(self, seeds: set[Pair], budget=None) -> set[Pair]:
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            pair = queue.popleft()
            for label in self.alphabet:
                if budget is not None:
                    budget.tick(1, frontier=len(queue))
                nxt = self.step(pair, label)
                if nxt == (None, None) or nxt in seen:
                    continue
                seen.add(nxt)
                queue.append(nxt)
                if budget is not None:
                    budget.charge_states(1, frontier=len(queue))
        return seen


def _type_transitions(schema: SingleTypeEDTD) -> dict:
    result: dict[tuple[Type, Symbol], Type] = {}
    for type_ in schema.types:
        for occurring in schema.occurring_types(type_):
            result[(type_, schema.mu[occurring])] = occurring
    return result


# ----------------------------------------------------------------------
# s-types and c-types
# ----------------------------------------------------------------------

def _subtree_schema(schema: SingleTypeEDTD, type_: Type) -> SingleTypeEDTD:
    """``D^tau``: the schema with start set ``{tau}`` (subtree language)."""
    return SingleTypeEDTD(
        alphabet=schema.alphabet,
        types=schema.types,
        rules=schema.rules,
        starts={type_},
        mu=schema.mu,
    )


def is_s_type(ctx: _PairContext, pair: Pair) -> bool:
    """``S1(tau) - S2(tau) != {}`` for a product-reachable pair.

    With ``tau1 = BOTTOM`` no ``D1``-tree realizes the pair, so it is never
    an s-type.  With ``tau2 = BOTTOM`` the ``D2``-side is empty while the
    ``D1``-side is not (reduced schemas), so it always is.
    """
    t1, t2 = pair
    if t1 is None:
        return False
    if t2 is None:
        return True
    return not included_in_single_type(
        _subtree_schema(ctx.d1, t1), _subtree_schema(ctx.d2, t2)
    )


def is_c_type(ctx: _PairContext, pair: Pair) -> bool:
    """``C1(tau) - C2(tau) != {}`` for a product-reachable pair.

    Decided via the swap language: ``tau`` is a c-type iff some ``D1``-tree
    with its ``tau``-subtree replaced by a ``D2``-subtree of type ``tau2``
    falls outside ``L(D2)`` — an EDTD-into-stEDTD inclusion (Lemma 3.3).
    """
    t1, t2 = pair
    if t1 is None:
        return False
    if t2 is None:
        return True
    swap = swap_language_edtd(ctx, pair)
    if swap.is_empty_language():
        return False
    return not included_in_single_type(swap, ctx.d2)


def swap_language_edtd(ctx: _PairContext, target: Pair) -> EDTD:
    """The swap language ``W(target)``: trees ``t1[v <- s]`` with
    ``t1 in L(D1)``, ``anc-type(v) == target`` (both components defined) and
    ``s in L(D2^{target2})``.

    Types: ``("path", pair)`` mark the strict ancestors of ``v`` (tracking
    the product automaton), ``("sub", sigma2)`` type the replacing
    ``D2``-subtree, ``("off", sigma1)`` validate everything else against
    ``D1``.
    """
    d1, d2 = ctx.d1, ctx.d2
    t1_target, t2_target = target
    assert t1_target is not None and t2_target is not None

    # Product-reachable pairs with both components defined.
    both_start = {
        ctx.start_pair(a)
        for a in ctx.alphabet
        if ctx.start_pair(a)[0] is not None and ctx.start_pair(a)[1] is not None
    }
    pairs = {
        p
        for p in ctx.reachable_pairs_from(both_start)
        if p[0] is not None and p[1] is not None
    }

    types: set = {("sub", sigma) for sigma in d2.types}
    types |= {("off", sigma) for sigma in d1.types}
    types |= {("path", p) for p in pairs}

    mu: dict = {("sub", sigma): d2.mu[sigma] for sigma in d2.types}
    mu.update({("off", sigma): d1.mu[sigma] for sigma in d1.types})
    mu.update({("path", p): d1.mu[p[0]] for p in pairs})

    rules: dict = {}
    for sigma in d2.types:
        rules[("sub", sigma)] = _retag(d2.rules[sigma], "sub")
    for sigma in d1.types:
        rules[("off", sigma)] = _retag(d1.rules[sigma], "off")
    for p in pairs:
        rules[("path", p)] = _path_content(ctx, p, target, pairs)

    starts: set = set()
    for a in ctx.alphabet:
        p0 = ctx.start_pair(a)
        if p0[0] is None or p0[1] is None:
            continue
        starts.add(("path", p0))
        if p0 == target:
            starts.add(("sub", t2_target))
    return EDTD(
        alphabet=ctx.alphabet,
        types=types,
        rules=rules,
        starts=starts,
        mu=mu,
    ).reduced()


def _retag(dfa: DFA, tag: str) -> DFA:
    transitions = {
        (src, (tag, sym)): dst for (src, sym), dst in dfa.transitions.items()
    }
    return DFA(
        dfa.states,
        {(tag, sym) for sym in dfa.alphabet},
        transitions,
        dfa.initial,
        dfa.finals,
    )


def _path_content(ctx: _PairContext, p: Pair, target: Pair, pairs: set) -> DFA:
    """Content of a ``("path", p)`` node: a word of ``d1(p[0])`` with exactly
    one marked child — either continuing the path or the swapped subtree."""
    d1 = ctx.d1
    content1 = d1.rules[p[0]]
    initial = (content1.initial, 0)
    states: set = {initial}
    transitions: dict = {}
    symbols: set = set()
    queue: deque = deque([initial])
    while queue:  # ungoverned: BFS bounded by |content states| x 2
        state = queue.popleft()
        q1, flag = state
        for sigma in content1.alphabet:
            n1 = content1.successor(q1, sigma)
            if n1 is None:
                continue
            off = ("off", sigma)
            symbols.add(off)
            nxt = (n1, flag)
            transitions[(state, off)] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
            if flag == 0:
                label = d1.mu[sigma]
                child_pair = ctx.step(p, label)
                # The D1 component of the step is sigma by single-typedness.
                if child_pair[0] != sigma or child_pair[1] is None:
                    continue
                marked_options = []
                if child_pair in pairs:
                    marked_options.append(("path", child_pair))
                if child_pair == target:
                    marked_options.append(("sub", target[1]))
                for marked in marked_options:
                    symbols.add(marked)
                    nxt_marked = (n1, 1)
                    transitions[(state, marked)] = nxt_marked
                    if nxt_marked not in states:
                        states.add(nxt_marked)
                        queue.append(nxt_marked)
    finals = {
        (q1, flag) for (q1, flag) in states if q1 in content1.finals and flag == 1
    }
    return minimize_dfa(DFA(states, symbols, transitions, initial, finals))


# ----------------------------------------------------------------------
# nv(D2, D1) and the maximal lower approximation (Lemma 4.6, Theorem 4.8)
# ----------------------------------------------------------------------

def non_violating(
    d2: SingleTypeEDTD, d1: SingleTypeEDTD, *, budget=None, checkpoint=None, trace=None
) -> SingleTypeEDTD:
    """Lemma 4.6: the single-type EDTD ``D'`` with ``L(D') = nv(d2, d1)``.

    ``nv(d2, d1)`` (Definition 4.4) is the set of trees of ``L(d2)`` whose
    closure with any ``L(d1)``-tree stays inside the union — the maximal
    part of ``d2`` that can be added to ``d1``.

    Types of ``D'`` are the reachable product pairs ``(tau1|BOTTOM, tau2)``;
    the content model of a pair follows the case split of Section 4.2.2:

    * c-type: ``mu2(d2(tau2)) & mu1(d1(tau1))``;
    * otherwise: child strings of ``d2`` avoiding *slab* symbols entirely,
      plus child strings in both content models containing a slab symbol,
      where ``slab(tau)`` collects the labels stepping to an s-type.

    *checkpoint* is accepted for keyword-surface uniformity but unused —
    the pair classification has no resumable phase.
    """
    del checkpoint  # no resumable phase
    budget = resolve_budget(budget)
    d1 = d1.reduced()
    d2 = d2.reduced()
    if not d2.types:
        return d2
    if not d1.types:
        return d2
    with _obs.construction_span("nv", trace=trace, budget=budget) as span:
        ctx = _PairContext(d1, d2)

        start_pairs = {
            ctx.start_pair(a) for a in ctx.alphabet if ctx.start_pair(a)[1] is not None
        }
        with budget_phase(budget, "nv-pairs"):
            pairs = {
                p
                for p in ctx.reachable_pairs_from(start_pairs, budget=budget)
                if p[1] is not None
            }

        s_cache: dict[Pair, bool] = {}
        c_cache: dict[Pair, bool] = {}

        def s_type(pair: Pair) -> bool:
            if pair not in s_cache:
                s_cache[pair] = is_s_type(ctx, pair)
            return s_cache[pair]

        def c_type(pair: Pair) -> bool:
            if pair not in c_cache:
                c_cache[pair] = is_c_type(ctx, pair)
            return c_cache[pair]

        rules: dict = {}
        mu: dict = {}
        for pair in pairs:
            if budget is not None:
                budget.tick(1)
            t1, t2 = pair
            mu[pair] = d2.mu[t2]
            content2 = d2.content_over_sigma(t2)
            content1 = (
                d1.content_over_sigma(t1) if t1 is not None else None
            )
            slab = frozenset(
                a for a in ctx.alphabet
                if ctx.step(pair, a)[0] is not None and s_type(ctx.step(pair, a))
            )
            if c_type(pair):
                assert content1 is not None  # c-types have a defined D1 component
                selected = content2.intersection(content1)
            else:
                no_slab = _avoiding(ctx.alphabet, slab)
                part_a = content2.intersection(no_slab)
                if content1 is None or not slab:
                    selected = part_a
                else:
                    with_slab = contains_symbol_from(ctx.alphabet, slab)
                    part_b = content2.intersection(content1).intersection(with_slab)
                    selected = part_a.union(part_b)
            rules[pair] = _pair_typed(minimize_dfa(selected), ctx, pair)

        starts = {p for p in start_pairs if p in pairs}
        if span is not None:
            span.annotate(
                pairs=len(pairs),
                s_types=sum(1 for v in s_cache.values() if v),
                c_types=sum(1 for v in c_cache.values() if v),
            )
        if _obs.ENABLED:
            _obs.METRICS.counter("nv.runs").inc()
            _obs.METRICS.histogram("nv.pairs").observe(len(pairs))
    return SingleTypeEDTD(
        alphabet=ctx.alphabet,
        types=pairs,
        rules=rules,
        starts=starts,
        mu=mu,
    ).reduced()


def _avoiding(alphabet: frozenset, forbidden: frozenset) -> DFA:
    """DFA for ``(Sigma - forbidden)*`` over *alphabet*."""
    transitions = {
        ("ok", a): "ok" for a in alphabet if a not in forbidden
    }
    return DFA({"ok"}, alphabet, transitions, "ok", {"ok"})


def _pair_typed(content: DFA, ctx: _PairContext, pair: Pair) -> DFA:
    """Lift a content DFA over Sigma to one over the pair types, assigning
    each child label ``a`` the type ``step(pair, a)``."""
    transitions = {}
    symbols = set()
    for (src, a), dst in content.transitions.items():
        child = ctx.step(pair, a)
        if child[1] is None:
            # Labels not allowed by d2 cannot occur in the selected content
            # (it is intersected with mu2(d2(tau2))); skip defensively.
            continue
        transitions[(src, child)] = dst
        symbols.add(child)
    return DFA(content.states, symbols, transitions, content.initial, content.finals)


def maximal_lower_union(
    d1: SingleTypeEDTD,
    d2: SingleTypeEDTD,
    *,
    budget=None,
    checkpoint=None,
    trace=None,
) -> SingleTypeEDTD:
    """Theorem 4.8: the unique maximal lower XSD-approximation of
    ``L(d1) | L(d2)`` that contains ``L(d1)``, namely
    ``L(d1) | nv(d2, d1)``.

    By Lemma 4.7 this union is single-type definable, so taking the minimal
    upper approximation of the (non-single-type) union EDTD returns a schema
    for exactly the union.  Polynomial time overall.
    """
    budget = resolve_budget(budget)
    with _obs.construction_span("lower-union", trace=trace, budget=budget):
        nv = non_violating(d2, d1, budget=budget)
        result = minimal_upper_approximation(
            edtd_union(d1.reduced(), nv), budget=budget, checkpoint=checkpoint
        )
    return result
