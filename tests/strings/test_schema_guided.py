"""Differential harness for the schema-guided subset construction.

The guided kernel (``determinize(..., strategy="schema-guided")``) is
proven equivalent to the blind kernels on three axes:

* **language** — for every generated (automaton, guide) pair,
  ``L(guided) ∩ L(guide) = L(blind) ∩ L(guide)`` (product-automaton
  equivalence, not bounded sampling), and ``L(guided) ⊆ L(blind)``;
* **governance** — identical budget trip counts to the blind loop under
  the universal guide, and checkpoint/resume produces the same artifact
  as an uninterrupted run;
* **metamorphic** — widening the guide never shrinks the explored
  subset set, the universal guide reproduces the blind construction
  state-for-state, and every pruned subset is genuinely unreachable
  under guide-alive ancestor strings (brute-force word oracle).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AutomatonError, BudgetExceededError
from repro.runtime.budget import Budget
from repro.strings.builders import nth_from_end_is
from repro.strings.determinize import SubsetCheckpoint, determinize, determinize_reference
from repro.strings.glushkov import glushkov_nfa
from repro.strings.ops import equivalent, is_empty
from repro.strings.regex import parse
from repro.strings.schema_guided import (
    SchemaGuidedCheckpoint,
    depth_guide,
    universal_guide,
)
from tests.strategies import ALPHABET, examples, glushkov_nfas, nfa_guide_pairs

AB = set(ALPHABET)


def _alive_states(guide):
    """The guide's alive set, recomputed independently of the kernel:
    reachable states (all of them, if the guide has no finals) from which
    a final is reachable."""
    reachable = guide.reachable_states()
    if not guide.finals:
        return reachable
    nfa = guide.to_nfa()
    return reachable & nfa.coreachable_states()


def _guide_alive_words(guide, max_len):
    """All words of length <= max_len along which the guide stays alive."""
    alive = _alive_states(guide)
    if guide.initial not in alive:
        return
    frontier = [((), guide.initial)]
    yield ()
    for _ in range(max_len):
        nxt = []
        for word, state in frontier:
            for sym in sorted(guide.alphabet, key=repr):
                target = guide.transitions.get((state, sym))
                if target is None or target not in alive:
                    continue
                extended = word + (sym,)
                yield extended
                nxt.append((extended, target))
        frontier = nxt


# ----------------------------------------------------------------------
# Differential: language equivalence on the guide's universe
# ----------------------------------------------------------------------

@settings(max_examples=examples(200), deadline=None)
@given(nfa_guide_pairs())
def test_guided_equals_blind_on_guide_language(pair):
    nfa, guide = pair
    guided = determinize(nfa, strategy="schema-guided", guide=guide).completed(AB)
    blind = determinize(nfa).completed(AB)
    reference = determinize_reference(nfa).completed(AB)

    # Pruning only ever removes behaviour: L(guided) ⊆ L(blind).
    assert is_empty(guided.difference(blind))

    # On the guide's universe the kernels agree exactly.  A no-finals
    # guide is a prefix machine: its universe is the prefix closure.
    if guide.finals:
        universe = guide.completed(AB)
    else:
        reach = guide.reachable_states()
        universe = guide.__class__(
            guide.states, guide.alphabet, guide.transitions, guide.initial, reach
        ).completed(AB)
    assert equivalent(guided.intersection(universe), blind.intersection(universe))
    assert equivalent(guided.intersection(universe), reference.intersection(universe))


@settings(max_examples=examples(100), deadline=None)
@given(glushkov_nfas())
def test_universal_guide_matches_blind_state_for_state(nfa):
    guided = determinize(nfa, strategy="schema-guided")
    blind = determinize(nfa)
    assert set(guided.states) == set(blind.states)
    assert guided.transitions == blind.transitions
    assert guided.initial == blind.initial
    assert set(guided.finals) == set(blind.finals)


# ----------------------------------------------------------------------
# Metamorphic: widening the guide never shrinks the explored set
# ----------------------------------------------------------------------

@settings(max_examples=examples(60), deadline=None)
@given(glushkov_nfas(), st.integers(min_value=0, max_value=3))
def test_widening_guide_never_shrinks_states(nfa, depth):
    narrow = determinize(nfa, strategy="schema-guided", guide=depth_guide(AB, depth))
    wide = determinize(nfa, strategy="schema-guided", guide=depth_guide(AB, depth + 1))
    blind = determinize(nfa)
    assert set(narrow.states) <= set(wide.states) <= set(blind.states)


@settings(max_examples=examples(100), deadline=None)
@given(nfa_guide_pairs())
def test_pruned_subsets_unreachable_by_guide_alive_words(pair):
    """Reachability oracle: every subset the blind DFA reaches along a
    guide-alive ancestor word must survive the pruning."""
    nfa, guide = pair
    guided = determinize(nfa, strategy="schema-guided", guide=guide)
    blind = determinize(nfa)
    kept = set(guided.states)
    for word in _guide_alive_words(guide, 5):
        state = blind.initial
        for sym in word:
            state = blind.transitions.get((state, sym))
            if state is None:
                break
        else:
            assert state in kept, (word, state)


# ----------------------------------------------------------------------
# Governance: budgets, checkpoints, resume
# ----------------------------------------------------------------------

def _trip_ladder(nfa, *, strategy, guide=None, start=2):
    """Run to completion under a growing max_states ladder; return the
    (trip count, checkpoint types seen, final DFA)."""
    trips = 0
    seen: list[type] = []
    checkpoint = None
    limit = start
    while True:
        try:
            dfa = determinize(
                nfa,
                budget=Budget(max_states=limit),
                checkpoint=checkpoint,
                strategy=strategy,
                guide=guide,
            )
            return trips, seen, dfa
        except BudgetExceededError as error:
            trips += 1
            assert error.checkpoint is not None
            seen.append(type(error.checkpoint))
            checkpoint = error.checkpoint
            limit += 2
            assert trips < 100


def test_budget_trip_counts_match_blind_contract():
    nfa = nth_from_end_is("a", "b", 5)
    blind_trips, blind_types, blind_dfa = _trip_ladder(nfa, strategy="blind")
    guided_trips, guided_types, guided_dfa = _trip_ladder(nfa, strategy="schema-guided")
    assert guided_trips == blind_trips > 0
    assert all(t is SubsetCheckpoint for t in blind_types)
    assert all(t is SchemaGuidedCheckpoint for t in guided_types)
    assert set(guided_dfa.states) == set(blind_dfa.states)
    assert guided_dfa.transitions == blind_dfa.transitions


def test_checkpoint_resume_equals_uninterrupted():
    nfa = nth_from_end_is("a", "b", 5)
    guide = depth_guide(AB, 4)
    whole = determinize(nfa, strategy="schema-guided", guide=guide)
    trips, types, resumed = _trip_ladder(nfa, strategy="schema-guided", guide=guide)
    assert trips > 0 and all(t is SchemaGuidedCheckpoint for t in types)
    assert set(resumed.states) == set(whole.states)
    assert resumed.transitions == whole.transitions
    assert set(resumed.finals) == set(whole.finals)
    assert resumed.initial == whole.initial


def test_checkpoint_contract_mirrors_blind():
    nfa = nth_from_end_is("a", "b", 5)
    try:
        determinize(nfa, strategy="schema-guided", budget=Budget(max_states=4))
    except BudgetExceededError as error:
        checkpoint = error.checkpoint
    else:  # pragma: no cover - the family always trips at 4 states
        pytest.fail("expected a budget trip")
    assert isinstance(checkpoint, SchemaGuidedCheckpoint)
    # Same observable surface as SubsetCheckpoint.
    assert checkpoint.states_explored >= 4
    assert checkpoint.frontier_size >= 0
    assert len(checkpoint.states) == checkpoint.states_explored


def test_strategy_validation():
    nfa = glushkov_nfa(parse("a b*"))
    with pytest.raises(AutomatonError):
        determinize(nfa, strategy="unknown")
    with pytest.raises(AutomatonError):
        determinize(nfa, strategy="blind", guide=universal_guide(AB))
    with pytest.raises(BudgetExceededError) as trip:
        determinize(nfa, strategy="schema-guided", budget=Budget(max_states=1))
    with pytest.raises(AutomatonError):
        determinize(nfa, strategy="blind", checkpoint=trip.value.checkpoint)
