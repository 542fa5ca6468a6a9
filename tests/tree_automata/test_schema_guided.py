"""Differential harness for the schema-guided BTA determinization.

Mirrors ``tests/strings/test_schema_guided.py`` on the tree side:
language equivalence relative to the guide (exact, via the emptiness
procedure on product automata), state-for-state agreement under the
universal guide, widening monotonicity, a brute-force reachability
oracle for pruned subsets, budget/checkpoint contract parity with the
blind worklist.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AutomatonError, BudgetExceededError
from repro.families.hard import example_2_6, theorem_3_2_family
from repro.runtime.budget import Budget
from repro.schemas.ops import edtd_union
from repro.trees.tree import Tree
from repro.tree_automata.bta import BTA
from repro.tree_automata.inclusion import bta_difference_empty, bta_from_edtd
from repro.tree_automata.kernels import BTADetCheckpoint
from repro.tree_automata.schema_guided import (
    GuidedBTADetCheckpoint,
    bta_guide_from_edtd,
    universal_bta_guide,
)
from tests.strategies import examples, single_type_edtds

# ----------------------------------------------------------------------
# Brute-force tree universes (reachability oracle)
# ----------------------------------------------------------------------

_BINARY_TREES: dict[frozenset, list[Tree]] = {}


def _binary_trees(alphabet, max_size: int = 5) -> list[Tree]:
    """All binary-shaped trees (0 or 2 children) over *alphabet* with at
    most *max_size* nodes, memoized per alphabet."""
    key = frozenset(alphabet)
    cached = _BINARY_TREES.get(key)
    if cached is not None:
        return cached
    labels = sorted(alphabet, key=repr)
    by_size: dict[int, list[Tree]] = {1: [Tree(label) for label in labels]}
    for size in range(3, max_size + 1, 2):
        layer: list[Tree] = []
        for left_size in range(1, size - 1, 2):
            right_size = size - 1 - left_size
            for left in by_size[left_size]:
                for right in by_size.get(right_size, ()):
                    layer.extend(Tree(label, [left, right]) for label in labels)
        by_size[size] = layer
    out = [tree for sized in by_size.values() for tree in sized]
    _BINARY_TREES[key] = out
    return out


def _pick_guide(d1, d2, kind) -> BTA:
    if kind == "universal":
        return universal_bta_guide(bta_from_edtd(d1).alphabet)
    if kind == "own":
        return bta_guide_from_edtd(d1)
    return bta_guide_from_edtd(d2)


GUIDE_KINDS = st.sampled_from(["universal", "own", "other"])


# ----------------------------------------------------------------------
# Differential: language equivalence on the guide's universe
# ----------------------------------------------------------------------

@settings(max_examples=examples(200), deadline=None)
@given(single_type_edtds(max_types=3), single_type_edtds(max_types=3), GUIDE_KINDS)
def test_guided_equals_blind_on_guide_language(d1, d2, kind):
    bta = bta_from_edtd(d1)
    guide = _pick_guide(d1, d2, kind)
    guided = bta.determinize(strategy="schema-guided", guide=guide)
    blind = bta.determinize()

    # Pruning only ever removes behaviour: L(guided) ⊆ L(blind) ⊆ L(bta).
    assert bta_difference_empty(guided, blind)

    # On the guide's universe the kernels agree exactly.
    assert bta_difference_empty(guided.intersection(guide), blind.intersection(guide))
    assert bta_difference_empty(blind.intersection(guide), guided.intersection(guide))


@settings(max_examples=examples(60), deadline=None)
@given(single_type_edtds(max_types=3))
def test_universal_guide_matches_blind_state_for_state(edtd):
    bta = bta_from_edtd(edtd)
    guided = bta.determinize(strategy="schema-guided")
    blind = bta.determinize()
    assert set(guided.states) == set(blind.states)
    assert guided.leaf_rules == blind.leaf_rules
    assert guided.internal_rules == blind.internal_rules
    assert set(guided.finals) == set(blind.finals)


# ----------------------------------------------------------------------
# Metamorphic: widening the guide never shrinks the explored set
# ----------------------------------------------------------------------

@settings(max_examples=examples(40), deadline=None)
@given(single_type_edtds(max_types=3), single_type_edtds(max_types=3))
def test_widening_guide_never_shrinks_states(d1, d2):
    bta = bta_from_edtd(d1)
    own = bta.determinize(strategy="schema-guided", guide=bta_guide_from_edtd(d1))
    wider = bta.determinize(
        strategy="schema-guided", guide=bta_guide_from_edtd(edtd_union(d1, d2))
    )
    blind = bta.determinize()
    assert set(own.states) <= set(wider.states) <= set(blind.states)


@settings(max_examples=examples(25), deadline=None)
@given(single_type_edtds(max_types=2))
def test_pruned_subsets_unreachable_by_guide_accepted_trees(edtd):
    """Reachability oracle: for every small tree the guide accepts, the
    blind determinization's state at every subtree position must have
    survived the pruning."""
    bta = bta_from_edtd(edtd)
    guide = bta_guide_from_edtd(edtd)
    guided = bta.determinize(strategy="schema-guided", guide=guide)
    blind = bta.determinize()
    kept = set(guided.states)

    def subtrees(tree):
        yield tree
        for child in tree.children:
            yield from subtrees(child)

    for tree in _binary_trees(bta.alphabet):
        if not guide.accepts(tree):
            continue
        for sub in subtrees(tree):
            states = blind.possible_states(sub)
            for subset in states:
                assert subset in kept, (tree, sub, subset)


# ----------------------------------------------------------------------
# Governance: budgets, checkpoints, resume
# ----------------------------------------------------------------------

def _trip_ladder(bta, *, strategy, guide=None, start=2, step=2):
    trips = 0
    seen: list[type] = []
    checkpoint = None
    limit = start
    while True:
        try:
            det = bta.determinize(
                budget=Budget(max_states=limit),
                checkpoint=checkpoint,
                strategy=strategy,
                guide=guide,
            )
            return trips, seen, det
        except BudgetExceededError as error:
            trips += 1
            assert error.checkpoint is not None
            seen.append(type(error.checkpoint))
            checkpoint = error.checkpoint
            limit += step
            assert trips < 100


def test_budget_trip_counts_match_blind_contract():
    bta = bta_from_edtd(theorem_3_2_family(3))
    blind_trips, blind_types, blind_det = _trip_ladder(bta, strategy="blind")
    guided_trips, guided_types, guided_det = _trip_ladder(bta, strategy="schema-guided")
    assert guided_trips == blind_trips > 0
    assert all(t is BTADetCheckpoint for t in blind_types)
    assert all(t is GuidedBTADetCheckpoint for t in guided_types)
    assert set(guided_det.states) == set(blind_det.states)
    assert guided_det.internal_rules == blind_det.internal_rules


def test_charge_parity_with_blind_under_universal_guide():
    bta = bta_from_edtd(example_2_6())
    blind_budget = Budget()
    bta.determinize(budget=blind_budget)
    guided_budget = Budget()
    bta.determinize(budget=guided_budget, strategy="schema-guided")
    assert guided_budget.states == blind_budget.states
    assert guided_budget.steps == blind_budget.steps


def test_checkpoint_resume_equals_uninterrupted():
    bta = bta_from_edtd(theorem_3_2_family(3))
    guide = bta_guide_from_edtd(theorem_3_2_family(3))
    whole = bta.determinize(strategy="schema-guided", guide=guide)
    trips, types, resumed = _trip_ladder(bta, strategy="schema-guided", guide=guide)
    assert trips > 0 and all(t is GuidedBTADetCheckpoint for t in types)
    assert set(resumed.states) == set(whole.states)
    assert resumed.leaf_rules == whole.leaf_rules
    assert resumed.internal_rules == whole.internal_rules
    assert set(resumed.finals) == set(whole.finals)


def test_strategy_validation():
    bta = bta_from_edtd(example_2_6())
    with pytest.raises(AutomatonError):
        bta.determinize(strategy="unknown")
    with pytest.raises(AutomatonError):
        bta.determinize(strategy="blind", guide=universal_bta_guide(bta.alphabet))
    with pytest.raises(BudgetExceededError) as trip:
        bta.determinize(strategy="schema-guided", budget=Budget(max_states=1))
    with pytest.raises(AutomatonError):
        bta.determinize(strategy="blind", checkpoint=trip.value.checkpoint)
    # A nondeterministic guide is rejected up front.
    with pytest.raises(AutomatonError):
        bta.determinize(strategy="schema-guided", guide=bta)

