"""Budget governance of the constructions brought under the R001 regime
by the repro-lint cleanup: Hopcroft minimization, BTA determinization,
transition monoids, and derivative automata.

Contract (same as tests/runtime/test_governed_constructions.py): within
budget the governed run is identical to an ungoverned run; a tiny budget
trips promptly with a labeled phase; an ambient ``with Budget(...)``
context governs calls that pass no explicit budget.
"""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError
from repro.runtime import Budget
from repro.strings.derivatives import dfa_from_regex
from repro.strings.minimize import minimize_dfa
from repro.strings.ops import as_dfa
from repro.strings.regex import parse
from repro.tree_automata.bta import BTA
from repro.tree_automata.monoid import transition_monoid_from_dfa


def sample_dfa():
    return as_dfa("(a | b)*, a, (a | b), (a | b)")


def sample_bta() -> BTA:
    return BTA(
        states={1, 2, 3},
        alphabet={"a", "b"},
        leaf_rules={"a": {1, 2}, "b": {2}},
        internal_rules={
            ("a", 1, 2): {3},
            ("a", 2, 2): {1, 3},
            ("b", 3, 1): {2},
        },
        finals={3},
    )


class TestHopcroftGovernance:
    """Hopcroft minimization as :func:`minimize_dfa` runs it."""

    def test_within_budget_matches_ungoverned(self):
        dfa = sample_dfa()
        governed = minimize_dfa(dfa, budget=Budget(max_steps=100_000))
        assert governed.isomorphic_to(minimize_dfa(dfa))

    def test_tiny_budget_trips_with_phase(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            minimize_dfa(sample_dfa(), budget=Budget(max_steps=2))
        assert exc_info.value.progress.phase == "minimize"

    def test_ambient_budget_governs(self):
        with Budget(max_steps=2):
            with pytest.raises(BudgetExceededError):
                minimize_dfa(sample_dfa())


class TestBtaDeterminizeGovernance:
    def test_within_budget_matches_ungoverned(self):
        governed = sample_bta().determinize(budget=Budget(max_states=10_000))
        ungoverned = sample_bta().determinize()
        assert governed.states == ungoverned.states
        assert governed.finals == ungoverned.finals
        assert governed.internal_rules == ungoverned.internal_rules

    def test_tiny_budget_trips_with_phase(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            sample_bta().determinize(budget=Budget(max_states=1))
        assert exc_info.value.progress.phase == "bta-determinize"

    def test_ambient_budget_governs_complement(self):
        with Budget(max_states=1):
            with pytest.raises(BudgetExceededError):
                sample_bta().complement()


class TestMonoidGovernance:
    def test_within_budget_matches_ungoverned(self):
        dfa = sample_dfa().completed()
        governed, _ = transition_monoid_from_dfa(dfa, budget=Budget(max_states=100_000))
        ungoverned, _ = transition_monoid_from_dfa(dfa)
        assert governed.elements == ungoverned.elements

    def test_tiny_budget_trips_with_phase(self):
        with pytest.raises(BudgetExceededError) as exc_info:
            transition_monoid_from_dfa(
                sample_dfa().completed(), budget=Budget(max_states=1)
            )
        assert exc_info.value.progress.phase == "transition-monoid"


class TestDerivativeDfaGovernance:
    def test_within_budget_matches_ungoverned(self):
        expr = parse("(a | b)*, a, (a | b)")
        governed = dfa_from_regex(expr, budget=Budget(max_states=10_000))
        assert governed.isomorphic_to(dfa_from_regex(expr))

    def test_tiny_budget_trips_with_phase(self):
        expr = parse("(a | b)*, a, (a | b), (a | b), (a | b)")
        with pytest.raises(BudgetExceededError) as exc_info:
            dfa_from_regex(expr, budget=Budget(max_states=1))
        assert exc_info.value.progress.phase == "derivative-dfa"
