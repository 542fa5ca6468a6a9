"""Tests for Hopcroft minimization as :func:`minimize_dfa` runs it (on
:func:`repro.strings.kernels.hopcroft_refine`), checked differentially
against Brzozowski's double-reversal minimization, an oracle that shares
no code with partition refinement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.strings.builders import nth_from_end_is
from repro.strings.determinize import determinize
from repro.strings.dfa import DFA
from repro.strings.glushkov import glushkov_nfa
from repro.strings.minimize import minimize_dfa
from repro.strings.ops import as_min_dfa, equivalent
from repro.strings.regex import (
    EMPTY,
    EPSILON,
    Concat,
    Opt,
    Plus,
    Star,
    Sym,
    Union,
    parse,
)


def brzozowski(dfa: DFA) -> DFA:
    """The minimal trim DFA of ``L(dfa)``: determinizing the reversal of
    an accessible DFA yields a minimal one, so two rounds of
    reverse-and-determinize minimize any automaton."""
    once = determinize(dfa.to_nfa().reverse())
    return determinize(once.to_nfa().reverse())


class TestHopcroft:
    @pytest.mark.parametrize(
        "source",
        ["a", "~", "#", "a, b", "(a | b)*, a", "a+, b?", "(a, b | b, a)+",
         "a, (b | c)*, a", "(a | b)*, a, (a | b)"],
    )
    def test_agrees_with_moore_route(self, source):
        dfa = determinize(glushkov_nfa(parse(source)))
        via_hopcroft = minimize_dfa(dfa)
        via_brzozowski = brzozowski(dfa)
        assert len(via_hopcroft.states) == len(via_brzozowski.states), source
        assert equivalent(via_hopcroft, via_brzozowski), source

    def test_empty_language(self):
        dfa = DFA({0}, {"a"}, {}, 0, set())
        assert minimize_dfa(dfa).is_empty_language()

    def test_complete_flag(self):
        trim = minimize_dfa(as_min_dfa("a"))
        complete = minimize_dfa(as_min_dfa("a"), complete=True)
        assert complete.is_complete()
        assert len(complete.states) == len(trim.states) + 1

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_blowup_family_minimal_sizes(self, n):
        dfa = determinize(nth_from_end_is("a", "b", n))
        minimal = minimize_dfa(dfa)
        assert len(minimal.states) == 2 ** (n + 1)
        assert len(brzozowski(dfa).states) == 2 ** (n + 1)

    def test_redundant_states_merged(self):
        dfa = DFA(
            {0, 1, 2, 3},
            {"a"},
            {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3, (3, "a"): 0},
            0,
            {0, 2},
        )
        # Language: even number of a's -> 2 states.
        assert len(minimize_dfa(dfa).states) == 2

    def test_random_dfas_differential(self):
        rng = random.Random(9)
        for _ in range(30):
            num_states = rng.randint(2, 8)
            states = list(range(num_states))
            transitions = {}
            for state in states:
                for symbol in "ab":
                    if rng.random() < 0.85:
                        transitions[(state, symbol)] = rng.choice(states)
            finals = {s for s in states if rng.random() < 0.4}
            dfa = DFA(states, {"a", "b"}, transitions, 0, finals)
            via_hopcroft = minimize_dfa(dfa)
            via_brzozowski = brzozowski(dfa)
            assert len(via_hopcroft.states) == len(via_brzozowski.states)
            assert equivalent(via_hopcroft, via_brzozowski)


def regexes():
    atoms = st.sampled_from([Sym("a"), Sym("b"), EPSILON, EMPTY])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Concat, inner, inner),
            st.builds(Union, inner, inner),
            st.builds(Star, inner),
            st.builds(Plus, inner),
            st.builds(Opt, inner),
        ),
        max_leaves=8,
    )


@settings(max_examples=50, deadline=None)
@given(regexes())
def test_differential_minimization(expr):
    dfa = determinize(glushkov_nfa(expr))
    via_hopcroft = minimize_dfa(dfa)
    via_brzozowski = brzozowski(dfa)
    assert len(via_hopcroft.states) == len(via_brzozowski.states), expr
    assert equivalent(via_hopcroft, via_brzozowski), expr
