"""Differential and regression tests for the bitmask kernels (PR 2).

* bitmask subset construction vs. the frozenset reference — identical (not
  just isomorphic) DFAs on >=250 randomized NFAs and the theorem-3.2
  blow-up family;
* Hopcroft refinement vs. the quadratic Moore reference — identical
  partitions (same block numbering), including non-boolean initial
  partitions;
* checkpoint compatibility — checkpoints are interchangeable between
  kernel and reference, resume to the same DFA, and budgets trip at the
  same state counts;
* the memo cache — interning, hit/miss counters, recorded-cost budget
  recharging, eviction bound.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import BudgetExceededError
from repro.families.hard import theorem_3_2_family
from repro.runtime.budget import Budget
from repro.schemas.type_automaton import type_automaton
from repro.strings.determinize import determinize, determinize_reference
from repro.strings.dfa import DFA
from repro.strings.kernels import (
    _KernelCache,
    cache_stats,
    cached_min_dfa,
    clear_caches,
    hopcroft_refine,
    nfa_includes,
    structural_key,
)
from repro.strings.minimize import (
    minimize_dfa,
    moore_partition,
    moore_partition_reference,
)
from repro.strings.nfa import NFA
from repro.strings.ops import as_min_dfa, as_nfa, equivalent, includes


def random_nfa(rng: random.Random, max_states: int = 8) -> NFA:
    """A small random NFA over {a, b} (sometimes {a, b, c})."""
    num_states = rng.randint(1, max_states)
    states = list(range(num_states))
    alphabet = ["a", "b", "c"][: rng.choice([2, 2, 3])]
    transitions: dict = {}
    for state in states:
        for symbol in alphabet:
            if rng.random() < 0.7:
                targets = {
                    rng.choice(states)
                    for _ in range(rng.randint(1, min(3, num_states)))
                }
                transitions[(state, symbol)] = frozenset(targets)
    initials = {rng.choice(states)}
    finals = {s for s in states if rng.random() < 0.4} or {rng.choice(states)}
    return NFA(states, alphabet, transitions, initials, finals)


def assert_same_dfa(left: DFA, right: DFA) -> None:
    """The kernels preserve the exact frozenset state representation, so
    differential results must be *equal*, not merely isomorphic."""
    assert left.states == right.states
    assert left.transitions == right.transitions
    assert left.initial == right.initial
    assert left.finals == right.finals
    assert left.alphabet == right.alphabet


class TestDeterminizeDifferential:
    def test_randomized_nfas(self):
        # Half the cases run governed: a budget keeps them off the numpy
        # fast path, so the scalar loop every governed caller runs is
        # differentially tested too, charge for charge.
        rng = random.Random(20260806)
        for case in range(250):
            nfa = random_nfa(rng)
            keep_empty = case % 5 == 0
            if case % 2:
                meter, oracle_meter = Budget(), Budget()
                fast = determinize(nfa, keep_empty=keep_empty, budget=meter)
                slow = determinize_reference(
                    nfa, keep_empty=keep_empty, budget=oracle_meter
                )
                assert (meter.states, meter.steps) == (
                    oracle_meter.states,
                    oracle_meter.steps,
                )
            else:
                fast = determinize(nfa, keep_empty=keep_empty)
                slow = determinize_reference(nfa, keep_empty=keep_empty)
            assert_same_dfa(fast, slow)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_blowup_family(self, n):
        nfa = type_automaton(theorem_3_2_family(n).reduced())
        fast = determinize(nfa)
        slow = determinize_reference(nfa)
        assert_same_dfa(fast, slow)
        assert len(fast.states) >= 2**n

    def test_single_state_and_empty_alphabet_edges(self):
        lonely = NFA({0}, set(), {}, {0}, {0})
        assert_same_dfa(determinize(lonely), determinize_reference(lonely))
        dead = NFA({0, 1}, {"a"}, {}, {0}, {1})
        assert_same_dfa(determinize(dead), determinize_reference(dead))


class TestHopcroftDifferential:
    def _random_total_dfa(self, rng: random.Random) -> DFA:
        num_states = rng.randint(1, 9)
        states = list(range(num_states))
        alphabet = ["a", "b"]
        transitions = {
            (state, symbol): rng.choice(states)
            for state in states
            for symbol in alphabet
        }
        finals = {s for s in states if rng.random() < 0.4}
        return DFA(states, alphabet, transitions, 0, finals)

    def test_randomized_boolean_partitions(self):
        rng = random.Random(77)
        for _ in range(250):
            dfa = self._random_total_dfa(rng)
            initial = {state: (state in dfa.finals) for state in dfa.states}
            fast = moore_partition(
                dfa.states, dfa.alphabet, dfa.transitions, initial
            )
            slow = moore_partition_reference(
                dfa.states, dfa.alphabet, dfa.transitions, initial
            )
            assert fast == slow

    def test_randomized_arbitrary_partitions(self):
        # moore_partition also powers single-type EDTD minimization, where
        # the initial partition is by content model, not by finality.
        rng = random.Random(78)
        for _ in range(100):
            dfa = self._random_total_dfa(rng)
            initial = {state: state % 3 for state in dfa.states}
            fast = hopcroft_refine(
                dfa.states, dfa.alphabet, dfa.transitions, initial
            )
            slow = moore_partition_reference(
                dfa.states, dfa.alphabet, dfa.transitions, initial
            )
            assert fast == slow

    def test_blowup_family_minimal_sizes(self):
        from repro.strings.builders import nth_from_end_is

        for n in [2, 4, 6]:
            dfa = determinize(nth_from_end_is("a", "b", n))
            assert len(minimize_dfa(dfa).states) == 2 ** (n + 1)


class TestInclusionKernel:
    def test_differential_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(200):
            sup, sub = random_nfa(rng), random_nfa(rng)
            fast = nfa_includes(sup, sub)
            slow = (
                determinize_reference(sub)
                .difference(determinize_reference(sup))
                .is_empty_language()
            )
            assert fast == slow

    def test_early_exit_does_not_need_full_product(self):
        # sub accepts everything, sup accepts nothing over a big product
        # space; a counterexample (the empty word here) is found
        # immediately even under a budget far too small for the product.
        from repro.strings.builders import nth_from_end_is, sigma_star

        sup = nth_from_end_is("a", "b", 18)
        sub = sigma_star({"a", "b"}).to_nfa()
        assert not nfa_includes(sup, sub, budget=Budget(max_states=10))

    def test_budget_trips_on_positive_instances(self):
        from repro.strings.builders import nth_from_end_is

        nfa = nth_from_end_is("a", "b", 10)
        with pytest.raises(BudgetExceededError):
            nfa_includes(nfa, nfa, budget=Budget(max_states=20))


class TestCheckpointCompat:
    """Satellite 2: kernel checkpoints keep the frozenset format and are
    interchangeable with the reference implementation."""

    def _nfa(self):
        from repro.strings.builders import nth_from_end_is

        return nth_from_end_is("a", "b", 9)

    def test_kernel_resumes_own_checkpoint(self):
        nfa = self._nfa()
        full = determinize(nfa)
        with pytest.raises(BudgetExceededError) as info:
            determinize(nfa, budget=Budget(max_states=40))
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        resumed = determinize(nfa, checkpoint=checkpoint)
        assert_same_dfa(resumed, full)

    def test_checkpoints_interchangeable_with_reference(self):
        nfa = self._nfa()
        full = determinize_reference(nfa)
        with pytest.raises(BudgetExceededError) as from_reference:
            determinize_reference(nfa, budget=Budget(max_states=40))
        with pytest.raises(BudgetExceededError) as from_kernel:
            determinize(nfa, budget=Budget(max_states=40))
        # Reference checkpoint -> kernel resume, and vice versa.
        assert_same_dfa(
            determinize(nfa, checkpoint=from_reference.value.checkpoint), full
        )
        assert_same_dfa(
            determinize_reference(nfa, checkpoint=from_kernel.value.checkpoint),
            full,
        )

    def test_exhaustion_trips_at_same_state_counts(self):
        nfa = self._nfa()
        for limit in [1, 7, 40, 100]:
            with pytest.raises(BudgetExceededError) as fast:
                determinize(nfa, budget=Budget(max_states=limit))
            with pytest.raises(BudgetExceededError) as slow:
                determinize_reference(nfa, budget=Budget(max_states=limit))
            assert fast.value.reason == slow.value.reason == "max-states"
            assert (
                fast.value.progress.states_explored
                == slow.value.progress.states_explored
                == limit + 1
            )
            assert (
                fast.value.checkpoint.states_explored
                == slow.value.checkpoint.states_explored
            )

    def test_resume_across_multiple_interruptions(self):
        nfa = self._nfa()
        full = determinize(nfa)
        checkpoint = None
        for _ in range(200):
            try:
                resumed = determinize(
                    nfa, budget=Budget(max_states=48), checkpoint=checkpoint
                )
                break
            except BudgetExceededError as error:
                assert error.checkpoint is not None
                checkpoint = error.checkpoint
        else:
            pytest.fail("construction never completed")
        assert_same_dfa(resumed, full)


class TestMemoCache:
    def test_interning_and_counters(self):
        clear_caches()
        first = as_min_dfa("(a | b)*, a")
        before = cache_stats()["min_dfa"]
        second = as_min_dfa("(a | b)*, a")
        after = cache_stats()["min_dfa"]
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_structurally_equal_nfas_share_an_entry(self):
        clear_caches()
        def build():
            return NFA(
                {0, 1}, {"a"}, {(0, "a"): frozenset({0, 1})}, {0}, {1}
            )
        assert structural_key(build()) == structural_key(build())
        assert cached_min_dfa(build()) is cached_min_dfa(build())

    def test_hit_recharges_recorded_cost(self):
        clear_caches()
        def build():
            return as_nfa("(a | b)*, a, (a | b), (a | b)")
        cold = Budget()
        cached_min_dfa(build(), budget=cold)  # miss: real construction
        warm = Budget()
        cached_min_dfa(build(), budget=warm)  # hit: replayed cost
        assert cold.states > 0 and cold.steps > 0
        assert (warm.states, warm.steps) == (cold.states, cold.steps)

    def test_hit_still_trips_tight_budget(self):
        clear_caches()
        def build():
            return as_nfa("(a | b)*, a, (a | b), (a | b)")
        cached_min_dfa(build())  # populate
        with pytest.raises(BudgetExceededError):
            cached_min_dfa(build(), budget=Budget(max_states=2))

    def test_eviction_bound(self):
        cache = _KernelCache("test", max_entries=4)
        for i in range(10):
            cache.store(i, (i, 0, 0))
        assert len(cache.entries) == 4
        assert set(cache.entries) == {6, 7, 8, 9}

    def test_registry_holds_live_tiers_only(self):
        cache = _KernelCache("throwaway")
        cache.store("k", ("v", 0, 0))
        assert cache_stats()["throwaway"]["entries"] == 1
        del cache
        assert "throwaway" not in cache_stats()

    def test_uncacheable_inputs_still_work(self):
        class Odd:
            """Two distinct symbols with the same repr — uncacheable."""
            def __repr__(self):
                return "odd"
        x, y = Odd(), Odd()
        nfa = NFA(
            {0, 1},
            {x, y},
            {(0, x): frozenset({1}), (0, y): frozenset({1})},
            {0},
            {1},
        )
        assert structural_key(nfa) is None
        assert len(cached_min_dfa(nfa).states) == 2


class TestOpsRouting:
    def test_includes_and_equivalent_agree_with_reference_route(self):
        rng = random.Random(123)
        for _ in range(60):
            left, right = random_nfa(rng), random_nfa(rng)
            slow = (
                determinize_reference(right)
                .difference(determinize_reference(left))
                .is_empty_language()
            )
            assert includes(left, right) == slow

    def test_equivalent_unequal_alphabets(self):
        # a* over {a} vs. a* embedded in a larger alphabet: equal languages.
        small = as_min_dfa("a*")
        big = DFA({0}, {"a", "b"}, {(0, "a"): 0}, 0, {0})
        assert equivalent(small, big)
        assert equivalent(big, "a*")
        # Same shape, different symbol: not equal, refuted via the symbol
        # the other side lacks.
        assert not equivalent("a | b", "a | c")
        assert not equivalent("b", "c")
        # Sub uses a symbol sup's alphabet lacks entirely.
        assert not includes("a*", "a*, b")
        assert includes("(a | b)*", big)
        assert not includes(small, big.to_nfa().map_symbols(lambda s: "b"))
