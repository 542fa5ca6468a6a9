"""Differential and regression tests for the tree-automata kernels (PR 7).

* bitmask BTA subset construction vs. the round-based reference —
  identical (not just isomorphic) automata on randomized BTAs, the
  theorem-3.2 blow-up family, and Example 2.6, under both the numpy and
  the scalar code paths;
* lazy-product difference-emptiness vs. the full-rescan reference;
* arena runs (``possible_states``, EDTD validation) vs. the recursive /
  path-dict references, including documents deeper than the recursion
  limit;
* budget-trip parity — kernel and reference trip at the same state
  counts — and kernel checkpoint resume across repeated interruptions;
* the memo caches — interning, recorded-cost budget recharging, and
  trip-on-hit for ``cached_bta_determinize`` / ``cached_bta_from_edtd``
  / the ``edtd_includes`` verdict cache / ``monoid_from_edtd``.
"""

from __future__ import annotations

import random

import pytest

import repro.tree_automata.kernels as kernels
from repro.errors import BudgetExceededError
from repro.families.hard import example_2_6, theorem_3_2_family
from repro.families.random_schemas import random_edtd
from repro.runtime.budget import Budget
from repro.strings.kernels import cache_stats, clear_caches
from repro.tree_automata.bta import BTA
from repro.tree_automata.inclusion import (
    bta_difference_empty,
    bta_difference_empty_reference,
    bta_from_edtd,
    edtd_includes,
)
from repro.tree_automata.kernels import (
    bta_structural_key,
    cached_bta_determinize,
    cached_bta_from_edtd,
)
from repro.tree_automata.monoid import monoid_from_edtd
from repro.trees import Tree, leaf
from repro.trees.generate import sample_tree


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def random_bta(rng: random.Random, max_states: int = 7) -> BTA:
    """A small random BTA over a two- or three-letter alphabet."""
    num_states = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(num_states)]
    labels = ["a", "b", "c"][: rng.choice([2, 2, 3])]
    leaf_rules: dict = {}
    for label in labels:
        targets = {q for q in states if rng.random() < 0.4}
        if targets:
            leaf_rules[label] = targets
    internal: dict = {}
    for label in labels:
        for q1 in states:
            for q2 in states:
                if rng.random() < 0.25:
                    targets = {
                        rng.choice(states)
                        for _ in range(rng.randint(1, min(3, num_states)))
                    }
                    internal[(label, q1, q2)] = targets
    finals = {q for q in states if rng.random() < 0.4} or {rng.choice(states)}
    return BTA(states, labels, leaf_rules, internal, finals)


def random_binary_tree(rng: random.Random, labels: str = "abc", size: int = 21) -> Tree:
    """A random binary tree (every node has zero or two children)."""
    tree = leaf(rng.choice(labels))
    for _ in range(size // 2):
        tree = Tree(
            rng.choice(labels),
            [tree, leaf(rng.choice(labels))]
            if rng.random() < 0.5
            else [leaf(rng.choice(labels)), tree],
        )
    return tree


def spine_bta(k: int) -> BTA:
    """The 'k-th left-spine label from the bottom is b' BTA: determinizing
    it reaches ~2**k subsets (a string-NFA blow-up lifted onto the left
    spine of binary combs), so budgets have room to trip."""
    states = [f"q{i}" for i in range(k + 1)] + ["pad"]
    leaf_rules = {"a": {"q0"}, "b": {"q0", "q1"}, "p": {"pad"}}
    internal: dict = {}
    for label in ("a", "b"):
        for i in range(k):
            targets = {"q0", "q1"} if label == "b" else {"q0"}
            if i > 0:
                targets = targets | {f"q{i + 1}"}
            internal[(label, f"q{i}", "pad")] = targets
    return BTA(states, ["a", "b", "p"], leaf_rules, internal, {f"q{k}"})


def assert_same_bta(left: BTA, right: BTA) -> None:
    """Kernel results keep the exact frozenset subset states of the
    reference, so differential results must be *equal*, not isomorphic."""
    assert left.states == right.states
    assert left.alphabet == right.alphabet
    assert left.finals == right.finals
    assert {k: frozenset(v) for k, v in left.leaf_rules.items()} == {
        k: frozenset(v) for k, v in right.leaf_rules.items()
    }
    assert {k: frozenset(v) for k, v in left.internal_rules.items()} == {
        k: frozenset(v) for k, v in right.internal_rules.items()
    }


class TestDeterminizeDifferential:
    def test_randomized_btas(self, monkeypatch):
        rng = random.Random(20260808)
        for case in range(80):
            bta = random_bta(rng)
            monkeypatch.setattr(kernels, "USE_FAST_PATH", case % 2 == 0)
            assert_same_bta(bta.determinize(), bta.determinize_reference())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blowup_family(self, n):
        bta = bta_from_edtd(theorem_3_2_family(n))
        assert_same_bta(bta.determinize(), bta.determinize_reference())

    def test_example_2_6(self):
        bta = bta_from_edtd(example_2_6())
        det = bta.determinize()
        assert_same_bta(det, bta.determinize_reference())
        assert det.is_deterministic()

    def test_scalar_and_fast_paths_agree(self, monkeypatch):
        bta = spine_bta(5)
        monkeypatch.setattr(kernels, "USE_FAST_PATH", False)
        scalar = bta.determinize()
        monkeypatch.setattr(kernels, "USE_FAST_PATH", True)
        assert_same_bta(bta.determinize(), scalar)

    def test_governed_run_matches_ungoverned(self):
        bta = spine_bta(5)
        assert_same_bta(bta.determinize(budget=Budget()), bta.determinize())

    def test_degenerate_automata(self):
        no_rules = BTA(["q"], ["a"], {}, {}, ["q"])
        assert_same_bta(no_rules.determinize(), no_rules.determinize_reference())
        leaf_only = BTA(["q"], ["a"], {"a": {"q"}}, {}, ["q"])
        assert_same_bta(leaf_only.determinize(), leaf_only.determinize_reference())


class TestDifferenceEmptyDifferential:
    def test_randomized_pairs(self):
        rng = random.Random(404)
        for _ in range(60):
            left, right = random_bta(rng), random_bta(rng)
            assert bta_difference_empty(left, right) == bta_difference_empty_reference(
                left, right
            )

    def test_self_inclusion_always_holds(self):
        rng = random.Random(405)
        for _ in range(20):
            bta = random_bta(rng)
            assert bta_difference_empty(bta, bta)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_blowup_family_pairs(self, n):
        smaller = bta_from_edtd(theorem_3_2_family(n))
        larger = bta_from_edtd(theorem_3_2_family(n + 1))
        for left, right in [(smaller, larger), (larger, smaller), (smaller, smaller)]:
            assert bta_difference_empty(left, right) == bta_difference_empty_reference(
                left, right
            )

    def test_early_counterexample_beats_tiny_budget(self):
        # L(spine(8)) is nonempty while the second automaton is empty: a
        # counterexample pair surfaces long before the full product.
        left = spine_bta(8)
        empty = BTA(["q"], ["a", "b", "p"], {}, {}, ["q"])
        assert not bta_difference_empty(left, empty, budget=Budget(max_states=10))

    def test_budget_trips_on_positive_instances(self):
        bta = spine_bta(8)
        with pytest.raises(BudgetExceededError):
            bta_difference_empty(bta, bta, budget=Budget(max_states=10))


class TestArenaRuns:
    def test_possible_states_random(self):
        rng = random.Random(777)
        for _ in range(60):
            bta = random_bta(rng)
            tree = random_binary_tree(rng)
            assert bta.possible_states(tree) == bta.possible_states_reference(tree)

    def test_accepts_agrees_with_reference_run(self):
        rng = random.Random(778)
        for _ in range(40):
            bta = random_bta(rng)
            tree = random_binary_tree(rng)
            reference = bool(bta.possible_states_reference(tree) & bta.finals)
            assert bta.accepts(tree) == reference

    def test_deep_comb_does_not_recurse(self):
        depth = 3000
        tree = leaf("a")
        for _ in range(depth):
            tree = Tree("a", [tree, leaf("p")])
        bta = spine_bta(4)
        with pytest.raises(RecursionError):
            bta.possible_states_reference(tree)
        states = bta.possible_states(tree)
        assert "q0" in states

    def test_non_binary_trees_are_rejected(self):
        bta = spine_bta(3)
        with pytest.raises(Exception):
            bta.possible_states(Tree("a", [leaf("a")]))


class TestEDTDValidation:
    def test_possible_types_random_schemas(self):
        rng = random.Random(1234)
        for _ in range(25):
            schema = random_edtd(rng)
            for _ in range(4):
                tree = sample_tree(schema, rng, target_size=25)
                assert schema.possible_types(tree) == schema.possible_types_reference(
                    tree
                )
                assert schema.accepts(tree)

    def test_rejections_agree(self):
        rng = random.Random(1235)
        for _ in range(25):
            schema = random_edtd(rng)
            tree = sample_tree(schema, rng, target_size=25)
            # Relabel one node; the mutants exercise the rejecting paths.
            paths = [path for path, _ in tree.nodes()]
            victim = rng.choice(paths)
            mutant = tree.replace_at(
                victim, Tree(rng.choice(sorted(schema.alphabet, key=repr)))
            )
            assert schema.possible_types(mutant) == schema.possible_types_reference(
                mutant
            )
            reference_accepts = bool(
                schema.starts & schema.possible_types_reference(mutant)
            )
            assert schema.accepts(mutant) == reference_accepts

    def test_deep_document_validation(self):
        # Both sides are iterative; they must agree on documents far
        # deeper than the recursion limit.
        schema = theorem_3_2_family(2)
        label = next(iter(schema.mu.values()))
        deep = Tree(label)
        for _ in range(3000):
            deep = Tree(label, [deep])
        assert schema.possible_types(deep) == schema.possible_types_reference(deep)


class TestBudgetTripParity:
    def test_determinize_trips_at_same_state_counts(self):
        bta = spine_bta(7)
        for limit in [1, 7, 40, 100]:
            with pytest.raises(BudgetExceededError) as fast:
                bta.determinize(budget=Budget(max_states=limit))
            with pytest.raises(BudgetExceededError) as slow:
                bta.determinize_reference(budget=Budget(max_states=limit))
            assert fast.value.reason == slow.value.reason == "max-states"
            assert (
                fast.value.progress.states_explored
                == slow.value.progress.states_explored
                == limit + 1
            )

    def test_kernel_trip_carries_checkpoint(self):
        bta = spine_bta(7)
        with pytest.raises(BudgetExceededError) as info:
            bta.determinize(budget=Budget(max_states=40))
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        # 41 charged subsets plus the three uncharged leaf-seed subsets.
        assert checkpoint.states_explored == 41 + 3
        assert checkpoint.frontier_size > 0


class TestCheckpointResume:
    def test_kernel_resumes_own_checkpoint(self):
        bta = spine_bta(7)
        full = bta.determinize()
        with pytest.raises(BudgetExceededError) as info:
            bta.determinize(budget=Budget(max_states=40))
        resumed = bta.determinize(checkpoint=info.value.checkpoint)
        assert_same_bta(resumed, full)

    def test_resume_across_multiple_interruptions(self):
        bta = spine_bta(7)
        full = bta.determinize()
        checkpoint = None
        for _ in range(300):
            try:
                resumed = bta.determinize(
                    budget=Budget(max_states=24), checkpoint=checkpoint
                )
                break
            except BudgetExceededError as error:
                assert error.checkpoint is not None
                checkpoint = error.checkpoint
        else:
            pytest.fail("construction never completed")
        assert_same_bta(resumed, full)

    def test_resumed_run_is_governed_not_fast(self):
        # checkpoint= forces the scalar worklist even when numpy is
        # available; the result must still be exact.
        bta = spine_bta(6)
        with pytest.raises(BudgetExceededError) as info:
            bta.determinize(budget=Budget(max_states=5))
        resumed = bta.determinize(
            budget=Budget(), checkpoint=info.value.checkpoint
        )
        assert_same_bta(resumed, bta.determinize_reference())


class TestMemoCaches:
    def test_cached_determinize_interns_structural_equals(self):
        first = cached_bta_determinize(spine_bta(4))
        before = cache_stats()["bta_determinize"]
        second = cached_bta_determinize(spine_bta(4))
        after = cache_stats()["bta_determinize"]
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_structural_key_separates_distinct_automata(self):
        assert bta_structural_key(spine_bta(4)) == bta_structural_key(spine_bta(4))
        assert bta_structural_key(spine_bta(4)) != bta_structural_key(spine_bta(5))

    def test_hit_recharges_recorded_cost(self):
        cold = Budget()
        cached_bta_determinize(spine_bta(5), budget=cold)
        warm = Budget()
        cached_bta_determinize(spine_bta(5), budget=warm)
        assert cold.states > 0
        assert (warm.states, warm.steps) == (cold.states, cold.steps)

    def test_hit_still_trips_tight_budget(self):
        cached_bta_determinize(spine_bta(5))
        with pytest.raises(BudgetExceededError):
            cached_bta_determinize(spine_bta(5), budget=Budget(max_states=2))

    def test_uncacheable_btas_still_work(self):
        class Odd:
            def __repr__(self):
                return "odd"

        x, y = Odd(), Odd()
        bta = BTA(
            [0, 1],
            [x, y],
            {x: {0}, y: {0}},
            {(x, 0, 0): {1}},
            [1],
        )
        assert bta_structural_key(bta) is None
        det = cached_bta_determinize(bta)
        assert_same_bta(det, bta.determinize_reference())

    def test_cached_bta_from_edtd_interns_by_schema(self):
        first = cached_bta_from_edtd(example_2_6())
        before = cache_stats()["bta_from_edtd"]
        second = cached_bta_from_edtd(example_2_6())
        after = cache_stats()["bta_from_edtd"]
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert_same_bta(first, bta_from_edtd(example_2_6()))

    def test_edtd_includes_verdict_is_cached(self):
        schema = example_2_6()
        verdict = edtd_includes(schema, schema)
        assert verdict is True
        before = cache_stats()["bta_inclusion"]
        assert edtd_includes(schema, schema) is True
        after = cache_stats()["bta_inclusion"]
        assert after["hits"] == before["hits"] + 1

    def test_clear_caches_resets_counters(self):
        cached_bta_determinize(spine_bta(4))
        cached_bta_determinize(spine_bta(4))
        clear_caches()
        stats = cache_stats()["bta_determinize"]
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0


class TestMonoidFromEDTD:
    def test_generators_cover_every_type(self):
        schema = example_2_6()
        monoid, generators = monoid_from_edtd(schema)
        assert set(generators) == set(schema.types)
        for element in generators.values():
            assert element in monoid.elements

    def test_equal_elements_act_equally_on_every_content_model(self):
        rng = random.Random(55)
        schema = example_2_6()
        monoid, generators = monoid_from_edtd(schema)
        types = sorted(schema.types, key=repr)

        def element_of(word):
            value = monoid.identity
            for type_ in word:
                value = monoid.add(value, generators[type_])
            return value

        def run(word, type_):
            dfa = schema.rules[type_]
            state = dfa.initial
            for symbol in word:
                if state is None:
                    return None
                state = dfa.successor(state, symbol)
            return state

        words = [
            tuple(rng.choice(types) for _ in range(rng.randint(0, 4)))
            for _ in range(40)
        ]
        for one in words:
            for other in words:
                if element_of(one) == element_of(other):
                    for type_ in types:
                        assert run(one, type_) == run(other, type_)

    def test_memoized_with_recharge(self):
        schema = example_2_6()
        cold = Budget()
        first, _ = monoid_from_edtd(schema, budget=cold)
        before = cache_stats()["edtd_monoid"]
        warm = Budget()
        second, _ = monoid_from_edtd(schema, budget=warm)
        after = cache_stats()["edtd_monoid"]
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert (warm.states, warm.steps) == (cold.states, cold.steps)
