"""Tests for minimal upper XSD-approximations (Section 3)."""

from __future__ import annotations

import random

import pytest

from repro.closure.closure import bounded_closure
from repro.core.upper import (
    minimal_upper_approximation,
    upper_complement,
    upper_difference,
    upper_intersection,
    upper_union,
)
from repro.families.hard import example_2_6, theorem_4_3_d1_d2
from repro.families.random_schemas import random_edtd, random_single_type_edtd
from repro.schemas.edtd import EDTD
from repro.schemas.inclusion import included_in_single_type, single_type_equivalent
from repro.schemas.ops import edtd_union
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.type_automaton import is_single_type
from repro.trees.generate import enumerate_all_trees, enumerate_trees
from repro.trees.tree import parse_tree


class TestConstruction31:
    def test_result_is_single_type(self):
        upper = minimal_upper_approximation(example_2_6())
        assert is_single_type(upper)

    def test_contains_input_language(self):
        edtd = example_2_6()
        upper = minimal_upper_approximation(edtd)
        assert included_in_single_type(edtd, upper)

    def test_fixed_point_on_single_type_input(self, store_schema):
        upper = minimal_upper_approximation(store_schema)
        assert single_type_equivalent(upper, store_schema)

    def test_defines_closure_on_bounded_universe(self):
        d1, d2 = theorem_4_3_d1_d2()
        union = edtd_union(d1, d2)
        upper = minimal_upper_approximation(union)
        members = enumerate_trees(union, 6)
        closure = bounded_closure(members, max_size=6)
        upper_members = set(enumerate_trees(upper, 5))
        # Everything derivable is admitted ...
        assert {t for t in closure if t.size() <= 5} <= upper_members
        # ... and everything admitted (within the bound) is derivable.
        assert upper_members <= set(closure)

    def test_empty_language(self):
        empty = EDTD(alphabet={"a"}, types=set(), rules={}, starts=set(), mu={})
        upper = minimal_upper_approximation(empty)
        assert upper.is_empty_language()

    def test_minimize_flag(self):
        upper = minimal_upper_approximation(example_2_6(), minimize=True)
        plain = minimal_upper_approximation(example_2_6())
        assert single_type_equivalent(upper, plain)
        assert len(upper.types) <= len(plain.types)

    @pytest.mark.parametrize("seed", range(8))
    def test_upper_contains_random_edtds(self, seed):
        edtd = random_edtd(random.Random(seed), num_labels=3, num_types=5)
        upper = minimal_upper_approximation(edtd)
        assert included_in_single_type(edtd, upper), seed

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotence_random(self, seed):
        edtd = random_edtd(random.Random(50 + seed), num_labels=2, num_types=4)
        upper = minimal_upper_approximation(edtd)
        again = minimal_upper_approximation(upper)
        assert single_type_equivalent(upper, again), seed


class TestUpperUnion:
    def test_contains_both(self, ab_star_schema, ab_pair_schema):
        upper = upper_union(ab_star_schema, ab_pair_schema)
        assert included_in_single_type(ab_star_schema, upper)
        assert included_in_single_type(ab_pair_schema, upper)

    def test_theorem_4_3_union_overshoot(self):
        # The approximation of D1 | D2 must admit trees outside the union
        # (the union is not ST-definable).
        d1, d2 = theorem_4_3_d1_d2()
        union = edtd_union(d1, d2)
        upper = upper_union(d1, d2)
        mixed = parse_tree("a(a(b), a)")
        assert not union.accepts(mixed)
        assert upper.accepts(mixed)

    def test_pruning_guide_narrower_than_union(self):
        # Guiding union(d1, d2) by d2 alone prunes ancestor states d2 cannot
        # reach; the content models must shed the pruned child labels with
        # them (regression: DFAXSD used to reject the inconsistent pair).
        d1, d2 = theorem_4_3_d1_d2()
        blind = upper_union(d1, d2)
        guided = upper_union(d1, d2, strategy="schema-guided", guide=d2)
        assert len(guided.types) <= len(blind.types)
        # Exact on the guide's own language ...
        assert included_in_single_type(d2, guided)
        # ... and indistinguishable from blind inside the guide's universe.
        assert single_type_equivalent(
            upper_intersection(guided, d2), upper_intersection(blind, d2)
        )

    def test_pruning_guide_drops_unreachable_roots(self):
        # complement(d1) admits root labels d1's ancestor guide never
        # accepts; pruning must drop them from the start set (regression:
        # DFAXSD used to reject a start symbol with no initial transition).
        d1, _ = theorem_4_3_d1_d2()
        blind = upper_complement(d1)
        guided = upper_complement(d1, strategy="schema-guided", guide=d1)
        assert single_type_equivalent(
            upper_intersection(guided, d1), upper_intersection(blind, d1)
        )

    def test_exact_when_union_is_single_type(self, ab_star_schema):
        sub = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x"},
            rules={"r": "x, x", "x": "~"},
            starts={"r"},
            mu={"r": "a", "x": "b"},
        )
        upper = upper_union(ab_star_schema, sub)
        assert single_type_equivalent(upper, ab_star_schema)

    def test_quadratic_size_bound(self):
        from repro.families.hard import theorem_3_6_family

        d1, d2 = theorem_3_6_family(3)
        upper = upper_union(d1, d2)
        assert len(upper.types) <= len(d1.types) * len(d2.types) + len(d1.types) + len(d2.types)


class TestUpperIntersection:
    def test_exact(self, ab_star_schema, ab_universe_4):
        other = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x"},
            rules={"r": "x+", "x": "~"},
            starts={"r"},
            mu={"r": "a", "x": "b"},
        )
        inter = upper_intersection(ab_star_schema, other)
        for tree in ab_universe_4:
            assert inter.accepts(tree) == (
                ab_star_schema.accepts(tree) and other.accepts(tree)
            ), tree


class TestUpperComplement:
    def test_contains_complement(self, ab_pair_schema, ab_universe_4):
        upper = upper_complement(ab_pair_schema)
        for tree in ab_universe_4:
            if not ab_pair_schema.accepts(tree):
                assert upper.accepts(tree), tree

    def test_exact_for_leaf_schema(self, ab_universe_4):
        # The complement of {single a-leaf} is ST-definable (no exchange
        # between members can ever produce the lone a-leaf).
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r"},
            rules={"r": "~"},
            starts={"r"},
            mu={"r": "a"},
        )
        upper = upper_complement(schema)
        for tree in ab_universe_4:
            assert upper.accepts(tree) == (not schema.accepts(tree)), tree

    def test_overshoot_happens_when_needed(self, a_universe_5):
        # Complement of unary a-chains: "some node has >= 2 children".
        # Its minimal upper approximation over {a} must overshoot:
        # closure(complement) includes chains again.
        chains = SingleTypeEDTD(
            alphabet={"a"},
            types={"t"},
            rules={"t": "t?"},
            starts={"t"},
            mu={"t": "a"},
        )
        upper = upper_complement(chains)
        from repro.schemas.ops import complement_edtd

        comp = complement_edtd(chains)
        overshoot = [
            t for t in a_universe_5 if upper.accepts(t) and not comp.accepts(t)
        ]
        assert overshoot  # genuine approximation, not exact


class TestUpperDifference:
    def test_contains_difference(self, ab_star_schema, ab_pair_schema, ab_universe_4):
        upper = upper_difference(ab_star_schema, ab_pair_schema)
        for tree in ab_universe_4:
            if ab_star_schema.accepts(tree) and not ab_pair_schema.accepts(tree):
                assert upper.accepts(tree), tree

    def test_subset_of_minuend_when_possible(self, ab_star_schema, ab_pair_schema):
        # Here L1 - L2 is ST-definable (b* minus exactly-two-b), so the
        # approximation is exact and contained in L1.
        upper = upper_difference(ab_star_schema, ab_pair_schema)
        assert included_in_single_type(upper, ab_star_schema)
        assert not upper.accepts(parse_tree("a(b, b)"))
        assert upper.accepts(parse_tree("a(b)"))
        assert upper.accepts(parse_tree("a(b, b, b)"))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_difference_upper(self, seed):
        rng = random.Random(300 + seed)
        left = random_single_type_edtd(rng, num_labels=2, num_types=4)
        right = random_single_type_edtd(rng, num_labels=2, num_types=4)
        upper = upper_difference(left, right)
        universe = enumerate_all_trees(left.alphabet | right.alphabet, 4)
        for tree in universe:
            if left.accepts(tree) and not right.accepts(tree):
                assert upper.accepts(tree), (seed, tree)


class TestGuidedContentUnions:
    """The schema-guided strategy threads the guide through Construction
    3.1's content-model unions (not just the ancestor determinization):
    each union is determinized under the universal guide over the
    symbols actually leaving its subset state.  Differential invariant:
    with no pruning guide the guided path reproduces the blind result
    exactly."""

    def _schemas(self):
        yield example_2_6()
        yield theorem_4_3_d1_d2()[0]
        for seed in range(4):
            rng = random.Random(7000 + seed)
            yield random_edtd(rng, num_labels=3, num_types=5)

    def test_guided_equals_blind_with_no_pruning(self):
        from repro.schemas.text_format import dumps

        for edtd in self._schemas():
            blind = minimal_upper_approximation(edtd, minimize=True)
            guided = minimal_upper_approximation(
                edtd, minimize=True, strategy="schema-guided"
            )
            assert dumps(guided) == dumps(blind), edtd

    def test_guided_content_union_kernel_really_runs(self):
        from repro.strings.kernels import cache_stats, clear_caches

        clear_caches()
        minimal_upper_approximation(example_2_6(), strategy="schema-guided")
        stats = cache_stats()["schema_guided_min_dfa"]
        assert stats["misses"] > 0
        # A repeat run is pure memo hits: the key covers NFA and guide.
        before = stats["misses"]
        minimal_upper_approximation(example_2_6(), strategy="schema-guided")
        after = cache_stats()["schema_guided_min_dfa"]
        assert after["misses"] == before
        assert after["hits"] > 0

    def test_pruning_guide_restricts_content_models(self, store_schema):
        # Guided by the schema itself the approximation stays exact on
        # guide-valid documents.
        upper = minimal_upper_approximation(
            store_schema, strategy="schema-guided", guide=store_schema
        )
        assert upper.accepts(parse_tree("store(item(price))"))
        assert not upper.accepts(parse_tree("store(price)"))
