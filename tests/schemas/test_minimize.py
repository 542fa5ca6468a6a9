"""Tests for single-type EDTD minimization ([20])."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.upper import minimal_upper_approximation
from repro.families.hard import example_2_6, theorem_3_2_family
from repro.families.random_schemas import random_edtd, random_single_type_edtd
from repro.schemas.inclusion import single_type_equivalent
from repro.schemas.minimize import canonical_dfa_key, minimize_single_type, type_minimal_size
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.text_format import dumps
from repro.schemas.type_automaton import type_automaton
from repro.strings.ops import as_min_dfa


class TestCanonicalKey:
    def test_equal_languages_equal_keys(self):
        k1 = canonical_dfa_key(as_min_dfa("a | b, a"), {"a", "b"})
        k2 = canonical_dfa_key(as_min_dfa("b?, a"), {"a", "b"})
        assert k1 == k2

    def test_different_languages_different_keys(self):
        k1 = canonical_dfa_key(as_min_dfa("a"), {"a"})
        k2 = canonical_dfa_key(as_min_dfa("a?"), {"a"})
        assert k1 != k2

    def test_alphabet_matters(self):
        k1 = canonical_dfa_key(as_min_dfa("a"), {"a"})
        k2 = canonical_dfa_key(as_min_dfa("a"), {"a", "b"})
        assert k1 != k2


class TestMinimization:
    def test_collapses_duplicate_types(self):
        # x1 and x2 are indistinguishable (same label, same content, same
        # continuations) and should merge.
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x1", "x2", "y"},
            rules={"r": "x1", "x1": "x2?", "x2": "x1?", "y": "~"},
            starts={"r"},
            mu={"r": "b", "x1": "a", "x2": "a", "y": "b"},
        )
        minimal = minimize_single_type(schema)
        assert len(minimal.types) == 2  # root + one recursive a-type
        assert single_type_equivalent(minimal, schema)

    def test_already_minimal_is_stable(self, store_schema):
        minimal = minimize_single_type(store_schema)
        assert len(minimal.types) == 3
        assert single_type_equivalent(minimal, store_schema)

    def test_unreachable_types_dropped(self):
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "island"},
            rules={"r": "~", "island": "~"},
            starts={"r"},
            mu={"r": "a", "island": "b"},
        )
        assert len(minimize_single_type(schema).types) == 1

    def test_canonical_output_for_equivalent_inputs(self, store_schema):
        m1 = minimize_single_type(store_schema)
        m2 = minimize_single_type(store_schema.relabel_types("zz"))
        assert len(m1.types) == len(m2.types)
        assert single_type_equivalent(m1, m2)

    @pytest.mark.parametrize("seed", range(10))
    def test_minimization_preserves_language_random(self, seed):
        schema = random_single_type_edtd(random.Random(seed))
        minimal = minimize_single_type(schema)
        assert single_type_equivalent(minimal, schema)
        assert len(minimal.types) <= len(schema.reduced().types)

    def test_idempotent(self, store_schema):
        once = minimize_single_type(store_schema)
        twice = minimize_single_type(once)
        assert len(once.types) == len(twice.types)

    def test_empty_language(self):
        empty = SingleTypeEDTD(
            alphabet={"a"}, types=set(), rules={}, starts=set(), mu={}
        )
        assert minimize_single_type(empty).types == frozenset()

    def test_plain_edtd_input(self):
        from repro.errors import SchemaError
        from repro.schemas.edtd import EDTD

        plain = EDTD(
            alphabet={"a", "b"},
            types={"r", "x"},
            rules={"r": "x*", "x": "~"},
            starts={"r"},
            mu={"r": "a", "x": "b"},
        )
        assert isinstance(minimize_single_type(plain), SingleTypeEDTD)
        with pytest.raises(SchemaError):
            minimize_single_type(example_2_6())

    def test_type_minimal_size(self, store_schema):
        assert type_minimal_size(store_schema) == 3

    def test_no_pairwise_merge_possible(self, store_schema):
        """Local minimality: merging any two types of the minimal schema
        changes the language (checked by brute force on all pairs)."""
        minimal = minimize_single_type(store_schema)
        types = sorted(minimal.types, key=repr)
        for i, t1 in enumerate(types):
            for t2 in types[i + 1:]:
                if minimal.mu[t1] != minimal.mu[t2]:
                    continue
                merged = _merge_types(minimal, t1, t2)
                if merged is None:
                    continue
                assert not single_type_equivalent(merged, minimal), (t1, t2)


#: sha256 over the ``dumps`` of every output of :func:`_golden_outputs`,
#: each followed by a NUL byte.  It was recorded from the earlier
#: minimizer, which converted to a DFA-based XSD, merged states of its
#: ancestor automaton and converted back; the Moore refinement on the
#: type automaton must print the same bytes.
GOLDEN_DIGEST = "4bd6ced2e2b5e71cbb4b8c0966726d39a380740545fe96fcdb1b8f9eb2285f05"


def _golden_outputs():
    """178 schemas: Construction 3.1 on Example 2.6 and D_2..D_4, on 20
    random EDTDs blind, self-guided and guided by Example 2.6, each with
    and without minimization, and 50 minimized random single-type
    EDTDs."""
    guide = example_2_6()
    for schema in [guide] + [theorem_3_2_family(n) for n in (2, 3, 4)]:
        for minimize in (False, True):
            yield minimal_upper_approximation(schema, minimize=minimize)
    for seed in range(20):
        schema = random_edtd(random.Random(seed))
        for strategy, by in (("blind", None), ("schema-guided", schema), ("schema-guided", guide)):
            for minimize in (False, True):
                yield minimal_upper_approximation(
                    schema, minimize=minimize, strategy=strategy, guide=by
                )
    for seed in range(50):
        yield minimize_single_type(random_single_type_edtd(random.Random(seed)))


def _type_automaton_is_complete(schema) -> bool:
    automaton = type_automaton(schema)
    return all(
        (state, symbol) in automaton.transitions
        for state in automaton.states
        for symbol in schema.alphabet
    )


class TestOutputBytes:
    def test_outputs_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for schema in _golden_outputs():
            digest.update(dumps(schema).encode("utf-8") + b"\0")
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_complete_type_automaton_gets_no_dead_state(self):
        # Construction 3.1 on D_2: every type has a child of every label,
        # so the refinement runs without a dead state, whose canonical
        # name would otherwise shift the block numbers.
        approximation = minimal_upper_approximation(theorem_3_2_family(2))
        assert _type_automaton_is_complete(approximation)
        assert dumps(minimize_single_type(approximation)) == (
            "alphabet: a b\n"
            "start: t3 t7\n"
            "t0 [a] -> (t0 | t4)?\n"
            "t1 [a] -> t0 | t4\n"
            "t2 [a] -> (t1 | t5)?\n"
            "t3 [a] -> t1 | t5\n"
            "t4 [b] -> (t2 | t6)?\n"
            "t5 [b] -> t2 | t6\n"
            "t6 [b] -> (t3 | t7)?\n"
            "t7 [b] -> t3 | t7\n"
        )

    def test_incomplete_type_automaton_gets_a_dead_state(self):
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x1", "x2", "y"},
            rules={"r": "x1, y?", "x1": "x2?", "x2": "x1?", "y": "~"},
            starts={"r"},
            mu={"r": "b", "x1": "a", "x2": "a", "y": "b"},
        )
        assert not _type_automaton_is_complete(schema)
        assert dumps(minimize_single_type(schema)) == (
            "alphabet: a b\n"
            "start: t1\n"
            "t0 [a] -> t0?\n"
            "t1 [b] -> t0 | t0, t2\n"
            "t2 [b] -> ~\n"
        )


def _merge_types(schema: SingleTypeEDTD, keep, drop):
    """Redirect all occurrences of `drop` to `keep`; None if ill-formed."""
    from repro.errors import SchemaError, NotSingleTypeError
    from repro.strings.dfa import DFA

    def rename(t):
        return keep if t == drop else t

    rules = {}
    for type_ in schema.types:
        if type_ == drop:
            continue
        dfa = schema.rules[type_]
        transitions = {}
        for (src, sym), dst in dfa.transitions.items():
            transitions[(src, rename(sym))] = dst
        rules[type_] = DFA(
            dfa.states,
            {rename(s) for s in dfa.alphabet},
            transitions,
            dfa.initial,
            dfa.finals,
        )
    try:
        return SingleTypeEDTD(
            alphabet=schema.alphabet,
            types={t for t in schema.types if t != drop},
            rules=rules,
            starts={rename(t) for t in schema.starts},
            mu={t: schema.mu[t] for t in schema.types if t != drop},
        )
    except (SchemaError, NotSingleTypeError):
        return None
