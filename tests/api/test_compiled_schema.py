"""The compile-once handle lifecycle: `compile_schema` / `CompiledSchema`
and the free-function facade rebased on top of it."""

from __future__ import annotations

import pytest

import repro.cache as cache_mod
from repro.api import (
    CompiledSchema,
    approximate_upper,
    clear_handles,
    compile_schema,
    definability,
    schema_equivalent,
    schema_includes,
    validate,
)
from repro.errors import AutomatonError, BudgetExceededError
from repro.families.hard import example_2_6, theorem_3_2_family, theorem_3_6_family
from repro.observability import METRICS
from repro.runtime import Budget
from repro.schemas.text_format import dumps
from repro.schemas.type_automaton import is_single_type
from repro.trees.tree import parse_tree


@pytest.fixture(autouse=True)
def fresh_facade():
    clear_handles()
    METRICS.reset()
    yield
    clear_handles()
    METRICS.reset()


class TestCompileSchema:
    def test_returns_frozen_handle(self, store_schema):
        handle = compile_schema(store_schema)
        assert isinstance(handle, CompiledSchema)
        assert handle.schema is store_schema
        with pytest.raises(AttributeError):
            handle.schema_id = "nope"

    def test_accepts_text_source(self, store_schema):
        handle = compile_schema(dumps(store_schema))
        assert handle.validate("<store><item><price/></item></store>").valid

    def test_schema_id_is_content_addressed(self, store_schema):
        copy = store_schema.__class__(
            alphabet=set(store_schema.alphabet),
            types=set(store_schema.types),
            rules=dict(store_schema.rules),
            starts=set(store_schema.starts),
            mu=dict(store_schema.mu),
        )
        assert compile_schema(store_schema).schema_id == compile_schema(copy).schema_id

    def test_strategy_changes_schema_id(self, store_schema):
        blind = compile_schema(store_schema, strategy="blind")
        guided = compile_schema(store_schema, strategy="schema-guided")
        assert blind.schema_id != guided.schema_id

    def test_unknown_strategy_raises_before_compiling(self, store_schema):
        with pytest.raises(AutomatonError, match="unknown determinization strategy 'bogus'"):
            compile_schema(store_schema, strategy="bogus")

    def test_kernels_refuse_an_unknown_strategy_with_the_same_message(self, store_schema):
        from repro.schemas.type_automaton import type_automaton
        from repro.strings.determinize import determinize
        from repro.tree_automata.inclusion import bta_from_edtd

        with pytest.raises(AutomatonError) as facade:
            compile_schema(store_schema, strategy="bogus")
        with pytest.raises(AutomatonError) as strings:
            determinize(type_automaton(store_schema), strategy="bogus")
        with pytest.raises(AutomatonError) as trees:
            bta_from_edtd(store_schema).determinize(strategy="bogus")
        assert str(strings.value) == str(trees.value) == str(facade.value)
        assert str(facade.value) == (
            "unknown determinization strategy 'bogus' "
            "(expected 'blind' or 'schema-guided')"
        )

    def test_single_type_classification(self, store_schema):
        assert compile_schema(store_schema).is_single_type
        assert not compile_schema(example_2_6()).is_single_type


class TestHandleMethods:
    def test_validate_three_ways(self, store_schema):
        handle = compile_schema(store_schema)
        assert handle.validate("<store><item><price/></item></store>").valid
        assert not handle.validate("<store><price/></store>").valid
        assert handle.validate(parse_tree("store(item(price))")).valid

    def test_validate_charges_one_step_per_node(self, store_schema):
        handle = compile_schema(store_schema)
        doc = "<store><item><price/></item></store>"
        result = handle.validate(doc, budget=Budget(max_steps=10))
        assert result.usage.steps == 3
        with pytest.raises(BudgetExceededError) as info:
            handle.validate(doc, budget=Budget(max_steps=2))
        assert info.value.reason == "max-steps"

    def test_approximations_match_free_functions(self):
        edtd = example_2_6()
        handle = compile_schema(edtd)
        from_handle = handle.approximate_upper(minimize=True).schema
        from_free = approximate_upper(edtd, minimize=True).schema
        assert dumps(from_handle) == dumps(from_free)
        assert is_single_type(from_handle)
        lower = handle.approximate_lower(max_size=4).schema
        assert is_single_type(lower)

    def test_inclusion_and_equivalence(self, store_schema):
        edtd = example_2_6()
        handle = compile_schema(edtd)
        upper = handle.approximate_upper().schema
        assert compile_schema(upper).includes(edtd)
        assert not handle.includes(store_schema)
        assert compile_schema(upper).equivalent(upper)

    def test_definability(self, store_schema):
        report = compile_schema(store_schema).definability()
        assert report  # single-type schemas are trivially definable

    def test_guide_build_is_governed(self):
        # The guide's ancestor machine (2^12 + 1 subsets) is determinized
        # under the call's budget, and a trip there carries no checkpoint:
        # one would belong to the guide's construction, not the guided run.
        with pytest.raises(BudgetExceededError) as trip:
            approximate_upper(
                theorem_3_6_family(2)[0],
                strategy="schema-guided",
                guide=theorem_3_2_family(12),
                budget=Budget(max_states=1000),
            )
        assert trip.value.checkpoint is None
        assert trip.value.progress.states_explored > 1000


class TestOneCompilePerHandle:
    """The regression the redesign exists for: fingerprinting and
    reduction happen once per handle, never per call."""

    def _counting_key(self, monkeypatch):
        calls = {"count": 0}
        real = cache_mod.schema_structural_key

        def counted(edtd):
            calls["count"] += 1
            return real(edtd)

        monkeypatch.setattr(cache_mod, "schema_structural_key", counted)
        return calls

    def test_handle_methods_never_refingerprint(self, monkeypatch, tmp_path):
        edtd = example_2_6()
        calls = self._counting_key(monkeypatch)
        store = cache_mod.ArtifactCache(tmp_path / "cache")
        handle = compile_schema(edtd, cache=store)
        compiled = calls["count"]
        assert compiled >= 1
        handle.validate("<a><b/></a>")
        handle.approximate_upper()
        handle.approximate_upper(minimize=True)
        handle.approximate_lower(max_size=4)
        handle.definability()
        assert calls["count"] == compiled

    def test_free_functions_share_one_handle(self, monkeypatch):
        edtd = example_2_6()
        calls = self._counting_key(monkeypatch)
        approximate_upper(edtd)
        approximate_upper(edtd, minimize=True)
        validate(edtd, "<a><b/></a>")
        definability(edtd)
        assert calls["count"] == 1

    def test_inclusion_free_functions_reuse_handles(self, monkeypatch):
        edtd = example_2_6()
        calls = self._counting_key(monkeypatch)
        upper = approximate_upper(edtd).schema
        schema_includes(upper, edtd)
        schema_includes(upper, edtd)
        schema_equivalent(upper, upper)
        # one compile for edtd, one for upper — repeats are free
        assert calls["count"] == 2

    def test_handles_do_not_keep_schemas_alive(self):
        import gc
        import weakref

        edtd = example_2_6()
        ref = weakref.ref(edtd)
        validate(edtd, "<a><b/></a>")
        del edtd
        gc.collect()
        assert ref() is None


class TestDigestParity:
    """Handle-based calls hit the same persistent-cache digests as the
    pre-handle facade: a result written through one route is read back
    through the other."""

    def test_free_then_handle_is_a_disk_hit(self, tmp_path):
        edtd = example_2_6()
        store = cache_mod.ArtifactCache(tmp_path / "cache")
        first = approximate_upper(edtd, cache=store)
        hits_before = store.stats()["hits"]
        clear_handles()  # force a fresh handle: only the disk tier survives
        again = compile_schema(edtd, cache=store).approximate_upper()
        assert store.stats()["hits"] == hits_before + 1
        assert dumps(again.schema) == dumps(first.schema)
