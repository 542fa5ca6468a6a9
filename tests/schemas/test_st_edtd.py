"""Tests for single-type EDTDs and one-pass top-down validation."""

from __future__ import annotations

import random

import pytest

from repro.errors import NotSingleTypeError
from repro.families.hard import example_2_6
from repro.families.random_schemas import random_single_type_edtd
from repro.schemas.edtd import EDTD
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.trees.generate import enumerate_all_trees, sample_tree
from repro.trees.tree import parse_tree
from tests.strategies import mutate_tree


class TestConstruction:
    def test_valid_schema_accepted(self, store_schema):
        assert isinstance(store_schema, SingleTypeEDTD)

    def test_edc_violation_rejected(self):
        with pytest.raises(NotSingleTypeError):
            SingleTypeEDTD(
                alphabet={"a", "b"},
                types={"r", "t1", "t2"},
                rules={"r": "t1 | t2"},
                starts={"r"},
                mu={"r": "a", "t1": "b", "t2": "b"},
            )

    def test_from_edtd_upgrade(self, store_schema):
        plain = EDTD(
            alphabet=store_schema.alphabet,
            types=store_schema.types,
            rules=store_schema.rules,
            starts=store_schema.starts,
            mu=store_schema.mu,
        )
        upgraded = SingleTypeEDTD.from_edtd(plain)
        assert upgraded.accepts(parse_tree("store(item(price))"))

    def test_from_edtd_rejects_violation(self):
        with pytest.raises(NotSingleTypeError):
            SingleTypeEDTD.from_edtd(example_2_6())


class TestTopDownValidation:
    def test_accepts(self, store_schema):
        assert store_schema.validate_top_down(
            parse_tree("store(item(price), item(price))")
        )

    def test_rejects_wrong_root(self, store_schema):
        assert not store_schema.validate_top_down(parse_tree("item(price)"))

    def test_rejects_unknown_child_label(self, store_schema):
        assert not store_schema.validate_top_down(parse_tree("store(price)"))

    def test_rejects_content_violation(self, store_schema):
        assert not store_schema.validate_top_down(parse_tree("store(item)"))

    def test_rejects_final_state_violation(self):
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x"},
            rules={"r": "x, x", "x": "~"},
            starts={"r"},
            mu={"r": "a", "x": "b"},
        )
        assert not schema.validate_top_down(parse_tree("a(b)"))

    def test_agrees_with_bottom_up(self, ab_universe_4):
        schema = SingleTypeEDTD(
            alphabet={"a", "b"},
            types={"r", "x", "y"},
            rules={"r": "x*, y?", "x": "y?", "y": "~"},
            starts={"r"},
            mu={"r": "a", "x": "a", "y": "b"},
        )
        bottom_up = EDTD(
            alphabet=schema.alphabet,
            types=schema.types,
            rules=schema.rules,
            starts=schema.starts,
            mu=schema.mu,
        )
        for tree in ab_universe_4:
            assert schema.validate_top_down(tree) == bottom_up.accepts(tree), tree

    def test_agrees_with_bottom_up_random(self, rng):
        for seed in range(8):
            schema = random_single_type_edtd(random.Random(seed))
            bottom_up = EDTD(
                alphabet=schema.alphabet,
                types=schema.types,
                rules=schema.rules,
                starts=schema.starts,
                mu=schema.mu,
            )
            for _ in range(10):
                tree = sample_tree(schema, rng, target_size=12)
                assert schema.validate_top_down(tree)
                assert bottom_up.accepts(tree)
                # Mutate a node and cross-check both algorithms agree.
                mutated = mutate_tree(tree, rng, sorted(schema.alphabet))
                assert schema.validate_top_down(mutated) == bottom_up.accepts(
                    mutated
                ), mutated


class TestTypeOf:
    def test_types_along_path(self, store_schema):
        assert store_schema.type_of(("store",)) == "s"
        assert store_schema.type_of(("store", "item")) == "i"
        assert store_schema.type_of(("store", "item", "price")) == "p"

    def test_undefined_paths(self, store_schema):
        assert store_schema.type_of(()) is None
        assert store_schema.type_of(("item",)) is None
        assert store_schema.type_of(("store", "price")) is None

    def test_reduced_stays_single_type(self, store_schema):
        reduced = store_schema.reduced()
        assert isinstance(reduced, SingleTypeEDTD)

    def test_relabel_stays_single_type(self, store_schema):
        relabeled = store_schema.relabel_types()
        assert isinstance(relabeled, SingleTypeEDTD)
        assert relabeled.accepts(parse_tree("store(item(price))"))
