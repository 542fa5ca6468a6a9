"""Robustness on very deep documents (beyond Python's recursion limit for
naive recursive implementations)."""

from __future__ import annotations

import sys

import pytest

from repro.schemas.edtd import EDTD
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.trees.tree import Tree, unary_tree

DEPTH = 1500
assert DEPTH > sys.getrecursionlimit() // 2  # the test is meaningful


@pytest.fixture(scope="module")
def deep_chain() -> Tree:
    return unary_tree("a" * DEPTH)


@pytest.fixture(scope="module")
def chain_schema() -> SingleTypeEDTD:
    return SingleTypeEDTD(
        alphabet={"a"},
        types={"t"},
        rules={"t": "t?"},
        starts={"t"},
        mu={"t": "a"},
    )


class TestDeepTrees:
    def test_construction(self, deep_chain):
        assert deep_chain.label == "a"

    def test_depth_and_size(self, deep_chain):
        assert deep_chain.depth() == DEPTH
        assert deep_chain.size() == DEPTH

    def test_labels(self, deep_chain):
        assert deep_chain.labels() == {"a"}

    def test_subtree_and_anc_str(self, deep_chain):
        path = (0,) * (DEPTH - 1)
        assert deep_chain.subtree(path).label == "a"
        assert len(deep_chain.anc_str(path)) == DEPTH

    def test_replace_at_deep_path(self, deep_chain):
        path = (0,) * (DEPTH - 1)
        replaced = deep_chain.replace_at(path, Tree("a", [Tree("a")]))
        assert replaced.size() == DEPTH + 1

    def test_map_labels(self, deep_chain):
        mapped = deep_chain.map_labels(lambda _: "b")
        assert mapped.labels() == {"b"}
        assert mapped.depth() == DEPTH

    def test_dom_iteration(self, deep_chain):
        assert sum(1 for _ in deep_chain.dom()) == DEPTH

    def test_to_word(self, deep_chain):
        assert len(deep_chain.to_word()) == DEPTH


class TestDeepValidation:
    def test_top_down_validation(self, chain_schema, deep_chain):
        assert chain_schema.accepts(deep_chain)

    def test_bottom_up_validation(self, chain_schema, deep_chain):
        bottom_up = EDTD(
            alphabet=chain_schema.alphabet,
            types=chain_schema.types,
            rules=chain_schema.rules,
            starts=chain_schema.starts,
            mu=chain_schema.mu,
        )
        assert bottom_up.accepts(deep_chain)
        branchy = deep_chain.replace_at((0,) * 10, Tree("a", [Tree("a"), Tree("a")]))
        assert not bottom_up.accepts(branchy)

    def test_streaming_validation(self, chain_schema, deep_chain):
        from repro.schemas.streaming import validate_events
        from repro.trees.xml_io import CLOSE, LEAF, OPEN

        events = [(OPEN, "a")] * (DEPTH - 1) + [(LEAF, "a")] + [(CLOSE, "a")] * (DEPTH - 1)
        assert validate_events(chain_schema, events)

    def test_typed_witness(self, chain_schema, deep_chain):
        bottom_up = EDTD(
            alphabet=chain_schema.alphabet,
            types=chain_schema.types,
            rules=chain_schema.rules,
            starts=chain_schema.starts,
            mu=chain_schema.mu,
        )
        witness = bottom_up.typed_witness(deep_chain)
        assert witness is not None
        assert witness.size() == DEPTH
