"""Tests for streaming one-pass validation."""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.families.random_schemas import random_single_type_edtd
from repro.schemas import events_of_tree
from repro.schemas.edtd import EDTD
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.streaming import validate_events, validate_xml_stream
from repro.tree_automata.kernels import _tables_of
from repro.trees.generate import sample_tree
from repro.trees.tree import Tree, parse_tree, unary_tree
from repro.trees.xml_io import CLOSE, LEAF, OPEN, to_xml, xml_events
from tests.strategies import examples, mutate_tree, trees


def _reference(schema: EDTD, tree: Tree) -> bool:
    return bool(schema.possible_types_reference(tree) & schema.starts)


class TestEventsOfTree:
    def test_leaf(self):
        assert list(events_of_tree(parse_tree("a"))) == [(LEAF, "a")]

    def test_nested(self):
        events = list(events_of_tree(parse_tree("a(b, c(d))")))
        assert events == [
            (OPEN, "a"),
            (LEAF, "b"),
            (OPEN, "c"),
            (LEAF, "d"),
            (CLOSE, "c"),
            (CLOSE, "a"),
        ]

    def test_balanced(self):
        events = list(events_of_tree(parse_tree("a(b(c), d(e(f)))")))
        assert sum(1 for e in events if e[0] == OPEN) == sum(
            1 for e in events if e[0] == CLOSE
        )

    def test_deep_tree_does_not_recurse(self):
        events = list(events_of_tree(unary_tree(["a"] * 5000)))
        assert events == [(OPEN, "a")] * 4999 + [(LEAF, "a")] + [(CLOSE, "a")] * 4999

    @given(trees)
    @settings(max_examples=examples(200), deadline=None)
    def test_same_events_as_the_tokenizer(self, tree):
        assert list(events_of_tree(tree)) == list(xml_events(to_xml(tree)))

    def test_labels_of_any_hashable_type(self):
        # Tuples and ints are labels too; an end tag is never mistaken
        # for a node, whatever the label's type.
        tree = Tree(1, [Tree((2, "x")), Tree(1, [Tree(3)])])
        assert list(events_of_tree(tree)) == [
            (OPEN, 1),
            (LEAF, (2, "x")),
            (OPEN, 1),
            (LEAF, 3),
            (CLOSE, 1),
            (CLOSE, 1),
        ]

    def test_int_labels_validate(self):
        schema = EDTD(
            alphabet={1, 2},
            types={"r", "c"},
            rules={"r": "c*", "c": "~"},
            starts={"r"},
            mu={"r": 1, "c": 2},
        )
        cases = {
            Tree(1, [Tree(2)]): True,
            Tree(1, [Tree(2), Tree(2)]): True,
            Tree(1): True,
            Tree(2): False,
            Tree(1, [Tree(1)]): False,
            Tree(1, [Tree(2, [Tree(2)])]): False,
            Tree(1, [Tree(3)]): False,
            Tree("1", [Tree(2)]): False,
        }
        for tree, expected in cases.items():
            assert schema.accepts(tree) is expected, tree
            assert _reference(schema, tree) is expected, tree
            assert validate_events(schema, events_of_tree(tree)) is expected, tree


class TestStreamingValidator:
    """``validate_events``: tag events through the one evaluator, and
    ``False`` for any stream that is not one well-formed document."""

    def test_valid_document(self, store_schema):
        tree = parse_tree("store(item(price), item(price))")
        assert validate_events(store_schema, events_of_tree(tree))

    def test_agrees_with_tree_validation(self, store_schema, ab_universe_4):
        schema = store_schema
        docs = [
            "store",
            "store(item(price))",
            "store(item)",
            "store(price)",
            "item(price)",
            "store(item(price), price)",
        ]
        for source in docs:
            tree = parse_tree(source)
            assert validate_events(schema, events_of_tree(tree)) == schema.accepts(
                tree
            ), source

    def test_agrees_with_tree_validation_random(self, rng):
        for seed in range(6):
            schema = random_single_type_edtd(random.Random(seed))
            for _ in range(8):
                tree = sample_tree(schema, rng, target_size=12)
                assert validate_events(schema, events_of_tree(tree))
                mutated = mutate_tree(tree, rng, sorted(schema.alphabet))
                assert validate_events(
                    schema, events_of_tree(mutated)
                ) == schema.accepts(mutated), (seed, mutated)
                for document in (tree, mutated):
                    assert validate_xml_stream(schema, to_xml(document)) == (
                        _reference(schema, document)
                    ), (seed, document)

    def test_fails_eagerly_on_bad_root(self, store_schema):
        assert not validate_events(store_schema, [(LEAF, "price")])

    def test_fails_eagerly_on_bad_child(self, store_schema):
        events = [(OPEN, "store"), (LEAF, "price"), (CLOSE, "store")]
        assert not validate_events(store_schema, events)

    def test_fails_on_incomplete_content(self, store_schema):
        # item needs a price
        events = [(OPEN, "store"), (LEAF, "item"), (CLOSE, "store")]
        assert not validate_events(store_schema, events)

    def test_fails_on_unclosed_elements(self, store_schema):
        complete = [(OPEN, "store"), (OPEN, "item"), (LEAF, "price"), (CLOSE, "item")]
        assert validate_events(store_schema, complete + [(CLOSE, "store")])
        assert not validate_events(store_schema, complete)

    def test_fails_on_second_root(self, store_schema):
        events = [(OPEN, "store"), (CLOSE, "store")] * 2
        assert validate_events(store_schema, events[:2])
        assert not validate_events(store_schema, events)

    def test_fails_on_stray_end(self, store_schema):
        assert not validate_events(store_schema, [(CLOSE, "store")])
        mismatched = [(OPEN, "store"), (OPEN, "item"), (LEAF, "price"), (CLOSE, "store")]
        assert not validate_events(store_schema, mismatched + [(CLOSE, "store")])

    def test_fails_on_unknown_event_kind(self, store_schema):
        for event in (("start", "store"), ("end",), (OPEN,), "store", (OPEN, "store", 1)):
            assert not validate_events(store_schema, [event, (CLOSE, "store")]), event
            assert not validate_events(store_schema, [(OPEN, "store"), event]), event

    def test_empty_stream_rejected(self, store_schema):
        assert not validate_events(store_schema, [])


class TestXmlStream:
    def test_valid(self, store_schema):
        assert validate_xml_stream(
            store_schema, "<store><item><price/></item></store>"
        )

    def test_invalid_content(self, store_schema):
        assert not validate_xml_stream(store_schema, "<store><price/></store>")

    def test_not_well_formed(self, store_schema):
        assert not validate_xml_stream(store_schema, "<store><item></store>")
        assert not validate_xml_stream(store_schema, "<store></item>")

    def test_garbage(self, store_schema):
        assert not validate_xml_stream(store_schema, "<store>text</store>")

    def test_labels_are_ascii(self):
        # Tag names follow the shared tokenizer: a non-ASCII letter makes
        # the document malformed, even where the schema's label has one.
        for label, valid in (("abe", True), ("ab\u00e9", False)):
            leaf = SingleTypeEDTD(
                alphabet={label}, types={"t"}, rules={"t": "~"}, starts={"t"}, mu={"t": label}
            )
            assert validate_xml_stream(leaf, f"<{label}/>") is valid

    def test_no_depth_cap(self):
        chain = SingleTypeEDTD(
            alphabet={"a"}, types={"t"}, rules={"t": "t?"}, starts={"t"}, mu={"t": "a"}
        )
        # Deeper than from_xml's default cap of 200: streaming memory is
        # proportional to the depth anyway.
        assert validate_xml_stream(chain, "<a>" * 500 + "</a>" * 500)

    def test_validator_shares_the_schema_tables(self, store_schema):
        # Every route fills the one set of evaluator tables per schema.
        tables = _tables_of(store_schema)
        assert validate_events(
            store_schema, events_of_tree(parse_tree("store(item(price))"))
        )
        remembered = {parent: dict(row) for parent, row in tables.opens.items()}
        assert remembered
        # The same document by the other routes: every transition is
        # already remembered.
        assert validate_xml_stream(store_schema, "<store><item><price/></item></store>")
        assert store_schema.accepts(parse_tree("store(item(price))"))
        assert _tables_of(store_schema) is tables
        assert tables.opens == remembered
