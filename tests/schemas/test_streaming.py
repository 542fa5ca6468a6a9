"""Tests for streaming one-pass validation."""

from __future__ import annotations

import random

import pytest

from repro.errors import ValidationError
from repro.families.random_schemas import random_single_type_edtd
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.streaming import (
    END,
    START,
    StreamingValidator,
    events_of_tree,
    validate_events,
    validate_xml_stream,
)
from repro.trees.generate import sample_tree
from repro.trees.tree import parse_tree, unary_tree
from repro.trees.xml_io import to_xml
from tests.strategies import mutate_tree


class TestEventsOfTree:
    def test_leaf(self):
        assert list(events_of_tree(parse_tree("a"))) == [(START, "a"), (END,)]

    def test_nested(self):
        events = list(events_of_tree(parse_tree("a(b, c)")))
        assert events == [
            (START, "a"),
            (START, "b"),
            (END,),
            (START, "c"),
            (END,),
            (END,),
        ]

    def test_balanced(self):
        events = list(events_of_tree(parse_tree("a(b(c), d(e(f)))")))
        assert sum(1 for e in events if e[0] == START) == sum(
            1 for e in events if e[0] == END
        )

    def test_deep_tree_does_not_recurse(self):
        events = list(events_of_tree(unary_tree(["a"] * 5000)))
        assert events == [(START, "a")] * 5000 + [(END,)] * 5000


class TestStreamingValidator:
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
                        schema.validate_top_down(document)
                    ), (seed, document)

    def test_fails_eagerly_on_bad_root(self, store_schema):
        validator = StreamingValidator(store_schema)
        with pytest.raises(ValidationError):
            validator.feed((START, "price"))

    def test_fails_eagerly_on_bad_child(self, store_schema):
        validator = StreamingValidator(store_schema)
        validator.feed((START, "store"))
        with pytest.raises(ValidationError):
            validator.feed((START, "price"))

    def test_fails_on_incomplete_content(self, store_schema):
        validator = StreamingValidator(store_schema)
        validator.feed((START, "store"))
        validator.feed((START, "item"))
        with pytest.raises(ValidationError):
            validator.feed((END,))  # item needs a price

    def test_fails_on_unclosed_elements(self, store_schema):
        validator = StreamingValidator(store_schema)
        validator.feed((START, "store"))
        with pytest.raises(ValidationError):
            validator.finish()

    def test_fails_on_second_root(self, store_schema):
        validator = StreamingValidator(store_schema)
        validator.feed((START, "store"))
        validator.feed((END,))
        with pytest.raises(ValidationError):
            validator.feed((START, "store"))

    def test_fails_on_stray_end(self, store_schema):
        validator = StreamingValidator(store_schema)
        with pytest.raises(ValidationError):
            validator.feed((END,))

    def test_empty_stream_rejected(self, store_schema):
        validator = StreamingValidator(store_schema)
        with pytest.raises(ValidationError):
            validator.finish()

    def test_depth_tracks_open_elements(self, store_schema):
        validator = StreamingValidator(store_schema)
        assert validator.depth == 0
        validator.feed((START, "store"))
        validator.feed((START, "item"))
        assert validator.depth == 2
        validator.feed((START, "price"))
        validator.feed((END,))
        assert validator.depth == 2


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
        validator = StreamingValidator(store_schema)
        assert validator._start_by_label is store_schema._start_by_label
        assert validator._child_type is store_schema._child_type
