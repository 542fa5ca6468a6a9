"""CLI integration tests for the resource-governor flags and exit codes.

Contract: ``0`` success, ``1`` negative answer, ``2`` bad input / I/O,
``3`` resource budget exceeded — and every failure prints exactly one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import pytest

from repro.cli import EXIT_BAD_INPUT, EXIT_BUDGET_EXCEEDED, main
from repro.families.hard import theorem_3_2_family
from repro.schemas.text_format import dumps

ORDERS = """
start: o
o [order] -> i+
i [item]  -> p
p [price] -> ~
"""


@pytest.fixture
def orders(tmp_path):
    path = tmp_path / "orders.schema"
    path.write_text(ORDERS)
    return str(path)


@pytest.fixture
def hard(tmp_path):
    """A schema whose minimal upper approximation needs ~2^15 types."""
    path = tmp_path / "hard.schema"
    path.write_text(dumps(theorem_3_2_family(14)))
    return str(path)


class TestBudgetFlags:
    def test_max_states_exits_3(self, hard, capsys):
        assert main(["--max-states", "10000", "to-xsd", hard]) == EXIT_BUDGET_EXCEEDED
        err = capsys.readouterr().err
        assert err.startswith("error: budget exceeded (max-states)")
        assert err.count("\n") == 1  # exactly one diagnostic line

    def test_timeout_and_max_states_exit_3(self, hard, capsys):
        rc = main(["--timeout", "1", "--max-states", "10000", "to-xsd", hard])
        assert rc == EXIT_BUDGET_EXCEEDED
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "states explored" in err

    def test_max_steps_exits_3(self, hard, capsys):
        assert main(["--max-steps", "500", "to-xsd", hard]) == EXIT_BUDGET_EXCEEDED
        assert "max-steps" in capsys.readouterr().err

    def test_generous_budget_matches_ungoverned(self, orders, tmp_path, capsys):
        governed = tmp_path / "governed.schema"
        plain = tmp_path / "plain.schema"
        assert main(["--timeout", "120", "to-xsd", orders, "-o", str(governed)]) == 0
        assert main(["to-xsd", orders, "-o", str(plain)]) == 0
        assert governed.read_text() == plain.read_text()

    def test_flags_without_trip_are_transparent(self, orders, capsys):
        assert main(["--max-states", "100000", "info", orders]) == 0
        out = capsys.readouterr().out
        assert "single-type:  True" in out

    def test_negative_timeout_is_bad_input(self, orders, capsys):
        assert main(["--timeout", "-1", "info", orders]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_timeout_is_bad_input(self, orders, capsys):
        assert main(["--timeout", "nan", "info", orders]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")


class TestBadInputExitCode:
    def test_missing_schema_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/path.schema"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_malformed_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.schema"
        bad.write_text("this is not a schema\n")
        assert main(["info", str(bad)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_hostile_xml_document_exits_2(self, orders, tmp_path, capsys):
        doc = tmp_path / "bomb.xml"
        doc.write_text(
            '<!DOCTYPE order [<!ENTITY a "aaaa">]>\n<order><item><price/></item></order>'
        )
        assert main(["validate", orders, str(doc)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "DTD and entity declarations are rejected" in err
        assert "line 1" in err


class TestValidateIsGoverned:
    """``validate`` reads the document in one governed pass, so the
    budget flags cover the document as well as the schema."""

    @pytest.fixture
    def purchase_order(self, tmp_path):
        import random

        from repro.families.real_world import purchase_orders_v1
        from repro.trees.generate import sample_tree
        from repro.trees.xml_io import to_xml

        schema = purchase_orders_v1()
        tree = sample_tree(schema, random.Random(1), target_size=200)
        assert tree.size() == 144
        schema_path = tmp_path / "po.schema"
        document_path = tmp_path / "po.xml"
        schema_path.write_text(dumps(schema))
        document_path.write_text(to_xml(tree))
        return str(schema_path), str(document_path)

    def test_unlimited_is_valid(self, purchase_order, capsys):
        assert main(["validate", *purchase_order]) == 0
        assert capsys.readouterr().out == "valid\n"

    @pytest.fixture
    def measured_steps(self, purchase_order):
        """The steps one unlimited ``repro validate`` of the purchase order
        charges: loading and compiling the schema, then one step per
        element."""
        from repro.api import validate
        from repro.runtime import Budget
        from repro.schemas.text_format import load_file

        schema_path, document_path = purchase_order
        budget = Budget()
        with budget, open(document_path, encoding="utf-8") as document:
            validate(load_file(schema_path), document.read())
        return budget.steps

    def test_max_steps_covers_the_document(self, purchase_order, measured_steps, capsys):
        # Enough for loading and compiling the schema and half of the
        # document's 144 elements: the trip lands on element 73.
        schema_steps = measured_steps - 144
        limit = schema_steps + 72
        assert main(["--max-steps", str(limit), "validate", *purchase_order]) == (
            EXIT_BUDGET_EXCEEDED
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: budget exceeded (max-steps)")
        assert f"{limit + 1} steps" in captured.err

    def test_the_last_element_trips(self, purchase_order, measured_steps, capsys):
        total = measured_steps
        assert main(["--max-steps", str(total), "validate", *purchase_order]) == 0
        assert capsys.readouterr().out == "valid\n"
        limit = str(total - 1)
        assert main(["--max-steps", limit, "validate", *purchase_order]) == EXIT_BUDGET_EXCEEDED
        assert f"{total} steps" in capsys.readouterr().err

    def test_timeout_covers_the_document(self, purchase_order, capsys):
        assert main(["--timeout", "0", "validate", *purchase_order]) == EXIT_BUDGET_EXCEEDED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: budget exceeded (deadline)")
