"""One pass from document text to verdict.

``CompiledSchema.validate`` on a string runs the linear tokenizer into
the stepwise evaluator, with no tree.  Its oracle is the tree route:
``from_xml`` followed by ``EDTD.possible_types_reference`` (and, on
single-type schemas, ``validate_top_down``).  Budgets charge one step per
element as it is read, so limits trip during the parse.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import compile_schema, validate
from repro.errors import BudgetExceededError, TreeSyntaxError
from repro.families.random_schemas import random_edtd
from repro.runtime import clock
from repro.runtime.budget import Budget
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.text_format import dumps
from repro.service import ValidationService
from repro.tree_automata import kernels
from repro.trees.generate import sample_tree
from repro.trees.tree import Tree
from repro.trees.xml_io import from_xml, to_xml
from tests.strategies import LABELS, examples, mutate_tree, single_type_edtds


def _renderings(tree: Tree) -> list[str]:
    indented = to_xml(tree)
    return [indented, "".join(line.strip() for line in indented.splitlines())]


def _tree_route(schema: EDTD, text: str) -> bool:
    return bool(schema.possible_types_reference(from_xml(text)) & schema.starts)


def _check_documents(schema: EDTD, seed: int) -> None:
    handle = compile_schema(schema)
    rng = random.Random(seed)
    labels = sorted(schema.alphabet, key=repr) + ["zz"]
    documents = []
    for _ in range(3):
        tree = sample_tree(schema, rng, target_size=rng.randint(1, 25))
        documents += [tree, mutate_tree(tree, rng, labels)]
    for tree in documents:
        for text in _renderings(tree):
            result = handle.validate(text)
            assert result.valid == _tree_route(schema, text), text
            assert result.usage.steps == tree.size()


@given(single_type_edtds(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=examples(60), deadline=None)
def test_single_type_verdicts_match_the_tree_route(schema, seed):
    _check_documents(schema, seed)
    handle = compile_schema(schema)
    rng = random.Random(seed)
    tree = mutate_tree(sample_tree(schema, rng, target_size=10), rng, LABELS)
    assert handle.validate(to_xml(tree)).valid == schema.validate_top_down(tree)


@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=examples(60), deadline=None)
def test_general_edtd_verdicts_match_the_tree_route(seed, num_types, num_labels):
    schema = random_edtd(random.Random(seed), num_labels=num_labels, num_types=num_types)
    _check_documents(schema, seed)


# ----------------------------------------------------------------------
# Budget trips land during the parse
# ----------------------------------------------------------------------

ELEMENTS = 5000
ROW = EDTD(
    alphabet={"r", "x"},
    types={"tr", "tx"},
    rules={"tr": "tx*", "tx": "~"},
    starts={"tr"},
    mu={"tr": "r", "tx": "x"},
)
# ELEMENTS valid elements, then a tag the tokenizer rejects.
BROKEN = "<r>" + "<x/>" * (ELEMENTS - 1) + "<x attr='1'/></r>"


class FakeClock:
    """A budget clock that moves one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture
def ticking_clock():
    previous = clock.install(FakeClock())
    try:
        yield
    finally:
        clock.uninstall(previous)


class TestTripDuringParse:
    def test_document_is_malformed(self):
        with pytest.raises(TreeSyntaxError, match="unsupported XML content"):
            compile_schema(ROW).validate(BROKEN)

    def test_max_steps_trips_before_the_syntax_error(self):
        with pytest.raises(BudgetExceededError) as caught:
            compile_schema(ROW).validate(BROKEN, budget=Budget(max_steps=100))
        assert caught.value.reason == "max-steps"
        assert caught.value.progress.steps == 101

    def test_deadline_trips_before_the_syntax_error(self, ticking_clock):
        # Every clock reading moves one second.  The budget reads the
        # clock a few times before the first token, then once per 1024
        # elements, so a 4.5 s deadline passes a few of those checks and
        # trips at one of them, long before element 5000.
        handle = compile_schema(ROW)
        budget = Budget(timeout=4.5)
        with pytest.raises(BudgetExceededError) as caught:
            handle.validate(BROKEN, budget=budget)
        assert caught.value.reason == "deadline"
        assert 0 < budget.steps < ELEMENTS
        assert budget.steps % 1024 == 0

    def test_expired_budget_trips_before_the_first_token(self, ticking_clock):
        budget = Budget(timeout=0.5)
        with pytest.raises(BudgetExceededError):
            compile_schema(ROW).validate("<<garbage", budget=budget)
        assert budget.steps == 0

    def test_invalid_verdict_still_reads_to_the_end(self):
        handle = compile_schema(ROW)
        invalid = "<x>" + "<x/>" * 10 + "</x>"  # wrong root label
        result = handle.validate(invalid)
        assert not result.valid and result.usage.steps == 11
        with pytest.raises(TreeSyntaxError, match="unclosed element"):
            handle.validate(invalid[:-4])

    def test_service_degrades_to_unknown(self, ticking_clock):
        async def scenario():
            service = ValidationService(capacity=2)
            info = await service.register_schema(dumps(ROW))
            by_steps = await service.validate(info["schema_id"], BROKEN, max_steps=100)
            by_deadline = await service.validate(
                info["schema_id"], BROKEN, deadline_ms=2500
            )
            return by_steps, by_deadline

        by_steps, by_deadline = asyncio.run(scenario())
        assert by_steps["verdict"] == "unknown"
        assert by_steps["error"]["reason"] == "max-steps"
        assert by_deadline["verdict"] == "unknown"
        assert by_deadline["error"]["reason"] == "deadline"


class TestDtdRouteIsGoverned:
    DTD_ROW = DTD(alphabet={"r", "x"}, rules={"r": "x*"}, starts={"r"})
    DOCUMENT = "<r>" + "<x/>" * 5000 + "</r>"

    def test_steps_equal_the_element_count(self):
        assert validate(self.DTD_ROW, self.DOCUMENT).usage.steps == 5001
        tree = from_xml(self.DOCUMENT)
        assert validate(self.DTD_ROW, tree).usage.steps == 5001

    def test_max_steps_trips(self):
        with pytest.raises(BudgetExceededError) as caught:
            validate(self.DTD_ROW, self.DOCUMENT, budget=Budget(max_steps=10))
        assert caught.value.reason == "max-steps"
        with pytest.raises(BudgetExceededError):
            validate(self.DTD_ROW, from_xml(self.DOCUMENT), budget=Budget(max_steps=10))

    def test_same_trip_as_the_edtd_route(self):
        edtd = self.DTD_ROW.to_edtd()
        for schema in (self.DTD_ROW, edtd):
            with pytest.raises(BudgetExceededError) as caught:
                validate(schema, self.DOCUMENT, budget=Budget(max_steps=10))
            assert caught.value.progress.steps == 11


# ----------------------------------------------------------------------
# The remembered transitions stay bounded
# ----------------------------------------------------------------------


def _remembered_entries(tables) -> int:
    return sum(len(row) for table in (tables.opens, tables.closes) for row in table.values())


def _general_documents(schema: EDTD, count: int) -> list[tuple[str, bool]]:
    rng = random.Random(5)
    labels = sorted(schema.alphabet, key=repr)
    documents = []
    for _ in range(count):
        tree = sample_tree(schema, rng, target_size=30)
        for candidate in (tree, mutate_tree(tree, rng, labels)):
            documents.append((to_xml(candidate), _tree_route(schema, to_xml(candidate))))
    return documents


class TestMemoCap:
    def test_verdicts_hold_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(kernels, "_STEP_MEMO_CAP", 3)
        schema = random_edtd(random.Random(11), num_labels=3, num_types=8)
        handle = compile_schema(schema)
        for text, expected in _general_documents(schema, 10):
            assert handle.validate(text).valid == expected
        assert _remembered_entries(kernels._tables_of(handle._reduced)) <= 3

    def test_cap_holds_under_threads(self, monkeypatch):
        monkeypatch.setattr(kernels, "_STEP_MEMO_CAP", 40)
        schema = random_edtd(random.Random(12), num_labels=3, num_types=8)
        handle = compile_schema(schema)
        documents = _general_documents(schema, 8)
        wrong: list[str] = []

        def work() -> None:
            for text, expected in documents * 3:
                if handle.validate(text).valid != expected:
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not wrong
        assert _remembered_entries(kernels._tables_of(handle._reduced)) <= 40
