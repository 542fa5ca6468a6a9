"""One pass from document to verdict.

``CompiledSchema.validate`` on a string runs the linear tokenizer into
the stepwise evaluator, with no tree; on a ``Tree`` it runs the tree's
tag events into the same evaluator.  Its oracle is the tree route:
``from_xml`` followed by ``EDTD.possible_types_reference``.  Budgets
charge one step per element as it is read, so limits trip during the
parse, and at the same element for a tree as for its text.  The service
runs the same evaluator in slices: its answers, steps, trip points and
errors must equal the synchronous driver's, other tasks must run between
slices, and a cancelled validation must unwind in its own task.
"""

from __future__ import annotations

import asyncio
import gc
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro import observability as _obs
from repro.api import compile_schema, validate
from repro.cache import store as _cache_store
from repro.errors import BudgetExceededError, TreeSyntaxError
from repro.faults import current_plan
from repro.families.random_schemas import random_edtd, random_single_type_edtd
from repro.runtime import clock
from repro.runtime.budget import Budget, current_budget
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.text_format import dumps, loads
from repro.service import ValidationService
from repro.tree_automata import kernels
from repro.tree_automata.kernels import SLICE_EVENTS
from repro.trees.generate import sample_tree
from repro.trees.tree import Tree
from repro.trees.xml_io import CLOSE, events_of_tree, from_xml, to_xml, xml_events
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
    expected = bool(schema.possible_types_reference(tree) & schema.starts)
    assert handle.validate(to_xml(tree)).valid == expected


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

    def test_handle_is_memoized_on_the_dtd(self):
        dtd = DTD(alphabet={"r", "x"}, rules={"r": "x*"}, starts={"r"})
        assert validate(dtd, "<r><x/></r>").valid
        handle = getattr(dtd, api._HANDLE_ATTR)
        assert not validate(dtd, "<x/>").valid
        assert getattr(dtd, api._HANDLE_ATTR) is handle
        assert handle.is_single_type
        for tree in (from_xml("<r><x/><x/></r>"), from_xml("<r><r/></r>")):
            assert validate(dtd, tree).valid == dtd.accepts(tree)


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


# ----------------------------------------------------------------------
# Slices: the service's sliced driver against the synchronous one
# ----------------------------------------------------------------------

# A general EDTD: two `div` types in one content model, so the evaluator
# carries two candidates per open `div`.
DEEP_TEXT = """\
alphabet: doc div p
start: t_doc
t_doc [doc] -> (t_d1 | t_d2)*
t_d1 [div] -> t_p, (t_d1 | t_d2)*
t_d2 [div] -> (t_d1 | t_d2)*, t_p, t_p
t_p [p] -> ~
"""
DEEP = loads(DEEP_TEXT)


def _deep_document(columns: int, levels: int, break_at=None) -> tuple[str, int]:
    """Columns of *levels* nested divs, each typed t_d1 or t_d2 at random,
    and its element count.  The div at (column, level) *break_at* gets
    one trailing p instead of two, which neither div type accepts."""
    rng = random.Random(3)
    parts, count = ["<doc>"], 1
    for column in range(columns):
        opening, closing = [], []
        for level in range(levels):
            broken = (column, level) == break_at
            if broken or rng.random() < 0.5:  # t_d2: child divs, then p p
                opening.append("<div>")
                closing.append("<p/></div>" if broken else "<p/><p/></div>")
                count += 2 if broken else 3
            else:  # t_d1: p, then child divs
                opening.append("<div><p/>")
                closing.append("</div>")
                count += 2
        parts += opening + closing[::-1]
    parts.append("</doc>")
    return "".join(parts), count


DEEP_VALID, DEEP_ELEMENTS = _deep_document(90, 150)
DEEP_INVALID, _ = _deep_document(90, 150, break_at=(45, 100))
ROW_VALID = "<r>" + "<x/>" * (ELEMENTS - 1) + "</r>"
ROW_EARLY_INVALID = "<r><r/>" + "<x/>" * (ELEMENTS - 2) + "</r>"
ROW_LATE_INVALID = "<r>" + "<x/>" * (ELEMENTS - 2) + "<r/></r>"

SLICED_CASES = [
    (ROW, ROW_VALID, True),
    (ROW, ROW_EARLY_INVALID, False),
    (ROW, ROW_LATE_INVALID, False),
    (DEEP, DEEP_VALID, True),
    (DEEP, DEEP_INVALID, False),
]


def _slice_ends(text: str, count: int) -> list[int]:
    """The element read last in each of the first *count* slices."""
    elements, ends = 0, []
    for index, (kind, _) in enumerate(xml_events(text), 1):
        elements += kind != CLOSE
        if index % SLICE_EVENTS == 0:
            ends.append(elements)
            if len(ends) == count:
                break
    return ends


def _service_rows(handle, text, budget_of):
    """The rows of ``validate`` and of a one-document ``validate_batch``,
    each under its own budget from *budget_of*, with the budgets."""

    async def scenario():
        service = ValidationService(capacity=2)
        single_budget, batch_budget = budget_of(), budget_of()
        single = await service.validate(handle, text, budget=single_budget)
        batch = await service.validate_batch(handle, [text], budget=batch_budget)
        return single, single_budget, batch["results"][0], batch_budget

    return asyncio.run(scenario())


class TestSlicedDriver:
    def test_documents_span_several_slices(self):
        assert DEEP_ELEMENTS >= 30_000
        assert len(_slice_ends(ROW_VALID, 3)) == 3
        assert len(_slice_ends(DEEP_VALID, 3)) == 3

    @pytest.mark.parametrize("schema, text, expected", SLICED_CASES)
    def test_verdicts_and_steps_agree(self, schema, text, expected):
        assert _tree_route(schema, text) == expected
        handle = compile_schema(schema)
        direct = handle.validate(text)
        assert direct.valid == expected
        single, _, batched, _ = _service_rows(handle, text, Budget)
        for row in (single, batched):
            assert row["valid"] == expected
            assert row["steps"] == direct.usage.steps

    @pytest.mark.parametrize("schema, text", [(ROW, ROW_VALID), (DEEP, DEEP_VALID)])
    def test_max_steps_trips_at_the_same_element(self, schema, text):
        handle = compile_schema(schema)
        for end in _slice_ends(text, 2):
            for element in (end - 1, end, end + 1):
                with pytest.raises(BudgetExceededError) as caught:
                    handle.validate(text, budget=Budget(max_steps=element - 1))
                assert caught.value.progress.steps == element
                single, single_budget, batched, batch_budget = _service_rows(
                    handle, text, lambda: Budget(max_steps=element - 1)
                )
                for row, budget in ((single, single_budget), (batched, batch_budget)):
                    assert row["verdict"] == "unknown"
                    assert row["error"]["reason"] == "max-steps"
                    assert budget.steps == element

    def test_same_syntax_error(self):
        handle = compile_schema(ROW)

        def details(error):
            assert isinstance(error, TreeSyntaxError)
            return str(error), error.line, error.column

        async def through_service():
            service = ValidationService(capacity=2)
            single = await _raised(service.validate(handle, BROKEN))
            batched = await _raised(service.validate_batch(handle, [ROW_VALID, BROKEN]))
            return details(single), details(batched)

        with pytest.raises(TreeSyntaxError) as direct:
            handle.validate(BROKEN)
        assert asyncio.run(through_service()) == (details(direct.value),) * 2


async def _raised(coroutine):
    """The exception *coroutine* raises (it must raise one)."""
    try:
        await coroutine
    except Exception as error:  # returned for inspection
        return error
    raise AssertionError("no exception raised")


class TestEventLoopTurns:
    def test_other_tasks_run_between_slices(self):
        async def scenario():
            service = ValidationService(capacity=2)
            info = await service.register_schema(DEEP_TEXT)
            turns = 0
            done = False

            async def ticker():
                nonlocal turns
                while not done:
                    turns += 1
                    await asyncio.sleep(0)

            ticking = asyncio.create_task(ticker())
            row = await service.validate(info["schema_id"], DEEP_VALID)
            done = True
            await ticking
            return row, turns

        row, turns = asyncio.run(scenario())
        assert row["verdict"] == "valid"
        assert turns >= DEEP_ELEMENTS / (2 * SLICE_EVENTS)

    def test_a_short_document_takes_no_turn(self):
        async def scenario():
            service = ValidationService(capacity=2)
            handle = compile_schema(ROW)
            turns = 0

            async def ticker():
                nonlocal turns
                turns += 1

            ticking = asyncio.create_task(ticker())
            row = await service.validate(handle, "<r>" + "<x/>" * 500 + "</r>")
            seen = turns
            await ticking
            return row, seen

        row, seen = asyncio.run(scenario())
        assert row["verdict"] == "valid" and row["steps"] == 501
        assert seen == 0


def _ambient():
    """Every ambient ContextVar a facade call may set, plus the process-wide
    tracing depth its owned trace bumps."""
    return (
        current_budget(),
        _obs.current_trace(),
        _obs.current_span(),
        _cache_store._ACTIVE.get(),
        api._AMBIENT_SETTINGS.get(),
        current_plan(),
        _obs._DEPTH,
    )


class TestCancellation:
    def test_cancel_mid_document_unwinds_in_the_task(self, monkeypatch):
        unraisable: list = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def scenario():
            service = ValidationService(capacity=2)
            info = await service.register_schema(DEEP_TEXT)
            before = _ambient()
            after: list = []

            async def validate_and_report():
                try:
                    await service.validate(info["schema_id"], DEEP_VALID)
                except asyncio.CancelledError:
                    after.append(_ambient())
                    raise

            task = asyncio.create_task(validate_and_report())
            for _ in range(5):
                await asyncio.sleep(0)
            assert not task.done()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            del task
            gc.collect()
            row = await service.validate(info["schema_id"], "<doc><div><p/></div></doc>")
            return before, after, _ambient(), row

        before, after, outside, row = asyncio.run(scenario())
        gc.collect()
        assert not unraisable
        assert after == [before]
        assert outside == before
        assert row["verdict"] == "valid"


# ----------------------------------------------------------------------
# A tree and its text: one evaluator, the same charges and trip points
# ----------------------------------------------------------------------


def _outcome(handle, document, max_steps=None):
    """The verdict and steps of one validation, or where it tripped."""
    try:
        result = handle.validate(document, budget=Budget(max_steps=max_steps))
    except BudgetExceededError as error:
        return "tripped", error.reason, error.progress.steps
    return "done", result.valid, result.usage.steps


def _trip_limits(size: int) -> list[int]:
    """Step limits that trip before the first element, at the second,
    halfway, at the last element and around the end of the first slice."""
    limits = {0, 1, size // 2, size - 1, SLICE_EVENTS - 1, SLICE_EVENTS + 1}
    return sorted(limit for limit in limits if limit < size)


def _check_tree_text_parity(handle, tree: Tree, text: str, expected: bool) -> None:
    done = _outcome(handle, tree)
    assert done == _outcome(handle, text) == ("done", expected, tree.size())
    for limit in _trip_limits(tree.size()):
        tripped = _outcome(handle, tree, limit)
        assert tripped == _outcome(handle, text, limit), limit
        assert tripped == ("tripped", "max-steps", limit + 1)


def _check_sampled_parity(schema: EDTD, seed: int, labels: list) -> None:
    handle = compile_schema(schema)
    rng = random.Random(seed)
    for _ in range(3):
        tree = sample_tree(schema, rng, target_size=rng.randint(1, 25))
        for document in (tree, mutate_tree(tree, rng, labels)):
            expected = bool(schema.possible_types_reference(document) & schema.starts)
            _check_tree_text_parity(handle, document, to_xml(document), expected)


@given(single_type_edtds(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=examples(40), deadline=None)
def test_single_type_tree_and_text_agree(schema, seed):
    _check_sampled_parity(schema, seed, LABELS + ["zz"])


@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=examples(40), deadline=None)
def test_general_tree_and_text_agree(seed, num_types, num_labels):
    schema = random_edtd(random.Random(seed), num_labels=num_labels, num_types=num_types)
    _check_sampled_parity(schema, seed, sorted(schema.alphabet, key=repr) + ["zz"])


class TestTreeChargedPerElement:
    @pytest.mark.parametrize(
        "schema, text, expected",
        SLICED_CASES,
        ids=["row", "row-early-invalid", "row-late-invalid", "deep", "deep-invalid"],
    )
    def test_large_tree_trips_where_its_text_trips(self, schema, text, expected):
        tree = from_xml(text)
        _check_tree_text_parity(compile_schema(schema), tree, text, expected)

    def test_free_function_trips_during_the_walk(self):
        tree = from_xml(ROW_VALID)
        for document in (tree, ROW_VALID):
            with pytest.raises(BudgetExceededError) as caught:
                validate(ROW, document, budget=Budget(max_steps=10))
            assert caught.value.progress.steps == 11

    def test_a_tree_is_validated_in_slices(self):
        steps = compile_schema(ROW).validate_steps(from_xml(ROW_VALID))
        slices = 0
        try:
            while True:
                next(steps)
                slices += 1
        except StopIteration as finished:
            result = finished.value
        assert result.valid and result.usage.steps == ELEMENTS
        assert slices == len(list(events_of_tree(from_xml(ROW_VALID)))) // SLICE_EVENTS


# ----------------------------------------------------------------------
# The paper's claim: on a single-type EDTD the evaluator holds at most
# one candidate type per open element
# ----------------------------------------------------------------------


def _remembered_configurations(tables) -> list[tuple[int, ...]]:
    configurations = []
    for parent, row in tables.opens.items():
        configurations += [parent, *row.values()]
    for parent, row in tables.closes.items():
        configurations += [parent, *row.keys(), *row.values()]
    return configurations


def _run_documents(schema: EDTD, seed: int):
    """Validate sampled documents and mutants as trees through
    ``accepts`` and as text through a handle; return the handle."""
    handle = compile_schema(schema)
    rng = random.Random(seed)
    labels = sorted(schema.alphabet, key=repr) + ["zz"]
    for _ in range(4):
        tree = sample_tree(schema, rng, target_size=rng.randint(1, 40))
        for document in (tree, mutate_tree(tree, rng, labels)):
            schema.accepts(document)
            handle.validate(to_xml(document))
    return handle


def _candidates(configuration: tuple[int, ...]) -> int:
    return len(configuration) // 2


@given(single_type_edtds(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=examples(60), deadline=None)
def test_single_type_configurations_hold_one_candidate(schema, seed):
    handle = _run_documents(schema, seed)
    for tables in (kernels._tables_of(schema), kernels._tables_of(handle._reduced)):
        configurations = _remembered_configurations(tables)
        assert configurations
        assert max(map(_candidates, configurations)) <= 1


def test_random_single_type_configurations_hold_one_candidate():
    seen = 0
    for seed in range(40):
        schema = random_single_type_edtd(random.Random(seed))
        _run_documents(schema, seed)
        configurations = _remembered_configurations(kernels._tables_of(schema))
        assert max(map(_candidates, configurations)) <= 1, seed
        seen += len(configurations)
    assert seen > 500


def test_a_general_edtd_carries_several_candidates():
    # The control: DEEP's two div types compete for one position.
    handle = compile_schema(DEEP)
    assert handle.validate(DEEP_VALID).valid
    configurations = _remembered_configurations(kernels._tables_of(handle._reduced))
    assert max(map(_candidates, configurations)) == 2
