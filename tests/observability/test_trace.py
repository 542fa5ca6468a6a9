"""Tests for the structured tracing layer (`repro.observability`).

The golden span-tree tests pin *shape only* (`Span.tree_names()`), never
timings: the shape is a function of the construction algorithm and the
fixture schema, so a change here means the construction's phase
structure actually changed.

Memo caches are cleared in setup — a warm kernel cache legitimately
skips whole constructions, which would shrink the span tree.
"""

from __future__ import annotations

import json

import pytest

from repro import observability as obs
from repro.core.decision import Definability, single_type_definability
from repro.core.upper import minimal_upper_approximation
from repro.families.hard import example_2_6
from repro.observability import METRICS, NULL_SPAN, Trace, construction_span
from repro.observability.schema import TraceSchemaError, validate_trace
from repro.runtime import Budget
from repro.strings.kernels import clear_caches


@pytest.fixture(autouse=True)
def fresh_observability():
    clear_caches()
    METRICS.reset()
    yield
    METRICS.reset()


def _child(span, name):
    for child in span.children:
        if child.name == name:
            return child
    raise AssertionError(f"no child span named {name!r} under {span.name!r}")


#: The phase structure of Construction 3.1 on Example 2.6: one
#: determinization of the type automaton, one content-union pass over the
#: three labels (each uniting NFAs then minimizing), then the per-rule
#: minimizations of the rebuilt single-type schema.  That schema is
#: already reduced, so reduction returns it without minimizing again.
UPPER_SHAPE = (
    "upper-approximation",
    [
        ("determinize", []),
        (
            "content-union",
            [
                ("determinize", []),
                ("hopcroft-refine", []),
                ("determinize", []),
                ("hopcroft-refine", []),
                ("determinize", []),
                ("hopcroft-refine", []),
            ],
        ),
        ("hopcroft-refine", []),
        ("hopcroft-refine", []),
        ("hopcroft-refine", []),
        ("hopcroft-refine", []),
    ],
)


class TestGoldenSpanTrees:
    def test_upper_approximation_shape(self):
        with Trace("test") as trace:
            minimal_upper_approximation(example_2_6())
        upper = _child(trace.root, "upper-approximation")
        assert upper.tree_names() == UPPER_SHAPE

    def test_upper_approximation_span_accounting(self):
        # A metering budget makes the spans carry states/steps deltas.
        with Budget() as budget, Trace("test") as trace:
            minimal_upper_approximation(example_2_6())
        upper = _child(trace.root, "upper-approximation")
        assert upper.attrs["input_types"] == 3
        assert upper.attrs["output_types"] == 3
        assert 0 < upper.attrs["states"] <= budget.states
        assert 0 < upper.attrs["steps"] <= budget.steps
        assert upper.elapsed >= 0.0

    def test_definability_shape(self):
        with Trace("test") as trace:
            result = single_type_definability(example_2_6())
        assert result.verdict is Definability.YES
        definability = _child(trace.root, "definability")
        assert definability.attrs["verdict"] == "YES"
        # The upper construction runs inside the definability span and the
        # tree-automata inclusion check comes after it.
        names = [child.name for child in definability.children]
        assert "upper-approximation" in names
        assert names[-1] == "bta-inclusion"
        assert names.index("upper-approximation") < names.index("bta-inclusion")
        assert _child(definability, "upper-approximation").tree_names() == UPPER_SHAPE
        assert _child(definability, "bta-inclusion").attrs["included"] is True

    def test_warm_cache_shrinks_the_tree(self):
        with Trace("cold"):
            minimal_upper_approximation(example_2_6())
        with Trace("warm") as warm:
            minimal_upper_approximation(example_2_6())
        upper = _child(warm.root, "upper-approximation")
        assert upper.attrs["cache_hits"] > 0


class TestMetrics:
    def test_construction_metrics_are_reported(self):
        with Trace("test"):
            minimal_upper_approximation(example_2_6())
        snapshot = METRICS.to_dict()
        assert snapshot["upper.runs"]["value"] == 1
        assert snapshot["determinize.runs"]["value"] >= 1
        assert snapshot["hopcroft.runs"]["value"] >= 1
        assert snapshot["upper.output_types"]["count"] == 1

    def test_reset(self):
        METRICS.counter("x").inc()
        METRICS.reset()
        assert METRICS.to_dict() == {}


class TestDisabledByDefault:
    def test_no_ambient_trace_means_null_span(self):
        assert not obs.ENABLED
        assert construction_span("determinize") is NULL_SPAN

    def test_constructions_report_nothing_when_disabled(self):
        minimal_upper_approximation(example_2_6())
        assert not obs.ENABLED
        assert METRICS.to_dict() == {}

    def test_trace_scope_is_bounded(self):
        with Trace("test"):
            assert obs.ENABLED
        assert not obs.ENABLED


class TestExporters:
    def test_json_round_trip_and_schema(self):
        with Trace("test") as trace:
            minimal_upper_approximation(example_2_6())
        data = json.loads(trace.to_json())
        assert data == trace.to_dict()
        validate_trace(data)

    def test_schema_rejects_garbage(self):
        with pytest.raises(TraceSchemaError):
            validate_trace({"schema": 1})
        with pytest.raises(TraceSchemaError):
            validate_trace({"schema": 1, "root": {"name": 7}, "metrics": {}})

    def test_render_mentions_every_span_name(self):
        with Trace("test") as trace:
            minimal_upper_approximation(example_2_6())
        rendered = trace.render()
        for name in ("upper-approximation", "content-union", "determinize"):
            assert name in rendered
