"""Unit tests for the call-graph layer: resolution kinds, narrowing,
entry points, and reachability."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import ModuleContext, Program
from repro.analysis.callgraph import module_name_for


def _program(*sources):
    """Build a Program from (path, source) pairs."""
    ctxs = [
        ModuleContext.from_source(source, Path(path)) for path, source in sources
    ]
    return Program.from_contexts(ctxs)


def _calls(program, qualname):
    return {r.display: r for r in program.functions[qualname].calls}


class TestModuleNames:
    def test_repro_rooted(self):
        assert module_name_for("src/repro/core/upper.py") == "repro.core.upper"

    def test_package_init(self):
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_bare_stem_for_fixtures(self):
        assert module_name_for("tests/fixtures/api.py") == "api"


class TestResolutionKinds:
    def test_function_constructor_builtin_dynamic(self):
        program = _program(
            (
                "m.py",
                "class Box:\n"
                "    def __init__(self, v):\n"
                "        self.v = v\n"
                "\n"
                "def helper(x):\n"
                "    return x + 1\n"
                "\n"
                "def go(x, mystery):\n"
                "    b = Box(helper(x))\n"
                "    n = len([b])\n"
                "    return mystery_global(n)\n",
            )
        )
        calls = _calls(program, "m.go")
        assert calls["Box"].kind == "constructor"
        assert calls["Box"].targets == ("m.Box.__init__",)
        assert calls["helper"].kind == "function"
        assert calls["helper"].targets == ("m.helper",)
        assert calls["len"].kind == "builtin"
        assert calls["mystery_global"].kind == "dynamic"


class TestMethodNarrowing:
    TWO_CLASSES = (
        "m.py",
        "class Pure:\n"
        "    def step(self):\n"
        "        return 1\n"
        "\n"
        "class Dirty:\n"
        "    def step(self):\n"
        "        self.n = 2\n"
        "\n"
        "def annotated(ctx: Pure):\n"
        "    return ctx.step()\n"
        "\n"
        "def constructed():\n"
        "    ctx = Dirty()\n"
        "    return ctx.step()\n"
        "\n"
        "def unknown(ctx):\n"
        "    return ctx.step()\n",
    )

    def test_annotation_narrows_targets(self):
        program = _program(self.TWO_CLASSES)
        record = _calls(program, "m.annotated")["ctx.step"]
        assert record.targets == ("m.Pure.step",)

    def test_constructor_typed_local_narrows_targets(self):
        program = _program(self.TWO_CLASSES)
        record = _calls(program, "m.constructed")["ctx.step"]
        assert record.targets == ("m.Dirty.step",)

    def test_unannotated_receiver_unions_by_name(self):
        program = _program(self.TWO_CLASSES)
        record = _calls(program, "m.unknown")["ctx.step"]
        assert set(record.targets) == {"m.Pure.step", "m.Dirty.step"}


class TestEntryPointsAndReachability:
    def test_entry_points_are_public_api_functions(self):
        program = _program(
            (
                "pkg/api.py",
                "def public(x):\n"
                "    return _helper(x)\n"
                "\n"
                "def _helper(x):\n"
                "    return x\n",
            ),
            ("pkg/other.py", "def also_public(x):\n    return x\n"),
        )
        assert program.entry_points() == frozenset({"api.public"})

    def test_reachability_follows_address_taken_references(self):
        program = _program(
            (
                "api.py",
                "def main(args):\n"
                "    handler = _on_done\n"
                "    return handler\n"
                "\n"
                "def _on_done():\n"
                "    return _leaf()\n"
                "\n"
                "def _leaf():\n"
                "    return 0\n"
                "\n"
                "def _orphan():\n"
                "    return 1\n",
            )
        )
        reached = program.reachable_from(["api.main"])
        assert {"api.main", "api._on_done", "api._leaf"} <= reached
        assert "api._orphan" not in reached
