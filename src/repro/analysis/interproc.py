"""Interprocedural rules R008, R010 and R011 (whole-program pass).

These rules run over the :class:`repro.analysis.callgraph.Program` built
from every analyzed module, closing the gaps the per-file rules
structurally cannot see:

========  =======================  =======================================
Rule      Name                     Invariant
========  =======================  =======================================
``R008``  governance-escape        no path from a public ``repro.api`` /
                                   CLI entry point reaches an ungoverned
                                   worklist loop outside the R001 dirs
``R010``  cache-key-completeness   every memo-cache entry point's key
                                   reaches all behavior-affecting params
``R011``  twin-drift               ``*_reference`` oracles keep the same
                                   governed keyword surface as their twin
========  =======================  =======================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import FunctionNode, Program
from repro.analysis.engine import ProgramRule
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    GOVERNED_DIRS,
    GovernedLoopRule,
    _basename,
    _loop_ancestor,
)

#: Parameters that are governed plumbing, never part of a cache key.
GOVERNED_TRIO = ("budget", "checkpoint", "trace")

#: Module basenames whose ``_memoized`` call sites R010 audits.
CACHE_MODULE_BASENAMES = frozenset({"kernels.py", "schema_guided.py"})


# ----------------------------------------------------------------------
# R008 — governance escape
# ----------------------------------------------------------------------

class GovernanceEscapeRule(ProgramRule):
    """A public entry point must not reach an ungoverned worklist loop.

    R001 already forces loops *inside* the governed packages
    (strings/tree_automata/closure/core) to charge the budget.  This rule
    covers everywhere else: starting from the public functions of
    ``api.py`` / ``cli.py`` modules it walks the call graph (including
    address-taken callbacks) and flags any reachable worklist loop that
    neither charges a budget nor delegates with ``budget=``.  Loops that
    are intentionally outside the governor carry the usual
    ``# ungoverned: reason`` pragma, which silences R008 exactly like
    R001.
    """

    rule_id = "R008"
    title = "governance-escape"
    hint = (
        "thread budget= through the call chain, charge inside the loop, "
        "or mark it '# ungoverned: reason'"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        entries = program.entry_points()
        if not entries:
            return
        reaching: dict[str, set[str]] = {}
        for entry in sorted(entries):
            for qualname in program.reachable_from([entry]):
                reaching.setdefault(qualname, set()).add(entry)
        for qualname in sorted(reaching):
            fn = program.functions[qualname]
            if fn.ctx.in_dirs(GOVERNED_DIRS):
                continue  # R001's jurisdiction
            for loop in ast.walk(fn.node):
                if not isinstance(loop, ast.While):
                    continue
                if not GovernedLoopRule._is_worklist_test(loop.test):
                    continue
                if _loop_ancestor(fn.ctx, loop) is not None:
                    continue  # inner loops amortize into the outer charge
                if GovernedLoopRule._is_governed(loop):
                    continue
                entry_names = ", ".join(
                    sorted(e.rsplit(".", 1)[-1] for e in reaching[qualname])
                )
                yield self.finding(
                    fn.ctx,
                    loop,
                    "worklist loop is reachable from public entry point(s) "
                    f"{entry_names} but runs without budget governance",
                )


# ----------------------------------------------------------------------
# R010 — cache-key completeness
# ----------------------------------------------------------------------

class CacheKeyCompletenessRule(ProgramRule):
    """Every memo-cache entry point's key must cover its parameters.

    A ``_memoized(cache, key, build, budget)`` call site whose *key*
    expression does not (transitively, through local assignments) depend
    on some behavior-affecting parameter of the enclosing function will
    serve stale results when exactly that parameter changes.  The
    governed trio (budget/checkpoint/trace) never belongs in a key —
    caching is behavior-transparent with respect to governance by
    design.
    """

    rule_id = "R010"
    title = "cache-key-completeness"
    hint = (
        "derive the key from every behavior-affecting parameter, or make "
        "the parameter's irrelevance explicit with "
        "'# repro-lint: disable=R010 -- reason'"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        for fn in program.iter_functions():
            if _basename(fn.relpath) not in CACHE_MODULE_BASENAMES:
                continue
            for record in fn.calls:
                key_expr = self._memoized_key(record.node)
                if key_expr is None:
                    continue
                missing = self._missing_params(fn, key_expr)
                if missing:
                    yield self.finding(
                        fn.ctx,
                        record.node,
                        "memo-cache key never reads parameter(s) "
                        f"{', '.join(sorted(missing))} — entries would be "
                        "shared across calls that differ in them",
                    )

    @staticmethod
    def _memoized_key(call: ast.Call) -> ast.expr | None:
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "_memoized":
            return None
        if len(call.args) >= 2:
            return call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "key":
                return keyword.value
        return None

    @staticmethod
    def _missing_params(fn: FunctionNode, key_expr: ast.expr) -> set[str]:
        required = {
            name
            for name in fn.param_set
            if name not in GOVERNED_TRIO and name != "self"
        }
        if not required:
            return set()
        flows: dict[str, set[str]] = {}

        def feed(target: ast.expr, source: ast.expr | None) -> None:
            if source is None:
                return
            names = {
                leaf.id
                for leaf in ast.walk(source)
                if isinstance(leaf, ast.Name)
            }
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    flows.setdefault(leaf.id, set()).update(names)

        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    feed(target, sub.value)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                feed(sub.target, sub.value)
            elif isinstance(sub, ast.NamedExpr):
                feed(sub.target, sub.value)
            elif isinstance(sub, ast.comprehension):
                feed(sub.target, sub.iter)
            elif isinstance(sub, ast.For):
                feed(sub.target, sub.iter)
            elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
                feed(sub.optional_vars, sub.context_expr)
        reached = {
            leaf.id for leaf in ast.walk(key_expr) if isinstance(leaf, ast.Name)
        }
        queue = list(reached)
        while queue:  # ungoverned: linear closure over local assignments
            name = queue.pop()
            for source in flows.get(name, ()):
                if source not in reached:
                    reached.add(source)
                    queue.append(source)
        return required - reached


# ----------------------------------------------------------------------
# R011 — twin drift
# ----------------------------------------------------------------------

class TwinDriftRule(ProgramRule):
    """``*_reference`` oracles must keep their twin's governed surface.

    The differential test harness calls kernel and reference with the
    same governed keywords (``budget`` / ``checkpoint`` / ``trace``); a
    reference that silently drops one stops exercising the same
    contract and the comparison goes stale.  Both twins must expose the
    same subset of the trio, each keyword-only defaulting to ``None``.
    """

    rule_id = "R011"
    title = "twin-drift"
    hint = (
        "give the reference the same keyword-only governed parameters "
        "(budget/checkpoint/trace, default None) as its kernel twin"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        suffix = "_reference"
        for fn in program.iter_functions():
            if not fn.name.endswith(suffix) or fn.name == suffix:
                continue
            base = self._twin(program, fn, fn.name[: -len(suffix)])
            if base is None:
                continue
            problems: list[str] = []
            governed = frozenset(GOVERNED_TRIO)
            ref_surface = fn.param_set & governed
            base_surface = base.param_set & governed
            for name in sorted(base_surface - ref_surface):
                problems.append(f"missing {name}= (its twin {base.name} has it)")
            for name in sorted(ref_surface - base_surface):
                problems.append(f"has {name}= its twin {base.name} lacks")
            for twin, label in ((fn, "reference"), (base, "kernel")):
                for name in sorted(twin.param_set & governed):
                    if name not in twin.keyword_only_none:
                        problems.append(
                            f"{label} parameter {name}= must be keyword-only "
                            "with default None"
                        )
            if problems:
                yield self.finding(
                    fn.ctx,
                    fn.node,
                    f"governed surface drifted from twin {base.name}: "
                    + "; ".join(problems),
                )

    @staticmethod
    def _twin(
        program: Program, fn: FunctionNode, base_name: str
    ) -> FunctionNode | None:
        info = program.modules[fn.module]
        if fn.class_name is not None:
            qualname = info.classes.get(fn.class_name, {}).get(base_name)
        else:
            qualname = info.functions.get(base_name)
        return program.functions.get(qualname) if qualname else None


PROGRAM_RULES: tuple[type[ProgramRule], ...] = (
    GovernanceEscapeRule,
    CacheKeyCompletenessRule,
    TwinDriftRule,
)
