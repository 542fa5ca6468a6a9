"""AST lint engine: file collection, per-module context, pragma handling.

The engine parses each file once into a :class:`ModuleContext` (AST +
parent links + pragma index + lightweight scope information) and hands it
to every registered :class:`Rule`.  Rules are pure visitors: they never
mutate the context and report violations as :class:`~repro.analysis.findings.Finding`
values.

Suppression pragmas
-------------------
Two comment forms suppress findings on the line where the flagged
statement starts:

* ``# repro-lint: disable=R001,R004 -- reason`` — generic, any rule.
* ``# ungoverned: reason`` — shorthand for ``disable=R001,R008``; this is
  the canonical way to mark a worklist loop as *intentionally* outside
  the PR-1 budget regime (the reason is mandatory).

The ``-- reason`` clause is mandatory for both forms: a disable pragma
without a reason is **rejected** (it suppresses nothing, so the finding
it meant to hide still fires and the gate stays honest).

Grandfathered findings that should not carry an in-source pragma go in
the baseline file instead (:mod:`repro.analysis.baseline`).

Whole-program rules
-------------------
Rules that need to see *every* module at once (call-graph reachability
and cross-module checks — R008, R010, R011) subclass :class:`ProgramRule`
and receive a :class:`repro.analysis.callgraph.Program` built from all
parsed module contexts.  Their findings still honor per-line pragmas in
the module that owns the flagged line.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

from repro.analysis.findings import Finding, Severity

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>R\d{3}(?:\s*,\s*R\d{3})*)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)
_UNGOVERNED_RE = re.compile(r"#\s*ungoverned:\s*(?P<reason>\S.*)")

#: Rules an ``# ungoverned:`` pragma silences.  R001 is the in-package
#: governed-loop rule; R008 is its interprocedural twin (governance
#: escape), and a loop declared intentionally ungoverned is outside both.
UNGOVERNED_RULES = frozenset({"R001", "R008"})


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings.  ``finding()`` is a convenience constructor that
    fills in location/context/snippet from the context and node.
    """

    rule_id: str = "R000"
    title: str = ""
    severity: Severity = Severity.ERROR
    hint: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: "ModuleContext",
        node: ast.AST,
        message: str,
        *,
        hint: str | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=ctx.relpath,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
            context=ctx.qualname(node),
            snippet=ctx.line_at(line),
        )


class ProgramRule(Rule):
    """Base class for whole-program rules (R008, R010, R011).

    A :class:`ProgramRule` is checked once per analysis run against a
    :class:`repro.analysis.callgraph.Program` built from every parsed
    module, instead of once per module.  The per-module :meth:`check`
    hook is a no-op so program rules compose transparently with the
    module-rule pipeline.
    """

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        return iter(())

    def check_program(self, program: object) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        ctx: "ModuleContext",
        node: ast.AST,
        message: str,
        *,
        hint: str | None = None,
    ) -> Finding:
        """Alias of :meth:`Rule.finding` for readability at call sites."""
        return self.finding(ctx, node, message, hint=hint)


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str]
    disabled: dict[int, set[str] | None] = field(default_factory=dict)
    comments: dict[int, list[str]] = field(default_factory=dict)
    rejected_pragmas: list[tuple[int, str]] = field(default_factory=list)
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: Path, root: Path | None = None) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            relpath=_relpath(path, root),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        ctx._index_parents()
        ctx._index_pragmas()
        return ctx

    @classmethod
    def from_file(cls, path: Path, root: Path | None = None) -> "ModuleContext":
        return cls.from_source(path.read_text(encoding="utf-8"), path, root)

    # -- structure -----------------------------------------------------

    def _index_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the scopes enclosing *node* (``"<module>"`` at top)."""
        parts: list[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(ancestor.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts.insert(0, node.name)
        if not parts:
            return "<module>"
        return ".".join(reversed(parts))

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_dirs(self, names: Iterable[str]) -> bool:
        """True iff any path component of the file matches a name in *names*."""
        wanted = set(names)
        return any(part in wanted for part in Path(self.relpath).parts)

    # -- pragmas -------------------------------------------------------

    def _index_pragmas(self) -> None:
        try:
            tokens = tokenize.generate_tokens(StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                self._record_pragma(token.start[0], token.string)
        except tokenize.TokenError:
            # Fall back to a line scan on pathological input; comments
            # inside strings may then be misread, which only ever
            # *suppresses* findings on weird files, never invents them.
            for lineno, text in enumerate(self.lines, start=1):
                if "#" in text:
                    self._record_pragma(lineno, text[text.index("#"):])

    def _record_pragma(self, lineno: int, comment: str) -> None:
        self.comments.setdefault(lineno, []).append(comment)
        match = _DISABLE_RE.search(comment)
        if match is not None:
            if match.group("reason") is None:
                # Reasonless disable pragmas are rejected: they suppress
                # nothing, so the finding they meant to hide still fires.
                self.rejected_pragmas.append((lineno, comment.strip()))
                return
            rules = {r.strip() for r in match.group("rules").split(",")}
            existing = self.disabled.get(lineno)
            if existing is None and lineno in self.disabled:
                return  # already disabled for all rules
            self.disabled[lineno] = (existing or set()) | rules
        if _UNGOVERNED_RE.search(comment) is not None:
            existing = self.disabled.get(lineno)
            if lineno in self.disabled and existing is None:
                return
            self.disabled[lineno] = (existing or set()) | set(UNGOVERNED_RULES)

    def comment_text(self, lineno: int) -> str:
        """All comment text recorded on *lineno* (empty string if none)."""
        return " ".join(self.comments.get(lineno, ()))

    def is_disabled(self, rule_id: str, lineno: int) -> bool:
        if lineno not in self.disabled:
            return False
        rules = self.disabled[lineno]
        return rules is None or rule_id in rules


def _relpath(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        rel = path.resolve().relative_to(base.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


# ----------------------------------------------------------------------
# Running rules
# ----------------------------------------------------------------------

def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    from repro.analysis.interproc import PROGRAM_RULES
    from repro.analysis.rules import ALL_RULES

    return [rule_cls() for rule_cls in (*ALL_RULES, *PROGRAM_RULES)]


def analyze_context(ctx: ModuleContext, rules: Sequence[Rule]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.is_disabled(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_contexts(
    ctxs: Sequence[ModuleContext], rules: Sequence[Rule]
) -> list[Finding]:
    """Run module rules per context, then program rules over all contexts."""
    findings: list[Finding] = []
    program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
    for ctx in ctxs:
        findings.extend(analyze_context(ctx, rules))
    if program_rules:
        from repro.analysis.callgraph import Program

        program = Program.from_contexts(ctxs)
        by_path = {ctx.relpath: ctx for ctx in ctxs}
        for rule in program_rules:
            for finding in rule.check_program(program):
                owner = by_path.get(finding.path)
                if owner is None or not owner.is_disabled(finding.rule, finding.line):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_source(
    source: str,
    path: Path | str,
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Analyze a source string as if it lived at *path* (test entry point)."""
    ctx = ModuleContext.from_source(source, Path(path), root)
    return analyze_contexts([ctx], rules if rules is not None else default_rules())


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand *paths* (files or directories) into a sorted list of .py files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if "__pycache__" in candidate.parts:
                    continue
                seen.add(candidate)
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def load_contexts(
    paths: Iterable[Path | str], root: Path | None = None
) -> tuple[list[ModuleContext], list[Finding]]:
    """Parse every .py file under *paths* into contexts.

    Files that fail to parse yield a single parse-error finding (rule
    ``R000``) instead of aborting the run; those findings are returned
    alongside the successfully parsed contexts.
    """
    ctxs: list[ModuleContext] = []
    parse_findings: list[Finding] = []
    for path in collect_files(Path(p) for p in paths):
        try:
            ctxs.append(ModuleContext.from_file(path, root))
        except (SyntaxError, UnicodeDecodeError) as exc:
            parse_findings.append(
                Finding(
                    rule="R000",
                    severity=Severity.ERROR,
                    path=_relpath(path, root),
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    message=f"file does not parse: {exc}",
                    hint="fix the syntax error",
                    context="<module>",
                    snippet="",
                )
            )
    return ctxs, parse_findings


def analyze_paths(
    paths: Iterable[Path | str],
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Analyze every .py file under *paths*; returns sorted findings.

    Files that fail to parse yield a single parse-error finding (rule
    ``R000``) instead of aborting the run.
    """
    active = rules if rules is not None else default_rules()
    ctxs, findings = load_contexts(paths, root)
    findings.extend(analyze_contexts(ctxs, active))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
