"""Whole-program call graph over parsed module contexts.

The per-file rules (R001–R007) see one module at a time.  The
interprocedural rules (R008, R010, R011) need to know *who calls whom*
across the whole tree, so this module builds a :class:`Program`: one
:class:`FunctionNode` per module-level function and per method of a
top-level class, with every call site resolved as far as a purely
syntactic analysis can.

Resolution is deliberately conservative:

* bare-name calls resolve through the module's own functions, its
  ``import``/``from``-import maps, and classes (a class call is its
  ``__init__`` when one is defined);
* attribute calls whose root is an imported module resolve by dotted
  path;
* method calls on ``self`` resolve within the class first; method calls
  on anything else resolve to **every** program method with that name
  (a conservative union — claiming too many callees is safe, missing
  one is not);
* nested ``def``s fold into their enclosing function: their bodies are
  analyzed as part of the parent, and calling one is a no-op edge.

Anything that cannot be resolved is kept as a :class:`CallRecord` with
``kind="dynamic"`` and no targets.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import ModuleContext

#: Builtin callables a bare-name call resolves to (``kind="builtin"``)
#: instead of a program function: functions, types and exception classes.
BUILTIN_NAMES = frozenset(
    {
        "abs", "all", "any", "bin", "bool", "breakpoint", "bytes",
        "callable", "chr", "dict", "divmod", "enumerate", "filter",
        "float", "format", "frozenset", "getattr", "hasattr", "hash",
        "hex", "id", "input", "int", "isinstance", "issubclass", "iter",
        "len", "list", "map", "max", "min", "next", "object", "oct",
        "open", "ord", "pow", "print", "range", "repr", "reversed",
        "round", "set", "slice", "sorted", "str", "sum", "super", "tuple",
        "type", "vars", "zip",
        "ArithmeticError", "AssertionError", "AttributeError",
        "BaseException", "BufferError", "ConnectionError",
        "DeprecationWarning", "EOFError", "Exception", "FileExistsError",
        "FileNotFoundError", "FloatingPointError", "GeneratorExit",
        "ImportError", "IndentationError", "IndexError",
        "InterruptedError", "IsADirectoryError", "KeyError",
        "KeyboardInterrupt", "LookupError", "MemoryError", "NameError",
        "NotADirectoryError", "NotImplementedError", "OSError",
        "OverflowError", "PermissionError", "RecursionError",
        "ReferenceError", "RuntimeError", "StopAsyncIteration",
        "StopIteration", "SyntaxError", "SystemError", "SystemExit",
        "TabError", "TimeoutError", "TypeError", "UnboundLocalError",
        "UnicodeDecodeError", "UnicodeEncodeError", "UnicodeError",
        "UserWarning", "ValueError", "Warning", "ZeroDivisionError",
    }
)

#: Builtin type names that may appear in parameter annotations; they
#: resolve to "no program methods" rather than blocking narrowing.
BUILTIN_TYPE_NAMES = frozenset(
    {
        "bool", "bytes", "bytearray", "complex", "dict", "float",
        "frozenset", "int", "list", "object", "set", "str", "tuple",
        "type",
    }
)


def _annotation_classes(expr: ast.expr | None) -> tuple[str, ...]:
    """Simple class names mentioned by a parameter annotation.

    Union types (``A | B``), ``Optional[...]``, string annotations, and
    dotted names contribute their named alternatives; ``None`` and forms
    we cannot interpret contribute nothing.
    """
    if expr is None:
        return ()
    if isinstance(expr, ast.Name):
        return (expr.id,)
    if isinstance(expr, ast.Attribute):
        return (expr.attr,)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        names: list[str] = []
        for token in expr.value.split("|"):
            token = token.split("[")[0].strip().rsplit(".", 1)[-1].strip()
            if token.isidentifier() and token != "None":
                names.append(token)
        return tuple(names)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        return _annotation_classes(expr.left) + _annotation_classes(expr.right)
    if (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "Optional"
    ):
        return _annotation_classes(expr.slice)
    return ()


def _param_annotation_map(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, tuple[str, ...]]:
    args = node.args
    out: dict[str, tuple[str, ...]] = {}
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        classes = _annotation_classes(arg.annotation)
        if classes:
            out[arg.arg] = classes
    return out


@dataclass
class CallRecord:
    """One resolved call site inside a function body."""

    node: ast.Call
    #: "nested" | "function" | "constructor" | "builtin" | "module-attr"
    #: | "method" | "dynamic"
    kind: str
    #: Display name for messages ("determinize", "cache.get", ...).
    display: str
    #: Qualnames of program functions this call may invoke.
    targets: tuple[str, ...] = ()


@dataclass
class FunctionNode:
    """A module-level function or a method of a top-level class."""

    qualname: str
    module: str
    relpath: str
    ctx: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None
    params: tuple[str, ...]
    param_set: frozenset[str]
    keyword_only: frozenset[str]
    keyword_only_none: frozenset[str]
    #: Param name -> simple class names from its annotation (union types
    #: keep every named alternative); used to narrow method resolution.
    param_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Local name -> simple class names, when every assignment to the
    #: local is a constructor call of a known class.
    local_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    locals: frozenset[str] = frozenset()
    nested_defs: frozenset[str] = frozenset()
    calls: list[CallRecord] = field(default_factory=list)
    #: Program functions referenced by bare name without being called
    #: (callbacks registered with set_defaults(func=...), key=..., etc.);
    #: used for reachability.
    references: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """Per-module symbol tables used during call resolution."""

    name: str
    ctx: ModuleContext
    import_aliases: dict[str, str] = field(default_factory=dict)
    member_imports: dict[str, str] = field(default_factory=dict)
    global_names: frozenset[str] = frozenset()
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, dict[str, str]] = field(default_factory=dict)


def module_name_for(relpath: str) -> str:
    """Dotted module name for *relpath*, rooted at the ``repro`` package
    when the file lives inside it (``src/repro/core/upper.py`` →
    ``repro.core.upper``); bare stem otherwise (fixture-friendly)."""
    parts = [*Path(relpath).parts]
    if not parts:
        return "<module>"
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif parts:
        parts = parts[-1:]
    return ".".join(parts) or "<module>"


def _collect_locals(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[frozenset[str], frozenset[str]]:
    """(assigned-or-bound local names, nested def names) of *fn*."""
    names: set[str] = set()
    nested: set[str] = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif (
            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not fn
        ):
            nested.add(sub.name)
            names.add(sub.name)
        elif isinstance(sub, ast.ClassDef):
            names.add(sub.name)
    return frozenset(names), frozenset(nested)


def _param_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[tuple[str, ...], frozenset[str], frozenset[str]]:
    """(all param names in order, keyword-only names, keyword-only
    names whose default is the literal ``None``)."""
    args = node.args
    ordered = [a.arg for a in (*args.posonlyargs, *args.args)]
    if args.vararg is not None:
        ordered.append(args.vararg.arg)
    kwonly = [a.arg for a in args.kwonlyargs]
    ordered.extend(kwonly)
    if args.kwarg is not None:
        ordered.append(args.kwarg.arg)
    kwonly_none = {
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if isinstance(default, ast.Constant) and default.value is None
    }
    return tuple(ordered), frozenset(kwonly), frozenset(kwonly_none)


def _expr_root(expr: ast.expr) -> str | None:
    """Base ``Name`` under an attribute/subscript/starred chain, if any."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript, ast.Starred)):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


class Program:
    """The whole analyzed program: functions, symbol tables, call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.methods_by_name: dict[str, tuple[str, ...]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_contexts(cls, ctxs: Sequence[ModuleContext]) -> "Program":
        program = cls()
        for ctx in ctxs:
            program._add_module(ctx)
        program._index_methods()
        for node in program.functions.values():
            program._resolve_function(node)
        return program

    def _add_module(self, ctx: ModuleContext) -> None:
        name = module_name_for(ctx.relpath)
        info = ModuleInfo(name=name, ctx=ctx)
        globals_: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            globals_.add(leaf.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                globals_.add(stmt.target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{name}.{stmt.name}"
                info.functions[stmt.name] = qualname
                self._add_function(info, ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                methods = info.classes.setdefault(stmt.name, {})
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{name}.{stmt.name}.{member.name}"
                        methods[member.name] = qualname
                        self._add_function(
                            info, ctx, member, class_name=stmt.name
                        )
        # Imports anywhere in the module (function-level imports included).
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    dotted = alias.name if alias.asname else bound
                    info.import_aliases[bound] = dotted
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    info.member_imports[bound] = f"{node.module}.{alias.name}"
        info.global_names = frozenset(globals_)
        self.modules[name] = info

    def _add_function(
        self,
        info: ModuleInfo,
        ctx: ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        class_name: str | None,
    ) -> None:
        qualname = (
            f"{info.name}.{class_name}.{node.name}"
            if class_name
            else f"{info.name}.{node.name}"
        )
        params, kwonly, kwonly_none = _param_info(node)
        locals_, nested = _collect_locals(node)
        self.functions[qualname] = FunctionNode(
            qualname=qualname,
            module=info.name,
            relpath=ctx.relpath,
            ctx=ctx,
            node=node,
            class_name=class_name,
            params=params,
            param_set=frozenset(params),
            keyword_only=kwonly,
            keyword_only_none=kwonly_none,
            param_types=_param_annotation_map(node),
            locals=locals_,
            nested_defs=nested,
        )

    def _index_methods(self) -> None:
        by_name: dict[str, list[str]] = {}
        for qualname, node in self.functions.items():
            if node.class_name is not None:
                by_name.setdefault(node.name, []).append(qualname)
        self.methods_by_name = {
            name: tuple(sorted(quals)) for name, quals in by_name.items()
        }

    # -- call resolution -----------------------------------------------

    def _function_by_dotted(self, dotted: str) -> str | None:
        return dotted if dotted in self.functions else None

    def _constructor_targets(self, dotted: str) -> tuple[str, ...] | None:
        """If *dotted* names a known class, its ``__init__``-edge targets
        (possibly empty for auto-generated inits); None otherwise."""
        module, _, cls_name = dotted.rpartition(".")
        info = self.modules.get(module)
        if info is None or cls_name not in info.classes:
            return None
        init = info.classes[cls_name].get("__init__")
        return (init,) if init else ()

    def _class_methods(self, info: ModuleInfo, simple: str) -> dict[str, str] | None:
        """Method table of the program class *simple* names in *info*'s
        namespace (own class or ``from``-imported); None when unknown."""
        if simple in info.classes:
            return info.classes[simple]
        dotted = info.member_imports.get(simple)
        if dotted:
            module, _, cls_name = dotted.rpartition(".")
            other = self.modules.get(module)
            if other is not None and cls_name in other.classes:
                return other.classes[cls_name]
        return None

    def _narrowed_methods(
        self, info: ModuleInfo, class_names: tuple[str, ...], attr: str
    ) -> tuple[str, ...] | None:
        """Targets for a ``.attr`` call whose receiver is known to be an
        instance of one of *class_names*; None when any named class is
        outside the program (no narrowing) or lacks *attr* (it may be
        inherited — stay with the conservative by-name union)."""
        if not class_names:
            return None
        out: set[str] = set()
        for simple in class_names:
            if simple in BUILTIN_TYPE_NAMES:
                continue
            methods = self._class_methods(info, simple)
            if methods is None:
                return None
            target = methods.get(attr)
            if target is None:
                return None
            out.add(target)
        return tuple(sorted(out))

    def _constructed_class(self, info: ModuleInfo, func: ast.expr) -> str | None:
        simple: str | None = None
        if isinstance(func, ast.Name):
            simple = func.id
        elif isinstance(func, ast.Attribute):
            simple = func.attr
        if simple is None or self._class_methods(info, simple) is None:
            return None
        return simple

    def _infer_local_types(self, info: ModuleInfo, fn: FunctionNode) -> None:
        """Record locals whose every binding is a constructor call of a
        known program class (``ctx = _PairContext(...)``)."""
        candidates: dict[str, set[str]] = {}
        constructor_stores: set[int] = set()
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                cls_name = self._constructed_class(info, sub.value.func)
                if cls_name is not None:
                    candidates.setdefault(sub.targets[0].id, set()).add(cls_name)
                    constructor_stores.add(id(sub.targets[0]))
        if not candidates:
            return
        tainted: set[str] = set()
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Store)
                and id(sub) not in constructor_stores
            ):
                tainted.add(sub.id)
        fn.local_types = {
            name: tuple(sorted(classes))
            for name, classes in candidates.items()
            if name not in tainted and name not in fn.param_set
        }

    def _resolve_function(self, fn: FunctionNode) -> None:
        info = self.modules[fn.module]
        self._infer_local_types(info, fn)
        call_funcs: set[int] = set()
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Call):
                call_funcs.add(id(sub.func))
                fn.calls.append(self._resolve_call(info, fn, sub))
        refs: set[str] = set()
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in call_funcs
            ):
                target = info.functions.get(sub.id)
                if target is None and sub.id in info.member_imports:
                    target = self._function_by_dotted(info.member_imports[sub.id])
                if target is not None:
                    refs.add(target)
        fn.references = tuple(sorted(refs))

    def _resolve_call(
        self, info: ModuleInfo, fn: FunctionNode, call: ast.Call
    ) -> CallRecord:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(info, fn, call, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(info, fn, call, func)
        return CallRecord(node=call, kind="dynamic", display="<expr>()")

    def _resolve_name_call(
        self, info: ModuleInfo, fn: FunctionNode, call: ast.Call, name: str
    ) -> CallRecord:
        if name in fn.nested_defs:
            return CallRecord(node=call, kind="nested", display=name)
        if name in info.functions:
            return CallRecord(
                node=call,
                kind="function",
                display=name,
                targets=(info.functions[name],),
            )
        if name in info.classes:
            init = info.classes[name].get("__init__")
            return CallRecord(
                node=call,
                kind="constructor",
                display=name,
                targets=(init,) if init else (),
            )
        if name in info.member_imports:
            dotted = info.member_imports[name]
            target = self._function_by_dotted(dotted)
            if target is not None:
                return CallRecord(
                    node=call, kind="function", display=name, targets=(target,)
                )
            ctor = self._constructor_targets(dotted)
            if ctor is not None:
                return CallRecord(
                    node=call, kind="constructor", display=name, targets=ctor
                )
            return CallRecord(node=call, kind="module-attr", display=name)
        if name in info.import_aliases:
            return CallRecord(node=call, kind="module-attr", display=name)
        if name in BUILTIN_NAMES:
            return CallRecord(node=call, kind="builtin", display=name)
        # A callable parameter, a local callable value (comprehension
        # variable, assigned lambda, hot-loop alias) or an unrecognized
        # global: nothing in the program it can be resolved to.
        return CallRecord(node=call, kind="dynamic", display=name)

    def _resolve_attr_call(
        self,
        info: ModuleInfo,
        fn: FunctionNode,
        call: ast.Call,
        func: ast.Attribute,
    ) -> CallRecord:
        attr = func.attr
        chain: list[str] = []
        base: ast.expr = func.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            root = base.id
            dotted_root = info.import_aliases.get(root) or info.member_imports.get(
                root
            )
            if dotted_root is not None:
                dotted = ".".join([dotted_root, *reversed(chain), attr])
                target = self._function_by_dotted(dotted)
                if target is not None:
                    return CallRecord(
                        node=call,
                        kind="function",
                        display=f"{root}.{attr}",
                        targets=(target,),
                    )
                ctor = self._constructor_targets(dotted)
                if ctor is not None:
                    return CallRecord(
                        node=call,
                        kind="constructor",
                        display=f"{root}.{attr}",
                        targets=ctor,
                    )
                return CallRecord(
                    node=call, kind="module-attr", display=f"{root}.{attr}"
                )
            if not chain:
                if (
                    root in BUILTIN_TYPE_NAMES
                    and root not in fn.param_set
                    and root not in fn.locals
                    and root not in info.global_names
                ):
                    # ``object.__new__(cls)`` and friends: a method on a
                    # builtin type, never a program method.
                    return CallRecord(
                        node=call, kind="method", display=f"{root}.{attr}"
                    )
                if (
                    fn.class_name is not None
                    and fn.params
                    and root == fn.params[0]
                ):
                    own = info.classes.get(fn.class_name, {}).get(attr)
                    targets = (
                        (own,) if own else self.methods_by_name.get(attr, ())
                    )
                    return CallRecord(
                        node=call,
                        kind="method",
                        display=f"self.{attr}",
                        targets=targets,
                    )
                # An annotated parameter or a constructor-typed local
                # narrows the by-name union to its classes' methods.
                class_names = fn.param_types.get(root) or fn.local_types.get(
                    root, ()
                )
                targets = self._narrowed_methods(info, class_names, attr)
                if targets is None:
                    targets = self.methods_by_name.get(attr, ())
                return CallRecord(
                    node=call,
                    kind="method",
                    display=f"{root}.{attr}",
                    targets=targets,
                )
        # Method on a deeper expression (attribute chain, subscript, call
        # result, ...): the conservative by-name union.
        root_name = _expr_root(func.value)
        display = (
            f"<expr>.{attr}" if root_name is None else f"{root_name}.(...).{attr}"
        )
        return CallRecord(
            node=call,
            kind="method",
            display=display,
            targets=self.methods_by_name.get(attr, ()),
        )

    # -- queries -------------------------------------------------------

    def callees(self, qualname: str) -> frozenset[str]:
        """Program functions *qualname* may call (no references)."""
        fn = self.functions.get(qualname)
        if fn is None:
            return frozenset()
        out: set[str] = set()
        for record in fn.calls:
            out.update(record.targets)
        return frozenset(out)

    def edges_from(self, qualname: str) -> frozenset[str]:
        """Call targets plus address-taken references (for reachability)."""
        fn = self.functions.get(qualname)
        if fn is None:
            return frozenset()
        return self.callees(qualname) | set(fn.references)

    def reachable_from(self, seeds: Iterable[str]) -> frozenset[str]:
        """Transitive closure of :meth:`edges_from` over *seeds*."""
        seen: set[str] = set()
        stack = [q for q in seeds if q in self.functions]
        while stack:  # ungoverned: each program function is visited once
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges_from(current) - seen)
        return frozenset(seen)

    def entry_points(self) -> frozenset[str]:
        """Public functions of ``api``/``cli`` modules (the governed
        surface R008 protects), plus any ``main``."""
        out: set[str] = set()
        for info in self.modules.values():
            basename = Path(info.ctx.relpath).name
            if basename not in {"api.py", "cli.py", "__main__.py"}:
                continue
            for name, qualname in info.functions.items():
                if not name.startswith("_") or name == "main":
                    out.add(qualname)
        return frozenset(out)

    def iter_functions(self) -> Iterator[FunctionNode]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]
