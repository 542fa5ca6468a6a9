"""The stable high-level facade: compile once, call many times.

The facade has two layers:

* :func:`compile_schema` produces a frozen :class:`CompiledSchema`
  **handle** carrying everything about a schema that is worth paying for
  exactly once — the reduced schema, its structural fingerprint and
  cache digests, the single-type classification and the hot
  integer-coded validation tables.  The handle's methods
  (:meth:`CompiledSchema.validate`, :meth:`~CompiledSchema.approximate_upper`,
  :meth:`~CompiledSchema.approximate_lower`,
  :meth:`~CompiledSchema.definability`, :meth:`~CompiledSchema.includes`,
  :meth:`~CompiledSchema.equivalent`) are the primary entry points; a
  long-lived caller (see :mod:`repro.service`) keeps handles hot and
  amortizes compilation over millions of calls.
* The module-level free functions (:func:`approximate_upper`,
  :func:`validate`, ...) remain source-compatible thin wrappers: each
  resolves a per-schema-object handle (compiled at most once, held
  weakly) and delegates.  They no longer recompute structural keys or
  whole-schema digests per call.

Every entry point wraps one of the paper's constructions or decision
procedures behind a uniform contract:

* the governed trio ``budget=None, checkpoint=None, trace=None`` is always
  accepted (R006 keyword surface; ``None`` resolves the ambient
  context-manager defaults);
* when no budget is supplied a fresh metering
  :class:`repro.runtime.Budget` is installed — unlimited by default,
  bounded by the ambient :class:`Settings` when one is configured — so
  the returned :class:`BudgetUsage` is always populated;
* when no trace is supplied a fresh :class:`repro.observability.Trace` is
  opened around the call, so the result always carries the span tree of
  what actually ran — the facade *is* the observability surface;
* an optional ``cache=`` accepts a :class:`repro.cache.ArtifactCache`
  (installed as the ambient store for the call, so every nested
  minimal-DFA/content-model construction consults it) or
  :data:`repro.cache.DISABLED` to suppress ambient/environment stores.
  The approximation entry points additionally cache the *whole* result
  schema on disk, keyed by the input's structural fingerprint — a warm
  repeat skips the construction entirely while still replaying its
  recorded budget cost.

Facade-wide defaults live in the frozen :class:`Settings` dataclass,
installed for a dynamic extent with :func:`configured` or process-wide
with :func:`configure`.

Results are frozen dataclasses: :class:`ApproximationResult`,
:class:`InclusionResult`, :class:`ValidationResult`,
:class:`DefinabilityReport`.  The lower-level entry points
(:func:`repro.core.upper.minimal_upper_approximation` and friends) remain
public and unchanged for callers who want the raw schema objects.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Generator, Iterator

from repro import cache as _cache
from repro import observability as _obs
from repro.core.decision import (
    Definability,
    single_type_definability,
)
from repro.core.greedy import greedy_maximal_lower
from repro.core.upper import minimal_upper_approximation
from repro.errors import BudgetExceededError
from repro.observability import Trace
from repro.runtime.budget import Budget, resolve_budget
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.inclusion import included_in_single_type
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.text_format import loads as _loads_schema
from repro.schemas.type_automaton import is_single_type
from repro.strings.determinize import STRATEGIES, check_strategy
from repro.strings.kernels import _recharge
from repro.tree_automata.inclusion import edtd_includes
from repro.tree_automata.kernels import _tables_of, edtd_accept_steps, run_steps
from repro.trees.tree import Tree
from repro.trees.xml_io import events_of_tree, xml_events
# Not called here: wirebench/traced_server.py wraps ``repro.api.from_xml``
# by name to time the parse layer.
from repro.trees.xml_io import from_xml  # noqa: F401

__all__ = [
    "ApproximationResult",
    "BudgetUsage",
    "CompiledSchema",
    "DefinabilityReport",
    "InclusionResult",
    "Settings",
    "ValidationResult",
    "approximate_lower",
    "approximate_upper",
    "compile_schema",
    "configure",
    "configured",
    "current_settings",
    "definability",
    "schema_equivalent",
    "schema_includes",
    "validate",
]


# ----------------------------------------------------------------------
# Settings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Settings:
    """Frozen bundle of facade-wide defaults.

    Every field is a *default*, never an override: an explicit per-call
    argument (``budget=``, ``cache=``, ``strategy=``) always wins, and an
    ambient ``with Budget(...):`` context still takes precedence over the
    budget limits here.  Resolution order for each call is therefore:
    explicit argument > ambient context manager > active :class:`Settings`
    (:func:`configured` extent, else the :func:`configure` process
    default) > built-in fallback.

    ``timeout`` / ``max_states`` / ``max_steps`` shape the fresh metering
    budget the facade creates when a call has neither an explicit nor an
    ambient budget; ``cache`` is the default artifact store argument;
    ``strategy`` the default determinization kernel.
    """

    cache: "_cache.CacheArg" = None
    timeout: float | None = None
    max_states: int | None = None
    max_steps: int | None = None
    strategy: str = "blind"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} "
                f"(choose from {', '.join(map(repr, STRATEGIES))})"
            )

    def budget(self) -> Budget:
        """A fresh metering budget bounded by these settings."""
        return Budget(
            timeout=self.timeout,
            max_states=self.max_states,
            max_steps=self.max_steps,
        )


_FALLBACK_SETTINGS = Settings()

#: Dynamic-extent settings installed by :func:`configured`.
_AMBIENT_SETTINGS: "contextvars.ContextVar[Settings | None]" = contextvars.ContextVar(
    "repro-api-settings", default=None
)

#: Process-wide settings installed by :func:`configure`.
_DEFAULT_SETTINGS: Settings | None = None


def current_settings() -> Settings:
    """The active :class:`Settings`: the innermost :func:`configured`
    extent, else the :func:`configure` process default, else the built-in
    fallback (unlimited, blind, no cache)."""
    ambient = _AMBIENT_SETTINGS.get()
    if ambient is not None:
        return ambient
    if _DEFAULT_SETTINGS is not None:
        return _DEFAULT_SETTINGS
    return _FALLBACK_SETTINGS


@contextmanager
def configured(settings: Settings) -> Iterator[Settings]:
    """Install *settings* as the facade defaults for a dynamic extent.

    Nests and restores on exit; context-local, so concurrent asyncio
    tasks and threads can hold different settings.
    """
    token = _AMBIENT_SETTINGS.set(settings)
    try:
        yield settings
    finally:
        _AMBIENT_SETTINGS.reset(token)


def configure(settings: Settings | None = None) -> Settings | None:
    """Install (or clear, with no argument) the process-default
    :class:`Settings` (``configure(Settings(timeout=5.0))``).  Returns the
    previous default so callers can restore it."""
    global _DEFAULT_SETTINGS
    previous = _DEFAULT_SETTINGS
    _DEFAULT_SETTINGS = settings
    return previous


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetUsage:
    """What one facade call charged against its (possibly shared) budget."""

    states: int
    steps: int
    elapsed_seconds: float

    def describe(self) -> str:
        return (
            f"{self.states} states, {self.steps} steps, "
            f"{self.elapsed_seconds:.3f}s"
        )


@dataclass(frozen=True)
class ApproximationResult:
    """An approximation schema plus the evidence of how it was built.

    ``direction`` is ``"upper"`` (unique minimal upper XSD-approximation,
    Theorem 3.2) or ``"lower"`` (greedy maximal-within-bound lower
    approximation, Theorem 4.12 made constructive).
    """

    schema: SingleTypeEDTD
    direction: str
    trace: Trace
    usage: BudgetUsage


@dataclass(frozen=True)
class InclusionResult:
    """Boolean verdict of an inclusion or equivalence check; truthy iff
    the inclusion holds."""

    verdict: bool
    trace: Trace
    usage: BudgetUsage

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class ValidationResult:
    """Boolean verdict of document validation; truthy iff the document is
    in the schema's language."""

    valid: bool
    trace: Trace
    usage: BudgetUsage

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class DefinabilityReport:
    """Three-valued single-type definability verdict with budget evidence.

    Truthy iff the verdict is ``Definability.YES``.  On ``UNKNOWN`` the
    budget tripped: ``error`` carries the partial-progress counters and
    ``checkpoint``, when not ``None``, resumes the interrupted subset
    construction via ``definability(edtd, checkpoint=...)``.
    """

    verdict: Definability
    error: BudgetExceededError | None
    checkpoint: object | None
    trace: Trace
    usage: BudgetUsage

    def __bool__(self) -> bool:
        return self.verdict is Definability.YES


# ----------------------------------------------------------------------
# Shared context plumbing
# ----------------------------------------------------------------------

class _FacadeCall:
    """Resolve (budget, trace, cache) for one facade call and meter the
    deltas.

    An explicit or ambient budget/trace wins; otherwise a fresh metering
    budget (bounded by the active :class:`Settings`) and a fresh trace
    are created and — for the trace — installed for the call's dynamic
    extent so every nested construction span attaches to it.  An explicit
    ``cache=`` argument (a store or :data:`repro.cache.DISABLED`) is
    installed as the ambient store for the extent; ``None`` falls back to
    the active settings' cache, then ambient/env resolution.
    """

    __slots__ = (
        "budget",
        "trace",
        "cache",
        "_cache_arg",
        "_cache_cm",
        "_owned_trace",
        "_states0",
        "_steps0",
        "_elapsed0",
    )

    def __init__(
        self,
        name: str,
        budget: Budget | None,
        trace: Trace | None,
        cache: "_cache.CacheArg" = None,
    ) -> None:
        settings = current_settings()
        resolved = resolve_budget(budget)
        self.budget = resolved if resolved is not None else settings.budget()
        if trace is None:
            trace = _obs.current_trace()
        self._owned_trace = Trace(name) if trace is None else None
        self.trace = trace if trace is not None else self._owned_trace
        self._cache_arg = cache if cache is not None else settings.cache
        self._cache_cm: Any = None
        self.cache: "_cache.ArtifactCache | None" = None
        self._states0 = 0
        self._steps0 = 0
        self._elapsed0 = 0.0

    def __enter__(self) -> "_FacadeCall":
        if self._owned_trace is not None:
            self._owned_trace.__enter__()
        self._cache_cm = _cache.activation(self._cache_arg)
        self.cache = self._cache_cm.__enter__()
        self._states0 = self.budget.states
        self._steps0 = self.budget.steps
        self._elapsed0 = self.budget.elapsed
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._cache_cm is not None:
            self._cache_cm.__exit__(*exc_info)
            self._cache_cm = None
        if self._owned_trace is not None:
            self._owned_trace.__exit__(*exc_info)

    def usage(self) -> BudgetUsage:
        # Deltas, not totals: the budget may be a long-lived ambient one
        # shared across several facade calls.
        return BudgetUsage(
            states=self.budget.states - self._states0,
            steps=self.budget.steps - self._steps0,
            elapsed_seconds=self.budget.elapsed - self._elapsed0,
        )


# ----------------------------------------------------------------------
# Cache addressing
# ----------------------------------------------------------------------

def _whole_schema_digest(kind: str, edtd: EDTD, params: tuple[Any, ...]) -> str | None:
    """Disk address for a whole approximation result, or ``None`` when the
    input schema is uncacheable (repr collisions).  Handle methods use the
    precomputed :attr:`CompiledSchema._key` instead of re-walking the
    schema; this helper remains for one-shot callers."""
    key = _cache.schema_structural_key(edtd)
    if key is None:
        return None
    return _cache.artifact_digest(kind, (key, params))


def _load_cached_schema(
    store: "_cache.ArtifactCache", digest: str, budget: Budget
) -> SingleTypeEDTD | None:
    """A cached approximation schema, with its construction cost replayed
    against *budget* — or ``None`` on any kind of miss."""
    loaded = store.get(digest)
    if loaded is None:
        return None
    schema, states_cost, steps_cost = loaded
    if not isinstance(schema, SingleTypeEDTD):  # foreign/damaged payload
        return None
    _recharge(budget, states_cost, steps_cost)
    return schema


def _guide_cache_key(guide: Any) -> Any:
    """A structural fingerprint of a ``guide=`` argument for whole-schema
    digests: ``None`` for no guide, a schema/DFA structural key otherwise,
    or the string ``"uncacheable"`` (a value no real key collides with)
    when the guide has no sound fingerprint."""
    if guide is None:
        return None
    if isinstance(guide, EDTD):
        key = _cache.schema_structural_key(guide)
    else:
        from repro.strings.kernels import structural_key

        key = structural_key(guide)
    return "uncacheable" if key is None else key


# ----------------------------------------------------------------------
# The compile-once handle
# ----------------------------------------------------------------------

_ANON_IDS = itertools.count(1)


@dataclass(frozen=True, eq=False)
class CompiledSchema:
    """A compile-once, reuse-many handle on one schema.

    Produced by :func:`compile_schema`.  The handle is frozen — it never
    mutates the wrapped schema and exposes no setters — and carries the
    per-schema artifacts every call would otherwise recompute:

    * ``schema`` — the original EDTD, kept alive so the integer-coded
      validation tables of :mod:`repro.tree_automata.kernels` stay hot;
    * ``_reduced`` — the reduced schema (Proviso 2.3), computed once and
      fed to every construction and to the validators;
    * ``schema_id`` — a stable content address (structural fingerprint +
      strategy), the registry/service handle name; anonymous
      (``anon:N``) when the schema is structurally uncacheable;
    * ``_key`` — the structural fingerprint backing every whole-schema
      disk digest, so repeat approximation calls hash a tiny tuple
      instead of re-walking the schema;
    * ``strategy`` — the default determinization kernel for this handle.

    Methods mirror the module-level facade functions and return the same
    frozen result objects with the same governed keyword surface.
    """

    schema: EDTD = field(repr=False)
    schema_id: str
    strategy: str
    _reduced: EDTD = field(repr=False)
    _key: Any = field(repr=False)
    _is_single_type: bool = field(repr=False)
    _cache: "_cache.CacheArg" = field(repr=False)

    # -- derived artifacts ---------------------------------------------

    @property
    def is_single_type(self) -> bool:
        """Whether the wrapped schema already satisfies the single-type
        restriction (classified once at compile time)."""
        return self._is_single_type

    def _call_cache(self, cache: "_cache.CacheArg") -> "_cache.CacheArg":
        return cache if cache is not None else self._cache

    # -- operations ----------------------------------------------------

    def validate(
        self,
        document: "Tree | str",
        *,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> ValidationResult:
        """Validate *document* (a :class:`Tree` or an element-only XML
        fragment string) against the compiled schema: :meth:`validate_steps`
        run to its end."""
        return run_steps(
            self.validate_steps(
                document, budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
            )
        )

    def validate_steps(
        self,
        document: "Tree | str",
        *,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> Generator[None, None, ValidationResult]:
        """:meth:`validate` as a resumable step generator: it yields after
        every slice of the document's tag events
        (:data:`repro.tree_automata.kernels.SLICE_EVENTS`) and returns the
        :class:`ValidationResult`.  A caller that must stay responsive,
        such as the service's event loop, runs other work between slices;
        whoever drives it must close it if it stops early.

        A string is validated in one pass from text to verdict: the
        hardened tokenizer (:func:`repro.trees.xml_io.xml_events`) feeds
        the stepwise evaluator on the reduced schema's hot tables
        (:func:`repro.tree_automata.kernels.edtd_accept_steps`), and no
        tree is built.  A :class:`Tree` feeds the same evaluator its tag
        events (:func:`repro.trees.xml_io.events_of_tree`).  Either way
        the budget's deadline/cancellation is checked before the first
        element and one step is charged per element as the element is
        read, so per-request deadlines and ``max_steps`` (the service
        maps ``deadline_ms`` / ``max_steps`` here) trip at the same
        deterministic points for a tree as for its text.  *checkpoint*
        is accepted for keyword-surface uniformity but unused.
        """
        del checkpoint  # no resumable phase
        with _FacadeCall("validate", budget, trace, self._call_cache(cache)) as call:
            with _obs.construction_span(
                "validate", trace=call.trace, budget=call.budget
            ) as span:
                if isinstance(document, str):
                    events = xml_events(document, budget=call.budget)
                else:
                    events = events_of_tree(document, budget=call.budget)
                valid = yield from edtd_accept_steps(self._reduced, events)
                usage = call.usage()
                if span is not None:
                    span.annotate(valid=valid, nodes=usage.steps)
            return ValidationResult(valid=valid, trace=call.trace, usage=usage)

    def approximate_upper(
        self,
        *,
        minimize: bool = False,
        strategy: str | None = None,
        guide: Any = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> ApproximationResult:
        """Construction 3.1: the unique minimal upper XSD-approximation of
        the compiled schema's language (see :func:`approximate_upper`).

        ``strategy=None`` resolves to the handle's default.  With
        ``strategy="schema-guided"`` and no explicit guide, the schema is
        its own guide; the digest then reuses the handle's precomputed
        fingerprint, so nothing is re-hashed per call.
        """
        if strategy is None:
            strategy = self.strategy
        with _FacadeCall(
            "approximate-upper", budget, trace, self._call_cache(cache)
        ) as call:
            if strategy == "schema-guided" and guide is None:
                # Self-guided by default: the input's own ancestor-string
                # machine prunes subset states without changing the
                # language.  Resolving it before the cache key keeps
                # explicit `guide=edtd` and the default on the same
                # artifact.
                guide = self.schema
            digest = None
            if call.cache is not None and checkpoint is None and self._key is not None:
                if guide is None:
                    guide_key: Any = None
                elif guide is self.schema:
                    guide_key = self._key
                else:
                    guide_key = _guide_cache_key(guide)
                if guide_key != "uncacheable":
                    digest = _cache.artifact_digest(
                        "upper", (self._key, (bool(minimize), strategy, guide_key))
                    )
            if digest is not None:
                cached = _load_cached_schema(call.cache, digest, call.budget)
                if cached is not None:
                    return ApproximationResult(
                        schema=cached,
                        direction="upper",
                        trace=call.trace,
                        usage=call.usage(),
                    )
            states0, steps0 = call.budget.states, call.budget.steps
            schema = minimal_upper_approximation(
                self._reduced,
                minimize=minimize,
                strategy=strategy,
                guide=guide,
                budget=call.budget,
                checkpoint=checkpoint,
                trace=call.trace,
            )
            if digest is not None:
                call.cache.put(
                    digest,
                    schema,
                    call.budget.states - states0,
                    call.budget.steps - steps0,
                )
            return ApproximationResult(
                schema=schema, direction="upper", trace=call.trace, usage=call.usage()
            )

    def approximate_lower(
        self,
        *,
        max_size: int = 6,
        seed_schema: SingleTypeEDTD | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> ApproximationResult:
        """A greedy maximal-within-bound lower XSD-approximation of the
        compiled schema's language (the constructive side of Theorem
        4.12).  Cached whole on disk like :meth:`approximate_upper`; the
        key includes *max_size* and the seed schema's fingerprint."""
        with _FacadeCall(
            "approximate-lower", budget, trace, self._call_cache(cache)
        ) as call:
            digest = None
            if call.cache is not None and checkpoint is None and self._key is not None:
                seed_key: Any = None
                if seed_schema is not None:
                    seed_key = _cache.schema_structural_key(seed_schema)
                if seed_schema is None or seed_key is not None:
                    digest = _cache.artifact_digest(
                        "lower", (self._key, (max_size, seed_key))
                    )
            if digest is not None:
                cached = _load_cached_schema(call.cache, digest, call.budget)
                if cached is not None:
                    return ApproximationResult(
                        schema=cached,
                        direction="lower",
                        trace=call.trace,
                        usage=call.usage(),
                    )
            states0, steps0 = call.budget.states, call.budget.steps
            schema = greedy_maximal_lower(
                self.schema,
                max_size=max_size,
                seed_schema=seed_schema,
                budget=call.budget,
                checkpoint=checkpoint,
                trace=call.trace,
            )
            if digest is not None:
                call.cache.put(
                    digest,
                    schema,
                    call.budget.states - states0,
                    call.budget.steps - steps0,
                )
            return ApproximationResult(
                schema=schema, direction="lower", trace=call.trace, usage=call.usage()
            )

    def definability(
        self,
        *,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> DefinabilityReport:
        """Three-valued single-type definability of the compiled schema's
        language (EXPTIME-complete; degrades to ``UNKNOWN`` with a
        resumable checkpoint when the budget trips)."""
        with _FacadeCall(
            "definability", budget, trace, self._call_cache(cache)
        ) as call:
            result = single_type_definability(
                self.schema, budget=call.budget, checkpoint=checkpoint, trace=call.trace
            )
            return DefinabilityReport(
                verdict=result.verdict,
                error=result.error,
                checkpoint=result.checkpoint,
                trace=call.trace,
                usage=call.usage(),
            )

    def includes(
        self,
        sub: "EDTD | CompiledSchema",
        *,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> InclusionResult:
        """Decide ``L(sub) subseteq L(self)``.

        Dispatches on the compile-time classification of this handle:
        single-type schemas take the PTIME route of Lemma 3.3; general
        EDTDs take the exact EXPTIME tree-automata procedure (Theorem
        2.13).  *checkpoint* is accepted for keyword-surface uniformity
        but unused — neither route has a resumable phase.
        """
        del checkpoint  # no resumable phase
        if isinstance(sub, CompiledSchema):
            sub = sub.schema
        with _FacadeCall(
            "schema-includes", budget, trace, self._call_cache(cache)
        ) as call:
            with _obs.construction_span(
                "schema-includes", trace=call.trace, budget=call.budget
            ) as span:
                if self._is_single_type:
                    verdict = included_in_single_type(sub, self.schema)
                else:
                    verdict = edtd_includes(self.schema, sub, budget=call.budget)
                if span is not None:
                    span.annotate(included=verdict)
            return InclusionResult(
                verdict=verdict, trace=call.trace, usage=call.usage()
            )

    def equivalent(
        self,
        other: "EDTD | CompiledSchema",
        *,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
        cache: "_cache.CacheArg" = None,
    ) -> InclusionResult:
        """Decide language equivalence with *other* (two inclusion
        checks, each routed as in :meth:`includes`)."""
        first = self.includes(
            other, budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
        )
        if not first.verdict:
            return first
        other_handle = other if isinstance(other, CompiledSchema) else _handle_for(other)
        second = other_handle.includes(
            self.schema,
            budget=budget,
            checkpoint=checkpoint,
            trace=first.trace,
            cache=cache,
        )
        return InclusionResult(
            verdict=second.verdict,
            trace=first.trace,
            usage=BudgetUsage(
                states=first.usage.states + second.usage.states,
                steps=first.usage.steps + second.usage.steps,
                elapsed_seconds=max(
                    first.usage.elapsed_seconds, second.usage.elapsed_seconds
                ),
            ),
        )


def _compile(
    schema: "EDTD | DTD | str", strategy: str, cache: "_cache.CacheArg"
) -> CompiledSchema:
    """The raw compile step behind :func:`compile_schema` (no facade)."""
    if isinstance(schema, str):
        schema = _loads_schema(schema)
    elif isinstance(schema, DTD):
        schema = schema.to_edtd()
    reduced = schema.reduced()
    key = _cache.schema_structural_key(schema)
    if key is not None:
        schema_id = _cache.artifact_digest("compiled-schema", (key, strategy))
        assert schema_id is not None
    else:
        # Structurally uncacheable (repr collisions): the handle still
        # amortizes tables and reduction, it just cannot be deduplicated
        # or disk-addressed.
        schema_id = f"anon:{next(_ANON_IDS)}"
    if reduced.types:
        # Warm the integer-coded validation tables now; they live in a
        # WeakKeyDictionary keyed by the reduced schema object, so the
        # handle keeping `reduced` alive is what keeps them hot.
        _tables_of(reduced)
    return CompiledSchema(
        schema=schema,
        schema_id=schema_id,
        strategy=strategy,
        _reduced=reduced,
        _key=key,
        _is_single_type=is_single_type(schema),
        _cache=cache,
    )


def resolve_strategy(strategy: str | None) -> str:
    """*strategy*, or the active :class:`Settings` default when it is
    ``None``; an unknown strategy raises
    :class:`~repro.errors.AutomatonError`
    (:func:`repro.strings.determinize.check_strategy`)."""
    if strategy is None:
        return current_settings().strategy
    return check_strategy(strategy)


def compile_schema(
    schema: "EDTD | DTD | str",
    *,
    strategy: str | None = None,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> CompiledSchema:
    """Compile *schema* (an EDTD, a DTD, or an EDTD's text-format source)
    into a frozen :class:`CompiledSchema` handle.

    Pays once for reduction, the structural fingerprint / content
    address, the single-type classification, and the integer-coded
    validation tables; every handle method then reuses them.  *strategy*
    (``None`` = the active :class:`Settings` default) becomes the
    handle's default determinization kernel, and *cache* its default
    artifact store argument.  *checkpoint* is accepted for
    keyword-surface uniformity but unused — compilation has no resumable
    phase.  An unknown *strategy* raises :class:`AutomatonError` before
    anything is compiled.
    """
    del checkpoint  # no resumable phase
    strategy = resolve_strategy(strategy)
    with _FacadeCall("compile-schema", budget, trace, cache) as call:
        with _obs.construction_span(
            "compile-schema", trace=call.trace, budget=call.budget
        ) as span:
            handle = _compile(schema, strategy, call._cache_arg)
            if span is not None:
                span.annotate(
                    schema_id=handle.schema_id,
                    types=len(handle.schema.types),
                    single_type=handle.is_single_type,
                )
            if _obs.ENABLED:
                _obs.METRICS.counter("api.compile_schema").inc()
    return handle


# ----------------------------------------------------------------------
# Free functions: thin wrappers over per-object handles
# ----------------------------------------------------------------------

#: Compile-once memo behind the free functions.  The handle lives on the
#: schema object itself under this attribute (a WeakKeyDictionary would
#: pin the schema forever: its value — the handle — holds a strong
#: reference back to the key), so schema and handle are collected
#: together.  A WeakSet tracks which schemas carry a memo so
#: :func:`clear_handles` can strip them.
_HANDLE_ATTR = "_repro_compiled_handle"
_HANDLE_LOCK = threading.Lock()
_MEMOIZED_SCHEMAS: "weakref.WeakSet[EDTD | DTD]" = weakref.WeakSet()


def _handle_for(schema: "EDTD | DTD") -> CompiledSchema:
    """The memoized handle for *schema*: compiled at most once per schema
    object (per ambient strategy), concurrent first calls deduplicated
    under a lock."""
    strategy = current_settings().strategy
    handle = getattr(schema, _HANDLE_ATTR, None)
    if handle is not None and handle.strategy == strategy:
        return handle
    with _HANDLE_LOCK:
        handle = getattr(schema, _HANDLE_ATTR, None)
        if handle is None or handle.strategy != strategy:
            handle = _compile(schema, strategy, None)
            try:
                _MEMOIZED_SCHEMAS.add(schema)
                setattr(schema, _HANDLE_ATTR, handle)
            except (AttributeError, TypeError):
                # __slots__ / frozen / un-weakref-able schema: the memo
                # is rejected but the caller still gets a working
                # (uncached) handle.
                _obs.METRICS.counter("api.handle_memo_rejected").inc()
    return handle


def clear_handles() -> None:
    """Drop every memoized free-function handle (test isolation helper)."""
    with _HANDLE_LOCK:
        for schema in list(_MEMOIZED_SCHEMAS):
            schema.__dict__.pop(_HANDLE_ATTR, None)
        _MEMOIZED_SCHEMAS.clear()


def approximate_upper(
    edtd: EDTD,
    *,
    minimize: bool = False,
    strategy: str | None = None,
    guide: Any = None,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> ApproximationResult:
    """Construction 3.1: the unique minimal upper XSD-approximation of
    ``L(edtd)``, wrapped with trace and budget-usage evidence.

    *strategy* selects the determinization kernel (``"blind"`` or
    ``"schema-guided"``; ``None`` resolves the active :class:`Settings`
    default), *guide* the optional guiding schema (an EDTD or an
    ancestor-string DFA).  With ``strategy="schema-guided"`` and no
    explicit guide, the input is its own guide: its ancestor-string
    machine prunes the subset construction without changing the
    approximated language.

    Thin wrapper over :meth:`CompiledSchema.approximate_upper` on the
    per-object handle: structural fingerprints and whole-schema digests
    are computed once per schema object, not per call.  With a
    persistent store configured, the whole result schema is cached on
    disk keyed by that fingerprint (strategy and guide folded in, so
    blind and guided artifacts never collide): a warm repeat skips the
    subset construction entirely while replaying its recorded budget
    cost, so governance is identical warm or cold.
    """
    if strategy is None:
        strategy = current_settings().strategy
    return _handle_for(edtd).approximate_upper(
        minimize=minimize,
        strategy=strategy,
        guide=guide,
        budget=budget,
        checkpoint=checkpoint,
        trace=trace,
        cache=cache,
    )


def approximate_lower(
    target: EDTD,
    *,
    max_size: int = 6,
    seed_schema: SingleTypeEDTD | None = None,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> ApproximationResult:
    """A greedy maximal-within-bound lower XSD-approximation of
    ``L(target)`` (the constructive side of Theorem 4.12).

    Thin wrapper over :meth:`CompiledSchema.approximate_lower`; cached
    whole on disk like :func:`approximate_upper` with *max_size* and the
    seed schema's fingerprint in the key.
    """
    return _handle_for(target).approximate_lower(
        max_size=max_size,
        seed_schema=seed_schema,
        budget=budget,
        checkpoint=checkpoint,
        trace=trace,
        cache=cache,
    )


def definability(
    edtd: EDTD,
    *,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> DefinabilityReport:
    """Three-valued single-type definability of ``L(edtd)``
    (EXPTIME-complete; degrades to ``UNKNOWN`` with a resumable
    checkpoint when the budget trips).  Thin wrapper over
    :meth:`CompiledSchema.definability`."""
    return _handle_for(edtd).definability(
        budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
    )


def schema_includes(
    sup: EDTD,
    sub: EDTD,
    *,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> InclusionResult:
    """Decide ``L(sub) subseteq L(sup)``.

    Dispatches on the superset schema: single-type superset schemas take
    the PTIME route of Lemma 3.3; general EDTDs take the exact EXPTIME
    tree-automata procedure (Theorem 2.13).  Thin wrapper over
    :meth:`CompiledSchema.includes` on the superset's handle (the
    single-type classification is made once at compile time).

    *checkpoint* is accepted for keyword-surface uniformity but unused —
    neither inclusion route has a resumable phase.
    """
    return _handle_for(sup).includes(
        sub, budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
    )


def schema_equivalent(
    left: EDTD,
    right: EDTD,
    *,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> InclusionResult:
    """Decide ``L(left) == L(right)`` (two inclusion checks, each routed
    as in :func:`schema_includes`).  Thin wrapper over
    :meth:`CompiledSchema.equivalent`."""
    return _handle_for(left).equivalent(
        right, budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
    )


def validate(
    schema: "EDTD | DTD",
    document: "Tree | str",
    *,
    budget: Budget | None = None,
    checkpoint: Any = None,
    trace: Trace | None = None,
    cache: "_cache.CacheArg" = None,
) -> ValidationResult:
    """Validate *document* (a :class:`Tree` or an element-only XML
    fragment string) against *schema* (an EDTD, or a DTD through its
    EDTD view :meth:`repro.schemas.dtd.DTD.to_edtd`).

    Thin wrapper over :meth:`CompiledSchema.validate` on the per-object
    handle, so repeat validations against the same schema object run on
    hot integer-coded tables.  *checkpoint* is accepted for
    keyword-surface uniformity but unused — validation has no resumable
    phase.
    """
    return _handle_for(schema).validate(
        document, budget=budget, checkpoint=checkpoint, trace=trace, cache=cache
    )
