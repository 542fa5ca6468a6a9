"""Structured observability: trace spans, metrics, and profiling hooks.

The PR-1 resource governor answers *whether* a worst-case-exponential
construction may keep running; this package answers *where it spent its
budget*.  Three cooperating pieces, all zero-dependency:

:class:`Trace` / :class:`Span`
    A tree of timed spans, one per construction phase (``determinize``,
    ``content-union``, ``bta-inclusion``, ...).  Threaded exactly like
    :class:`repro.runtime.Budget`: every governed entry point accepts an
    explicit ``trace=`` keyword, and ``with Trace():`` installs an ambient
    default through a :class:`contextvars.ContextVar`, so tracing composes
    with threads and asyncio tasks.  Each span records wall time, the
    budget states/steps charged inside it, kernel fast-path vs. scalar
    fallback, and memo-cache hit/miss deltas.

:class:`MetricsRegistry` (module singleton :data:`METRICS`)
    Named counters, gauges, and histograms that the hot paths report into
    — :meth:`Budget.tick <repro.runtime.budget.Budget.tick>` charges,
    kernel runs, Hopcroft refinements, BTA inclusions, cache lookups, the
    greedy lower loop.

Exporters
    :meth:`Trace.to_dict` / :meth:`Trace.to_json` (machine-readable,
    validated by :mod:`repro.observability.schema`),
    :meth:`Trace.render` (flame-style text for the CLI ``--trace`` flag),
    and the benchmark hook in ``benchmarks/_util.py`` that embeds span
    trees in ``BENCH_*.json``.

Overhead discipline: everything is **no-op-cheap when disabled**.  The
module-level :data:`ENABLED` flag guards every hot-path report site (one
global load + branch); :func:`construction_span` returns a shared null
context manager when no trace is active, so ungoverned, untraced runs
allocate nothing.  ``benchmarks/bench_governor_overhead.py`` holds the
combined governor+observability overhead under 5%.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar, Token
from typing import Any, Callable, Iterator

__all__ = [
    "ENABLED",
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "construction_span",
    "current_span",
    "current_trace",
    "disable",
    "enable",
    "register_cache_provider",
    "resolve_trace",
]

#: Module-level master switch.  True while any :class:`Trace` context is
#: active (or after an explicit :func:`enable`).  Hot paths guard every
#: report site with ``if observability.ENABLED:`` so the disabled cost is
#: a single global load and branch.
ENABLED = False

_DEPTH = 0

_ACTIVE_TRACE: ContextVar["Trace | None"] = ContextVar("repro_trace", default=None)
_ACTIVE_SPAN: ContextVar["Span | None"] = ContextVar("repro_span", default=None)

#: Callables returning cumulative ``(hits, misses)`` across a subsystem's
#: memo caches; spans snapshot these to attribute cache traffic per phase.
_CACHE_PROVIDERS: list[Callable[[], tuple[int, int]]] = []


def register_cache_provider(provider: Callable[[], tuple[int, int]]) -> None:
    """Register a cumulative ``() -> (hits, misses)`` cache-stats source.

    :mod:`repro.strings.kernels` registers one provider for every memo
    tier at import time; other cache owners may do the same.  Spans snapshot the sum of all
    providers on entry/exit and record the deltas as ``cache_hits`` /
    ``cache_misses`` attributes.
    """
    if provider not in _CACHE_PROVIDERS:
        _CACHE_PROVIDERS.append(provider)


def _cache_totals() -> tuple[int, int]:
    hits = 0
    misses = 0
    for provider in _CACHE_PROVIDERS:
        h, m = provider()
        hits += h
        misses += m
    return hits, misses


def enable() -> None:
    """Turn on metrics recording (without requiring an active trace).

    Calls nest: each :func:`enable` needs a matching :func:`disable`.
    :class:`Trace` contexts call these automatically.
    """
    global ENABLED, _DEPTH
    _DEPTH += 1
    ENABLED = True


def disable() -> None:
    """Undo one :func:`enable`; recording stops when the count hits zero."""
    global ENABLED, _DEPTH
    if _DEPTH > 0:
        _DEPTH -= 1
    ENABLED = _DEPTH > 0


# ----------------------------------------------------------------------
# Spans and traces
# ----------------------------------------------------------------------

class Span:
    """One timed phase of a construction, with attributes and children.

    ``elapsed`` is ``None`` while the span is open and the wall-clock
    duration in seconds once closed.  ``attrs`` carries phase-specific
    facts: states/steps charged inside the span (inclusive of children),
    ``kernel`` fast-path vs. scalar fallback, cache hit/miss deltas,
    result sizes.
    """

    __slots__ = ("name", "attrs", "children", "started", "elapsed")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list["Span"] = []
        self.started = time.perf_counter()
        self.elapsed: float | None = None

    def close(self) -> None:
        if self.elapsed is None:
            self.elapsed = time.perf_counter() - self.started

    def annotate(self, **attrs: Any) -> None:
        """Merge *attrs* into the span's attribute mapping."""
        self.attrs.update(attrs)

    # -- introspection --------------------------------------------------

    def tree_names(self) -> Any:
        """The span tree as nested ``(name, [children...])`` pairs — the
        deterministic shape golden tests pin (wall times vary, names and
        structure do not)."""
        return (self.name, [child.tree_names() for child in self.children])

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of the span subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        elapsed = self.elapsed if self.elapsed is not None else (
            time.perf_counter() - self.started
        )
        return {
            "name": self.name,
            "elapsed_ms": elapsed * 1e3,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.elapsed is None else f"{self.elapsed * 1e3:.2f}ms"
        return f"<Span {self.name!r} {state} children={len(self.children)}>"


class Trace:
    """A span tree for one logical operation.

    Mirrors :class:`repro.runtime.Budget`'s threading model:

    * **explicit parameter** — governed entry points accept ``trace=...``;
    * **context-manager default** — ``with Trace():`` installs the trace
      (and its root span) for every governed call in the dynamic extent.

    The root span is named after the trace (default ``"trace"``); nested
    construction spans attach to the ambient current span, so the tree
    reflects the real call structure.
    """

    __slots__ = ("root", "_trace_token", "_span_token")

    def __init__(self, name: str = "trace") -> None:
        self.root = Span(name)
        self._trace_token: Token["Trace | None"] | None = None
        self._span_token: Token["Span | None"] | None = None

    def __enter__(self) -> "Trace":
        if self._trace_token is not None:
            from repro.errors import ReproError

            raise ReproError("Trace context manager is not re-entrant")
        self._trace_token = _ACTIVE_TRACE.set(self)
        self._span_token = _ACTIVE_SPAN.set(self.root)
        enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._trace_token is not None and self._span_token is not None
        disable()
        _ACTIVE_SPAN.reset(self._span_token)
        _ACTIVE_TRACE.reset(self._trace_token)
        self._trace_token = None
        self._span_token = None
        self.root.close()

    # -- exporters ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form, valid against the checked-in
        ``trace_schema.json`` (see :mod:`repro.observability.schema`)."""
        return {
            "schema": 1,
            "root": self.root.to_dict(),
            "metrics": METRICS.to_dict(),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str, sort_keys=False)

    def render(self) -> str:
        """Flame-style text rendering of the span tree (CLI ``--trace``)."""
        lines: list[str] = []
        _render_span(self.root, "", "", lines)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace root={self.root!r}>"


def _format_attrs(attrs: dict[str, Any]) -> str:
    # Insertion order is deterministic (creation attrs first, then the
    # states/steps/cache deltas stamped at span exit) and reads better
    # than alphabetical in the flame view.
    return " ".join(  # repro-lint: disable=R002 -- dict preserves insertion order
        f"{key}={value}" for key, value in attrs.items()
    )


def _render_span(span: Span, prefix: str, child_prefix: str, lines: list[str]) -> None:
    elapsed = span.elapsed
    timing = f"{elapsed * 1e3:9.2f}ms" if elapsed is not None else "     open"
    label = f"{prefix}{span.name}"
    extras = _format_attrs(span.attrs)
    lines.append(f"{label:<48} {timing}" + (f"  {extras}" if extras else ""))
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        branch = "└─ " if last else "├─ "
        cont = "   " if last else "│  "
        _render_span(child, child_prefix + branch, child_prefix + cont, lines)


def current_trace() -> Trace | None:
    """The trace installed by the innermost ``with Trace():`` block, or
    ``None`` when running untraced."""
    return _ACTIVE_TRACE.get()


def current_span() -> Span | None:
    """The innermost open span of the ambient trace, or ``None``."""
    return _ACTIVE_SPAN.get()


def resolve_trace(trace: Trace | None = None) -> Trace | None:
    """Resolve the effective trace for a governed entry point.

    An explicit argument wins; otherwise the context-manager default
    applies (checked only when :data:`ENABLED`, so untraced hot paths pay
    one global load); otherwise ``None``.
    """
    if trace is not None:
        return trace
    if ENABLED:
        return _ACTIVE_TRACE.get()
    return None


class _NullSpanContext:
    """Shared do-nothing context manager returned when tracing is off —
    ``construction_span`` must not allocate on the untraced path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager recording one construction span.

    On exit the span gains ``states``/``steps`` (budget counters charged
    inside the span, inclusive of children) and ``cache_hits`` /
    ``cache_misses`` deltas from the registered cache providers.
    """

    __slots__ = (
        "_trace",
        "_name",
        "_attrs",
        "_budget",
        "_span",
        "_token",
        "_trace_token",
        "_states0",
        "_steps0",
        "_cache0",
    )

    def __init__(
        self,
        trace: Trace,
        name: str,
        budget: Any,
        attrs: dict[str, Any],
    ) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self._budget = budget
        self._span: Span | None = None
        self._token: Token[Span | None] | None = None
        self._trace_token: Token[Trace | None] | None = None
        self._states0 = 0
        self._steps0 = 0
        self._cache0 = (0, 0)

    def __enter__(self) -> Span:
        span = Span(self._name, self._attrs)
        # An explicitly-passed trace must reach nested constructions that
        # only consult the ambient default, so the span's dynamic extent
        # installs the trace (and bumps ENABLED) exactly like a Trace
        # context would.
        if _ACTIVE_TRACE.get() is not self._trace:
            self._trace_token = _ACTIVE_TRACE.set(self._trace)
            enable()
            parent = self._trace.root  # ambient span belongs to another trace
        else:
            parent = _ACTIVE_SPAN.get()
            if parent is None:
                parent = self._trace.root
        parent.children.append(span)
        self._token = _ACTIVE_SPAN.set(span)
        self._span = span
        budget = self._budget
        if budget is not None:
            self._states0 = budget.states
            self._steps0 = budget.steps
        self._cache0 = _cache_totals()
        return span

    def __exit__(self, *exc_info: object) -> bool:
        span = self._span
        assert span is not None and self._token is not None
        span.close()
        budget = self._budget
        if budget is not None:
            span.attrs.setdefault("states", budget.states - self._states0)
            span.attrs.setdefault("steps", budget.steps - self._steps0)
        hits, misses = _cache_totals()
        hits0, misses0 = self._cache0
        if hits != hits0 or misses != misses0:
            span.attrs.setdefault("cache_hits", hits - hits0)
            span.attrs.setdefault("cache_misses", misses - misses0)
        if exc_info and exc_info[0] is not None:
            span.attrs.setdefault("error", getattr(exc_info[0], "__name__", "error"))
        _ACTIVE_SPAN.reset(self._token)
        if self._trace_token is not None:
            disable()
            _ACTIVE_TRACE.reset(self._trace_token)
            self._trace_token = None
        self._span = None
        self._token = None
        return False


def construction_span(
    name: str,
    *,
    trace: Trace | None = None,
    budget: Any = None,
    **attrs: Any,
) -> _SpanContext | _NullSpanContext:
    """Open a span named *name* under the resolved trace.

    The workhorse instrumentation hook: governed constructions wrap their
    body in ``with construction_span("determinize", trace=trace,
    budget=budget, kernel="scalar"):``.  When no trace is active this
    returns the shared :data:`NULL_SPAN` — no allocation, no contextvar
    writes — so the untraced cost is one function call and one flag test.
    """
    resolved = trace if trace is not None else (_ACTIVE_TRACE.get() if ENABLED else None)
    if resolved is None:
        return NULL_SPAN
    return _SpanContext(resolved, name, budget, attrs)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Summary statistics (count/total/min/max) over observed values.

    A fixed four-number summary instead of buckets: the consumers here
    (bench JSON, the CLI) want per-construction size distributions, and
    count+total+extrema reconstruct mean and range without committing to a
    bucket layout.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the observed values (``None`` when empty)."""
        if self.count == 0:
            return None
        return self.total / self.count

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, and histograms.

    Report sites call ``METRICS.counter("budget.steps").inc(n)`` guarded
    by :data:`ENABLED`; :meth:`to_dict` snapshots everything for the trace
    exporters.  See ``docs/OBSERVABILITY.md`` for the metric catalog.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def reset(self) -> None:
        """Drop every metric (tests and long-running services)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    def to_dict(self) -> dict[str, Any]:
        snapshot: dict[str, Any] = {}
        for registry in (self._counters, self._gauges, self._histograms):
            for name in sorted(registry):
                snapshot[name] = registry[name].to_dict()
        return snapshot

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Like :meth:`to_dict`, restricted to names starting with
        *prefix* (e.g. ``snapshot("service.")`` for the service slice a
        ``stats`` request reports)."""
        snapshot: dict[str, Any] = {}
        for registry in (self._counters, self._gauges, self._histograms):
            for name in sorted(registry):
                if name.startswith(prefix):
                    snapshot[name] = registry[name].to_dict()
        return snapshot


#: The process-wide metrics registry.
METRICS = MetricsRegistry()
