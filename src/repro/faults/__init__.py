"""Deterministic fault injection for the governed constructions.

The governor, the checkpoints, and the persistent artifact cache all
promise *graceful* failure: a run that hits a misbehaving clock, a broken
disk, or a corrupted artifact must either return the same answer as a
fault-free run or raise an error from the :mod:`repro.errors` taxonomy —
never a silently wrong result.  This package turns that promise into a
tested invariant by letting tests inject failures at **named injection
points** threaded through the hot paths:

========================  =====================================================
point                     where it fires
========================  =====================================================
``budget.check``          :meth:`repro.runtime.budget.Budget.check` (expensive
                          deadline/cancellation/memory pass)
``budget.tick``           :meth:`repro.runtime.budget.Budget.tick` (per-batch
                          step charge)
``checkpoint.materialize``  :meth:`Budget._trip` right before a lazy checkpoint
                          factory runs
``cache.read``            artifact-cache entry read (payload: raw entry bytes)
``cache.write``           artifact-cache entry write (payload: raw entry bytes)
``cache.fsync``           artifact-cache durability barrier before publish
``xml.ingest``            :func:`repro.trees.xml_io.xml_events`, the tokenizer
                          behind every XML reader (payload: the document
                          text)
========================  =====================================================

Each :class:`FaultRule` names a point (or a ``prefix.*`` glob), a mode —
``raise``, ``delay``, ``corrupt``, or ``truncate`` — and a schedule: fire
on the *at*-th arrival at the point, then optionally every *every*
arrivals after that.  ``corrupt``/``truncate`` apply only at points that
carry a payload (bytes or text); at control points they are inert.
Everything is deterministic and seedable: corruption positions derive
from ``(seed, point, arrival)`` only, so a failing chaos schedule replays
exactly.

Overhead discipline mirrors :mod:`repro.observability`: every injection
site is guarded by the module-level :data:`ACTIVE` flag (one global load
and branch), so production runs pay nothing.  Install a plan with
``with FaultPlan([...]):`` — it threads through a
:class:`contextvars.ContextVar` exactly like :class:`~repro.runtime.Budget`.

When a fault fires it is *recorded*: a ``faults.injected.<point>``
counter in :data:`repro.observability.METRICS` and a ``fault_points``
attribute appended to the active span, so a taxonomy error escaping a
chaos run names the injection that caused it.
"""

from __future__ import annotations

import time
import zlib
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import TypeVar

from repro import observability as _obs
from repro.errors import InjectedFaultError, ReproError

__all__ = [
    "ACTIVE",
    "CONTROL_POINTS",
    "FaultPlan",
    "FaultRule",
    "PAYLOAD_POINTS",
    "current_plan",
    "fire",
    "transform",
]

#: Module-level master switch: True while at least one :class:`FaultPlan`
#: context is active.  Injection sites guard with ``if faults.ACTIVE:`` so
#: the disabled cost is a single global load and branch.
ACTIVE = False

_DEPTH = 0

_ACTIVE_PLAN: ContextVar["FaultPlan | None"] = ContextVar("repro_faults", default=None)

#: Control points: no payload crosses the point; ``raise``/``delay`` only.
CONTROL_POINTS = frozenset(
    {"budget.check", "budget.tick", "checkpoint.materialize", "cache.fsync"}
)

#: Payload points: bytes/text flow through and may be corrupted/truncated.
PAYLOAD_POINTS = frozenset({"cache.read", "cache.write", "xml.ingest"})

_MODES = frozenset({"raise", "delay", "corrupt", "truncate"})

_Payload = TypeVar("_Payload", bytes, str)


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *mode* at *point*, on the *at*-th arrival.

    Parameters
    ----------
    point:
        An injection-point name, or a ``prefix.*`` glob (``"cache.*"``).
    mode:
        ``"raise"`` | ``"delay"`` | ``"corrupt"`` | ``"truncate"``.
    at:
        1-based arrival index at which the rule first fires.
    every:
        After the first firing, fire again every *every* arrivals
        (``None`` = fire once).
    error:
        Exception class for ``raise`` mode.  Defaults to
        :class:`repro.errors.InjectedFaultError`; use e.g. ``OSError`` to
        simulate an infrastructure failure at an I/O point.
    delay_seconds:
        Sleep duration for ``delay`` mode.
    fraction:
        For ``truncate``: keep this prefix fraction of the payload
        (always a *strict* prefix).  For ``corrupt``: position of the
        damaged byte as a fraction of the payload length.
    """

    point: str
    mode: str
    at: int = 1
    every: int | None = None
    error: type[BaseException] | None = None
    delay_seconds: float = 0.0
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.at < 1:
            raise ValueError("at must be >= 1")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def matches(self, point: str) -> bool:
        if self.point.endswith("*"):
            return point.startswith(self.point[:-1])
        return point == self.point

    def due(self, arrival: int) -> bool:
        """Does this rule fire on the *arrival*-th hit of its point?"""
        if arrival < self.at:
            return False
        if arrival == self.at:
            return True
        if self.every is None:
            return False
        return (arrival - self.at) % self.every == 0


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired (the plan's audit log)."""

    point: str
    mode: str
    arrival: int


class FaultPlan:
    """A deterministic, seedable schedule of injected faults.

    Use as a context manager::

        plan = FaultPlan([FaultRule("cache.read", "corrupt")], seed=7)
        with plan:
            result = approximate_upper(edtd)
        assert plan.injected  # the fault really fired

    The plan counts every arrival at every injection point (fault-free
    arrivals too), fires the matching rules on schedule, and logs each
    firing in :attr:`injected`.  Not re-entrant; plans nest lexically
    (innermost wins) like budgets and traces.
    """

    __slots__ = ("rules", "seed", "arrivals", "injected", "_token")

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...], seed: int = 0) -> None:
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.arrivals: dict[str, int] = {}
        self.injected: list[InjectionRecord] = []
        self._token: Token[FaultPlan | None] | None = None

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        if self._token is not None:
            raise ReproError("FaultPlan context manager is not re-entrant")
        self._token = _ACTIVE_PLAN.set(self)
        _enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._token is not None
        _disable()
        _ACTIVE_PLAN.reset(self._token)
        self._token = None

    # -- firing ---------------------------------------------------------

    def _arrive(self, point: str) -> tuple[int, list[FaultRule]]:
        arrival = self.arrivals.get(point, 0) + 1
        self.arrivals[point] = arrival
        due = [rule for rule in self.rules if rule.matches(point) and rule.due(arrival)]
        return arrival, due

    def _record(self, point: str, mode: str, arrival: int) -> None:
        self.injected.append(InjectionRecord(point, mode, arrival))
        if _obs.ENABLED:
            _obs.METRICS.counter("faults.injected").inc()
            _obs.METRICS.counter(f"faults.injected.{point}").inc()
        span = _obs.current_span()
        if span is not None:
            points = span.attrs.setdefault("fault_points", [])
            if isinstance(points, list):
                points.append(f"{point}:{mode}@{arrival}")

    def _raise(self, rule: FaultRule, point: str, arrival: int) -> None:
        self._record(point, "raise", arrival)
        error = rule.error
        if error is None or error is InjectedFaultError:
            raise InjectedFaultError(point, f"arrival {arrival}")
        raise error(f"injected fault at {point!r} (arrival {arrival})")

    def fire(self, point: str) -> None:
        """Control-point arrival: may sleep or raise, carries no payload.

        ``corrupt``/``truncate`` rules matching a control point are inert
        by design — there is nothing to damage.
        """
        arrival, due = self._arrive(point)
        for rule in due:
            if rule.mode == "delay":
                self._record(point, "delay", arrival)
                time.sleep(rule.delay_seconds)
            elif rule.mode == "raise":
                self._raise(rule, point, arrival)

    def transform(self, point: str, data: _Payload) -> _Payload:
        """Payload-point arrival: may damage *data* (and/or sleep/raise).

        Corruption is deterministic in ``(seed, point, arrival)``; the
        damaged payload always differs from the input (checksums and
        parsers must notice), and truncation always yields a *strict*
        prefix.
        """
        arrival, due = self._arrive(point)
        for rule in due:
            if rule.mode == "delay":
                self._record(point, "delay", arrival)
                time.sleep(rule.delay_seconds)
            elif rule.mode == "raise":
                self._raise(rule, point, arrival)
            elif rule.mode == "truncate":
                self._record(point, "truncate", arrival)
                data = _truncate(data, rule.fraction)
            else:  # corrupt
                self._record(point, "corrupt", arrival)
                data = _corrupt(data, rule.fraction, self.seed, point, arrival)
        return data


def _truncate(data: _Payload, fraction: float) -> _Payload:
    if len(data) <= 1:
        return data[:0]
    cut = int(len(data) * fraction)
    cut = max(1, min(cut, len(data) - 1))  # strict, non-empty prefix
    return data[:cut]


def _corrupt(data: _Payload, fraction: float, seed: int, point: str, arrival: int) -> _Payload:
    if len(data) == 0:
        # Nothing to damage in place; grow it so readers still notice.
        if isinstance(data, bytes):
            return b"\x00"
        return "\x00"
    jitter = zlib.crc32(f"{seed}:{point}:{arrival}".encode("utf-8"))
    pos = min(int(len(data) * fraction) + jitter % 7, len(data) - 1)
    if isinstance(data, bytes):
        return data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]
    # NUL is rejected by every tokenizer in this library, and cannot
    # collide with the replaced character.
    replacement = "\x00" if data[pos] != "\x00" else "\x01"
    return data[:pos] + replacement + data[pos + 1:]


# ----------------------------------------------------------------------
# Module-level site helpers
# ----------------------------------------------------------------------

def _enable() -> None:
    global ACTIVE, _DEPTH
    _DEPTH += 1
    ACTIVE = True


def _disable() -> None:
    global ACTIVE, _DEPTH
    if _DEPTH > 0:
        _DEPTH -= 1
    ACTIVE = _DEPTH > 0


def current_plan() -> FaultPlan | None:
    """The innermost active :class:`FaultPlan`, or ``None``."""
    return _ACTIVE_PLAN.get()


def fire(point: str) -> None:
    """Site helper for control points; no-op without an active plan.

    Sites must guard with ``if faults.ACTIVE:`` before calling so the
    inactive cost stays one global load.
    """
    plan = _ACTIVE_PLAN.get()
    if plan is not None:
        plan.fire(point)


def transform(point: str, data: _Payload) -> _Payload:
    """Site helper for payload points; identity without an active plan."""
    plan = _ACTIVE_PLAN.get()
    if plan is None:
        return data
    return plan.transform(point, data)
