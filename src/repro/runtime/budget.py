"""Resource governor for the worst-case-exponential constructions.

The paper's central algorithms are *deliberately* exponential in the worst
case — Construction 3.1 is a subset construction, and
:func:`repro.families.hard.theorem_3_2_family` triggers the ``2^n`` blow-up
on purpose.  A service accepting untrusted schemas therefore needs every
hot loop to answer three questions continuously:

1. *Am I still allowed to run?* (wall-clock deadline, cooperative
   cancellation, optional memory watermark)
2. *Am I still within my size budget?* (max states materialized, max
   abstract steps executed)
3. *If not — how far did I get?* (partial progress for error reports and
   resumable checkpoints)

:class:`Budget` answers all three.  It is threaded through the library in
two complementary ways:

* **explicit parameter** — every governed entry point accepts
  ``budget=...``;
* **context-manager default** — ``with Budget(timeout=1.0):`` installs the
  budget for every governed call in the dynamic extent (via a
  :class:`contextvars.ContextVar`, so it composes with threads and asyncio
  tasks).

Exhaustion raises :class:`BudgetExceededError` carrying a
:class:`BudgetProgress` snapshot (states explored, steps, frontier size,
elapsed time, phase) and — where the interrupted construction supports it —
a resumable checkpoint.

Overhead discipline: ungoverned code paths pay a single ``is None`` test
per loop iteration (callers resolve the budget once and guard each call
site with ``if budget is not None``); governed paths pay an integer
compare per tick, with the expensive checks (``time.monotonic``,
cancellation, memory) amortized to every ``check_interval`` ticks.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Any

from repro import faults as _faults
from repro import observability as _obs
from repro.errors import BudgetExceededError, ReproError
from repro.runtime import clock as _clock

_ACTIVE: ContextVar["Budget | None"] = ContextVar("repro_budget", default=None)


@dataclass(frozen=True)
class BudgetProgress:
    """Snapshot of how far a governed construction got.

    Attached to every :class:`BudgetExceededError` so callers can report
    *why* the budget tripped and *how far* the computation progressed.
    """

    states_explored: int
    steps: int
    frontier_size: int
    elapsed_seconds: float
    phase: str | None = None

    def describe(self) -> str:
        parts = [
            f"{self.states_explored} states explored",
            f"{self.steps} steps",
            f"frontier {self.frontier_size}",
            f"{self.elapsed_seconds:.3f}s elapsed",
        ]
        if self.phase:
            parts.append(f"phase {self.phase!r}")
        return ", ".join(parts)


class CancellationToken:
    """Cooperative cancellation: thread-safe, cancel-once, never un-cancel.

    Share one token between the thread running a governed construction and
    a controller (signal handler, request-timeout watchdog, user pressing
    Ctrl-C in a server UI); the construction stops at its next budget
    check.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<CancellationToken {state}>"


def _max_rss_bytes() -> int | None:
    """Current high-watermark RSS in bytes, or ``None`` if unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes; normalize the common case.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return usage
    return usage * 1024


class Budget:
    """Resource budget for worst-case-exponential constructions.

    Parameters
    ----------
    max_states:
        Maximum number of *states* (subset states, product pairs, closure
        trees, ...) any single governed construction may materialize.
    max_steps:
        Maximum number of abstract steps (transitions computed, exchanges
        attempted, refinement comparisons) across the budget's lifetime.
    timeout:
        Wall-clock allowance in seconds, measured from construction of the
        budget (equivalently: ``deadline = now + timeout``).
    deadline:
        Absolute deadline on the repro monotonic clock
        (:func:`repro.runtime.clock.now` — same epoch as
        :func:`time.monotonic`); overrides *timeout* when both are given.
        Wall-clock (``time.time``) values are meaningless here.
    cancel:
        A :class:`CancellationToken` checked cooperatively.
    max_memory_bytes:
        Optional high-watermark on the process RSS.  This is a *watermark*,
        not an allocator limit — it trips once the process as a whole has
        grown past the value.
    check_interval:
        How many ticks elapse between expensive checks (clock /
        cancellation / memory).  Must be a power of two.

    A budget with no limits at all is legal and never trips; it still
    counts, which makes it useful for metering.
    """

    __slots__ = (
        "max_states",
        "max_steps",
        "deadline",
        "cancel",
        "max_memory_bytes",
        "states",
        "steps",
        "started_at",
        "phase",
        "_mask",
        "_token",
    )

    def __init__(
        self,
        *,
        max_states: int | None = None,
        max_steps: int | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
        cancel: CancellationToken | None = None,
        max_memory_bytes: int | None = None,
        check_interval: int = 1024,
    ) -> None:
        if check_interval < 1 or check_interval & (check_interval - 1):
            raise ValueError("check_interval must be a positive power of two")
        for name, value in (
            ("max_states", max_states),
            ("max_steps", max_steps),
            ("max_memory_bytes", max_memory_bytes),
        ):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if timeout is not None and not timeout >= 0:  # NaN compares False
            raise ValueError("timeout must be non-negative")
        self.max_states = max_states
        self.max_steps = max_steps
        # All deadline math runs on the single monotonic source in
        # repro.runtime.clock — never time.time(), never a mix.
        self.started_at = _clock.now()
        if deadline is not None:
            self.deadline = deadline
        elif timeout is not None:
            self.deadline = self.started_at + timeout
        else:
            self.deadline = None
        self.cancel = cancel
        self.max_memory_bytes = max_memory_bytes
        self.states = 0
        self.steps = 0
        self.phase: str | None = None
        self._mask = check_interval - 1
        self._token: Token[Budget | None] | None = None

    # -- context-manager default ---------------------------------------

    def __enter__(self) -> "Budget":
        if self._token is not None:
            raise ReproError("Budget context manager is not re-entrant")
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._token is not None
        _ACTIVE.reset(self._token)
        self._token = None

    # -- introspection --------------------------------------------------

    @property
    def elapsed(self) -> float:
        return _clock.now() - self.started_at

    def remaining_time(self) -> float | None:
        """Seconds until the deadline, or ``None`` when undeadlined."""
        if self.deadline is None:
            return None
        return self.deadline - _clock.now()

    def progress(self, frontier: int = 0) -> BudgetProgress:
        return BudgetProgress(
            states_explored=self.states,
            steps=self.steps,
            frontier_size=frontier,
            elapsed_seconds=self.elapsed,
            phase=self.phase,
        )

    # -- charging -------------------------------------------------------

    def _trip(
        self, reason: str, limit: int | float | None, frontier: int, checkpoint: Any = None
    ) -> "BudgetExceededError":
        # Checkpoints are expensive to materialize, so call sites pass a
        # zero-arg factory that only runs here, at trip time.
        if callable(checkpoint):
            if _faults.ACTIVE:
                _faults.fire("checkpoint.materialize")
            checkpoint = checkpoint()
        if _obs.ENABLED:
            _obs.METRICS.counter(f"budget.trips.{reason}").inc()
        return BudgetExceededError(
            reason=reason,
            limit=limit,
            progress=self.progress(frontier),
            checkpoint=checkpoint,
        )

    def check(self, frontier: int = 0, checkpoint: Any = None) -> None:
        """Run the expensive checks unconditionally: cancellation, clock,
        memory watermark."""
        if _faults.ACTIVE:
            _faults.fire("budget.check")
        if self.cancel is not None and self.cancel.cancelled:
            raise self._trip("cancelled", None, frontier, checkpoint)
        if self.deadline is not None and _clock.now() > self.deadline:
            raise self._trip(
                "deadline", self.deadline - self.started_at, frontier, checkpoint
            )
        if self.max_memory_bytes is not None:
            rss = _max_rss_bytes()
            if rss is not None and rss > self.max_memory_bytes:
                raise self._trip("memory", self.max_memory_bytes, frontier, checkpoint)

    def tick(self, n: int = 1, frontier: int = 0, checkpoint: Any = None) -> None:
        """Charge *n* abstract steps; periodically run the expensive checks."""
        if _faults.ACTIVE:
            _faults.fire("budget.tick")
        steps = self.steps + n
        self.steps = steps
        # Observability report site — one global load + branch when off
        # (hot loops already batch ticks, so the enabled cost amortizes).
        if _obs.ENABLED:
            _obs.METRICS.counter("budget.steps").inc(n)
        if self.max_steps is not None and steps > self.max_steps:
            raise self._trip("max-steps", self.max_steps, frontier, checkpoint)
        if steps & self._mask < n:
            self.check(frontier, checkpoint)

    def charge_states(self, n: int = 1, frontier: int = 0, checkpoint: Any = None) -> None:
        """Charge *n* materialized states (and one step each).

        Both counters are incremented *before* any limit check raises, so
        interrupted runs account identically to uninterrupted ones — trip
        cost plus resume cost always sums to the uninterrupted cost
        (``tests/runtime/test_checkpoint_resume.py`` pins this).
        """
        states = self.states + n
        self.states = states
        # Step accounting inlined (not delegated to tick()) — this runs
        # once per materialized state in every governed hot loop.
        steps = self.steps + n
        self.steps = steps
        if _obs.ENABLED:
            _obs.METRICS.counter("budget.states").inc(n)
            _obs.METRICS.counter("budget.steps").inc(n)
        if self.max_states is not None and states > self.max_states:
            raise self._trip("max-states", self.max_states, frontier, checkpoint)
        if self.max_steps is not None and steps > self.max_steps:
            raise self._trip("max-steps", self.max_steps, frontier, checkpoint)
        if steps & self._mask < n:
            self.check(frontier, checkpoint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = []
        if self.max_states is not None:
            limits.append(f"max_states={self.max_states}")
        if self.max_steps is not None:
            limits.append(f"max_steps={self.max_steps}")
        if self.deadline is not None:
            limits.append(f"deadline_in={self.remaining_time():.3f}s")
        if self.cancel is not None:
            limits.append(f"cancel={self.cancel!r}")
        if self.max_memory_bytes is not None:
            limits.append(f"max_memory_bytes={self.max_memory_bytes}")
        spent = f"states={self.states}, steps={self.steps}"
        return f"<Budget {' '.join(limits) or 'unlimited'}; {spent}>"


def current_budget() -> Budget | None:
    """The budget installed by the innermost ``with Budget(...):`` block,
    or ``None`` when running ungoverned."""
    return _ACTIVE.get()


def resolve_budget(budget: Budget | None = None) -> Budget | None:
    """Resolve the effective budget for a governed entry point.

    An explicit argument wins; otherwise the context-manager default
    applies; otherwise ``None`` (ungoverned — hot loops skip all
    accounting via a single ``is None`` test).
    """
    if budget is not None:
        return budget
    return _ACTIVE.get()


class budget_phase:
    """Label the current phase of a governed computation.

    ``with budget_phase(budget, "determinize"):`` — purely diagnostic; the
    phase lands in :class:`BudgetProgress` so error reports say *which*
    stage of a multi-stage construction tripped.  No-op when *budget* is
    ``None``.
    """

    __slots__ = ("_budget", "_phase", "_previous")

    def __init__(self, budget: Budget | None, phase: str) -> None:
        self._budget = budget
        self._phase = phase
        self._previous: str | None = None

    def __enter__(self) -> None:
        if self._budget is not None:
            self._previous = self._budget.phase
            self._budget.phase = self._phase

    def __exit__(self, *exc_info: object) -> None:
        if self._budget is not None:
            self._budget.phase = self._previous
