"""Subset construction: NFA -> DFA.

Construction 3.1 of the paper hinges on exactly this operation applied to
type automata, so the implementation exposes the raw subset states (frozen
sets of NFA states) — the approximation constructions need to inspect which
EDTD types were merged into each subset state.

This is the canonical worst-case-exponential loop of the library
(``2^n`` reachable subsets — :func:`repro.families.hard.theorem_3_2_family`
triggers it on purpose), so it is fully governed: pass ``budget=`` or run
inside ``with Budget(...):`` and the BFS charges one state per subset
materialized and one step per transition computed.  On exhaustion the
raised :class:`repro.errors.BudgetExceededError` carries a
:class:`SubsetCheckpoint` from which a later call can *resume* the
construction instead of restarting it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AutomatonError
from repro.runtime.budget import Budget, budget_phase, resolve_budget
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy
    from repro.strings.schema_guided import SchemaGuidedCheckpoint

#: Batch size (in steps) for flushing locally-accumulated tick charges;
#: bounds how stale the step counter may run during the hot loop.
_FLUSH = 256

#: The determinization strategies: explore every reachable subset, or
#: prune the exploration with a guide (string and tree kernels alike).
STRATEGIES = ("blind", "schema-guided")


def check_strategy(strategy: str) -> str:
    """Return *strategy* when it is one of :data:`STRATEGIES`; otherwise
    raise :class:`~repro.errors.AutomatonError`."""
    if strategy not in STRATEGIES:
        raise AutomatonError(
            f"unknown determinization strategy {strategy!r} "
            f"(expected {' or '.join(map(repr, STRATEGIES))})"
        )
    return strategy


@dataclass(frozen=True)
class SubsetCheckpoint:
    """Resumable snapshot of a partially-run subset construction.

    Captures the explored subset states, the transitions discovered so
    far, and the BFS frontier.  Opaque to callers: obtain one from
    ``BudgetExceededError.checkpoint`` and pass it back via
    ``determinize(..., checkpoint=...)`` (with the *same* NFA and
    ``keep_empty`` flag) to continue where the budget tripped.
    """

    states: frozenset[frozenset[Hashable]]
    transitions: tuple[tuple[tuple[frozenset[Hashable], Hashable], frozenset[Hashable]], ...]
    frontier: tuple[frozenset[Hashable], ...]

    @property
    def states_explored(self) -> int:
        return len(self.states)

    @property
    def frontier_size(self) -> int:
        return len(self.frontier)


def determinize(
    nfa: NFA,
    *,
    keep_empty: bool = False,
    budget: Budget | None = None,
    checkpoint: "SubsetCheckpoint | SchemaGuidedCheckpoint | None" = None,
    strategy: str = "blind",
    guide: DFA | None = None,
) -> DFA:
    """Return a DFA equivalent to *nfa* via the standard subset construction.

    States of the result are frozensets of NFA states.  Only subsets
    reachable from the initial subset are constructed.  By default the empty
    subset (dead state) is omitted, yielding a partial DFA; pass
    ``keep_empty=True`` to keep it (producing a complete DFA).

    *budget* (or the ambient ``with Budget(...):`` default) bounds the
    construction; *checkpoint* resumes a previous budget-interrupted run —
    checkpoints are interchangeable between this function and
    :func:`determinize_reference` (same frozenset format, same charge
    sequence).

    *strategy* selects the pruning: ``"blind"`` (the default) explores
    every reachable subset; ``"schema-guided"`` prunes the BFS with a
    *guide* DFA (:mod:`repro.strings.schema_guided`) so subsets
    unreachable under the guiding schema are never materialized.  Both
    run one governed loop on integer-coded bitmask subsets: blind
    determinization *is* guided determinization with no guide, one guide
    state that reads every symbol, so ``guide=None`` reproduces the blind
    construction state-for-state.  Guided runs checkpoint with
    :class:`~repro.strings.schema_guided.SchemaGuidedCheckpoint` (same
    observable contract); a checkpoint of the other strategy's type
    raises :class:`~repro.errors.AutomatonError`.  Ungoverned blind runs
    may take the numpy fast path of
    :func:`repro.strings.kernels.subset_construction`.
    """
    if check_strategy(strategy) == "schema-guided":
        from repro.strings.schema_guided import guided_subset_construction

        return guided_subset_construction(
            nfa, guide, keep_empty=keep_empty, budget=budget, checkpoint=checkpoint
        )
    if guide is not None:
        raise AutomatonError(
            "guide= requires strategy='schema-guided' (got strategy='blind')"
        )
    from repro.strings.kernels import subset_construction

    return subset_construction(
        nfa, keep_empty=keep_empty, budget=budget, checkpoint=checkpoint
    )


def determinize_reference(
    nfa: NFA,
    *,
    keep_empty: bool = False,
    budget: Budget | None = None,
    checkpoint: SubsetCheckpoint | None = None,
) -> DFA:
    """Frozenset-based subset construction — the pre-kernel implementation,
    kept as the differential-testing oracle for
    :func:`repro.strings.kernels.subset_construction`."""
    budget = resolve_budget(budget)
    initial = nfa.initials
    if checkpoint is None:
        states: set[frozenset] = {initial}
        transitions: dict[tuple[frozenset, object], frozenset] = {}
        queue: deque[frozenset] = deque([initial])
        if budget is not None:
            budget.charge_states(1, frontier=1)
    else:
        states = set(checkpoint.states)
        transitions = dict(checkpoint.transitions)
        queue = deque(checkpoint.frontier)
    with budget_phase(budget, "determinize"):
        fanout = len(nfa.alphabet)
        if budget is not None:
            # Governed-loop overhead discipline: one shared lazy snapshot
            # closure (a cursor cell tracks the subset being expanded, so
            # no per-iteration allocation), pre-bound charge methods, and
            # step charges accumulated locally and flushed in batches —
            # the hot loop pays one charge_states per *new* subset and a
            # tick only every ~_FLUSH steps.  Totals are unchanged: the
            # tail flush lands after the loop.
            cursor = [initial]
            snapshot = lambda: _snapshot(states, transitions, queue, cursor[0])
            tick, charge_states = budget.tick, budget.charge_states
            pending = 0
        while queue:
            subset = queue.popleft()
            if budget is not None:
                cursor[0] = subset
                pending += fanout
                if pending >= _FLUSH:
                    tick(pending, len(queue), snapshot)
                    pending = 0
            for symbol in nfa.alphabet:
                target = nfa.step(subset, symbol)
                if not target and not keep_empty:
                    continue
                transitions[(subset, symbol)] = target
                if target not in states:
                    states.add(target)
                    queue.append(target)
                    if budget is not None:
                        charge_states(1, len(queue), snapshot)
        if budget is not None and pending:
            budget.tick(pending, 0)
    finals = {subset for subset in states if subset & nfa.finals}
    return DFA(states, nfa.alphabet, transitions, initial, finals)


def _snapshot(
    states: set[frozenset[Hashable]],
    transitions: dict[tuple[frozenset[Hashable], Hashable], frozenset[Hashable]],
    queue: deque,
    current: frozenset[Hashable],
) -> SubsetCheckpoint:
    """Checkpoint the BFS with *current* re-enqueued for a clean resume.

    Re-processing *current* from scratch recomputes at most ``|alphabet|``
    transitions — all idempotent — so resumption never loses or
    duplicates states.
    """
    return SubsetCheckpoint(
        states=frozenset(states),
        transitions=tuple(transitions.items()),
        frontier=(current, *queue),
    )
