"""Schema-guided pruned subset construction (string side).

Implements the determinization-under-a-schema idea of Niehren, Sakho &
Al Serhali, *Schema-Based Automata Determinization* (arXiv 2209.10312),
specialized to this library's string substrate.  The blind subset
construction (:func:`repro.strings.kernels.subset_construction`)
materializes every subset reachable over *any* word; when the DFA is
only ever run on words of a known schema — for Construction 3.1 that is
the set of valid ancestor strings of an EDTD — subsets reachable only
via words outside the schema are wasted work.  The guided kernel walks
pairs ``(guide state, subset mask)`` breadth-first and expands a symbol
only when the *guide* DFA can still read it, so guide-dead regions of
the subset lattice are never built.

Guide semantics
---------------
The guide is an ordinary (possibly partial) :class:`~repro.strings.dfa.DFA`:

* a symbol with no guide transition from the current guide state is
  pruned — no subset target is computed for it;
* guide states from which no final is reachable are *dead* and treated
  as missing transitions;
* a guide with **no finals at all** is read as a prefix machine (every
  reachable state alive) — this is the natural shape of
  :func:`repro.schemas.type_automaton.ancestor_guide`, since type
  automata have no finals.

The output DFA is over **subsets only** (the guide component is dropped
at the boundary): a subset's outgoing transition depends only on
``(subset, symbol)``, so determinism is preserved and the result is
directly comparable with — and under the universal guide *equal* to —
the blind construction's output.

Governance contract
-------------------
Budget charging mirrors the blind scalar loop exactly, per *pair*
instead of per subset: one uncharged initial state, ``|alphabet|``
pending steps per expanded pair (ticked **before** guide pruning, so the
universal guide reproduces the blind kernel's trip counts
charge-for-charge), one state per fresh pair, ``_FLUSH``-batched
flushes, and lazy checkpoint snapshots materialized only at trip time
(:class:`SchemaGuidedCheckpoint` — interchangeable observable contract
with :class:`~repro.strings.determinize.SubsetCheckpoint`).
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Any

from repro import observability as _obs
from repro.errors import AutomatonError
from repro.runtime.budget import Budget, budget_phase, resolve_budget
from repro.strings.determinize import SubsetCheckpoint
from repro.strings.dfa import DFA
from repro.strings.kernels import (
    _FLUSH,
    _KernelCache,
    _code_nfa,
    _mask_of,
    _mask_views,
    _memoized,
    _symbol_reprs,
    _unmask,
    structural_key,
)
# Every memo tier is in the one registry of repro.strings.kernels; the
# name stays bound here for readers that ask each kernel module for its
# cache_stats() (wirebench/traced_server.py).
from repro.strings.kernels import cache_stats as cache_stats

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy
    from collections.abc import Hashable

    from repro.strings.dfa import DFA as _DFA
    from repro.strings.nfa import NFA as _NFA

    State = Hashable
    Symbol = Hashable


# ----------------------------------------------------------------------
# Guides
# ----------------------------------------------------------------------

def universal_guide(alphabet: Iterable[Any]) -> "_DFA":
    """The one-state complete all-final DFA over *alphabet*: a guide that
    prunes nothing.  Guiding by it reproduces the blind subset
    construction state-for-state and charge-for-charge."""
    alphabet = frozenset(alphabet)
    state = "*"
    return DFA(
        {state},
        alphabet,
        {(state, symbol): state for symbol in alphabet},
        state,
        {state},
    )


def depth_guide(alphabet: Iterable[Any], depth: int) -> "_DFA":
    """A chain DFA accepting exactly the words of length <= *depth*.

    As a guide it cuts subset exploration off below level ``depth`` of
    the BFS — the natural schema for documents of bounded nesting, and
    the simplest guide that provably bends the Theorem 3.2 blow-up
    (``2^n`` subsets become ``O(2^(depth+1))``).
    """
    if depth < 0:
        raise AutomatonError(f"depth_guide depth must be >= 0, got {depth}")
    alphabet = frozenset(alphabet)
    states = list(range(depth + 1))
    transitions = {
        (level, symbol): level + 1
        for level in range(depth)
        for symbol in alphabet
    }
    return DFA(states, alphabet, transitions, 0, states)


def _universal_rows(fanout: int) -> list[list[tuple[int, int]]]:
    """The one-state guide table that reads every symbol: the blind run."""
    return [[(sym_index, 0) for sym_index in range(fanout)]]


def _code_guide(
    guide: "_DFA | None", symbols: list[Any], shift: int
) -> tuple[list[Any], list[list[tuple[int, int]]], int]:
    """Int-code *guide* for the guided BFS: ``(states, rows, alive count)``.

    Guide states are coded in breadth-first order from the initial state
    (code 0), so ``states[code]`` decodes a code.  ``rows[code]`` lists
    ``(symbol index, tag)`` for every symbol the guide reads from that
    state into an *alive* state, where the tag is the successor's code
    shifted past the NFA's state bits: a guided pair is then the single
    int ``subset mask | tag``.  Alive = reachable and (when the guide
    declares finals) co-reachable; a guide with no finals is a prefix
    machine, so every reachable state is alive.  A ``None`` guide is the
    universal guide: one state ``"*"`` that reads every symbol.
    """
    if guide is None:
        return ["*"], _universal_rows(len(symbols)), 1
    reachable = guide.reachable_states()
    if guide.finals:
        alive = reachable & guide.to_nfa().coreachable_states()
    else:
        alive = reachable
    states = [guide.initial]
    code = {guide.initial: 0}
    rows: list[list[tuple[int, int]]] = []
    transitions = guide.transitions
    for state in states:  # ungoverned: grows to at most |alive| + 1 guide states
        row: list[tuple[int, int]] = []
        if state in alive:
            for sym_index, symbol in enumerate(symbols):
                target = transitions.get((state, symbol))
                if target is None or target not in alive:
                    continue  # pruned: the guide cannot read this symbol here
                index = code.get(target)
                if index is None:
                    index = code[target] = len(states)
                    states.append(target)
                row.append((sym_index, index << shift))
        rows.append(row)
    return states, rows, len(alive)


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchemaGuidedCheckpoint:
    """Resumable snapshot of a partially-run guided subset construction.

    Same observable contract as
    :class:`~repro.strings.determinize.SubsetCheckpoint` (``states``,
    ``states_explored``, ``frontier_size``, resumable via the
    ``checkpoint=`` kwarg with the same NFA/guide/flags), but the
    explored set and frontier are ``(guide state, subset)`` pairs — the
    unit the guided BFS charges by.
    """

    pairs: tuple[tuple[Any, frozenset[Any]], ...]
    transitions: tuple[tuple[tuple[frozenset[Any], Any], frozenset[Any]], ...]
    frontier: tuple[tuple[Any, frozenset[Any]], ...]

    @property
    def states(self) -> frozenset[frozenset[Any]]:
        """The distinct subset components explored so far."""
        return frozenset(subset for _, subset in self.pairs)

    @property
    def states_explored(self) -> int:
        return len(self.pairs)

    @property
    def frontier_size(self) -> int:
        return len(self.frontier)


# ----------------------------------------------------------------------
# The guided kernel
# ----------------------------------------------------------------------

def guided_subset_construction(
    nfa: "_NFA",
    guide: "_DFA | None" = None,
    *,
    keep_empty: bool = False,
    budget: Budget | None = None,
    checkpoint: "SubsetCheckpoint | SchemaGuidedCheckpoint | None" = None,
    trace: Any = None,
) -> "_DFA":
    """Subset construction pruned by *guide* (see the module docstring).

    For every word ``w`` accepted by *guide* the returned DFA reaches the
    same subset as the blind construction, so ``L(result) ∩ L(guide) =
    L(nfa) ∩ L(guide)``; subsets unreachable under the guide are never
    materialized.  Under :func:`universal_guide` — or ``guide=None``,
    which codes the universal guide directly instead of building it —
    the result and the budget charge sequence equal the blind kernel's
    exactly.
    """
    budget = resolve_budget(budget)
    coding = _code_nfa(nfa)
    order, _code, symbols = coding[:3]
    guide_states, rows, alive = _code_guide(guide, symbols, len(order))

    with _obs.construction_span(
        "determinize",
        trace=trace,
        budget=budget,
        kernel="schema-guided",
        nfa_states=len(order),
        guide_states=alive,
    ) as span:
        dfa = _guided_scalar(
            nfa, coding, guide_states, rows, keep_empty, budget, checkpoint
        )
        if span is not None:
            span.annotate(dfa_states=len(dfa.states))
        if _obs.ENABLED:
            _obs.METRICS.counter("determinize.runs").inc()
            _obs.METRICS.counter("determinize.schema_guided.runs").inc()
            _obs.METRICS.histogram("determinize.dfa_states").observe(len(dfa.states))
    return dfa


def _guided_scalar(
    nfa: "_NFA",
    coding: tuple[list[Any], dict[Any, int], list[Any], list[list[int]], int, int],
    guide_states: list[Any] | None,
    rows: list[list[tuple[int, int]]],
    keep_empty: bool,
    budget: Budget | None,
    checkpoint: "SubsetCheckpoint | SchemaGuidedCheckpoint | None",
) -> "_DFA":
    """The governed subset BFS over ``(guide state, subset)`` pairs — the
    one scalar loop behind both strategies, and the single source of
    truth for charging and checkpoints.

    A pair is the int ``mask | tag`` (see :func:`_code_guide`), so under
    the one-state table of a blind run a pair *is* its subset mask.
    *guide_states* is ``None`` for a blind run: trips then carry a
    :class:`~repro.strings.determinize.SubsetCheckpoint` (interchangeable
    with :func:`~repro.strings.determinize.determinize_reference`'s)
    instead of a :class:`SchemaGuidedCheckpoint`.
    """
    order, code, symbols, succ, initial_mask, finals_mask = coding
    shift = len(order)
    full = (1 << shift) - 1
    fanout = len(symbols)
    # Lazily-filled 16-bit chunk tables: step_tab[sym][chunk] maps a
    # 16-bit slice of a subset mask to the OR of the successor masks of
    # the states in that slice, so one step costs ~ceil(n/16) table
    # lookups instead of one per set bit.  Tables fill on demand via the
    # chain t[v] = t[v without lowest bit] | row[lowest bit], one O(1)
    # entry per distinct chunk value ever seen.
    nchunks = ((shift + 15) >> 4) or 1
    step_tab: list[list[dict[int, int]]] = [
        [{0: 0} for _ in range(nchunks)] for _ in symbols
    ]

    if checkpoint is None:
        seen: set[int] = {initial_mask}
        trans: dict[tuple[int, int], int] = {}
        queue: deque[int] = deque([initial_mask])
        if budget is not None:
            budget.charge_states(1, frontier=1)
    else:
        expected = SubsetCheckpoint if guide_states is None else SchemaGuidedCheckpoint
        if not isinstance(checkpoint, expected):
            raise AutomatonError(
                f"{'a blind' if guide_states is None else 'a schema-guided'} "
                f"run resumes from {expected.__name__}, "
                f"not {type(checkpoint).__name__}"
            )
        if isinstance(checkpoint, SubsetCheckpoint):
            seen = {_mask_of(subset, code) for subset in checkpoint.states}
            queue = deque(_mask_of(subset, code) for subset in checkpoint.frontier)
        else:
            tags = {g: index << shift for index, g in enumerate(guide_states or ())}
            try:
                seen = {tags[g] | _mask_of(s, code) for g, s in checkpoint.pairs}
                queue = deque(
                    tags[g] | _mask_of(s, code) for g, s in checkpoint.frontier
                )
            except KeyError as error:
                raise AutomatonError(
                    f"checkpoint guide state {error.args[0]!r} is not a state "
                    "of this guide"
                ) from None
        trans = {
            (_mask_of(subset, code), symbols.index(symbol)): _mask_of(target, code)
            for (subset, symbol), target in checkpoint.transitions
        }

    with budget_phase(budget, "determinize"):
        if budget is not None:
            cursor = [initial_mask]

            def snapshot() -> "SubsetCheckpoint | SchemaGuidedCheckpoint":
                # Decoded lazily, only at trip time; *cursor* is re-enqueued
                # so resumption recomputes at most |alphabet| idempotent
                # transitions.
                transitions = tuple(
                    ((_unmask(src, order), symbols[s]), _unmask(dst, order))
                    for (src, s), dst in trans.items()
                )
                frontier = (cursor[0], *queue)
                if guide_states is None:
                    return SubsetCheckpoint(
                        states=frozenset(_unmask(m, order) for m in seen),
                        transitions=transitions,
                        frontier=tuple(_unmask(m, order) for m in frontier),
                    )
                return SchemaGuidedCheckpoint(
                    pairs=tuple(
                        (guide_states[p >> shift], _unmask(p & full, order))
                        for p in seen
                    ),
                    transitions=transitions,
                    frontier=tuple(
                        (guide_states[p >> shift], _unmask(p & full, order))
                        for p in frontier
                    ),
                )

            tick, charge_states = budget.tick, budget.charge_states
            pending = 0
        while queue:
            pair = queue.popleft()
            mask = pair & full
            if budget is not None:
                cursor[0] = pair
                # Charged before guide pruning: the fanout is the work the
                # blind loop does, so the universal guide reproduces blind
                # trip counts exactly.
                pending += fanout
                if pending >= _FLUSH:
                    tick(pending, len(queue), snapshot)
                    pending = 0
            for sym_index, tag in rows[pair >> shift]:
                tabs = step_tab[sym_index]
                target = 0
                rest = mask
                chunk_index = 0
                while rest:  # ungoverned: bit-scan bounded by the coded state count
                    chunk = rest & 0xFFFF
                    if chunk:
                        table = tabs[chunk_index]
                        part = table.get(chunk)
                        if part is None:
                            stack = []
                            value = chunk
                            while part is None:  # ungoverned: chain-fill, <= 16 bits
                                stack.append(value)
                                value ^= value & -value
                                part = table.get(value)
                            row = succ[sym_index]
                            base = chunk_index << 4
                            while stack:  # ungoverned: chain-fill bounded by 16 bits
                                value = stack.pop()
                                low = value & -value
                                part |= row[base + low.bit_length() - 1]
                                table[value] = part
                        target |= part
                    rest >>= 16
                    chunk_index += 1
                if not target and not keep_empty:
                    continue
                trans[(mask, sym_index)] = target
                reached = target | tag if tag else target  # a tag-0 pair is its mask
                if reached not in seen:
                    seen.add(reached)
                    queue.append(reached)
                    if budget is not None:
                        charge_states(1, len(queue), snapshot)
        if budget is not None and pending:
            budget.tick(pending, 0)

    # API boundary: drop the guide component and decode each subset once
    # into chunk-interned frozenset views.  Every subset is the initial one
    # or a transition target, so this order is discovery order, the order
    # the transitions below read the views in (measured faster to decode
    # than the set's order).  Like the fast path, the decode runs with the
    # cyclic GC paused: it allocates only frozensets and tuples of existing
    # objects, and generation scans over them cost as much as the decode.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        masks = {initial_mask: None}
        masks.update(zip(trans.values(), repeat(None)))
        views = _mask_views(order, masks, nchunks)
        transitions = {
            (views[src], symbols[sym_index]): views[dst]
            for (src, sym_index), dst in trans.items()
        }
        finals = [view for mask, view in views.items() if mask & finals_mask]
    finally:
        if gc_was_enabled:
            gc.enable()
    return DFA._from_parts(
        views.values(), nfa.alphabet, transitions, views[initial_mask], finals
    )


# ----------------------------------------------------------------------
# Memo cache (strategy folded into the key via the cache name)
# ----------------------------------------------------------------------

_SG_MIN_CACHE = _KernelCache("schema_guided_min_dfa")


def cached_guided_min_dfa(
    language: object,
    guide: "_DFA",
    *,
    budget: Budget | None = None,
) -> "_DFA":
    """Memoized guided counterpart of
    :func:`repro.strings.kernels.cached_min_dfa`: determinize *language*
    under *guide* (pruning guide-dead subsets during the construction
    instead of restricting afterwards), then minimize.

    This is the kernel behind Construction 3.1's guided content-model
    unions: the guide is the universal guide over the symbols actually
    leaving a subset state, so symbols no valid document can emit there
    are never expanded.  Relative to words the guide accepts, the result
    is language-equal to the blind pipeline.  Keyed by ``(state reprs,
    language fingerprint, guide fingerprint)``; hits replay the recorded
    budget cost.
    """
    from repro.strings.minimize import minimize_dfa
    from repro.strings.ops import as_nfa

    budget = resolve_budget(budget)
    nfa = as_nfa(language)
    state_key = _symbol_reprs(nfa.states)
    nfa_key = structural_key(language)
    guide_key = structural_key(guide)
    key = None
    if state_key is not None and nfa_key is not None and guide_key is not None:
        key = (state_key, nfa_key, guide_key)

    def build(inner_budget: Budget | None) -> "_DFA":
        return minimize_dfa(
            guided_subset_construction(nfa, guide, budget=inner_budget),
            budget=inner_budget,
        )

    return _memoized(_SG_MIN_CACHE, key, build, budget)
