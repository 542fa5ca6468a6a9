"""Bitset automata kernels: the library's hot loops on machine integers.

Every construction in the paper bottoms out in three string-automaton
primitives — determinization (Construction 3.1 *is* a subset
construction), minimization, and product/inclusion — and they all spend
their time hashing frozensets and allocating tuples.  This module
integer-codes states and symbols **once per automaton** and runs the hot
loops on ints:

* :func:`subset_construction` — subset states are int bitmasks interned
  in a dict; ``frozenset`` views are reconstructed only at the API
  boundary, so :class:`~repro.strings.determinize.SubsetCheckpoint`
  resume and the upper approximation's merged-type inspection keep
  working unchanged.  Ungoverned runs on NFAs with <= 63 states take a
  numpy-vectorized level-BFS fast path when numpy is importable (the
  kernels degrade gracefully to the scalar loop without it).  The scalar
  loop is the schema-guided one of :mod:`repro.strings.schema_guided`
  with no guide.
* :func:`hopcroft_refine` — Hopcroft's O(n log n) "smaller half"
  partition refinement, generalized to arbitrary initial partitions so
  it can replace the quadratic Moore loop behind both
  :func:`~repro.strings.minimize.minimize_dfa` and
  :func:`~repro.strings.minimize.moore_partition`.
* :func:`nfa_includes` — on-the-fly product inclusion: the pair space of
  two lazily-determinized NFAs is explored BFS with **early exit** on
  the first counterexample, never materializing either full DFA.
* :func:`cached_min_dfa` — a structural-hash interning cache for minimal
  content-model DFAs with hit/miss counters.  Cache hits *recharge* the
  active :class:`~repro.runtime.Budget` with the recorded construction
  cost, so governed runs trip at the same state counts whether or not
  the cache is warm (governance stays deterministic).  Every memo tier
  of the library, here and in the guided and tree kernels, is a
  ``_KernelCache`` in one registry: :func:`cache_stats` and
  :func:`clear_caches` read and reset all of them.

All loops charge the PR-1 budget in ``_FLUSH``-sized batches, keeping
the governed/ungoverned overhead under the 5% ceiling enforced by
``benchmarks/bench_governor_overhead.py``.

See ``docs/PERFORMANCE.md`` for the coding scheme and the cache
invalidation story.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from itertools import repeat
from typing import TYPE_CHECKING, Any

from repro import observability as _obs
from repro.runtime.budget import Budget, budget_phase, resolve_budget

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy
    from repro.strings.determinize import SubsetCheckpoint
    from repro.strings.schema_guided import SchemaGuidedCheckpoint
    from repro.strings.dfa import DFA as _DFA
    from repro.strings.nfa import NFA as _NFA

try:  # the vectorized fast path is optional — the scalar kernels are exact
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

State = Hashable
Symbol = Hashable

#: Batch size (in steps) for flushing locally-accumulated tick charges;
#: bounds how stale the step counter may run during the hot loops.
_FLUSH = 256

#: Set to False to force the scalar loops even when numpy is importable.
#: The governor-overhead benchmark uses this to compare governed vs
#: ungoverned runs of the *same* code path (the vectorized fast path only
#: exists ungoverned, so leaving it on would measure the fast path's
#: advantage, not the cost of budget charging).
USE_FAST_PATH = True


# ----------------------------------------------------------------------
# Integer coding
# ----------------------------------------------------------------------

def _code_states(states: Iterable[State]) -> tuple[list[State], dict[State, int]]:
    """Deterministically order *states* and return ``(order, index)``."""
    order = sorted(states, key=repr)
    return order, {state: i for i, state in enumerate(order)}


def _mask_of(states: Iterable[State], code: dict[State, int]) -> int:
    mask = 0
    for state in states:
        mask |= 1 << code[state]
    return mask


def _unmask(mask: int, order: list[State]) -> frozenset[State]:
    members = []
    while mask:  # ungoverned: bit-scan bounded by one machine word
        low = mask & -mask
        members.append(order[low.bit_length() - 1])
        mask ^= low
    return frozenset(members)


def _chunk_frozensets(order: list[State], base: int, values: list[int]) -> dict[int, frozenset]:
    """Interned frozensets for 16-bit chunk *values* over ``order[base:]``.

    Filled along the chain ``sets[v] = sets[v ^ lowbit] | {state}`` so each
    distinct chunk value costs one union, and the member hashes stored in
    the smaller set are reused instead of recomputed.
    """
    sets: dict[int, frozenset] = {0: frozenset()}
    for value in values:
        stack = []
        cursor = value
        part = sets.get(cursor)
        while part is None:
            stack.append(cursor)
            cursor ^= cursor & -cursor
            part = sets.get(cursor)
        while stack:
            cursor = stack.pop()
            low = cursor & -cursor
            part = part | {order[base + low.bit_length() - 1]}
            sets[cursor] = part
    return sets


def _subset_fast(
    nfa: "_NFA",
    keep_empty: bool,
    order: list[State],
    symbols: list[Hashable],
    succ: list[list[int]],
    initial_mask: int,
    finals_mask: int,
) -> "_DFA":
    """Vectorized (numpy) subset construction for ungoverned runs.

    The BFS runs level-synchronously on int64 mask arrays: one fancy-indexed
    gather per (level, symbol, chunk) replaces the per-subset Python loop.
    Only the API boundary — frozenset views, the transitions dict — is
    Python-object work, assembled with C-level ``zip``/``map``/``update``.
    Masks must fit in a signed int64, so callers gate on ``len(order) <= 63``.

    The cyclic GC is paused for the duration: the construction allocates
    ~``|Q| + |delta|`` tuples and frozensets of *pre-existing* objects (no
    reference cycles can form), and generation-0 scans over that churn cost
    more than the whole BFS.
    """
    import gc

    from repro.strings.dfa import DFA

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _subset_fast_inner(
            nfa, keep_empty, order, symbols, succ, initial_mask, finals_mask, DFA
        )
    finally:
        if gc_was_enabled:
            gc.enable()


def _subset_fast_inner(
    nfa: "_NFA",
    keep_empty: bool,
    order: list[State],
    symbols: list[Hashable],
    succ: list[list[int]],
    initial_mask: int,
    finals_mask: int,
    DFA: "type[_DFA]",
) -> "_DFA":
    size = len(order)
    nchunks = ((size + 15) >> 4) or 1
    int64 = _np.int64
    tables = []  # tables[sym][chunk]: int64[65536] chunk-value -> successor mask
    for row in succ:
        per_chunk = []
        for chunk_index in range(nchunks):
            base = chunk_index << 4
            table = _np.zeros(1, dtype=int64)
            for bit in range(16):
                successors = row[base + bit] if base + bit < size else 0
                table = _np.concatenate([table, table | int64(successors)])
            per_chunk.append(table)
        tables.append(per_chunk)

    seen = _np.array([initial_mask], dtype=int64)
    frontier = seen
    src_parts: list[list] = [[] for _ in symbols]
    dst_parts: list[list] = [[] for _ in symbols]
    while frontier.size:  # ungoverned: fast path, entered only when no budget is active
        chunks = [(frontier >> (16 * c)) & 0xFFFF for c in range(nchunks)]
        level: list[int] = []
        for sym_index, per_chunk in enumerate(tables):
            targets = per_chunk[0][chunks[0]]
            for chunk_index in range(1, nchunks):
                targets = targets | per_chunk[chunk_index][chunks[chunk_index]]
            if not keep_empty:
                nonzero = targets != 0
                src_parts[sym_index].append(frontier[nonzero])
                dst_parts[sym_index].append(targets[nonzero])
                level.append(targets[nonzero])
            else:
                src_parts[sym_index].append(frontier)
                dst_parts[sym_index].append(targets)
                level.append(targets)
        if not level:
            break
        candidates = _np.unique(_np.concatenate(level))
        positions = _np.searchsorted(seen, candidates)
        clamped = _np.minimum(positions, seen.size - 1)
        fresh = candidates[
            (seen[clamped] != candidates) | (positions >= seen.size)
        ]
        if fresh.size:
            seen = _np.concatenate([seen, fresh])
            seen.sort()
        frontier = fresh

    # API boundary: decode masks to frozenset views (chunk-interned), then
    # assemble the transitions dict without a per-entry Python loop.
    per_chunk_views = []
    for chunk_index in range(nchunks):
        column = (seen >> (16 * chunk_index)) & 0xFFFF
        sets = _chunk_frozensets(
            order, chunk_index << 4, _np.unique(column).tolist()
        )
        per_chunk_views.append(list(map(sets.__getitem__, column.tolist())))
    views = per_chunk_views[0]
    for chunk_views in per_chunk_views[1:]:
        views = list(map(frozenset.union, views, chunk_views))

    transitions: dict[tuple[frozenset[Hashable], Hashable], frozenset[Hashable]] = {}
    getter = views.__getitem__
    for sym_index, symbol in enumerate(symbols):
        if not src_parts[sym_index]:
            continue
        srcs = _np.searchsorted(seen, _np.concatenate(src_parts[sym_index]))
        dsts = _np.searchsorted(seen, _np.concatenate(dst_parts[sym_index]))
        transitions.update(
            zip(
                zip(map(getter, srcs.tolist()), repeat(symbol)),
                map(getter, dsts.tolist()),
            )
        )
    finals = list(
        map(getter, _np.nonzero(seen & finals_mask)[0].tolist())
    )
    initial_view = views[int(_np.searchsorted(seen, initial_mask))]
    return DFA._from_parts(
        views, nfa.alphabet, transitions, initial_view, finals
    )


# ----------------------------------------------------------------------
# Subset construction on bitmasks
# ----------------------------------------------------------------------

def _code_nfa(
    nfa: "_NFA",
) -> tuple[list[State], dict[State, int], list[Hashable], list[list[int]], int, int]:
    """``(order, code, symbols, succ, initial_mask, finals_mask)`` of *nfa*.

    States are bit indices in ``repr`` order and symbols are sorted by
    ``repr``; ``succ[sym_index][state_index]`` is the successor mask.
    """
    order, code = _code_states(nfa.states)
    symbols = sorted(nfa.alphabet, key=repr)
    succ: list[list[int]] = [[0] * len(order) for _ in symbols]
    for sym_index, symbol in enumerate(symbols):
        row = succ[sym_index]
        for state, index in code.items():
            targets = nfa.transitions.get((state, symbol))
            if targets:
                row[index] = _mask_of(targets, code)
    return (
        order,
        code,
        symbols,
        succ,
        _mask_of(nfa.initials, code),
        _mask_of(nfa.finals, code),
    )


def _mask_views(
    order: list[State], masks: Iterable[int], nchunks: int
) -> dict[int, frozenset[State]]:
    """Interned ``mask -> frozenset`` views of the distinct *masks*
    (chunk-level frozensets are shared, so member hashes are reused
    instead of recomputed)."""
    empty: frozenset[State] = frozenset()
    member_tab: list[dict[int, frozenset[State]]] = [
        {0: empty} for _ in range(nchunks)
    ]
    views: dict[int, frozenset[State]] = {}
    for mask in masks:
        parts = None
        rest = mask
        chunk_index = 0
        while rest:  # ungoverned: bit-scan bounded by the coded state count
            chunk = rest & 0xFFFF
            if chunk:
                table = member_tab[chunk_index]
                part = table.get(chunk)
                if part is None:
                    stack = []
                    value = chunk
                    while part is None:
                        stack.append(value)
                        value ^= value & -value
                        part = table.get(value)
                    base = chunk_index << 4
                    while stack:  # ungoverned: chain-fill bounded by 16 bits
                        value = stack.pop()
                        low = value & -value
                        part = part | {order[base + low.bit_length() - 1]}
                        table[value] = part
                parts = part if parts is None else parts | part
            rest >>= 16
            chunk_index += 1
        views[mask] = empty if parts is None else parts
    return views


def subset_construction(
    nfa: "_NFA",
    *,
    keep_empty: bool = False,
    budget: Budget | None = None,
    checkpoint: "SubsetCheckpoint | SchemaGuidedCheckpoint | None" = None,
) -> "_DFA":
    """Bitmask subset construction; same contract as
    :func:`repro.strings.determinize.determinize`.

    States and symbols of *nfa* are integer-coded once; the BFS then works
    on int masks (interning, membership, and transition targets are all
    integer operations).  The returned DFA's states are ``frozenset``
    views reconstructed at the boundary, and budget charging replicates
    the reference loop exactly — one state per new subset, ``|alphabet|``
    steps per expanded subset, flushed every ``_FLUSH`` steps — so
    checkpoints and exhaustion counts are interchangeable with
    :func:`~repro.strings.determinize.determinize_reference`.

    The scalar loop is the schema-guided one
    (:func:`repro.strings.schema_guided.guided_subset_construction`) with
    no guide: one guide state that reads every symbol, so blind
    determinization is guided determinization under the universal
    schema, and charging and checkpointing live in that one loop.
    """
    from repro.strings.schema_guided import _guided_scalar, _universal_rows

    budget = resolve_budget(budget)
    coding = _code_nfa(nfa)
    order, _code, symbols, succ, initial_mask, finals_mask = coding
    fast = (
        budget is None
        and checkpoint is None
        and _np is not None
        and USE_FAST_PATH
        and len(order) <= 63
    )
    with _obs.construction_span(
        "determinize",
        budget=budget,
        kernel="fast" if fast else "scalar",
        nfa_states=len(order),
    ) as span:
        if fast:
            # Ungoverned, uninterrupted runs take the vectorized path; the
            # scalar loop stays the single source of truth for budget
            # charging and checkpoint semantics.
            dfa = _subset_fast(
                nfa, keep_empty, order, symbols, succ, initial_mask, finals_mask
            )
        else:
            dfa = _guided_scalar(
                nfa, coding, None, _universal_rows(len(symbols)),
                keep_empty, budget, checkpoint,
            )
        if span is not None:
            span.annotate(dfa_states=len(dfa.states))
        if _obs.ENABLED:
            _obs.METRICS.counter("determinize.runs").inc()
            _obs.METRICS.histogram("determinize.dfa_states").observe(len(dfa.states))
    return dfa


# ----------------------------------------------------------------------
# Hopcroft partition refinement
# ----------------------------------------------------------------------

def hopcroft_refine(
    states: Iterable[State],
    alphabet: Iterable[Symbol],
    delta: Mapping[tuple[State, Symbol], State],
    initial_partition: Mapping[State, Hashable],
    *,
    budget: Budget | None = None,
) -> dict[State, int]:
    """Coarsest refinement of *initial_partition* stable under *delta*.

    Same contract as :func:`repro.strings.minimize.moore_partition`
    (*delta* must be total on ``states x alphabet``) but runs Hopcroft's
    O(|delta| log n) "smaller half" worklist on integer-coded states
    instead of the quadratic signature-re-hashing Moore loop.  Block ids
    are normalized to first-occurrence order over *states*, which matches
    the reference implementation's numbering exactly.
    """
    budget = resolve_budget(budget)
    states = list(states)
    alphabet = list(alphabet)
    n = len(states)
    if n == 0:
        return {}
    index = {state: i for i, state in enumerate(states)}

    # Inverse transition index: preds[sym][dst] -> list of srcs (as ints).
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in alphabet]
    for sym_i, symbol in enumerate(alphabet):
        column = preds[sym_i]
        for i, state in enumerate(states):
            column[index[delta[(state, symbol)]]].append(i)

    # Initial blocks, grouped by partition class in first-occurrence order.
    class_ids: dict[Hashable, int] = {}
    block_of = [0] * n
    blocks: list[set[int]] = []
    for i, state in enumerate(states):
        key = initial_partition[state]
        block_id = class_ids.get(key)
        if block_id is None:
            block_id = class_ids[key] = len(blocks)
            blocks.append(set())
        blocks[block_id].add(i)
        block_of[i] = block_id

    # Seed the worklist with every (block, symbol) pair except the largest
    # block per symbol (safe for arbitrary initial partitions).
    worklist: deque[tuple[int, int]] = deque()
    in_worklist: set[tuple[int, int]] = set()
    if len(blocks) > 1:
        largest = max(range(len(blocks)), key=lambda b: len(blocks[b]))
        for block_id in range(len(blocks)):
            if block_id == largest:
                continue
            for sym_i in range(len(alphabet)):
                worklist.append((block_id, sym_i))
                in_worklist.add((block_id, sym_i))

    pending = 0
    with _obs.construction_span(
        "hopcroft-refine", budget=budget, n_states=n, n_symbols=len(alphabet)
    ) as span, budget_phase(budget, "minimize"):
        if budget is not None:
            # One step per state for the initial classification pass, so
            # even refinements that never split charge something (the
            # reference Moore loop always paid at least one round).
            budget.tick(n, frontier=len(blocks))
        while worklist:
            entry = worklist.popleft()
            in_worklist.discard(entry)
            block_id, sym_i = entry
            column = preds[sym_i]
            # States with a sym-transition into the splitter block.
            touched: dict[int, list[int]] = {}
            for dst in blocks[block_id]:
                for src in column[dst]:
                    touched.setdefault(block_of[src], []).append(src)
            if budget is not None:
                pending += len(blocks[block_id]) + sum(
                    len(inside) for inside in touched.values()
                )
                if pending >= _FLUSH:
                    budget.tick(pending, frontier=len(worklist))
                    pending = 0
            for affected_id, inside_list in touched.items():
                block = blocks[affected_id]
                inside = set(inside_list)
                if len(inside) == len(block):
                    continue  # no split
                outside = block - inside
                # Keep the larger part under the old id so stale worklist
                # entries keep denoting a superset of what they named.
                if len(inside) <= len(outside):
                    new_part, old_part = inside, outside
                else:
                    new_part, old_part = outside, inside
                blocks[affected_id] = old_part
                new_id = len(blocks)
                blocks.append(new_part)
                for i in new_part:
                    block_of[i] = new_id
                for s in range(len(alphabet)):
                    if (affected_id, s) in in_worklist:
                        worklist.append((new_id, s))
                        in_worklist.add((new_id, s))
                    else:
                        smaller = new_id if len(new_part) <= len(old_part) else affected_id
                        worklist.append((smaller, s))
                        in_worklist.add((smaller, s))
        if budget is not None and pending:
            budget.tick(pending)
        if span is not None:
            span.annotate(blocks=len(blocks))
        if _obs.ENABLED:
            _obs.METRICS.counter("hopcroft.runs").inc()
            _obs.METRICS.histogram("hopcroft.blocks").observe(len(blocks))

    # Normalize block ids to first-occurrence order over *states* — the
    # numbering the Moore reference loop produces.
    renumber: dict[int, int] = {}
    result: dict[State, int] = {}
    for i, state in enumerate(states):
        block_id = block_of[i]
        if block_id not in renumber:
            renumber[block_id] = len(renumber)
        result[state] = renumber[block_id]
    return result


# ----------------------------------------------------------------------
# On-the-fly product inclusion
# ----------------------------------------------------------------------

def nfa_includes(sup: "_NFA", sub: "_NFA", *, budget: Budget | None = None) -> bool:
    """Decide ``L(sub) subseteq L(sup)`` without materializing either DFA.

    Both automata are determinized *lazily* as int bitmasks and the pair
    space ``(sub_subset, sup_subset)`` is explored breadth-first.  The
    first pair with an accepting ``sub`` component and a rejecting
    ``sup`` component is a counterexample and aborts the search
    immediately — for non-inclusions this typically visits a tiny
    fraction of the product.

    Only *sub*'s symbols are iterated (words of ``L(sub)`` cannot use
    others), so unequal alphabets are handled for free: on a symbol
    unknown to *sup* the sup-component moves to the empty (rejecting)
    subset and the search continues.
    """
    budget = resolve_budget(budget)
    sub_order, sub_code = _code_states(sub.states)
    sup_order, sup_code = _code_states(sup.states)
    symbols = sorted(sub.alphabet, key=repr)
    fanout = len(symbols)

    sub_succ: list[list[int]] = [[0] * len(sub_order) for _ in symbols]
    sup_succ: list[list[int]] = [[0] * len(sup_order) for _ in symbols]
    for sym_i, symbol in enumerate(symbols):
        row = sub_succ[sym_i]
        for state, i in sub_code.items():
            targets = sub.transitions.get((state, symbol))
            if targets:
                row[i] = _mask_of(targets, sub_code)
        row = sup_succ[sym_i]
        for state, i in sup_code.items():
            targets = sup.transitions.get((state, symbol))
            if targets:
                row[i] = _mask_of(targets, sup_code)

    sub_finals = _mask_of(sub.finals, sub_code)
    sup_finals = _mask_of(sup.finals, sup_code)
    initial = (_mask_of(sub.initials, sub_code), _mask_of(sup.initials, sup_code))
    if initial[0] & sub_finals and not initial[1] & sup_finals:
        return False  # the empty word is a counterexample

    seen: set[tuple[int, int]] = {initial}
    queue: deque[tuple[int, int]] = deque([initial])
    pending = 0
    with _obs.construction_span(
        "inclusion", budget=budget
    ) as span, budget_phase(budget, "inclusion"):
        if _obs.ENABLED:
            _obs.METRICS.counter("inclusion.runs").inc()
        if budget is not None:
            budget.charge_states(1, frontier=1)
        while queue:
            sub_mask, sup_mask = queue.popleft()
            if budget is not None:
                pending += fanout
                if pending >= _FLUSH:
                    budget.tick(pending, len(queue))
                    pending = 0
            for sym_i in range(fanout):
                row = sub_succ[sym_i]
                sub_next = 0
                rest = sub_mask
                while rest:
                    low = rest & -rest
                    sub_next |= row[low.bit_length() - 1]
                    rest ^= low
                if not sub_next:
                    continue  # the word died in sub: not a counterexample
                row = sup_succ[sym_i]
                sup_next = 0
                rest = sup_mask
                while rest:
                    low = rest & -rest
                    sup_next |= row[low.bit_length() - 1]
                    rest ^= low
                if sub_next & sub_finals and not sup_next & sup_finals:
                    if budget is not None and pending:
                        budget.tick(pending, len(queue))
                    if span is not None:
                        span.annotate(included=False, pairs=len(seen))
                    return False  # early exit on the first counterexample
                pair = (sub_next, sup_next)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
                    if budget is not None:
                        budget.charge_states(1, len(queue))
        if budget is not None and pending:
            budget.tick(pending, 0)
        if span is not None:
            span.annotate(included=True, pairs=len(seen))
    return True


# ----------------------------------------------------------------------
# Structural-hash memo cache
# ----------------------------------------------------------------------

#: Every memo tier in the process, by name.  A kernel module's tiers join
#: when it is imported; weak references let a throwaway cache drop out
#: once nothing holds it.
_TIERS: weakref.WeakValueDictionary[str, _KernelCache] = weakref.WeakValueDictionary()


class _KernelCache:
    """A bounded insertion-ordered memo cache with hit/miss counters.

    Values are ``(payload, states_cost, steps_cost)`` triples; the costs
    are what the original construction charged its budget, replayed on
    every hit so governed runs stay count-deterministic (see
    :func:`cached_min_dfa`).  Each instance registers itself in the tier
    registry under *name*.
    """

    __slots__ = ("name", "entries", "hits", "misses", "max_entries", "__weakref__")

    def __init__(self, name: str, max_entries: int = 4096) -> None:
        self.name = name
        self.entries: dict[Any, tuple[Any, int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries
        _TIERS[name] = self

    def get(self, key: Any) -> tuple[Any, int, int] | None:
        entry = self.entries.get(key)
        if entry is not None:
            self.hits += 1
            if _obs.ENABLED:
                _obs.METRICS.counter(f"cache.{self.name}.hits").inc()
        else:
            self.misses += 1
            if _obs.ENABLED:
                _obs.METRICS.counter(f"cache.{self.name}.misses").inc()
        return entry

    def store(self, key: Any, value: tuple[Any, int, int]) -> None:
        if len(self.entries) >= self.max_entries:
            # Evict the oldest entry (dicts preserve insertion order).
            self.entries.pop(next(iter(self.entries)))
        self.entries[key] = value

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self.entries),
            "max_entries": self.max_entries,
        }


_MIN_DFA_CACHE = _KernelCache("min_dfa")
_CONTENT_CACHE = _KernelCache("content_model")


def _memo_totals() -> tuple[int, int]:
    tiers = list(_TIERS.values())
    return sum(tier.hits for tier in tiers), sum(tier.misses for tier in tiers)


_obs.register_cache_provider(_memo_totals)


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/entry counters of every memo tier, keyed by tier name."""
    return {name: tier.stats() for name, tier in _TIERS.items()}


def clear_caches() -> None:
    """Drop every memo tier's entries and reset its counters."""
    for tier in _TIERS.values():
        tier.clear()


def canonical_repr(value: object) -> str:
    """``repr`` made stable across processes and pickle round-trips.

    Plain ``repr`` of a frozenset (or of a tuple containing one — the
    constructions' subset-typed symbols) follows hash-table iteration
    order, which varies with hash randomization and with how an equal set
    was rebuilt by ``pickle``.  Anything feeding a cache key or a
    canonical ordering must render set elements sorted instead.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical_repr(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical_repr(v) for v in value) + "]"
    return repr(value)


def _symbol_reprs(alphabet: Iterable[Hashable]) -> tuple[str, ...] | None:
    """Sorted canonical symbol reprs, or None when they collide
    (uncacheable — canonical repr is the only portable total order over
    mixed symbol types, and a collision would let two distinct automata
    share a key)."""
    reprs = sorted(canonical_repr(symbol) for symbol in alphabet)
    for left, right in zip(reprs, reprs[1:]):
        if left == right:
            return None
    return tuple(reprs)


def structural_key(language: object) -> tuple[Any, ...] | None:
    """A hashable structural fingerprint of a language-like value.

    Equal keys imply isomorphic automata (hence equal minimal DFAs);
    distinct-but-isomorphic inputs may miss — the cache trades recall for
    soundness.  Returns None for uncacheable inputs.
    """
    from repro.strings.dfa import DFA
    from repro.strings.nfa import NFA
    from repro.strings.regex import Regex

    if isinstance(language, str):
        return ("re", language)
    if isinstance(language, Regex):
        return ("regex", language)
    if isinstance(language, DFA):
        alphabet_key = _symbol_reprs(language.alphabet)
        if alphabet_key is None:
            return None
        # Canonical BFS order over the reachable part (unreachable states
        # cannot change the minimal DFA).
        symbols = sorted(language.alphabet, key=canonical_repr)
        order: dict[Hashable, int] = {language.initial: 0}
        queue = deque([language.initial])
        edges: list[tuple[int, str, int]] = []
        while queue:  # ungoverned: linear BFS for a cache key over a materialized DFA
            state = queue.popleft()
            src = order[state]
            for symbol in symbols:
                dst = language.transitions.get((state, symbol))
                if dst is None:
                    continue
                if dst not in order:
                    order[dst] = len(order)
                    queue.append(dst)
                edges.append((src, canonical_repr(symbol), order[dst]))
        finals = tuple(sorted(order[q] for q in language.finals if q in order))
        return ("dfa", alphabet_key, len(order), tuple(edges), finals)
    if isinstance(language, NFA):
        alphabet_key = _symbol_reprs(language.alphabet)
        if alphabet_key is None:
            return None
        order, code = _code_states(language.states)
        edges = tuple(
            sorted(
                (code[src], canonical_repr(symbol), _mask_of(dsts, code))
                for (src, symbol), dsts in language.transitions.items()
            )
        )
        return (
            "nfa",
            alphabet_key,
            len(order),
            edges,
            _mask_of(language.initials, code),
            _mask_of(language.finals, code),
        )
    return None


def _recharge(budget: Budget | None, states_cost: int, steps_cost: int) -> None:
    """Replay a cached construction's recorded cost against *budget*.

    This is what keeps governance deterministic across warm and cold
    caches: a budget too small for the construction is also too small
    for the cache hit, and trips at the same counters.
    """
    if budget is None:
        return
    if states_cost:
        budget.charge_states(states_cost)
    extra = steps_cost - states_cost
    if extra > 0:
        budget.tick(extra)


def _memoized(
    cache: _KernelCache,
    key: Any,
    build: Callable[[Budget | None], Any],
    budget: Budget | None,
) -> Any:
    """Look *key* up in *cache*; on a miss run *build* under a metering
    budget and record the charged cost alongside the result.

    Two tiers: the in-process memo dict, then — when a persistent store
    is configured (:func:`repro.cache.resolve_cache`) — the on-disk
    artifact cache, addressed by ``artifact_digest(cache.name, key)``.
    Disk hits replay their recorded budget cost exactly like memo hits
    and re-populate the memo tier; fresh builds write through to disk.
    """
    if key is None:
        return build(budget)
    entry = cache.get(key)
    if entry is not None:
        value, states_cost, steps_cost = entry
        _recharge(budget, states_cost, steps_cost)
        return value
    from repro.cache import artifact_digest, resolve_cache

    disk = resolve_cache()
    digest = artifact_digest(cache.name, key) if disk is not None else None
    if disk is not None and digest is not None:
        loaded = disk.get(digest)
        if loaded is not None:
            value, states_cost, steps_cost = loaded
            _recharge(budget, states_cost, steps_cost)
            cache.store(key, (value, states_cost, steps_cost))
            return value
    if budget is not None:
        states_before, steps_before = budget.states, budget.steps
        value = build(budget)
        cost = (budget.states - states_before, budget.steps - steps_before)
    else:
        meter = Budget()  # unlimited, but it still counts
        value = build(meter)
        cost = (meter.states, meter.steps)
    cache.store(key, (value, *cost))
    if disk is not None and digest is not None:
        disk.put(digest, value, *cost)
    return value


def cached_min_dfa(language: object, *, budget: Budget | None = None) -> "_DFA":
    """Memoized ``as_min_dfa``: coerce *language* to its minimal trim DFA,
    interning structurally-equal inputs.

    The returned DFA is shared between callers — treat it as immutable
    (every operation in this library already copies).  Hits replay the
    recorded budget cost (see :func:`_recharge`).
    """
    from repro.strings.determinize import determinize
    from repro.strings.dfa import DFA
    from repro.strings.minimize import minimize_dfa
    from repro.strings.ops import as_nfa

    budget = resolve_budget(budget)

    def build(inner_budget: Budget | None) -> "_DFA":
        if isinstance(language, DFA):
            return minimize_dfa(language, budget=inner_budget)
        return minimize_dfa(
            determinize(as_nfa(language), budget=inner_budget), budget=inner_budget
        )

    return _memoized(_MIN_DFA_CACHE, structural_key(language), build, budget)


def cached_content_model(
    language: object, types: frozenset[Hashable], *, budget: Budget | None = None
) -> "_DFA":
    """Memoized EDTD content-model pipeline: minimal DFA completed over
    *types* and trimmed (what :class:`repro.schemas.edtd.EDTD` stores per
    type).

    Keyed by ``(structural fingerprint, type set)``; the biggest wins are
    the leaf content model ``"~"`` (re-minted for every leaf type of
    every constructed schema) and retagged content models shared across
    product constructions.  Raises :class:`repro.errors.SchemaError` when
    the content model mentions symbols outside *types* (never cached).
    """
    from repro.errors import SchemaError

    budget = resolve_budget(budget)
    types_key = _symbol_reprs(types)
    language_key = structural_key(language)
    key = None
    if types_key is not None and language_key is not None:
        key = (language_key, types_key)

    def build(inner_budget: Budget | None) -> "_DFA":
        dfa = cached_min_dfa(language, budget=inner_budget)
        if not dfa.alphabet <= types:
            raise SchemaError(
                f"content model uses unknown types: "
                f"{set(dfa.alphabet) - set(types)!r}"
            )
        return dfa.completed(types).trim()

    return _memoized(_CONTENT_CACHE, key, build, budget)
