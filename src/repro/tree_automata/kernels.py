"""Integer-coded tree-automata kernels: the BTA hot loops on machine ints.

This is the tree-side counterpart of :mod:`repro.strings.kernels` (PR 2).
Every exact decision procedure of the paper — Construction 3.1's
determinization of type automata, Theorem 2.13's EXPTIME inclusion, the
upper/lower/definability pipelines that ride on them — bottoms out in
bottom-up binary-tree-automaton loops that used to hash frozensets of
frozensets per combination.  This module codes a BTA's states and labels
into small ints **once per automaton** (cached in a
``WeakKeyDictionary``, so the coding never outlives the automaton and
never leaks into pickles) and runs the loops on int bitmasks:

* :func:`bta_determinize` — worklist subset construction where subset
  states are int masks and the ``(label, q1, q2)`` rule join is served
  by lazily-filled 16-bit *chunk tables* per ``(label, q1)`` row: one
  step costs ``popcount(m1) * ceil(n/16)`` dict lookups instead of a
  scan over the rule table.  Ungoverned runs on BTAs with <= 63 states
  take a numpy-vectorized path that joins one discovered subset against
  *all* known partner subsets per ``(label, side)`` at once.  Governed
  runs charge the budget exactly like the reference loop (one state per
  fresh subset, leaf subsets free) and trip with a resumable
  :class:`BTADetCheckpoint`; their worklist is the schema-guided one of
  :mod:`repro.tree_automata.schema_guided` with no guide.
* :func:`bta_difference_empty` — the lazy-product inclusion worklist of
  :mod:`repro.tree_automata.inclusion`, upgraded to chunk-table steps
  on the right-hand subsets and the same numpy partner-batch fast path.
* :func:`bta_possible_states` / :func:`bta_accepts` — bottom-up runs
  over the :class:`~repro.trees.arena.ArenaTree` encoding: one flat
  ``int`` array of state masks instead of recursion + per-node
  frozensets (arbitrarily deep documents are safe).
* :func:`edtd_possible_types` — EDTD bottom-up type inference on the
  arena: per-(type, content-DFA-state) chunk tables over child *type
  masks* replace the per-node Python-set subset simulation.
* :func:`edtd_accept_steps` — the same typing run in document order
  over tag events, with candidates pruned top-down by the parent's
  live content-DFA states: the one loop that decides membership, for
  XML text, event streams and built trees alike, as a generator that
  hands back after every slice of events.
* structural-hash memo caches (:func:`cached_bta_determinize`,
  :func:`cached_bta_from_edtd`, and the ``edtd_includes`` verdict cache
  in :mod:`repro.tree_automata.inclusion`) with recorded-cost budget
  *recharge*: a governed run trips at the same counters whether the
  cache is warm or cold.

The pre-kernel loops survive as differential oracles
(``BTA.determinize_reference``, ``bta_difference_empty_reference``,
``BTA.possible_states_reference``, ``EDTD.possible_types_reference``) —
``tests/tree_automata/test_tree_kernels.py`` pins agreement on random
automata and the paper's blow-up families.  See ``docs/PERFORMANCE.md``
for the coding scheme and measured speedups (``BENCH_trees.json``).
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Generator, Hashable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypeVar

from repro import observability as _obs
from repro.errors import AutomatonError
from repro.runtime.budget import Budget, budget_phase, resolve_budget
from repro.strings.kernels import (
    _FLUSH,
    _KernelCache,
    _code_states,
    _mask_of,
    _mask_views,
    _memoized,
    _unmask,
    canonical_repr,
    _symbol_reprs,
)
# Every memo tier is in the one registry of repro.strings.kernels; the
# name stays bound here for readers that ask each kernel module for its
# cache_stats() (wirebench/traced_server.py).
from repro.strings.kernels import cache_stats as cache_stats
from repro.trees.xml_io import CLOSE, OPEN

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy
    from repro.schemas.edtd import EDTD as _EDTD
    from repro.tree_automata.bta import BTA as _BTA
    from repro.tree_automata.schema_guided import GuidedBTADetCheckpoint
    from repro.trees.tree import Tree as _Tree

try:  # the vectorized fast path is optional — the scalar kernels are exact
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

State = Hashable
Symbol = Hashable
_T = TypeVar("_T")

#: Set to False to force the scalar loops even when numpy is importable
#: (same contract as :data:`repro.strings.kernels.USE_FAST_PATH`).
USE_FAST_PATH = True


# ----------------------------------------------------------------------
# Per-automaton integer coding
# ----------------------------------------------------------------------

class _BTACoding:
    """Integer coding of one BTA, built once and cached per instance.

    States are bit indices in ``repr`` order; subsets are int masks.  The
    ``(label, q1, q2) -> targets`` rule table is regrouped per label and
    per first child ``q1``; the step ``label(m1, m2)`` then ORs, for each
    set bit ``q1`` of ``m1``, a lazily-filled 16-bit chunk table over
    ``m2`` (``table[v] = table[v ^ lowbit] | row[bit]``, one O(1) entry
    per distinct chunk value ever seen).
    """

    __slots__ = (
        "order",
        "code",
        "labels",
        "label_code",
        "leaf_masks",
        "first_masks",
        "by_q1",
        "finals_mask",
        "nchunks",
        "_rows",
        "_np_rules",
        "__weakref__",
    )

    def __init__(self, bta: "_BTA") -> None:
        order, code = _code_states(bta.states)
        self.order: list[State] = order
        self.code: dict[State, int] = code
        self.labels: list[Symbol] = sorted(bta.alphabet, key=repr)
        self.label_code: dict[Symbol, int] = {
            label: index for index, label in enumerate(self.labels)
        }
        self.leaf_masks: list[int] = [
            _mask_of(bta.leaf_rules.get(label, ()), code) for label in self.labels
        ]
        nlabels = len(self.labels)
        #: per label: mask of states appearing as a first child in a rule —
        #: bits of m1 outside it cannot contribute and are skipped wholesale.
        self.first_masks: list[int] = [0] * nlabels
        #: per label: ``q1 -> [(q2, targets_mask), ...]``.
        self.by_q1: list[dict[int, list[tuple[int, int]]]] = [
            {} for _ in range(nlabels)
        ]
        for (label, q1, q2), targets in bta.internal_rules.items():
            label_index = self.label_code[label]
            i1, i2 = code[q1], code[q2]
            self.first_masks[label_index] |= 1 << i1
            self.by_q1[label_index].setdefault(i1, []).append(
                (i2, _mask_of(targets, code))
            )
        self.finals_mask: int = _mask_of(bta.finals, code)
        self.nchunks: int = ((len(order) + 15) >> 4) or 1
        #: ``(label_index, q1) -> (row, chunk tables)``, filled on demand.
        self._rows: dict[tuple[int, int], tuple[list[int], list[dict[int, int]]]] = {}
        #: per label: int64 rule arrays for the numpy fast path.
        self._np_rules: list[tuple[Any, Any, Any] | None] | None = None

    # -- scalar step ----------------------------------------------------

    def step(self, label_index: int, m1: int, m2: int) -> int:
        """Targets mask of ``label(m1, m2)`` (OR over matching rules)."""
        total = 0
        rest = m1 & self.first_masks[label_index]
        while rest:  # ungoverned: bit-scan bounded by one machine word
            low = rest & -rest
            rest ^= low
            total |= self._row_step(label_index, low.bit_length() - 1, m2)
        return total

    def _row_step(self, label_index: int, q1: int, m2: int) -> int:
        key = (label_index, q1)
        entry = self._rows.get(key)
        if entry is None:
            row = [0] * len(self.order)
            for q2, targets_mask in self.by_q1[label_index].get(q1, ()):
                row[q2] |= targets_mask
            entry = (row, [{0: 0} for _ in range(self.nchunks)])
            self._rows[key] = entry
        row, tabs = entry
        total = 0
        rest = m2
        chunk_index = 0
        while rest:  # ungoverned: bit-scan bounded by the coded state count
            chunk = rest & 0xFFFF
            if chunk:
                table = tabs[chunk_index]
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
                        part |= row[base + low.bit_length() - 1]
                        table[value] = part
                total |= part
            rest >>= 16
            chunk_index += 1
        return total

    # -- vectorized step (numpy fast path) -------------------------------

    def np_rules(self, label_index: int) -> tuple[Any, Any, Any]:
        """``(q1_masks, q2_masks, targets)`` int64 rule arrays per label."""
        if self._np_rules is None:
            self._np_rules = [None] * len(self.labels)
        cached = self._np_rules[label_index]
        if cached is None:
            triples = [
                (1 << q1, 1 << q2, targets_mask)
                for q1, pairs in self.by_q1[label_index].items()
                for q2, targets_mask in pairs
            ]
            if triples:
                array = _np.array(triples, dtype=_np.int64)
                cached = (array[:, 0], array[:, 1], array[:, 2])
            else:
                empty = _np.zeros(0, dtype=_np.int64)
                cached = (empty, empty, empty)
            self._np_rules[label_index] = cached
        return cached

    def step_many_right(self, label_index: int, m1: int, partners: Any) -> Any:
        """Targets of ``label(m1, p)`` for every partner ``p`` at once."""
        q1_masks, q2_masks, targets = self.np_rules(label_index)
        if not partners.size:
            return partners
        if q1_masks.size:
            selected = (q1_masks & m1) != 0
            if selected.any():
                hit = (partners[:, None] & q2_masks[selected][None, :]) != 0
                return _np.bitwise_or.reduce(
                    _np.where(hit, targets[selected][None, :], 0), axis=1
                )
        return _np.zeros(partners.size, dtype=_np.int64)

    def step_many_left(self, label_index: int, partners: Any, m2: int) -> Any:
        """Targets of ``label(p, m2)`` for every partner ``p`` at once."""
        q1_masks, q2_masks, targets = self.np_rules(label_index)
        if not partners.size:
            return partners
        if q2_masks.size:
            selected = (q2_masks & m2) != 0
            if selected.any():
                hit = (partners[:, None] & q1_masks[selected][None, :]) != 0
                return _np.bitwise_or.reduce(
                    _np.where(hit, targets[selected][None, :], 0), axis=1
                )
        return _np.zeros(partners.size, dtype=_np.int64)


#: Codings keyed by automaton identity; weak keys tie each coding's
#: lifetime to its BTA without touching the BTA's own (picklable) state.
_CODINGS: "weakref.WeakKeyDictionary[Any, _BTACoding]" = weakref.WeakKeyDictionary()


def _coding_of(bta: "_BTA") -> _BTACoding:
    coding = _CODINGS.get(bta)
    if coding is None:
        coding = _BTACoding(bta)
        _CODINGS[bta] = coding
    return coding


# ----------------------------------------------------------------------
# Determinization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BTADetCheckpoint:
    """Resumable snapshot of a partially-run BTA subset construction.

    ``subsets`` is the discovery-ordered tuple of subset states,
    ``done`` the count of fully-combined rows, ``transitions`` the
    ``((label, S1, S2), target)`` entries computed so far.  Opaque to
    callers: obtain one from ``BudgetExceededError.checkpoint`` and pass
    it back via ``BTA.determinize(checkpoint=...)`` with the *same* BTA.
    Resumption recomputes at most one partial row — all entries are
    idempotent, so no state is lost, duplicated, or double-charged.
    """

    subsets: tuple[frozenset[State], ...]
    transitions: tuple[
        tuple[tuple[Symbol, frozenset[State], frozenset[State]], frozenset[State]], ...
    ]
    done: int

    @property
    def states_explored(self) -> int:
        return len(self.subsets)

    @property
    def frontier_size(self) -> int:
        return len(self.subsets) - self.done


def bta_determinize(
    bta: "_BTA",
    *,
    budget: Budget | None = None,
    checkpoint: "BTADetCheckpoint | GuidedBTADetCheckpoint | None" = None,
    trace: Any = None,
) -> "_BTA":
    """Bitmask bottom-up subset construction; same contract (result,
    charging, trip counts) as ``BTA.determinize_reference``.

    Subset states are int masks; each discovered subset is combined once
    against every subset known so far (both child positions), so the
    rule join runs once per ordered pair instead of once per pair per
    round.  Budget charging replicates the reference: the initial leaf
    subsets are free, every other fresh subset charges one state, and
    combination work ticks in ``_FLUSH`` batches.  On exhaustion the
    raised error carries a :class:`BTADetCheckpoint`.

    The scalar loop is the schema-guided worklist
    (:func:`repro.tree_automata.schema_guided.bta_determinize_guided`)
    with no guide — one guide state that reads every label — so
    charging and checkpoints live in that one loop.
    """
    from repro.tree_automata.schema_guided import _code_guide, _guided_worklist

    budget = resolve_budget(budget)
    coding = _coding_of(bta)
    fast = (
        budget is None
        and checkpoint is None
        and _np is not None
        and USE_FAST_PATH
        and len(coding.order) <= 63
    )
    with _obs.construction_span(
        "bta-determinize",
        trace=trace,
        budget=budget,
        kernel="fast" if fast else "scalar",
        nta_states=len(coding.order),
    ) as span:
        if fast:
            masks, transitions = _determinize_fast(coding)
        else:
            _states, leaf_tags, rules, _useful = _code_guide(coding, None)
            pairs, transitions = _guided_worklist(
                coding, None, leaf_tags, rules, budget, checkpoint
            )
            masks = [mask for _, mask in pairs]
        result = _assemble_bta(
            bta, coding, masks, transitions, range(len(coding.labels))
        )
        if span is not None:
            span.annotate(subsets=len(masks))
        if _obs.ENABLED:
            _obs.METRICS.counter("bta_determinize.runs").inc()
            _obs.METRICS.histogram("bta_determinize.subsets").observe(len(masks))
    return result


def _seed_masks(coding: _BTACoding) -> tuple[list[int], dict[int, int]]:
    """The initial (uncharged) worklist: the distinct leaf subsets."""
    masks: list[int] = []
    index: dict[int, int] = {}
    for mask in coding.leaf_masks:
        if mask not in index:
            index[mask] = len(masks)
            masks.append(mask)
    return masks, index


def _determinize_fast(
    coding: _BTACoding,
) -> tuple[list[int], dict[tuple[int, int, int], int]]:
    """Vectorized worklist for ungoverned runs (<= 63 states).

    The cyclic GC is paused for the duration: the construction allocates
    tuples/ints of pre-existing objects only (no cycles can form), and
    generation-0 scans over that churn cost more than the joins.
    """
    import gc

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _determinize_fast_inner(coding)
    finally:
        if gc_was_enabled:
            gc.enable()


def _determinize_fast_inner(
    coding: _BTACoding,
) -> tuple[list[int], dict[tuple[int, int, int], int]]:
    int64 = _np.int64
    label_range = range(len(coding.labels))
    masks, index = _seed_masks(coding)
    transitions: dict[tuple[int, int, int], int] = {}
    done = 0
    while done < len(masks):  # ungoverned: fast path, entered only when no budget is active
        current = masks[done]
        # masks only grows, so masks[:done+1] is stable for this row even
        # though discoveries append during the loop below.
        partners = _np.array(masks[: done + 1], dtype=int64)
        left_partners = partners[:done]
        for label_index in label_range:
            row = coding.step_many_right(label_index, current, partners).tolist()
            for position, target in enumerate(row):
                transitions[(label_index, current, masks[position])] = target
                if target not in index:
                    index[target] = len(masks)
                    masks.append(target)
            column = coding.step_many_left(label_index, left_partners, current).tolist()
            for position, target in enumerate(column):
                transitions[(label_index, masks[position], current)] = target
                if target not in index:
                    index[target] = len(masks)
                    masks.append(target)
        done += 1
    return masks, transitions


def _assemble_bta(
    bta: "_BTA",
    coding: _BTACoding,
    masks: list[int],
    transitions: dict[tuple[int, int, int], int],
    leaf_labels: Iterable[int],
) -> "_BTA":
    """Decode a worklist result — its distinct subset *masks* and coded
    *transitions* — into a validated-by-construction BTA over subsets.
    Leaf rules are kept for the label indices in *leaf_labels*: every
    label for a blind run, the guide-alive ones for a guided run."""
    from repro.tree_automata.bta import BTA

    views = _mask_views(coding.order, masks, coding.nchunks)
    singletons = {mask: frozenset((view,)) for mask, view in views.items()}
    labels = coding.labels
    leaf_rules = {
        labels[label_index]: singletons[coding.leaf_masks[label_index]]
        for label_index in leaf_labels
    }
    internal_rules = {
        (labels[label_index], views[m1], views[m2]): singletons[target]
        for (label_index, m1, m2), target in transitions.items()
    }
    finals_mask = coding.finals_mask
    finals = [view for mask, view in views.items() if mask & finals_mask]
    return BTA._from_parts(
        views.values(), bta.alphabet, leaf_rules, internal_rules, finals
    )


# ----------------------------------------------------------------------
# Lazy-product inclusion (difference emptiness)
# ----------------------------------------------------------------------

def bta_difference_empty(
    left: "_BTA",
    right: "_BTA",
    *,
    budget: Budget | None = None,
    trace: Any = None,
) -> bool:
    """Decide ``L(left) subseteq L(right)`` by emptiness of the lazy
    product of *left* with the on-the-fly determinization of *right*.

    Same worklist and charging as the PR-2 loop in
    :mod:`repro.tree_automata.inclusion` (one state per discovered
    ``(left state, right subset)`` pair, early exit on the first
    counterexample), with two kernel upgrades: right-subset steps go
    through the per-``(label, q1)`` chunk tables of :class:`_BTACoding`,
    and ungoverned runs on right automata with <= 63 states batch each
    popped pair against *all* known partner masks per rule with numpy.
    """
    budget = resolve_budget(budget)
    coding = _coding_of(right)
    label_code = coding.label_code
    right_finals = coding.finals_mask

    # Left internal rules indexed by each child position, with the label
    # pre-coded into the right automaton's label space (None when the
    # right automaton cannot read the label at all).
    by_first: dict[State, list[tuple[int | None, State, tuple[State, ...]]]] = {}
    by_second: dict[State, list[tuple[int | None, State, tuple[State, ...]]]] = {}
    for (label, q1, q2), targets in left.internal_rules.items():
        entry = (label_code.get(label), None, tuple(targets))
        by_first.setdefault(q1, []).append((entry[0], q2, entry[2]))
        by_second.setdefault(q2, []).append((entry[0], q1, entry[2]))

    fast = (
        budget is None
        and _np is not None
        and USE_FAST_PATH
        and len(coding.order) <= 63
    )

    left_finals = left.finals
    seen: set[tuple[State, int]] = set()
    by_left: dict[State, list[int]] = {}  # left state -> discovered right masks
    worklist: list[tuple[State, int]] = []
    head = 0
    counterexample = False

    def discover(q: State, mask: int) -> bool:
        """Record pair ``(q, mask)``; True iff it is a counterexample."""
        pair = (q, mask)
        if pair in seen:
            return False
        if q in left_finals and not mask & right_finals:
            return True  # early exit: a tree in L(left) - L(right)
        seen.add(pair)
        by_left.setdefault(q, []).append(mask)
        worklist.append(pair)
        if budget is not None:
            budget.charge_states(1, frontier=len(worklist) - head)
        return False

    step = coding.step
    step_cache: dict[tuple[int, int, int], int] = {}
    pending = 0
    with _obs.construction_span(
        "bta-inclusion",
        trace=trace,
        budget=budget,
        kernel="fast" if fast else "scalar",
    ) as span, budget_phase(budget, "bta-inclusion"):
        if _obs.ENABLED:
            _obs.METRICS.counter("bta_inclusion.runs").inc()
        for label, left_leaf in left.leaf_rules.items():
            label_index = label_code.get(label)
            leaf_mask = 0 if label_index is None else coding.leaf_masks[label_index]
            for q in left_leaf:
                if discover(q, leaf_mask):
                    counterexample = True
                    break
            if counterexample:
                break

        while head < len(worklist) and not counterexample:
            q, mask = worklist[head]
            head += 1
            # Combine (q, mask) in both child positions with every pair
            # discovered so far; pairs discovered later re-run the
            # combination from their side, so coverage is complete.
            for position, rules in ((0, by_first.get(q)), (1, by_second.get(q))):
                if not rules:
                    continue
                for label_index, partner, targets in rules:
                    partner_masks = by_left.get(partner)
                    if not partner_masks:
                        continue
                    if label_index is None:
                        subsets = [0] * len(partner_masks)
                    elif fast and len(partner_masks) > 4:
                        batch = _np.array(list(partner_masks), dtype=_np.int64)
                        if position == 0:
                            subsets = coding.step_many_right(
                                label_index, mask, batch
                            ).tolist()
                        else:
                            subsets = coding.step_many_left(
                                label_index, batch, mask
                            ).tolist()
                    else:
                        subsets = []
                        for other in list(partner_masks):
                            m1, m2 = (mask, other) if position == 0 else (other, mask)
                            key = (label_index, m1, m2)
                            subset = step_cache.get(key)
                            if subset is None:
                                subset = step(label_index, m1, m2)
                                step_cache[key] = subset
                            subsets.append(subset)
                    if budget is not None:
                        pending += len(subsets)
                        if pending >= _FLUSH:
                            budget.tick(pending, frontier=len(worklist) - head)
                            pending = 0
                    for subset in subsets:
                        for target in targets:
                            if discover(target, subset):
                                counterexample = True
                                break
                        if counterexample:
                            break
                    if counterexample:
                        break
                if counterexample:
                    break
        if budget is not None and pending:
            budget.tick(pending, frontier=len(worklist) - head)
        if span is not None:
            span.annotate(included=not counterexample, pairs=len(seen))
        if _obs.ENABLED:
            _obs.METRICS.histogram("bta_inclusion.pairs").observe(len(seen))
    return not counterexample


# ----------------------------------------------------------------------
# Arena runs: possible states / acceptance
# ----------------------------------------------------------------------

def _arena_of(tree: "_Tree | Any") -> Any:
    from repro.trees.arena import ArenaTree

    if isinstance(tree, ArenaTree):
        return tree
    return ArenaTree.from_tree(tree)


def bta_run_masks(bta: "_BTA", tree: "_Tree") -> tuple[_BTACoding, list[int]]:
    """Bottom-up state masks for every arena node (BFS index order)."""
    coding = _coding_of(bta)
    arena = _arena_of(tree)
    label_code = coding.label_code
    node_labels = [label_code.get(label, -1) for label in arena.labels]
    size = len(arena.labels)
    result = [0] * size
    n_children = arena.n_children
    first_child = arena.first_child
    leaf_masks = coding.leaf_masks
    step = coding.step
    for node in range(size - 1, -1, -1):
        count = n_children[node]
        label_index = node_labels[node]
        if count == 0:
            result[node] = leaf_masks[label_index] if label_index >= 0 else 0
        elif count != 2:
            raise AutomatonError("BTA runs require binary trees")
        elif label_index >= 0:
            start = first_child[node]
            result[node] = step(label_index, result[start], result[start + 1])
    return coding, result


def bta_possible_states(bta: "_BTA", tree: "_Tree") -> frozenset[State]:
    """Arena-based ``BTA.possible_states``: one int mask per node, no
    recursion (arbitrarily deep encodings are safe), chunk-table steps."""
    coding, result = bta_run_masks(bta, tree)
    return _unmask(result[0], coding.order)


def bta_accepts(bta: "_BTA", tree: "_Tree") -> bool:
    """Arena-based acceptance: finals intersection on the root mask."""
    coding, result = bta_run_masks(bta, tree)
    return bool(result[0] & coding.finals_mask)


# ----------------------------------------------------------------------
# EDTD validation on the arena
# ----------------------------------------------------------------------

#: Configuration of the root's virtual parent in the stepwise evaluator
#: (:func:`edtd_accept_steps`): pseudo-type -1, whose content model is
#: "exactly one start-typed root".  DFA state bit 1 awaits the root; bit
#: 2 means an accepted root has closed.
_DOCUMENT: tuple[int, ...] = (-1, 1)
_ACCEPTED: tuple[int, ...] = (-1, 2)

#: Tag events the stepwise evaluator reads between two hand-backs to its
#: driver (:func:`edtd_accept_steps`).  On a 2-vCPU Xeon VM one slice of
#: a large document is about 1.7 ms of work, so a service that awaits
#: between slices holds its event loop that long at a time, and the
#: await costs about 9-15 us, under 1% of a slice.  Shorter slices shorten
#: the wait of small requests, longer ones the cost of the awaits
#: (docs/PERFORMANCE.md has the sweep).
SLICE_EVENTS = 1024

#: Cap on the stepwise evaluator's remembered transitions per schema, so
#: hostile documents against a general EDTD cannot grow a hot handle's
#: tables without bound; past it, transitions are recomputed instead.
_STEP_MEMO_CAP = 1 << 16


class _EDTDTables:
    """Per-EDTD typing tables for arena-based bottom-up type inference
    and for the stepwise evaluator :func:`edtd_accept_steps`.

    Types are bit indices; per type, the content DFA's states are bit
    indices too, and the subset simulation over a child's *type mask*
    is served by a per-(type, DFA state) chunk table (same chain-fill
    scheme as :class:`_BTACoding`).

    The stepwise evaluator tracks one *configuration* per open element:
    a flat tuple ``(type, dfa_states, type, dfa_states, ...)`` of its
    live candidate types in increasing order, each with the mask of
    content-DFA states its children so far reach; ``()`` means no
    candidate is left.  Its transitions are computed lazily and
    remembered in ``opens[parent][label]`` and ``closes[parent][child]``.
    """

    __slots__ = (
        "types",
        "type_code",
        "by_label",
        "leaf_by_label",
        "start_mask",
        "nchunks",
        "dfa_initial",
        "dfa_finals",
        "dfa_size",
        "rows",
        "opens",
        "closes",
        "_tabs",
        "_child_masks",
        "_tickets",
        "__weakref__",
    )

    def __init__(self, edtd: "_EDTD") -> None:
        types, type_code = _code_states(edtd.types)
        self.types: list[Hashable] = types
        self.type_code: dict[Hashable, int] = type_code
        self.nchunks: int = ((len(types) + 15) >> 4) or 1
        self.start_mask: int = _mask_of(edtd.starts, type_code)
        self.by_label: dict[Symbol, int] = {}
        self.leaf_by_label: dict[Symbol, int] = {}
        ntypes = len(types)
        self.dfa_initial: list[int] = [0] * ntypes
        self.dfa_finals: list[int] = [0] * ntypes
        self.dfa_size: list[int] = [0] * ntypes
        #: rows[type_index][dfa_state] -> list over type bits of dst masks.
        self.rows: list[list[list[int]]] = [[] for _ in range(ntypes)]
        self._tabs: dict[tuple[int, int], list[dict[int, int]]] = {}
        self.opens: dict[tuple[int, ...], dict[Symbol, tuple[int, ...]]] = {}
        self.closes: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
        self._child_masks: dict[tuple[int, int], int] = {}
        self._tickets = itertools.count()
        for type_index, type_ in enumerate(types):
            label = edtd.mu[type_]
            type_bit = 1 << type_index
            self.by_label[label] = self.by_label.get(label, 0) | type_bit
            dfa = edtd.rules[type_]
            dfa_order, dfa_code = _code_states(dfa.states)
            self.dfa_size[type_index] = len(dfa_order)
            self.dfa_initial[type_index] = 1 << dfa_code[dfa.initial]
            self.dfa_finals[type_index] = _mask_of(dfa.finals, dfa_code)
            if self.dfa_initial[type_index] & self.dfa_finals[type_index]:
                self.leaf_by_label[label] = (
                    self.leaf_by_label.get(label, 0) | type_bit
                )
            rows = [[0] * len(types) for _ in range(len(dfa_order))]
            for (src, symbol), dst in dfa.transitions.items():
                symbol_index = type_code.get(symbol)
                if symbol_index is not None:
                    rows[dfa_code[src]][symbol_index] |= 1 << dfa_code[dst]
            self.rows[type_index] = rows

    def content_step(self, type_index: int, current: int, options: int) -> int:
        """One subset-simulation step of type ``type_index``'s content DFA:
        from DFA-state mask *current* over child-type mask *options*."""
        rows = self.rows[type_index]
        total = 0
        rest = current
        while rest:  # ungoverned: bit-scan bounded by one machine word
            low = rest & -rest
            rest ^= low
            dfa_state = low.bit_length() - 1
            key = (type_index, dfa_state)
            tabs = self._tabs.get(key)
            if tabs is None:
                tabs = [{0: 0} for _ in range(self.nchunks)]
                self._tabs[key] = tabs
            row = rows[dfa_state]
            remaining = options
            chunk_index = 0
            while remaining:  # ungoverned: bit-scan bounded by the type count
                chunk = remaining & 0xFFFF
                if chunk:
                    table = tabs[chunk_index]
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
                            low_bit = value & -value
                            part |= row[base + low_bit.bit_length() - 1]
                            table[value] = part
                    total |= part
                remaining >>= 16
                chunk_index += 1
        return total

    def _child_mask(self, type_index: int, dfa_state: int) -> int:
        """The child types type ``type_index``'s content DFA can step on
        from ``dfa_state``."""
        key = (type_index, dfa_state)
        mask = self._child_masks.get(key)
        if mask is None:
            mask = 0
            for child, targets in enumerate(self.rows[type_index][dfa_state]):
                if targets:
                    mask |= 1 << child
            self._child_masks[key] = mask
        return mask

    def _remember(
        self, table: dict[Any, dict[Any, Any]], key: Any, inner: Any, value: Any
    ) -> None:
        # Handles are shared across threads.  Each entry takes a ticket;
        # ``next`` on an ``itertools.count`` is a single C call, atomic
        # under the GIL, so the cap holds without a lock.
        if next(self._tickets) < _STEP_MEMO_CAP:
            table.setdefault(key, {})[inner] = value

    def open_child(self, parent: tuple[int, ...], label: Symbol) -> tuple[int, ...]:
        """Configuration of a *label* element opened under *parent*: the
        label's types that some live DFA state of *parent* can step on,
        each at its content DFA's initial state."""
        allowed = 0
        for index in range(0, len(parent), 2):
            type_index, states = parent[index], parent[index + 1]
            if type_index < 0:  # the document, before or after its root
                allowed |= self.start_mask if states == 1 else 0
                continue
            while states:  # ungoverned: bit-scan bounded by the DFA size
                low = states & -states
                states ^= low
                allowed |= self._child_mask(type_index, low.bit_length() - 1)
        candidates = self.by_label.get(label, 0) & allowed
        child: list[int] = []
        while candidates:  # ungoverned: bit-scan bounded by the type count
            low = candidates & -candidates
            candidates ^= low
            type_index = low.bit_length() - 1
            child += (type_index, self.dfa_initial[type_index])
        config = tuple(child)
        if label in self.by_label:  # any string can be a foreign label
            self._remember(self.opens, parent, label, config)
        return config

    def close_child(self, parent: tuple[int, ...], child: tuple[int, ...]) -> tuple[int, ...]:
        """*parent*'s configuration once its child in configuration
        *child* closes: the child's type mask (its candidates in a final
        DFA state) steps every live parent type, and parent types left
        with no DFA state drop out."""
        closed = 0
        for index in range(0, len(child), 2):
            type_index = child[index]
            if child[index + 1] & self.dfa_finals[type_index]:
                closed |= 1 << type_index
        advanced: list[int] = []
        for index in range(0, len(parent), 2):
            type_index, states = parent[index], parent[index + 1]
            if type_index < 0:
                states = 2 if states == 1 and closed else 0
            else:
                states = self.content_step(type_index, states, closed)
            if states:
                advanced += (type_index, states)
        config = tuple(advanced)
        self._remember(self.closes, parent, child, config)
        return config

    def matches(self, type_index: int, child_masks: list[int], start: int, count: int) -> bool:
        """Does some choice of child types drive the content DFA of type
        ``type_index`` from its initial state into a final state?"""
        current = self.dfa_initial[type_index]
        for offset in range(count):
            current = self.content_step(type_index, current, child_masks[start + offset])
            if not current:
                return False
        return bool(current & self.dfa_finals[type_index])


_TYPINGS: "weakref.WeakKeyDictionary[Any, _EDTDTables]" = weakref.WeakKeyDictionary()


def _tables_of(edtd: "_EDTD") -> _EDTDTables:
    tables = _TYPINGS.get(edtd)
    if tables is None:
        tables = _EDTDTables(edtd)
        _TYPINGS[edtd] = tables
    return tables


def edtd_type_masks(edtd: "_EDTD", tree: "_Tree") -> tuple[_EDTDTables, list[int]]:
    """Possible-type masks for every arena node (BFS index order)."""
    tables = _tables_of(edtd)
    arena = _arena_of(tree)
    size = len(arena.labels)
    labels = arena.labels
    n_children = arena.n_children
    first_child = arena.first_child
    by_label = tables.by_label
    leaf_by_label = tables.leaf_by_label
    matches = tables.matches
    result = [0] * size
    for node in range(size - 1, -1, -1):
        label = labels[node]
        count = n_children[node]
        if count == 0:
            result[node] = leaf_by_label.get(label, 0)
            continue
        candidates = by_label.get(label, 0)
        mask = 0
        start = first_child[node]
        rest = candidates
        while rest:  # ungoverned: bit-scan bounded by one machine word
            low = rest & -rest
            rest ^= low
            type_index = low.bit_length() - 1
            if matches(type_index, result, start, count):
                mask |= low
        result[node] = mask
    return tables, result


def edtd_possible_types(edtd: "_EDTD", tree: "_Tree") -> frozenset[Hashable]:
    """Arena-based ``EDTD.possible_types`` (see :class:`_EDTDTables`)."""
    tables, result = edtd_type_masks(edtd, tree)
    return _unmask(result[0], tables.types)


def edtd_accept_steps(
    edtd: "_EDTD", events: Iterable[tuple[str, Symbol]]
) -> Generator[None, None, bool]:
    """One-pass acceptance of a document given as tag events — the
    :func:`repro.trees.xml_io.xml_events` stream of its text, or the
    :func:`repro.trees.xml_io.events_of_tree` stream of a built tree —
    in O(depth) memory, as a resumable loop: the generator reads the
    events in slices of :data:`SLICE_EVENTS`, yields after every full
    slice and returns the verdict.  A document shorter than one slice
    never yields.  :func:`run_steps` drives it to the end; the service
    awaits one event-loop turn between slices instead.

    At a start tag the element's candidate types are its label's types,
    narrowed to those its parent's live content-DFA states can step on
    (the root's to the start types); at its end tag the candidates in a
    final DFA state form its type mask, which steps the parent (see
    :meth:`_EDTDTables.open_child` / :meth:`_EDTDTables.close_child`).
    On a single-type EDTD every element has at most one candidate, so
    this is the paper's one-pass top-down validator; on a general EDTD
    it is the subset simulation of :func:`edtd_type_masks`, run in
    document order.  The narrowing never changes a verdict: a type no
    live parent state can step on contributes nothing to the parent's
    step.

    *events* must be well formed, as ``xml_events`` guarantees by
    raising and ``events_of_tree`` by construction.  Once no candidate
    is left the verdict is ``False``, but the rest of the stream is
    still read, slice by slice, so a malformed document still raises
    and every element is still charged.

    This is the only loop that decides whether a document belongs to a
    schema: ``EDTD.accepts``, the facade's ``validate`` and the
    streaming entry points of :mod:`repro.schemas.streaming` all run it.
    """
    tables = _tables_of(edtd)
    opens, closes = tables.opens, tables.closes
    stack: list[tuple[int, ...]] = []
    top = _DOCUMENT
    stream = iter(events)
    for chunk in iter(lambda: tuple(itertools.islice(stream, SLICE_EVENTS)), ()):
        if top:  # once no candidate is left, slices are only read
            for kind, label in chunk:
                if kind == CLOSE:
                    parent = stack.pop()
                    try:
                        top = closes[parent][top]
                    except KeyError:
                        top = tables.close_child(parent, top)
                else:
                    try:
                        child = opens[top][label]
                    except KeyError:
                        child = tables.open_child(top, label)
                    if kind == OPEN:
                        stack.append(top)
                        top = child
                    else:
                        try:
                            top = closes[top][child]
                        except KeyError:
                            top = tables.close_child(top, child)
                if not top:
                    break
        if len(chunk) == SLICE_EVENTS:
            yield
    return top == _ACCEPTED


def run_steps(steps: Generator[None, None, _T]) -> _T:
    """Resume a step generator (:func:`edtd_accept_steps`,
    :meth:`repro.api.CompiledSchema.validate_steps`) until it returns,
    and return its value.  The generator is closed on the way out, so
    an interrupt between two slices unwinds it here, in the caller's
    context, and not later in the garbage collector's."""
    try:
        while True:  # ungoverned: each resume reads one slice of a finite stream
            next(steps)
    except StopIteration as finished:
        value: _T = finished.value
        return value
    finally:
        steps.close()


# ----------------------------------------------------------------------
# Structural keys and memo caches
# ----------------------------------------------------------------------

def bta_structural_key(bta: "_BTA") -> tuple[Any, ...] | None:
    """A hashable structural fingerprint of a BTA, or None when
    uncacheable (colliding state/label reprs — two distinct automata
    must never share a key).

    Equal keys imply equal states, rules, and finals up to canonical
    repr, hence equal determinizations — the cache trades recall for
    soundness, exactly like :func:`repro.strings.kernels.structural_key`.
    """
    alphabet_key = _symbol_reprs(bta.alphabet)
    state_key = _symbol_reprs(bta.states)
    if alphabet_key is None or state_key is None:
        return None
    order = sorted(bta.states, key=canonical_repr)
    code = {state: index for index, state in enumerate(order)}
    labels = sorted(bta.alphabet, key=canonical_repr)
    leaf = tuple(
        _mask_of(bta.leaf_rules.get(label, ()), code) for label in labels
    )
    internal = tuple(
        sorted(
            (canonical_repr(label), code[q1], code[q2], _mask_of(targets, code))
            for (label, q1, q2), targets in bta.internal_rules.items()
        )
    )
    return (
        "bta",
        alphabet_key,
        state_key,
        leaf,
        internal,
        _mask_of(bta.finals, code),
    )


_DET_CACHE = _KernelCache("bta_determinize")
_FROM_EDTD_CACHE = _KernelCache("bta_from_edtd")
_INCL_CACHE = _KernelCache("bta_inclusion")
_MONOID_CACHE = _KernelCache("edtd_monoid")


def cached_bta_determinize(bta: "_BTA", *, budget: Budget | None = None) -> "_BTA":
    """Memoized :func:`bta_determinize`, interning structurally-equal
    inputs.  The returned BTA is shared between callers — treat it as
    immutable.  Hits replay the recorded budget cost (memo tier first,
    then the on-disk artifact cache when one is configured)."""
    budget = resolve_budget(budget)

    def build(inner_budget: Budget | None) -> "_BTA":
        return bta_determinize(bta, budget=inner_budget)

    return _memoized(_DET_CACHE, bta_structural_key(bta), build, budget)


def cached_bta_from_edtd(
    edtd: "_EDTD", marker: object = None, *, budget: Budget | None = None
) -> "_BTA":
    """Memoized EDTD -> BTA translation keyed by the schema's structural
    fingerprint (:func:`repro.cache.keys.schema_structural_key`).

    The translation itself is polynomial and uncharged, so hits replay a
    zero cost; the win is avoiding the rebuild inside decision-procedure
    loops that query the same schema against many candidates.
    """
    from repro.cache.keys import schema_structural_key
    from repro.tree_automata.inclusion import bta_from_edtd
    from repro.trees.encoding import MARKER

    if marker is None:
        marker = MARKER
    budget = resolve_budget(budget)
    schema_key = schema_structural_key(edtd)
    key = (
        None
        if schema_key is None
        else ("bta_from_edtd", canonical_repr(marker), schema_key)
    )

    def build(inner_budget: Budget | None) -> "_BTA":
        return bta_from_edtd(edtd, marker)

    return _memoized(_FROM_EDTD_CACHE, key, build, budget)
