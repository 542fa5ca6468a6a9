"""Non-deterministic binary tree automata (Section 4.4.2).

A BTA runs over *binary* trees (every node has zero or two children) with

* leaf transitions ``a -> q`` and
* internal transitions ``a(q1, q2) -> q``.

The module provides runs, bottom-up determinization (the folklore subset
construction the paper invokes for "bottom-up deterministic EDTDs"),
complementation, pairwise products, emptiness — everything the exact
EDTD-inclusion procedure of :mod:`repro.tree_automata.inclusion` needs.

Since PR 7 the hot paths — :meth:`BTA.determinize`,
:meth:`BTA.possible_states`, :meth:`BTA.accepts` — run on the
integer-coded kernels of :mod:`repro.tree_automata.kernels`; the original
loops survive as ``*_reference`` differential oracles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any
from collections.abc import Hashable, Iterable, Mapping

from repro import observability as _obs
from repro.errors import AutomatonError
from repro.runtime.budget import Budget, budget_phase, resolve_budget
from repro.strings.determinize import check_strategy
from repro.trees.tree import Tree

if TYPE_CHECKING:
    from repro.tree_automata.kernels import BTADetCheckpoint
    from repro.tree_automata.schema_guided import GuidedBTADetCheckpoint

Symbol = Hashable
State = Hashable

#: Shared empty target set — the run/lookup loops fall back to it instead
#: of allocating a fresh ``frozenset()`` per missing rule.
_EMPTY: frozenset[State] = frozenset()


class BTA:
    """A non-deterministic binary tree automaton.

    Parameters
    ----------
    states / alphabet / finals:
        As usual.
    leaf_rules:
        Mapping ``label -> set of states`` for leaf transitions.
    internal_rules:
        Mapping ``(label, q1, q2) -> set of states`` for internal
        transitions.
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        leaf_rules: Mapping[Symbol, Iterable[State]],
        internal_rules: Mapping[tuple[Symbol, State, State], Iterable[State]],
        finals: Iterable[State],
    ) -> None:
        self.states: frozenset[State] = frozenset(states)
        self.alphabet: frozenset[Symbol] = frozenset(alphabet)
        self.finals: frozenset[State] = frozenset(finals)
        if not self.finals <= self.states:
            raise AutomatonError("final states must be states")
        self.leaf_rules: dict[Symbol, frozenset[State]] = {}
        for label, targets in leaf_rules.items():
            target_set = frozenset(targets)
            if not target_set:
                continue
            if label not in self.alphabet or not target_set <= self.states:
                raise AutomatonError("malformed leaf rule")
            self.leaf_rules[label] = target_set
        self.internal_rules: dict[tuple[Symbol, State, State], frozenset[State]] = {}
        for (label, q1, q2), targets in internal_rules.items():
            target_set = frozenset(targets)
            if not target_set:
                continue
            if (
                label not in self.alphabet
                or q1 not in self.states
                or q2 not in self.states
                or not target_set <= self.states
            ):
                raise AutomatonError("malformed internal rule")
            self.internal_rules[(label, q1, q2)] = target_set

    @classmethod
    def _from_parts(
        cls,
        states: Iterable[State],
        alphabet: frozenset[Symbol],
        leaf_rules: dict[Symbol, frozenset[State]],
        internal_rules: dict[tuple[Symbol, State, State], frozenset[State]],
        finals: Iterable[State],
    ) -> "BTA":
        """Trusted constructor for the kernels: parts are adopted as-is
        (already frozen, already validated by construction)."""
        bta = object.__new__(cls)
        bta.states = frozenset(states)
        bta.alphabet = alphabet
        bta.leaf_rules = leaf_rules
        bta.internal_rules = internal_rules
        bta.finals = frozenset(finals)
        return bta

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def possible_states(self, tree: Tree) -> frozenset[State]:
        """Bottom-up set of states reachable at the root of *tree*.

        Runs on the arena/bitmask kernel (one int mask per node, no
        recursion); :meth:`possible_states_reference` is the original
        recursive loop, kept as the differential oracle.
        """
        from repro.tree_automata.kernels import bta_possible_states

        return bta_possible_states(self, tree)

    def possible_states_reference(self, tree: Tree) -> frozenset[State]:
        """Recursive reference run (differential oracle for the kernel)."""
        if not tree.children:
            return self.leaf_rules.get(tree.label, _EMPTY)
        if len(tree.children) != 2:
            raise AutomatonError("BTA runs require binary trees")
        left = self.possible_states_reference(tree.children[0])
        right = self.possible_states_reference(tree.children[1])
        rules = self.internal_rules
        label = tree.label
        result: frozenset[State] = _EMPTY
        for q1 in left:
            for q2 in right:
                targets = rules.get((label, q1, q2))
                if targets:
                    result = targets if not result else result | targets
        return result

    def accepts(self, tree: Tree) -> bool:
        from repro.tree_automata.kernels import bta_accepts

        return bta_accepts(self, tree)

    # ------------------------------------------------------------------
    # Emptiness
    # ------------------------------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States assignable to some binary tree (least fixpoint)."""
        reachable: set[State] = set()
        for targets in self.leaf_rules.values():
            reachable |= targets
        changed = True
        while changed:  # ungoverned: monotone fixpoint, at most |states| passes
            changed = False
            for (label, q1, q2), targets in self.internal_rules.items():
                if q1 in reachable and q2 in reachable and not targets <= reachable:
                    reachable |= targets
                    changed = True
        return frozenset(reachable)

    def is_empty_language(self) -> bool:
        return not (self.reachable_states() & self.finals)

    def witness_tree(self) -> Tree | None:
        """A smallest-effort member tree, or None if the language is empty."""
        builder: dict[State, Tree] = {}
        for label, targets in sorted(self.leaf_rules.items(), key=repr):
            for state in targets:
                builder.setdefault(state, Tree(label))
        changed = True
        while changed:  # ungoverned: monotone fixpoint, at most |states| passes
            changed = False
            for (label, q1, q2), targets in sorted(self.internal_rules.items(), key=repr):
                if q1 in builder and q2 in builder:
                    for state in targets:
                        if state not in builder:
                            builder[state] = Tree(label, [builder[q1], builder[q2]])
                            changed = True
        for state in sorted(self.finals, key=repr):
            if state in builder:
                return builder[state]
        return None

    # ------------------------------------------------------------------
    # Determinization and boolean operations
    # ------------------------------------------------------------------

    def determinize(
        self,
        *,
        budget: Budget | None = None,
        checkpoint: "BTADetCheckpoint | GuidedBTADetCheckpoint | None" = None,
        trace: Any = None,
        strategy: str = "blind",
        guide: "BTA | None" = None,
    ) -> "BTA":
        """Bottom-up subset construction.

        The result is bottom-up deterministic and complete on the reachable
        subsets (including the empty subset, the dead state): every binary
        tree is assigned exactly one subset state.  Worst-case exponential;
        charges the resolved *budget* one state per fresh subset (the leaf
        subsets are free, matching :meth:`determinize_reference`) and trips
        resumably — the raised ``BudgetExceededError`` carries a
        :class:`~repro.tree_automata.kernels.BTADetCheckpoint` to pass back
        via *checkpoint*.

        *strategy* selects the pruning: ``"blind"`` (default) explores
        every reachable subset; ``"schema-guided"`` prunes the worklist
        with a deterministic *guide* BTA
        (:mod:`repro.tree_automata.schema_guided`) so subsets arising
        only from schema-invalid subtrees are never materialized — the
        result is then deterministic but only complete on the guide's
        universe.  Both run one governed bitmask worklist: blind
        determinization *is* guided determinization with no guide, one
        guide state that reads every label, so ``guide=None`` reproduces
        the blind construction state-for-state.  Guided runs checkpoint
        with :class:`~repro.tree_automata.schema_guided.GuidedBTADetCheckpoint`;
        a checkpoint of the other strategy's type raises
        :class:`~repro.errors.AutomatonError`.  Ungoverned blind runs may
        take the numpy fast path of
        :func:`repro.tree_automata.kernels.bta_determinize`;
        :meth:`determinize_reference` is the original round-based loop,
        kept as the differential oracle.
        """
        if check_strategy(strategy) == "schema-guided":
            from repro.tree_automata.schema_guided import bta_determinize_guided

            return bta_determinize_guided(
                self, guide, budget=budget, checkpoint=checkpoint, trace=trace
            )
        if guide is not None:
            raise AutomatonError(
                "guide= requires strategy='schema-guided' (got strategy='blind')"
            )
        from repro.tree_automata.kernels import bta_determinize

        return bta_determinize(self, budget=budget, checkpoint=checkpoint, trace=trace)

    def determinize_reference(
        self,
        *,
        budget: Budget | None = None,
        checkpoint: "BTADetCheckpoint | None" = None,
        trace: Any = None,
    ) -> "BTA":
        """Round-based subset construction (differential oracle for the
        kernel — same result, same state charges, same governed surface).

        *checkpoint* accepts the kernel's
        :class:`~repro.tree_automata.kernels.BTADetCheckpoint`: its
        ``subsets``/``transitions`` are exactly this loop's data
        structures, and every entry is idempotent, so seeding from one
        resumes without losing, duplicating, or double-charging states.
        """
        budget = resolve_budget(budget)
        leaf_subsets: dict[Symbol, frozenset[State]] = {
            label: self.leaf_rules.get(label, frozenset()) for label in self.alphabet
        }
        subsets: set[frozenset[State]] = set(leaf_subsets.values())
        internal: dict[
            tuple[Symbol, frozenset[State], frozenset[State]], frozenset[State]
        ] = {}
        if checkpoint is not None:
            subsets.update(checkpoint.subsets)
            internal.update(checkpoint.transitions)
        # Index internal rules by label for the closure computation.
        by_label: dict[Symbol, list[tuple[State, State, frozenset[State]]]] = {}
        for (label, q1, q2), targets in self.internal_rules.items():
            by_label.setdefault(label, []).append((q1, q2, targets))
        changed = True
        with _obs.construction_span(
            "bta-determinize", trace=trace, budget=budget, nta_states=len(self.states)
        ) as span:
            while changed:
                if budget is not None:
                    with budget_phase(budget, "bta-determinize"):
                        budget.tick(frontier=len(subsets))
                changed = False
                snapshot = list(subsets)
                for s1 in snapshot:
                    for s2 in snapshot:
                        for label in self.alphabet:
                            key = (label, s1, s2)
                            if key in internal:
                                continue
                            combined: set[State] = set()
                            for q1, q2, targets in by_label.get(label, ()):
                                if q1 in s1 and q2 in s2:
                                    combined |= targets
                            result = frozenset(combined)
                            internal[key] = result
                            if result not in subsets:
                                subsets.add(result)
                                changed = True
                                if budget is not None:
                                    with budget_phase(budget, "bta-determinize"):
                                        budget.charge_states(frontier=len(subsets))
            if span is not None:
                span.annotate(subsets=len(subsets))
            if _obs.ENABLED:
                _obs.METRICS.counter("bta_determinize.runs").inc()
                _obs.METRICS.histogram("bta_determinize.subsets").observe(len(subsets))
        finals = {subset for subset in subsets if subset & self.finals}
        leaf_rules = {label: {subset} for label, subset in leaf_subsets.items()}
        internal_rules = {key: {value} for key, value in internal.items()}
        return BTA(subsets, self.alphabet, leaf_rules, internal_rules, finals)

    def is_deterministic(self) -> bool:
        """True iff every leaf/internal rule has at most one target and all
        combinations are covered (complete)."""
        leaf_rules = self.leaf_rules
        for label in self.alphabet:
            targets = leaf_rules.get(label)
            if targets is None or len(targets) != 1:
                return False
        internal_rules = self.internal_rules
        for label in self.alphabet:
            for q1 in self.states:
                for q2 in self.states:
                    targets = internal_rules.get((label, q1, q2))
                    if targets is None or len(targets) != 1:
                        return False
        return True

    def complement(self, *, budget: Budget | None = None) -> "BTA":
        """Complement w.r.t. all binary trees over the alphabet.

        Determinizes first (charging *budget*), then flips finals.
        """
        det = self.determinize(budget=budget)
        return BTA(
            det.states,
            det.alphabet,
            det.leaf_rules,
            det.internal_rules,
            det.states - det.finals,
        )

    def intersection(self, other: "BTA") -> "BTA":
        """Pairwise product accepting ``L(self) & L(other)``."""
        alphabet = self.alphabet | other.alphabet
        leaf_rules: dict[Symbol, set[tuple[State, State]]] = {}
        states: set[tuple[State, State]] = set()
        for label in alphabet:
            mine = self.leaf_rules.get(label, frozenset())
            theirs = other.leaf_rules.get(label, frozenset())
            pairs = {(q1, q2) for q1 in mine for q2 in theirs}
            if pairs:
                leaf_rules[label] = pairs
                states |= pairs
        internal_rules: dict[
            tuple[Symbol, tuple[State, State], tuple[State, State]],
            set[tuple[State, State]],
        ] = {}
        changed = True
        while changed:  # ungoverned: pair product, bounded by |Q1|*|Q2| states
            changed = False
            snapshot = list(states)
            for (label, a1, a2), targets1 in self.internal_rules.items():
                for (label2, b1, b2), targets2 in other.internal_rules.items():
                    if label != label2:
                        continue
                    left = (a1, b1)
                    right = (a2, b2)
                    if left not in states or right not in states:
                        continue
                    key = (label, left, right)
                    pairs = {(t1, t2) for t1 in targets1 for t2 in targets2}
                    existing = internal_rules.get(key, set())
                    if not pairs <= existing:
                        internal_rules[key] = existing | pairs
                        new_states = pairs - states
                        if new_states:
                            states |= new_states
                            changed = True
            _ = snapshot
        finals = {
            (q1, q2)
            for (q1, q2) in states
            if q1 in self.finals and q2 in other.finals
        }
        return BTA(states, alphabet, leaf_rules, internal_rules, finals)

    def size(self) -> int:
        return (
            len(self.states)
            + sum(len(v) for v in self.leaf_rules.values())
            + sum(len(v) for v in self.internal_rules.values())
        )

    def __repr__(self) -> str:
        return (
            f"BTA(states={len(self.states)}, alphabet={sorted(map(str, self.alphabet))}, "
            f"leaf_rules={len(self.leaf_rules)}, internal_rules={len(self.internal_rules)}, "
            f"finals={len(self.finals)})"
        )
