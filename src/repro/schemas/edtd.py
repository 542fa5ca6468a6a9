"""Extended DTDs (Definition 2.2) — the unranked regular tree languages.

An EDTD is ``(Sigma, Delta, d, S_d, mu)``: a DTD over the *type* alphabet
``Delta`` together with a typing map ``mu : Delta -> Sigma``.  A tree ``t``
is accepted iff ``t = mu(t')`` for some ``t'`` in the underlying DTD's
language.

The class implements:

* membership (:meth:`EDTD.accepts`, one pass over the tree's tag events)
  with witness typings (:meth:`EDTD.typed_witness`),
* reduction (Proviso 2.3): removal of unproductive and unreachable types,
* the paper's size measures,
* bottom-up type inference (:meth:`EDTD.possible_types`), which computes
  the typing itself, not just a verdict, for witnesses and constructions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Mapping

from repro.errors import SchemaError
from repro.strings.dfa import DFA
from repro.strings.kernels import cached_content_model, cached_min_dfa
from repro.strings.minimize import minimize_dfa
from repro.strings.nfa import NFA
from repro.strings.regex import Regex
from repro.trees.tree import Tree

Symbol = Hashable
Type = Hashable


class EDTD:
    """An extended DTD ``(Sigma, Delta, d, S_d, mu)``.

    Parameters
    ----------
    alphabet:
        The label alphabet ``Sigma``.
    types:
        The type set ``Delta``.
    rules:
        Mapping from types to content models over ``Delta`` (language-like).
        Types without a rule get the empty-word content model (leaf types).
    starts:
        Allowed root types ``S_d``.
    mu:
        The typing map ``Delta -> Sigma``; must be total on *types*.
    """

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        types: Iterable[Type],
        rules: Mapping[Type, DFA | NFA | Regex | str],
        starts: Iterable[Type],
        mu: Mapping[Type, Symbol],
    ) -> None:
        self.alphabet: frozenset[Symbol] = frozenset(alphabet)
        self.types: frozenset[Type] = frozenset(types)
        self.starts: frozenset[Type] = frozenset(starts)
        self.mu: dict[Type, Symbol] = dict(mu)
        if not self.starts <= self.types:
            raise SchemaError("start types must belong to the type set")
        if frozenset(self.mu) != self.types:
            raise SchemaError("mu must be total on the type set")
        if not frozenset(self.mu.values()) <= self.alphabet:
            raise SchemaError("mu maps into symbols outside the alphabet")
        if not frozenset(rules) <= self.types:
            raise SchemaError("rules mention unknown types")
        self.rules: dict[Type, DFA] = {}
        for type_ in self.types:
            content = rules.get(type_, "~")
            try:
                # Memoized pipeline (minimal DFA, completed over the type
                # set, trimmed) — leaf content models and shared retagged
                # models are interned across schema constructions.
                self.rules[type_] = cached_content_model(content, self.types)
            except SchemaError as error:
                raise SchemaError(
                    f"content model of type {type_!r}: {error}"
                ) from None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def content(self, type_: Type) -> DFA:
        """The content model ``d(type_)`` (a DFA over ``Delta``)."""
        return self.rules[type_]

    def content_over_sigma(self, type_: Type) -> DFA:
        """``mu(d(type_))`` — the content model projected to ``Sigma``.

        The projection of a DFA under ``mu`` may be non-deterministic; the
        result is re-determinized and minimized (memoized — Lemma 3.3's
        inclusion test asks for the same projections over and over).
        """
        image = self.rules[type_].to_nfa().map_symbols(lambda t: self.mu[t])
        return cached_min_dfa(image)

    def label(self, type_: Type) -> Symbol:
        """``mu(type_)``."""
        return self.mu[type_]

    def start_symbols(self) -> frozenset[Symbol]:
        """``mu(S_d)`` — the root labels the schema admits."""
        return frozenset(self.mu[t] for t in self.starts)

    def size(self) -> int:
        """Paper's size: |Sigma| plus the size of the underlying DTD."""
        return (
            len(self.alphabet)
            + len(self.types)
            + len(self.starts)
            + sum(dfa.size() for dfa in self.rules.values())
        )

    def type_size(self) -> int:
        """Number of types (the paper's type-size of this representation)."""
        return len(self.types)

    def occurring_types(self, type_: Type) -> frozenset[Type]:
        """Types occurring in some word of ``d(type_)``.

        These are exactly the symbols on useful transitions of the trimmed
        content DFA — the transitions the type automaton (Definition 2.5)
        materializes.
        """
        dfa = self.rules[type_].trim()
        useful = dfa.reachable_states() & dfa.to_nfa().coreachable_states()
        return frozenset(
            sym
            for (src, sym), dst in dfa.transitions.items()
            if src in useful and dst in useful
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def possible_types(self, tree: Tree) -> frozenset[Type]:
        """Bottom-up type inference: all types ``tau`` such that the subtree
        is derivable with root type ``tau``.

        A type ``tau`` is possible at a node labeled ``a`` iff
        ``mu(tau) == a`` and some word ``tau_1 ... tau_n`` in ``d(tau)``
        exists with ``tau_i`` possible at child ``i``.

        Runs on the arena/bitmask kernel
        (:func:`repro.tree_automata.kernels.edtd_possible_types`): one
        int type-mask per node, content-DFA subset simulation through
        per-(type, DFA-state) chunk tables, no per-node path tuples or
        frozensets.  :meth:`possible_types_reference` is the original
        loop, kept as the differential oracle.
        """
        from repro.tree_automata.kernels import edtd_possible_types

        return edtd_possible_types(self, tree)

    def possible_types_reference(self, tree: Tree) -> frozenset[Type]:
        """Path-dict reference inference (differential oracle for the
        kernel).  Iterative post-order, safe for arbitrarily deep
        documents."""
        by_label: dict[Symbol, list[Type]] = {}
        for type_ in self.types:
            by_label.setdefault(self.mu[type_], []).append(type_)
        computed: dict[tuple, frozenset[Type]] = {}
        for path, node in reversed(list(tree.nodes())):
            child_sets = [
                computed[path + (index,)] for index in range(len(node.children))
            ]
            computed[path] = frozenset(
                type_
                for type_ in by_label.get(node.label, ())
                if self._content_matches(type_, child_sets)
            )
        return computed[()]

    def _content_matches(self, type_: Type, child_sets: list[frozenset[Type]]) -> bool:
        """Does some choice of child types (one per child set) lie in
        ``d(type_)``?  Standard subset simulation of the content DFA."""
        dfa = self.rules[type_]
        current: set = {dfa.initial}
        for options in child_sets:
            nxt: set = set()
            for state in current:
                for option in options:
                    dst = dfa.successor(state, option)
                    if dst is not None:
                        nxt.add(dst)
            if not nxt:
                return False
            current = nxt
        return bool(current & dfa.finals)

    def accepts(self, tree: Tree) -> bool:
        """True iff ``tree`` is in ``L(D)``: the tree's tag events
        (:func:`repro.trees.xml_io.events_of_tree`) run through the
        stepwise evaluator
        (:func:`repro.tree_automata.kernels.edtd_accept_steps`), the one
        loop that decides membership for trees, event streams and text.
        A label outside the alphabet leaves its element no candidate
        type."""
        from repro.tree_automata.kernels import edtd_accept_steps, run_steps
        from repro.trees.xml_io import events_of_tree

        return run_steps(edtd_accept_steps(self, events_of_tree(tree)))

    def typed_witness(self, tree: Tree) -> Tree | None:
        """Return a typing ``t'`` with ``t' in L(d)`` and ``mu(t') == tree``,
        or None if the tree is not accepted."""
        possible = self._possible_types_memo(tree)
        for start in sorted(self.starts, key=repr):
            if start in possible[()]:
                return self._build_witness(tree, (), start, possible)
        return None

    def _possible_types_memo(self, tree: Tree) -> dict[tuple, frozenset[Type]]:
        """Per-path possible-type sets (witness construction needs the
        whole map): one arena-kernel pass, decoded node mask -> path."""
        from repro.strings.kernels import _unmask
        from repro.trees.arena import ArenaTree
        from repro.tree_automata.kernels import edtd_type_masks

        arena = ArenaTree.from_tree(tree)
        tables, masks = edtd_type_masks(self, arena)
        paths = arena.paths()
        order = tables.types
        views: dict[int, frozenset[Type]] = {}
        memo: dict[tuple, frozenset[Type]] = {}
        for node, mask in enumerate(masks):
            view = views.get(mask)
            if view is None:
                view = _unmask(mask, order)
                views[mask] = view
            memo[paths[node]] = view
        return memo

    def _build_witness(
        self,
        tree: Tree,
        path: tuple,
        type_: Type,
        possible: dict[tuple, frozenset[Type]],
    ) -> Tree:
        # Iterative: first assign a type to every node top-down (choosing a
        # content word per node), then rebuild bottom-up.
        assigned: dict[tuple, Type] = {path: type_}
        order: list[tuple] = []
        stack: list[tuple] = [path]
        while stack:
            current = stack.pop()
            order.append(current)
            node = tree.subtree(current)
            dfa = self.rules[assigned[current]]
            child_sets = [
                possible[current + (index,)] for index in range(len(node.children))
            ]
            choice = self._choose_word(dfa, child_sets)
            assert choice is not None, "witness construction out of sync with inference"
            for index, child_type in enumerate(choice):
                child_path = current + (index,)
                assigned[child_path] = child_type
                stack.append(child_path)
        rebuilt: dict[tuple, Tree] = {}
        for current in reversed(order):
            node = tree.subtree(current)
            children = [
                rebuilt[current + (index,)] for index in range(len(node.children))
            ]
            rebuilt[current] = Tree(assigned[current], children)
        return rebuilt[path]

    def _choose_word(
        self,
        dfa: DFA,
        child_sets: list[frozenset[Type]],
    ) -> list[Type] | None:
        """Pick one type per child so the resulting word is in ``L(dfa)``."""
        # Forward subset simulation remembering predecessors.
        layers: list[dict[object, tuple[object, Type] | None]] = [{dfa.initial: None}]
        for options in child_sets:
            layer: dict[object, tuple[object, Type] | None] = {}
            for state in layers[-1]:
                for option in sorted(options, key=repr):
                    dst = dfa.successor(state, option)
                    if dst is not None and dst not in layer:
                        layer[dst] = (state, option)
            if not layer:
                return None
            layers.append(layer)
        final_states = [state for state in layers[-1] if state in dfa.finals]
        if not final_states:
            return None
        word: list[Type] = []
        state = sorted(final_states, key=repr)[0]
        for index in range(len(child_sets), 0, -1):
            back = layers[index][state]
            assert back is not None
            state, option = back
            word.append(option)
        word.reverse()
        return word

    # ------------------------------------------------------------------
    # Reduction (Proviso 2.3)
    # ------------------------------------------------------------------

    def productive_types(self) -> frozenset[Type]:
        """Types ``tau`` for which some tree with root type ``tau`` exists.

        Least fixpoint: ``tau`` is productive iff ``d(tau)`` contains a word
        over productive types.
        """
        productive: set[Type] = set()
        changed = True
        while changed:  # ungoverned: least fixpoint, at most |types| rounds
            changed = False
            for type_ in self.types:
                if type_ in productive:
                    continue
                if self._has_word_over(self.rules[type_], productive):
                    productive.add(type_)
                    changed = True
        return frozenset(productive)

    @staticmethod
    def _has_word_over(dfa: DFA, allowed: set[Type]) -> bool:
        """Does ``L(dfa)`` contain a word using only *allowed* symbols?"""
        seen: set = {dfa.initial}
        queue: deque = deque([dfa.initial])
        while queue:  # ungoverned: BFS bounded by |dfa states|
            state = queue.popleft()
            if state in dfa.finals:
                return True
            for (src, sym), dst in dfa.transitions.items():
                if src == state and sym in allowed and dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return False

    def reachable_types(self, within: frozenset[Type] | None = None) -> frozenset[Type]:
        """Types reachable from the start types through content models.

        If *within* is given, only transitions through types in *within* are
        followed (used to combine with productivity).
        """
        allowed = within if within is not None else self.types
        seen: set[Type] = set(self.starts & allowed)
        queue: deque[Type] = deque(seen)
        while queue:  # ungoverned: BFS bounded by |types|
            type_ = queue.popleft()
            for occurring in self._occurring_within(type_, allowed):
                if occurring not in seen:
                    seen.add(occurring)
                    queue.append(occurring)
        return frozenset(seen)

    def _occurring_within(self, type_: Type, allowed: frozenset[Type]) -> frozenset[Type]:
        """Types occurring in some word of ``d(type_)`` over *allowed*."""
        dfa = self.rules[type_]
        # Restrict transitions to allowed symbols, then take useful ones.
        transitions = {
            (src, sym): dst
            for (src, sym), dst in dfa.transitions.items()
            if sym in allowed
        }
        restricted = DFA(dfa.states, dfa.alphabet, transitions, dfa.initial, dfa.finals)
        useful = restricted.reachable_states() & restricted.to_nfa().coreachable_states()
        return frozenset(
            sym
            for (src, sym), dst in transitions.items()
            if src in useful and dst in useful
        )

    def is_reduced(self) -> bool:
        """True iff every type occurs in some derivation (Proviso 2.3)."""
        useful = self.productive_types()
        useful = self.reachable_types(within=useful)
        return useful == self.types

    def reduced(self) -> "EDTD":
        """Return an equivalent reduced EDTD (Proviso 2.3).

        A schema that is already reduced is returned itself.  Otherwise
        unproductive types and types unreachable from the start set are
        removed, content models are restricted to the surviving types, and
        the result is built once, as the same class as this schema.  If
        the language is empty the result has no types.
        """
        productive = self.productive_types()
        useful = self.reachable_types(within=productive)
        if useful == self.types:
            return self
        rules = {
            type_: self._restrict_content(self.rules[type_], useful)
            for type_ in useful
        }
        return type(self)(
            alphabet=self.alphabet,
            types=useful,
            rules=rules,
            starts=self.starts & useful,
            mu={type_: self.mu[type_] for type_ in useful},
        )

    @staticmethod
    def _restrict_content(dfa: DFA, allowed: frozenset[Type]) -> DFA:
        transitions = {
            (src, sym): dst
            for (src, sym), dst in dfa.transitions.items()
            if sym in allowed
        }
        restricted = DFA(dfa.states, allowed, transitions, dfa.initial, dfa.finals)
        return minimize_dfa(restricted)

    def is_empty_language(self) -> bool:
        """True iff ``L(D)`` is empty."""
        return not (self.starts & self.productive_types())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def relabel_types(self, prefix: str = "t") -> "EDTD":
        """Return an isomorphic EDTD with types renamed ``prefix0..prefixN``.

        The numbering is canonical: equal schemas relabel identically even
        when one is a pickle round-trip of the other (artifact-cache hits),
        which plain ``repr`` ordering does not guarantee for set-valued
        type names (see :func:`_canonical_type_key`).
        """
        ordered = sorted(self.types, key=_canonical_type_key)
        return self.renamed({type_: f"{prefix}{i}" for i, type_ in enumerate(ordered)})

    def renamed(self, name: Mapping[Type, Type]) -> "EDTD":
        """This schema with every type ``tau`` renamed ``name[tau]``, built
        once, as the same class as this schema.

        *name* may merge types.  Merged types must share their label and,
        once renamed, their content language, and no two types of one
        content model may merge: then a merged type's content model is any
        member's, renamed.  Moore-equivalent types of a single-type EDTD
        meet all three (:func:`repro.schemas.minimize.minimize_single_type`).
        """
        rules: dict[Type, DFA] = {}
        for type_ in self.types:
            if name[type_] in rules:
                continue
            dfa = self.rules[type_]
            transitions = {
                (src, name[sym]): dst for (src, sym), dst in dfa.transitions.items()
            }
            rules[name[type_]] = DFA(
                dfa.states,
                {name[t] for t in dfa.alphabet},
                transitions,
                dfa.initial,
                dfa.finals,
            )
        return type(self)(
            alphabet=self.alphabet,
            types=rules.keys(),
            rules=rules,
            starts={name[t] for t in self.starts},
            mu={name[t]: self.mu[t] for t in self.types},
        )

    def __repr__(self) -> str:
        return (
            f"EDTD(alphabet={sorted(map(str, self.alphabet))}, "
            f"types={len(self.types)}, starts={len(self.starts)})"
        )


def _canonical_type_key(type_: object) -> str:
    """A sort key for type names that is stable across pickle round-trips.

    Constructions produce set-valued type names (Construction 3.1's subset
    types), and ``repr`` of a frozenset follows hash-table iteration order
    — which an unpickled copy of an equal set need not share.  Relabeling
    must assign the same numbers to a schema loaded from the artifact
    cache as to the freshly built original (``docs/CACHING.md``), so sets
    are rendered with their elements' keys sorted
    (:func:`repro.strings.kernels.canonical_repr`).
    """
    from repro.strings.kernels import canonical_repr

    return canonical_repr(type_)
