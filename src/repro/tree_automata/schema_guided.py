"""Schema-guided pruned BTA determinization (tree side).

The tree counterpart of :mod:`repro.strings.schema_guided`, after
Niehren/Sakho/Al Serhali, *Schema-Based Automata Determinization*
(arXiv 2209.10312).  The blind bottom-up subset construction
(:func:`repro.tree_automata.kernels.bta_determinize`) combines every
discovered subset with every other under every label; when the
determinized automaton is only ever run on trees of a known schema,
subsets that arise only from schema-invalid subtrees are wasted work.

The guided worklist runs over pairs ``(guide state, subset mask)``: a
deterministic (not necessarily complete) guide BTA assigns each
schema-valid subtree a unique state, and a combination
``label(pair1, pair2)`` is attempted only when the guide has a *useful*
rule ``label(g1, g2) -> g`` (useful = the rule's states are both
bottom-up reachable and can still reach a final).  Everything outside
the guide's universe — including the entire dead-subset cascade the
complete blind result carries — is never materialized.

The output BTA is over **subsets only** (guide component dropped at the
boundary): each recorded transition depends only on the subset masks,
so bottom-up determinism is preserved and under
:func:`universal_bta_guide` the result equals the blind kernel's
output state-for-state.

Blind determinization is this worklist with no guide — one guide state
that reads every label — so budget charging lives here for both
strategies, per *pair*: seed pairs are free, every fresh pair charges
one state, ``|labels| * (1 or 2)`` steps accrue per partner **before**
guide pruning (so the universal guide reproduces blind trip counts
charge-for-charge), flushed in ``_FLUSH`` batches, with lazy
:class:`GuidedBTADetCheckpoint` snapshots interchangeable in contract
with :class:`~repro.tree_automata.kernels.BTADetCheckpoint`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import observability as _obs
from repro.errors import AutomatonError
from repro.runtime.budget import Budget, budget_phase, resolve_budget
from repro.strings.kernels import _FLUSH, _mask_of, _unmask

# Every memo tier is in the one registry of repro.strings.kernels; the
# name stays bound here for readers that ask each kernel module for its
# cache_stats() (wirebench/traced_server.py).
from repro.strings.kernels import cache_stats as cache_stats
from repro.tree_automata.kernels import BTADetCheckpoint, _assemble_bta, _coding_of

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy
    from repro.schemas.edtd import EDTD as _EDTD
    from repro.tree_automata.bta import BTA as _BTA

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# Guides
# ----------------------------------------------------------------------

def universal_bta_guide(alphabet: Iterable[Symbol]) -> "_BTA":
    """The one-state complete all-final guide BTA over *alphabet*: a
    guide that prunes nothing.  Guiding by it reproduces the blind
    subset construction state-for-state and charge-for-charge."""
    from repro.tree_automata.bta import BTA

    alphabet = frozenset(alphabet)
    state = "*"
    return BTA(
        {state},
        alphabet,
        {label: {state} for label in alphabet},
        {(label, state, state): {state} for label in alphabet},
        {state},
    )


def bta_guide_from_edtd(edtd: "_EDTD", *, budget: Budget | None = None) -> "_BTA":
    """A deterministic guide BTA for the binary encodings of *edtd*'s
    trees: the (memoized) determinization of the schema's BTA encoding.

    Both stages are cached (:func:`~repro.tree_automata.kernels.cached_bta_from_edtd`
    and :func:`~repro.tree_automata.kernels.cached_bta_determinize`), so
    repeated guided runs against the same schema pay the construction
    once.
    """
    from repro.tree_automata.kernels import (
        cached_bta_determinize,
        cached_bta_from_edtd,
    )

    return cached_bta_determinize(cached_bta_from_edtd(edtd, budget=budget), budget=budget)


def _guide_tables(
    guide: "_BTA",
) -> tuple[dict[Symbol, State], dict[tuple[Symbol, State, State], State], frozenset[State]]:
    """``(leaf rules, internal rules, useful states)`` of *guide*, trimmed.

    The guide must be bottom-up deterministic — at most one target per
    rule — but need **not** be complete (missing rules are exactly what
    prunes).  Useful = bottom-up reachable and top-down co-reachable
    from a final; rules are kept only when all their states are useful,
    so the determinized blind guide's dead-subset sink (never final)
    vanishes along with everything it guards.
    """
    for label, targets in guide.leaf_rules.items():
        if len(targets) > 1:
            raise AutomatonError(
                f"schema guide must be bottom-up deterministic: leaf rule for "
                f"{label!r} has {len(targets)} targets"
            )
    for (label, _q1, _q2), targets in guide.internal_rules.items():
        if len(targets) > 1:
            raise AutomatonError(
                f"schema guide must be bottom-up deterministic: internal rule "
                f"for {label!r} has {len(targets)} targets"
            )
    reachable = guide.reachable_states()
    useful_set = {state for state in guide.finals if state in reachable}
    changed = True
    while changed:  # ungoverned: monotone fixpoint bounded by |guide states|
        changed = False
        for (_label, q1, q2), targets in guide.internal_rules.items():
            (target,) = tuple(targets)
            if target in useful_set and q1 in reachable and q2 in reachable:
                if q1 not in useful_set:
                    useful_set.add(q1)
                    changed = True
                if q2 not in useful_set:
                    useful_set.add(q2)
                    changed = True
    useful = frozenset(useful_set)
    leaf_of: dict[Symbol, State] = {}
    for label, targets in guide.leaf_rules.items():
        if targets:
            (target,) = tuple(targets)
            if target in useful:
                leaf_of[label] = target
    rule_of: dict[tuple[Symbol, State, State], State] = {}
    for (label, q1, q2), targets in guide.internal_rules.items():
        if targets:
            (target,) = tuple(targets)
            if q1 in useful and q2 in useful and target in useful:
                rule_of[(label, q1, q2)] = target
    return leaf_of, rule_of, useful


def _code_guide(
    coding: Any, guide: "_BTA | None"
) -> tuple[list[State], list[int | None], dict[tuple[int, int, int], int], int]:
    """Int-code *guide* against *coding*'s labels for the guided worklist:
    ``(states, leaf tags, rules, useful count)``.

    Useful guide states get small int codes (``states[code]`` decodes
    one); a state's *tag* is its code shifted past the BTA's state bits,
    so a guided pair is the single int ``subset mask | tag``.
    ``leaf_tags[label_index]`` is the tag of the label's leaf target (or
    ``None`` when the guide has no useful leaf rule for it) and ``rules``
    maps ``(label_index, tag1, tag2)`` to the target's tag.  A ``None``
    guide is the universal guide: one state ``"*"`` reading every label.
    """
    nlabels = len(coding.labels)
    if guide is None:
        rules = {(label_index, 0, 0): 0 for label_index in range(nlabels)}
        return ["*"], [0 for _ in range(nlabels)], rules, 1
    leaf_of, rule_of, useful = _guide_tables(guide)
    shift = len(coding.order)
    states: list[State] = []
    tags: dict[State, int] = {}

    def tag(state: State) -> int:
        value = tags.get(state)
        if value is None:
            value = tags[state] = len(states) << shift
            states.append(state)
        return value

    leaf_tags: list[int | None] = [
        tag(leaf_of[label]) if label in leaf_of else None for label in coding.labels
    ]
    label_code = coding.label_code
    rules = {
        (label_code[label], tag(q1), tag(q2)): tag(target)
        for (label, q1, q2), target in rule_of.items()
        if label in label_code
    }
    return states, leaf_tags, rules, len(useful)


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GuidedBTADetCheckpoint:
    """Resumable snapshot of a partially-run guided BTA determinization.

    Same observable contract as
    :class:`~repro.tree_automata.kernels.BTADetCheckpoint` —
    discovery-ordered worklist, ``done`` counter of fully-combined rows,
    idempotent transition entries — but the worklist holds
    ``(guide state, subset)`` pairs, the unit the guided loop charges by.
    """

    pairs: tuple[tuple[State, frozenset[State]], ...]
    transitions: tuple[
        tuple[tuple[Symbol, frozenset[State], frozenset[State]], frozenset[State]], ...
    ]
    done: int

    @property
    def subsets(self) -> tuple[frozenset[State], ...]:
        """The distinct subset components, in discovery order."""
        out: list[frozenset[State]] = []
        seen: set[frozenset[State]] = set()
        for _, subset in self.pairs:
            if subset not in seen:
                seen.add(subset)
                out.append(subset)
        return tuple(out)

    @property
    def states_explored(self) -> int:
        return len(self.pairs)

    @property
    def frontier_size(self) -> int:
        return len(self.pairs) - self.done


# ----------------------------------------------------------------------
# The guided kernel
# ----------------------------------------------------------------------

def bta_determinize_guided(
    bta: "_BTA",
    guide: "_BTA | None" = None,
    *,
    budget: Budget | None = None,
    checkpoint: "BTADetCheckpoint | GuidedBTADetCheckpoint | None" = None,
    trace: Any = None,
) -> "_BTA":
    """Bottom-up subset construction pruned by *guide* (module docstring).

    For every tree accepted by *guide* the result assigns the same
    subset as the blind determinization, so ``L(result) ∩ L(guide) =
    L(bta) ∩ L(guide)``; subset states arising only from guide-invalid
    subtrees are never materialized.  Under :func:`universal_bta_guide`
    — or ``guide=None``, which codes the universal guide directly
    instead of building it — the result and the budget charge sequence
    equal the blind kernel's.
    """
    budget = resolve_budget(budget)
    coding = _coding_of(bta)
    guide_states, leaf_tags, rules, useful = _code_guide(coding, guide)
    with _obs.construction_span(
        "bta-determinize",
        trace=trace,
        budget=budget,
        kernel="schema-guided",
        nta_states=len(coding.order),
        guide_states=useful,
    ) as span:
        pairs, transitions = _guided_worklist(
            coding, guide_states, leaf_tags, rules, budget, checkpoint
        )
        masks = list(dict.fromkeys(mask for _, mask in pairs))
        result = _assemble_bta(
            bta,
            coding,
            masks,
            transitions,
            [index for index, tag in enumerate(leaf_tags) if tag is not None],
        )
        if span is not None:
            span.annotate(subsets=len(masks), pairs=len(pairs))
        if _obs.ENABLED:
            _obs.METRICS.counter("bta_determinize.runs").inc()
            _obs.METRICS.counter("bta_determinize.schema_guided.runs").inc()
            _obs.METRICS.histogram("bta_determinize.subsets").observe(len(masks))
    return result


def _guided_worklist(
    coding: Any,
    guide_states: list[State] | None,
    leaf_tags: list[int | None],
    rules: dict[tuple[int, int, int], int],
    budget: Budget | None,
    checkpoint: "BTADetCheckpoint | GuidedBTADetCheckpoint | None",
) -> tuple[list[tuple[int, int]], dict[tuple[int, int, int], int]]:
    """The governed worklist over ``(guide tag, subset mask)`` pairs — the
    one scalar loop behind both strategies, and the single source of
    truth for charging and checkpoints.

    Each discovered pair is combined once against every pair known so
    far (both child positions).  A combination ``label(c, p)`` runs only
    when the guide has a rule for ``label`` over the two guide states;
    the per-(guide state, guide state) label lists are filled lazily
    from *rules*.  *guide_states* is ``None`` for a blind run: trips
    then carry a :class:`~repro.tree_automata.kernels.BTADetCheckpoint`
    (interchangeable with ``BTA.determinize_reference``'s) instead of a
    :class:`GuidedBTADetCheckpoint`.
    """
    labels = coding.labels
    nlabels = len(labels)
    label_range = range(nlabels)
    if checkpoint is None:
        # The seeds — one per distinct (guide tag, leaf mask) of a label
        # the guide reads at a leaf — are uncharged.
        pairs: list[tuple[int, int]] = []
        index: set[int] = set()
        for label_index, tag in enumerate(leaf_tags):
            if tag is None:
                continue
            mask = coding.leaf_masks[label_index]
            if mask | tag not in index:
                index.add(mask | tag)
                pairs.append((tag, mask))
        transitions: dict[tuple[int, int, int], int] = {}
        done = 0
    else:
        expected = BTADetCheckpoint if guide_states is None else GuidedBTADetCheckpoint
        if not isinstance(checkpoint, expected):
            raise AutomatonError(
                f"{'a blind' if guide_states is None else 'a schema-guided'} "
                f"run resumes from {expected.__name__}, "
                f"not {type(checkpoint).__name__}"
            )
        code = coding.code
        if isinstance(checkpoint, BTADetCheckpoint):
            pairs = [(0, _mask_of(subset, code)) for subset in checkpoint.subsets]
        else:
            shift = len(coding.order)
            tags = {g: i << shift for i, g in enumerate(guide_states or ())}
            try:
                pairs = [
                    (tags[g], _mask_of(subset, code)) for g, subset in checkpoint.pairs
                ]
            except KeyError as error:
                raise AutomatonError(
                    f"checkpoint guide state {error.args[0]!r} is not a useful "
                    "state of this guide"
                ) from None
        index = {mask | tag for tag, mask in pairs}
        transitions = {
            (
                coding.label_code[label],
                _mask_of(s1, code),
                _mask_of(s2, code),
            ): _mask_of(target, code)
            for (label, s1, s2), target in checkpoint.transitions
        }
        done = checkpoint.done

    # combos[tag_c][tag_p]: the (label, tag of label(c, p), tag of
    # label(p, c)) triples the guide allows, built on first use.
    combos: dict[int, dict[int, list[tuple[int, int | None, int | None]]]] = {}
    rule = rules.get

    def allowed_labels(tag_c: int, tag_p: int) -> list[tuple[int, int | None, int | None]]:
        triples: list[tuple[int, int | None, int | None]] = []
        for label_index in label_range:
            forward = rule((label_index, tag_c, tag_p))
            backward = rule((label_index, tag_p, tag_c))
            if forward is not None or backward is not None:
                triples.append((label_index, forward, backward))
        return triples

    step = coding.step
    if budget is not None:
        cursor = [done]

        def snapshot() -> "BTADetCheckpoint | GuidedBTADetCheckpoint":
            # Decoded lazily, only at trip time; the row at ``cursor`` is
            # re-run on resume (idempotent entries, nothing lost or
            # double-charged).
            order = coding.order
            decoded = tuple(
                (
                    (labels[label_index], _unmask(m1, order), _unmask(m2, order)),
                    _unmask(target, order),
                )
                for (label_index, m1, m2), target in transitions.items()
            )
            if guide_states is None:
                return BTADetCheckpoint(
                    subsets=tuple(_unmask(mask, order) for _, mask in pairs),
                    transitions=decoded,
                    done=cursor[0],
                )
            shift = len(order)
            return GuidedBTADetCheckpoint(
                pairs=tuple(
                    (guide_states[tag >> shift], _unmask(mask, order))
                    for tag, mask in pairs
                ),
                transitions=decoded,
                done=cursor[0],
            )

        tick, charge_states = budget.tick, budget.charge_states
        pending = 0
    with budget_phase(budget, "bta-determinize"):
        while done < len(pairs):
            tag_c, current = pairs[done]
            row = combos.get(tag_c)
            if row is None:
                row = combos[tag_c] = {}
            if budget is not None:
                cursor[0] = done
            for position in range(done + 1):
                tag_p, partner = pairs[position]
                both_sides = position < done
                if budget is not None:
                    # Accrued before guide pruning — the work the blind
                    # loop does — so the universal guide reproduces blind
                    # trip counts exactly.
                    pending += nlabels * (2 if both_sides else 1)
                    if pending >= _FLUSH:
                        tick(pending, len(pairs) - done, snapshot)
                        pending = 0
                allowed = row.get(tag_p)
                if allowed is None:
                    allowed = row[tag_p] = allowed_labels(tag_c, tag_p)
                for label_index, forward, backward in allowed:
                    if forward is not None:
                        target = step(label_index, current, partner)
                        transitions[(label_index, current, partner)] = target
                        if target | forward not in index:
                            index.add(target | forward)
                            pairs.append((forward, target))
                            if budget is not None:
                                charge_states(1, len(pairs) - done, snapshot)
                    if both_sides and backward is not None:
                        target = step(label_index, partner, current)
                        transitions[(label_index, partner, current)] = target
                        if target | backward not in index:
                            index.add(target | backward)
                            pairs.append((backward, target))
                            if budget is not None:
                                charge_states(1, len(pairs) - done, snapshot)
            done += 1
        if budget is not None and pending:
            budget.tick(pending, 0)
    return pairs, transitions

