"""Shared Hypothesis strategies for the test suite.

One home for the generators that used to live per-suite (random regexes,
layered single-type EDTDs, tree/XML fuzz soup), plus the schema-guided
determinization pairs used by the differential harness and the tree
mutation (:func:`mutate_tree`) the validator cross-checks share.

Size profiles
-------------
``REPRO_HYPOTHESIS_PROFILE`` selects how many examples property tests
draw:

* ``smoke`` (default) — CI-sized counts, identical to the historical
  per-suite numbers;
* ``nightly`` — 5x the smoke counts for deeper soak runs.

Suites call :func:`examples` with their smoke-sized count::

    @settings(max_examples=examples(60), deadline=None)
"""

from __future__ import annotations

import os
import random

from hypothesis import strategies as st

from repro.schemas.st_edtd import SingleTypeEDTD
from repro.strings.determinize import determinize
from repro.strings.dfa import DFA
from repro.strings.glushkov import glushkov_nfa
from repro.strings.minimize import minimize_dfa
from repro.strings.nfa import NFA
from repro.strings.regex import (
    EMPTY,
    EPSILON,
    Concat,
    Opt,
    Plus,
    Regex,
    Star,
    Sym,
    Union,
    concat,
    union,
)
from repro.strings.schema_guided import depth_guide, universal_guide
from repro.trees.tree import Tree

# ----------------------------------------------------------------------
# Size profiles
# ----------------------------------------------------------------------

_PROFILES = {"smoke": 1, "nightly": 5}

PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "smoke")
if PROFILE not in _PROFILES:
    raise ValueError(
        f"REPRO_HYPOTHESIS_PROFILE={PROFILE!r}: expected one of {sorted(_PROFILES)}"
    )


def examples(smoke_count: int) -> int:
    """Scale a smoke-profile ``max_examples`` count to the active profile."""
    return smoke_count * _PROFILES[PROFILE]


# ----------------------------------------------------------------------
# String substrate: regexes over {a, b} and brute-force word oracles
# ----------------------------------------------------------------------

ALPHABET = ["a", "b"]


def regexes(max_depth: int = 4) -> st.SearchStrategy[Regex]:
    atoms = st.sampled_from(
        [Sym("a"), Sym("b"), EPSILON, EMPTY]
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Concat, inner, inner),
            st.builds(Union, inner, inner),
            st.builds(Star, inner),
            st.builds(Plus, inner),
            st.builds(Opt, inner),
        ),
        max_leaves=8,
    )


def words_up_to(n: int) -> list[tuple]:
    out = [()]
    frontier = [()]
    for _ in range(n):
        frontier = [w + (c,) for w in frontier for c in ALPHABET]
        out.extend(frontier)
    return out


ALL_WORDS_4 = words_up_to(4)


def ast_matches(expr: Regex, word: tuple) -> bool:
    """Brute-force membership via the AST (exponential, for tiny words)."""
    if isinstance(expr, Sym):
        return word == (expr.symbol,)
    if expr == EPSILON:
        return word == ()
    if expr == EMPTY:
        return False
    if isinstance(expr, Union):
        return ast_matches(expr.left, word) or ast_matches(expr.right, word)
    if isinstance(expr, Concat):
        return any(
            ast_matches(expr.left, word[:i]) and ast_matches(expr.right, word[i:])
            for i in range(len(word) + 1)
        )
    if isinstance(expr, Opt):
        return word == () or ast_matches(expr.child, word)
    if isinstance(expr, (Star, Plus)):
        if word == ():
            return isinstance(expr, Star) or expr.nullable()
        return any(
            i > 0
            and ast_matches(expr.child, word[:i])
            and ast_matches(Star(expr.child), word[i:])
            for i in range(1, len(word) + 1)
        )
    raise TypeError(expr)


def glushkov_nfas(max_depth: int = 4) -> st.SearchStrategy[NFA]:
    """Glushkov NFAs of random regexes — subset-construction inputs."""
    return regexes(max_depth).map(glushkov_nfa)


# ----------------------------------------------------------------------
# Guides for schema-guided determinization
# ----------------------------------------------------------------------

@st.composite
def string_guides(draw) -> DFA:
    """A guide DFA over {a, b}: universal, depth-bounded, or the minimal
    DFA of a random regex (exercising the reachable-and-coreachable alive
    set, including empty-language guides)."""
    kind = draw(st.sampled_from(["universal", "depth", "regex"]))
    if kind == "universal":
        return universal_guide(set(ALPHABET))
    if kind == "depth":
        return depth_guide(set(ALPHABET), draw(st.integers(min_value=0, max_value=4)))
    expr = draw(regexes(max_depth=3))
    return minimize_dfa(determinize(glushkov_nfa(expr))).completed(ALPHABET)


@st.composite
def nfa_guide_pairs(draw) -> tuple[NFA, DFA]:
    """(automaton, schema-guide) pairs for the differential harness."""
    return draw(glushkov_nfas()), draw(string_guides())


# ----------------------------------------------------------------------
# Layered single-type EDTDs over a 3-letter alphabet
# ----------------------------------------------------------------------

LABELS = ["a", "b", "c"]


@st.composite
def single_type_edtds(draw, max_types: int = 5) -> SingleTypeEDTD:
    """Layered single-type EDTDs over a 3-letter alphabet.

    Types are layered t0 > t1 > ... (acyclic), each content model uses at
    most one later type per label (EDC by construction), optionally with a
    recursive self-edge.
    """
    num_types = draw(st.integers(min_value=1, max_value=max_types))
    types = [f"t{i}" for i in range(num_types)]
    mu = {t: LABELS[i % len(LABELS)] for i, t in enumerate(types)}
    rules: dict = {}
    for index, type_ in enumerate(types):
        later = types[index + 1:]
        candidates: dict[str, str] = {}
        for other in later:
            candidates.setdefault(mu[other], other)
        if draw(st.booleans()):
            candidates[mu[type_]] = type_  # self-recursion
        chosen = draw(
            st.lists(
                st.sampled_from(sorted(candidates.values())) if candidates else st.nothing(),
                max_size=3,
            )
        ) if candidates else []
        parts: list[Regex] = []
        for child in chosen:
            modifier = draw(st.sampled_from(["plain", "star", "plus", "opt"]))
            atom: Regex = Sym(child)
            if modifier == "star":
                atom = Star(atom)
            elif modifier == "plus":
                atom = Plus(atom)
            elif modifier == "opt":
                atom = Opt(atom)
            parts.append(atom)
        expr = concat(*parts) if parts else EPSILON
        if draw(st.booleans()):
            expr = union(expr, EPSILON)
        rules[type_] = expr
    schema = SingleTypeEDTD(
        alphabet=set(LABELS),
        types=set(types),
        rules=rules,
        starts={types[0]},
        mu=mu,
    ).reduced()
    if not schema.types:
        schema = SingleTypeEDTD(
            alphabet=set(LABELS),
            types={"t0"},
            rules={"t0": "~"},
            starts={"t0"},
            mu={"t0": LABELS[0]},
        )
    return schema


# ----------------------------------------------------------------------
# Trees and hostile XML soup
# ----------------------------------------------------------------------

tree_labels = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,8}", fullmatch=True)

trees = st.recursive(
    tree_labels.map(Tree),
    lambda children: st.tuples(tree_labels, st.lists(children, max_size=4)).map(
        lambda pair: Tree(pair[0], pair[1])
    ),
    max_leaves=25,
)


def mutate_tree(tree: Tree, rng: random.Random, labels: list) -> Tree:
    """Relabel, drop or duplicate one node of *tree* (often leaving the
    schema's language); the root is only ever relabelled."""
    paths = list(tree.dom())
    path = paths[rng.randrange(len(paths))]
    node = tree.subtree(path)
    action = rng.randrange(3)
    if action == 0 or not path:
        return tree.replace_at(path, Tree(rng.choice(labels), node.children))
    parent = tree.subtree(path[:-1])
    children = list(parent.children)
    if action == 1:
        del children[path[-1]]
    else:
        children.insert(path[-1], node)
    return tree.replace_at(path[:-1], Tree(parent.label, children))

# Hostile soup: markup shards that tend to reach deep into the tokenizer.
_SHARDS = st.sampled_from(
    [
        "<", ">", "</", "/>", "<a>", "</a>", "<a/>", "<!DOCTYPE x>", "<!ENTITY",
        "<!--", "-->", "<?xml?>", "&amp;", "&lol9;", "&#x0;", "]]>", "<![CDATA[",
        "a", " ", "\n", "\t", '"', "'", "=", "\x00", "﻿", "é", "𝄞",
    ]
)
hostile_documents = st.one_of(
    st.text(max_size=120),
    st.lists(_SHARDS, max_size=30).map("".join),
    st.binary(max_size=120).map(lambda b: b.decode("latin-1")),
)
