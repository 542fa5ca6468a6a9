"""Seeded inputs for the three workloads, with the verdicts they must get.

The workload seed is the only source of randomness: every document,
schema and operation below is a pure function of it, and
:func:`inputs_digest` hashes them so two result sets can be shown to have
run identical inputs.  Verdicts come from the generator, never from the
program under test: valid documents are derivations of their schema and
invalid ones carry a mutation that provably leaves the language.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.families.hard import example_2_6, theorem_3_2_family
from repro.families.random_schemas import random_edtd
from repro.families.real_world import (
    atom_feed,
    purchase_orders_v1,
    purchase_orders_v2,
    rss_feed,
    xhtml_fragment,
)
from repro.schemas.edtd import EDTD
from repro.schemas.text_format import dumps
from repro.trees.generate import sample_tree
from repro.trees.tree import Tree

#: Field count of the wide bench schema (the shape ``bench_service.py`` uses).
BENCH_WIDTH = 24

#: Small documents: node-count range and the share that is invalid.
SMALL_NODES = (20, 200)
SMALL_INVALID_EVERY = 5
SMALL_POOL = 300

#: Large documents: the fixed cycle of (shape, nodes) the closed-loop
#: stream of ``validate-mixed`` repeats.  Sizes are fixed, so every seed
#: puts the same mix of work on the server; the seed varies the content.
#: Deep shapes nest to the parser's depth limit of 200.  The third
#: document of the cycle is invalid.
LARGE_CYCLE = (
    ("deep", 90_000),
    ("wide", 20_000),
    ("wide", 90_000),
    ("deep", 30_000),
)
LARGE_INVALID_AT = 2
DEEP_LEVELS = 196  # html > body > div^196 > p > em reaches depth 200

#: A label outside every schema's alphabet: a tree carrying it is in no
#: schema's language.
FOREIGN_LABEL = "zz"

#: The approximate stream is made of blocks of 12 operations: one
#: Theorem 3.2 schema D_n, three repeats of earlier random EDTDs and
#: eight fresh random EDTDs; slots 1, 4, 7 and 10 ask for schema-guided
#: determinization (with the D_n slot, about one operation in three).
#: Repeats never pick a D_n: a repeated D_5 costs most of a second, so
#: a run's cost would follow how many of those its seed drew.
APPROX_BLOCK = 12
APPROX_REPEAT_SLOTS = (3, 6, 9)
APPROX_GUIDED_SLOTS = (1, 4, 7, 10)
APPROX_DN = (2, 3, 4, 5)
#: Type counts of the fresh random EDTDs, cycled rather than drawn.
APPROX_TYPES = tuple(range(6, 13))
#: Operations generated per second of run, half as many again as the
#: ~8 per second of the commit that defined the benchmark; a run that
#: exhausts the stream ends early (the redraws of random_schema cost
#: ~20 ms a schema, so the stream is made before timing starts).
APPROX_OPS_PER_SECOND = 12
#: Input members sampled per distinct schema for the answer check.
APPROX_MEMBERS = 3


def bench_schema_text(width: int = BENCH_WIDTH) -> str:
    """``root(item*)``, ``item = f0, ..., f{width-1}``: single-type, wide."""
    lines = [
        "alphabet: root item " + " ".join(f"f{i}" for i in range(width)),
        "start: r",
        "r [root] -> i*",
        "i [item] -> " + ", ".join(f"t{i}" for i in range(width)),
    ]
    lines += [f"t{i} [f{i}] -> ~" for i in range(width)]
    return "\n".join(lines) + "\n"


#: A recursive general EDTD (two ``div`` types in one content model, so
#: not single-type): validating against it runs the arena kernel, where
#: the single-type schemas run the top-down validator.
DEEP_SCHEMA_TEXT = """\
alphabet: html head title body div p em
start: t_html
t_html [html] -> t_head, t_body
t_head [head] -> t_title
t_title [title] -> ~
t_body [body] -> (t_p | t_d1 | t_d2)*
t_d1 [div] -> t_p, (t_d1 | t_d2)*
t_d2 [div] -> (t_d1 | t_d2)*, t_p, t_p
t_p [p] -> t_em*
t_em [em] -> ~
"""


@dataclass(frozen=True)
class Document:
    """One validate request's input and the verdict it must get."""

    schema: str  # key into the workload's schema table
    xml: str  # ASCII, so its length is its size in bytes
    nodes: int
    valid: bool


@dataclass
class ApproxOp:
    """One register+approximate operation of the approximate stream."""

    index: int
    schema_text: str
    strategy: str
    kind: str  # "random", "dn" or "repeat"
    n: int | None = None  # D_n parameter (kind "dn")
    source: int | None = None  # index of the repeated operation


def validate_schemas() -> dict[str, str]:
    """The schemas ``validate-small`` registers, by key, as text."""
    schemas = {"bench": bench_schema_text()}
    for factory in (rss_feed, atom_feed, xhtml_fragment, purchase_orders_v1, purchase_orders_v2):
        schemas[factory.__name__] = dumps(factory())
    return schemas


def mixed_schemas() -> dict[str, str]:
    """``validate-mixed`` adds the deep general schema."""
    return {**validate_schemas(), "deep": DEEP_SCHEMA_TEXT}


def _xml(tree: Tree) -> str:
    parts: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.children:
            parts.append(f"<{item.label}>")
            stack.append(f"</{item.label}>")
            stack.extend(reversed(item.children))
        else:
            parts.append(f"<{item.label}/>")
    return "".join(parts)


def _relabel_at(tree: Tree, path: tuple) -> Tree:
    node = tree.subtree(path)
    return tree.replace_at(path, Tree(FOREIGN_LABEL, node.children))


def _bench_document(rng: random.Random, items: int, drop_field: int | None) -> str:
    """A bench-schema document; *drop_field* removes that field from one
    item, which leaves the language (every item needs all fields)."""
    full = "<item>" + "".join(f"<f{i}/>" for i in range(BENCH_WIDTH)) + "</item>"
    body = [full] * items
    if drop_field is not None:
        broken = rng.randrange(items)
        body[broken] = (
            "<item>"
            + "".join(f"<f{i}/>" for i in range(BENCH_WIDTH) if i != drop_field)
            + "</item>"
        )
    return "<root>" + "".join(body) + "</root>"


def small_documents(seed: int, count: int = SMALL_POOL) -> list[Document]:
    """The pool of small documents both validate workloads cycle through:
    schemas in a fixed rotation, one document in SMALL_INVALID_EVERY
    invalid."""
    rng = random.Random(f"small:{seed}")
    schemas = {"bench": None}
    for factory in (rss_feed, atom_feed, xhtml_fragment, purchase_orders_v1, purchase_orders_v2):
        schemas[factory.__name__] = factory()
    keys = list(schemas)
    low, high = SMALL_NODES
    documents: list[Document] = []
    for index in range(count):
        key = keys[index % len(keys)]
        invalid = index % SMALL_INVALID_EVERY == SMALL_INVALID_EVERY - 1
        if key == "bench":
            items = rng.randint(1, (high - 1) // (BENCH_WIDTH + 1))
            drop = rng.randrange(BENCH_WIDTH) if invalid and rng.random() < 0.5 else None
            xml = _bench_document(rng, items, drop)
            nodes = 1 + items * (BENCH_WIDTH + 1) - (drop is not None)
            if invalid and drop is None:
                xml = xml.replace(f"<f{rng.randrange(BENCH_WIDTH)}/>", f"<{FOREIGN_LABEL}/>", 1)
            documents.append(Document(key, xml, nodes, not invalid))
            continue
        tree = None
        for _ in range(64):
            candidate = sample_tree(schemas[key], rng, target_size=rng.randint(low, high))
            if low <= candidate.size() <= high:
                tree = candidate
                break
            if tree is None or candidate.size() > tree.size():
                tree = candidate
        assert tree is not None
        if invalid:
            tree = _relabel_at(tree, rng.choice([path for path, _ in tree.nodes()]))
        documents.append(Document(key, _xml(tree), tree.size(), not invalid))
    return documents


def _deep_column(rng: random.Random, levels: int, ems: int, break_at: int | None) -> str:
    """A chain of *levels* nested divs, each typed t_d1 or t_d2 by *rng*.
    At level *break_at* a t_d2 div loses one of its two trailing p's,
    which no type of the deep schema accepts."""
    opening: list[str] = []
    closing: list[str] = []
    para = "<p>" + "<em/>" * ems + "</p>"
    for level in range(levels):
        if level == break_at or rng.random() < 0.5:
            tail = "<p/>" if level == break_at else "<p/><p/>"
            opening.append("<div>")
            closing.append(tail + "</div>")
        else:
            opening.append("<div>" + para)
            closing.append("</div>")
    return "".join(opening) + "".join(reversed(closing))


def large_document(rng: random.Random, shape: str, nodes: int, invalid: bool) -> Document:
    """One large document of about *nodes* element nodes."""
    if shape == "wide":
        items = (nodes - 1) // (BENCH_WIDTH + 1)
        drop = rng.randrange(BENCH_WIDTH) if invalid else None
        xml = _bench_document(rng, items, drop)
        count = 1 + items * (BENCH_WIDTH + 1) - (drop is not None)
        return Document("bench", xml, count, not invalid)
    # html, head, title, body, then columns of DEEP_LEVELS nested divs.
    # An invalid document breaks one level of its first column.
    columns: list[str] = []
    count = 4
    while count < nodes:
        ems = rng.randint(1, 3)
        levels = min(DEEP_LEVELS, max(1, (nodes - count) // (2 + ems + 1)))
        break_at = rng.randrange(levels) if invalid and not columns else None
        column = _deep_column(rng, levels, ems, break_at)
        columns.append(column)
        count += column.count("<") - column.count("</")
    xml = "<html><head><title/></head><body>" + "".join(columns) + "</body></html>"
    return Document("deep", xml, count, not invalid)


def large_documents(seed: int) -> list[Document]:
    """One pass of LARGE_CYCLE."""
    rng = random.Random(f"large:{seed}")
    return [
        large_document(rng, shape, nodes, index == LARGE_INVALID_AT)
        for index, (shape, nodes) in enumerate(LARGE_CYCLE)
    ]


def warmup_large(seed: int) -> Document:
    """The set-up warm-up large document (the cycle's smallest shape)."""
    return large_document(random.Random(f"warmup:{seed}"), "wide", 20_000, False)


def approximate_stream(seed: int, count: int) -> list[ApproxOp]:
    """*count* operations of the approximate stream (see APPROX_BLOCK)."""
    rng = random.Random(f"approximate:{seed}")
    ops: list[ApproxOp] = []
    fresh = 0
    for index in range(count):
        block, slot = divmod(index, APPROX_BLOCK)
        if slot == 0:
            n = APPROX_DN[block % len(APPROX_DN)]
            cycle = block // len(APPROX_DN)
            strategy = "schema-guided" if cycle % 2 else "blind"
            ops.append(ApproxOp(index, dumps(theorem_3_2_family(n)), strategy, "dn", n=n))
        elif slot in APPROX_REPEAT_SLOTS:
            source = rng.choice([op for op in ops if op.kind == "random"])
            ops.append(
                ApproxOp(index, source.schema_text, source.strategy, "repeat",
                         source=source.index)
            )
        else:
            schema = random_schema(rng, APPROX_TYPES[fresh % len(APPROX_TYPES)])
            fresh += 1
            strategy = "schema-guided" if slot in APPROX_GUIDED_SLOTS else "blind"
            ops.append(ApproxOp(index, dumps(schema), strategy, "random"))
    return ops


def random_schema(rng: random.Random, types: int) -> EDTD:
    """A ``random_edtd`` with exactly *types* types once reduced.

    ``random_edtd`` reduces what it draws, which drops any number of its
    types, and construction cost grows steeply with the type count, so a
    run's cost would follow how many types its seed happened to keep.
    Redrawing until the count is exact puts the same spread of sizes on
    the server for every seed; about one draw in two is kept.
    """
    while True:
        schema = random_edtd(rng, num_labels=4, num_types=types)
        if len(schema.types) == types:
            return schema


def warmup_schema_text() -> str:
    """The approximate set-up warm-up schema (Example 2.6: not in the stream)."""
    return dumps(example_2_6())


def inputs_digest(*parts: object) -> str:
    """sha256 over a canonical JSON rendering of the generated inputs."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True, default=_plain).encode())
    return hasher.hexdigest()


def _plain(value: object) -> object:
    if isinstance(value, Document):
        return [value.schema, value.xml, value.nodes, value.valid]
    if isinstance(value, ApproxOp):
        return [value.index, value.schema_text, value.strategy, value.kind, value.n, value.source]
    raise TypeError(f"cannot digest {type(value).__name__}")
