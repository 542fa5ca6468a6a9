"""Versioned content-addressed keys for persistent artifacts.

A disk entry must be reusable across *processes*, so its key has to pin
everything the artifact depends on:

* the **structural fingerprint** of the input — the same
  :func:`repro.strings.kernels.structural_key` fingerprints the in-process
  memo caches use (equal keys imply isomorphic inputs, hence equal
  artifacts; reprs that collide make the input uncacheable);
* the **artifact kind** (``min_dfa``, ``content_model``, ``upper``,
  ``lower``) — two constructions over the same input are different
  artifacts;
* the **format epoch** :data:`FORMAT_EPOCH` — the version of the
  serialized representation.  Bump it whenever the pickled classes change
  shape (new ``DFA`` slots, changed ``EDTD`` invariants, a new pickle
  protocol floor): old entries then read as *stale*, are deleted on
  sight, and get transparently recomputed.  Never reuse an epoch.

The address of an entry is ``sha256(kind | epoch | canonical-repr)`` —
hex, so it doubles as the filename.  Canonicalization is ``repr`` over the
structural-key tuples, whose set-valued components (frozenset type names)
are first rendered through
:func:`repro.schemas.edtd._canonical_type_key` — plain ``repr`` of a
frozenset follows hash-table iteration order, which varies across
processes and pickle round-trips and would silently turn hits into
misses.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - runtime import stays lazy
    from repro.schemas.edtd import EDTD

__all__ = ["FORMAT_EPOCH", "artifact_digest", "schema_structural_key", "text_digest"]

#: Serialization-format epoch baked into every key.  Bump on any change
#: to the pickled object layout; see ``docs/CACHING.md`` for the ledger.
FORMAT_EPOCH = 3


def artifact_digest(kind: str, key: Any) -> str | None:
    """Hex address of the artifact *kind* built from structural *key*.

    ``None`` keys (uncacheable inputs) propagate to ``None`` digests.
    """
    if key is None:
        return None
    canonical = f"{kind}|{FORMAT_EPOCH}|{key!r}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    """Hex content address of a source *text* (UTF-8, epoch-pinned).

    Unlike :func:`artifact_digest` this needs no structural key — it
    fingerprints the literal characters.  The service's schema registry
    uses it to deduplicate repeat registrations of identical schema
    source without even re-parsing the text.
    """
    return hashlib.sha256(f"text|{FORMAT_EPOCH}|{text}".encode("utf-8")).hexdigest()


def schema_structural_key(edtd: "EDTD | None") -> tuple[Any, ...] | None:
    """A hashable structural fingerprint of an EDTD (or ``None``).

    Equal keys imply structurally identical schemas — same alphabet, same
    types, same start set, same per-type content models (compared by the
    DFA fingerprint of :func:`repro.strings.kernels.structural_key`) and
    the same typing map.  Like the string-level fingerprints, repr
    collisions between distinct types or labels make the schema
    uncacheable (returns ``None``): soundness over recall.
    """
    from repro.schemas.edtd import _canonical_type_key
    from repro.strings.kernels import structural_key

    if edtd is None:
        return None
    # Type names are canonicalized with _canonical_type_key, not bare
    # repr: constructions produce frozenset-valued types, and frozenset
    # repr follows hash-table iteration order — which varies across
    # processes (hash randomization) and across pickle round-trips of an
    # equal set.  A key must not.
    type_keys = sorted(_canonical_type_key(t) for t in edtd.types)
    for left, right in zip(type_keys, type_keys[1:]):
        if left == right:
            return None
    label_keys = sorted(_canonical_type_key(a) for a in edtd.alphabet)
    for left, right in zip(label_keys, label_keys[1:]):
        if left == right:
            return None
    rules: list[tuple[str, str, Any]] = []
    for type_ in sorted(edtd.types, key=_canonical_type_key):
        content_key = structural_key(edtd.rules[type_])
        if content_key is None:
            return None
        rules.append(
            (_canonical_type_key(type_), _canonical_type_key(edtd.mu[type_]), content_key)
        )
    return (
        "edtd",
        type(edtd).__name__,
        tuple(label_keys),
        tuple(sorted(_canonical_type_key(s) for s in edtd.starts)),
        tuple(rules),
    )
