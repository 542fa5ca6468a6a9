"""Bounded LRU registry of compiled schema handles.

The registry is the service's working set: a thread-safe, capacity-bounded
mapping ``schema_id -> CompiledSchema`` with

* **content addressing** — registering the same schema (by object, by
  structurally-equal copy, or by identical source text) converges on one
  handle and one ``schema_id``, so clients can treat the id as a pure
  function of the schema;
* **LRU eviction with refcount pinning** — handles acquired via
  :meth:`SchemaRegistry.acquire` / :meth:`SchemaRegistry.lease` are never
  evicted mid-use; eviction scans from the cold end, skips pinned
  entries, and never victimizes the hottest (just-touched) entry, so
  capacity may be transiently exceeded while everything else is pinned;
* **concurrent-compile deduplication** — racing registrations of the
  same schema block on a per-id event and share the winner's handle
  instead of compiling twice;
* **persistent backing** — an optional :class:`repro.cache.ArtifactCache`
  becomes every handle's default store, so approximation results survive
  eviction and process restarts even though the in-memory handle does not.

Counters (hits, misses, compiles, evictions, pinned skips) feed
:data:`repro.observability.METRICS` when metrics recording is enabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro import cache as _cache
from repro import observability as _obs
from repro.api import CompiledSchema, compile_schema, resolve_strategy
from repro.errors import ServiceError
from repro.observability import Trace
from repro.runtime.budget import Budget
from repro.schemas.edtd import EDTD

__all__ = ["SchemaRegistry"]


@dataclass
class _Entry:
    handle: CompiledSchema
    refcount: int = 0
    #: Source-text digests that resolved to this handle (for alias cleanup).
    source_keys: set = field(default_factory=set)


def _count(name: str, amount: int = 1) -> None:
    if _obs.ENABLED:
        _obs.METRICS.counter(name).inc(amount)


class SchemaRegistry:
    """A bounded, thread-safe LRU of :class:`repro.api.CompiledSchema`
    handles (see the module docstring for the full contract)."""

    def __init__(
        self,
        *,
        capacity: int = 128,
        cache: "_cache.CacheArg" = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"registry capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._cache = cache
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: text_digest(source) -> schema_id, so repeat registrations of
        #: identical source text skip parsing entirely.
        self._source_ids: dict[str, str] = {}
        self._inflight: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0
        self.pinned_skips = 0

    # -- registration --------------------------------------------------

    def register(
        self,
        schema: "EDTD | str",
        *,
        strategy: str | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
    ) -> CompiledSchema:
        """Compile *schema* (an EDTD or its text-format source) into the
        registry, or return the already-hot handle for a structurally
        identical one.  The governed trio is forwarded to
        :func:`repro.api.compile_schema` on the compile path.  An unknown
        *strategy* raises :class:`repro.errors.AutomatonError` before any
        counter moves; source text is parsed at most once."""
        strategy = resolve_strategy(strategy)
        source_key = None
        if isinstance(schema, str):
            source_key = _cache.text_digest(schema)
            with self._lock:
                known = self._source_ids.get(source_key)
                entry = self._entries.get(known) if known is not None else None
                if entry is not None:
                    self._entries.move_to_end(known)
                    self.hits += 1
                    _count("service.registry.hits")
                    return entry.handle
            # Looked up per call: wirebench/traced_server.py times the
            # parse by wrapping text_format.loads.
            from repro.schemas.text_format import loads

            schema = loads(schema)
        # The schema_id a compile would assign, or None when the schema
        # is structurally uncacheable.
        key = _cache.schema_structural_key(schema)
        probe = (
            None
            if key is None
            else _cache.artifact_digest("compiled-schema", (key, strategy))
        )
        if probe is None:
            # Structurally uncacheable: no stable address to deduplicate
            # on, so every registration compiles (and is admitted under
            # its anonymous id).
            handle = compile_schema(
                schema,
                strategy=strategy,
                budget=budget,
                checkpoint=checkpoint,
                trace=trace,
                cache=self._cache,
            )
            with self._lock:
                self.misses += 1
                self.compiles += 1
                self._admit_locked(handle, source_key)
            _count("service.registry.misses")
            _count("service.registry.compiles")
            return handle
        owner = False
        with self._lock:
            entry = self._entries.get(probe)
            if entry is not None:
                self._entries.move_to_end(probe)
                if source_key is not None:
                    self._source_ids[source_key] = probe
                    entry.source_keys.add(source_key)
                self.hits += 1
                _count("service.registry.hits")
                return entry.handle
            event = self._inflight.get(probe)
            if event is None:
                event = threading.Event()
                self._inflight[probe] = event
                owner = True
                self.misses += 1
                _count("service.registry.misses")
        if not owner:
            event.wait()
            with self._lock:
                entry = self._entries.get(probe)
                if entry is not None:
                    self._entries.move_to_end(probe)
                    if source_key is not None:
                        self._source_ids[source_key] = probe
                        entry.source_keys.add(source_key)
                    self.hits += 1
                    _count("service.registry.hits")
                    return entry.handle
            # The winning compile failed (or its entry was evicted before
            # we woke): fall through and compile for ourselves.
        try:
            handle = compile_schema(
                schema,
                strategy=strategy,
                budget=budget,
                checkpoint=checkpoint,
                trace=trace,
                cache=self._cache,
            )
            with self._lock:
                self.compiles += 1
                self._admit_locked(handle, source_key)
            _count("service.registry.compiles")
            return handle
        finally:
            if owner:
                with self._lock:
                    self._inflight.pop(probe, None)
                event.set()

    def _admit_locked(self, handle: CompiledSchema, source_key: str | None) -> None:
        entry = self._entries.get(handle.schema_id)
        if entry is None:
            entry = _Entry(handle)
            self._entries[handle.schema_id] = entry
        self._entries.move_to_end(handle.schema_id)
        if source_key is not None:
            self._source_ids[source_key] = handle.schema_id
            entry.source_keys.add(source_key)
        self._evict_excess_locked()

    # -- lookup and pinning --------------------------------------------

    def lookup(self, schema_id: str) -> CompiledSchema | None:
        """The hot handle for *schema_id*, freshened in the LRU — or
        ``None`` when it is not resident (evicted or never registered).

        (Named ``lookup`` rather than ``get`` so the whole-program
        effect inference never confuses it with ``dict.get`` receivers.)
        """
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is None:
                self.misses += 1
                _count("service.registry.misses")
                return None
            self._entries.move_to_end(schema_id)
            self.hits += 1
            _count("service.registry.hits")
            return entry.handle

    def acquire(self, schema_id: str) -> CompiledSchema:
        """Pin *schema_id* against eviction and return its handle.  Every
        acquire must be paired with a :meth:`release` (or use
        :meth:`lease`).  Raises :class:`repro.errors.ServiceError` for
        unknown ids."""
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is None:
                self.misses += 1
                _count("service.registry.misses")
                raise ServiceError(f"unknown schema_id {schema_id!r} (register it first)")
            entry.refcount += 1
            self._entries.move_to_end(schema_id)
            self.hits += 1
            _count("service.registry.hits")
            return entry.handle

    def release(self, schema_id: str) -> None:
        """Unpin one :meth:`acquire` of *schema_id*.  Unknown ids are
        ignored (the entry may have been force-evicted)."""
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is None:
                return
            if entry.refcount > 0:
                entry.refcount -= 1
            self._evict_excess_locked()

    @contextmanager
    def lease(self, schema_id: str) -> Iterator[CompiledSchema]:
        """``with registry.lease(schema_id) as handle:`` — acquire/release
        pinning for a dynamic extent."""
        handle = self.acquire(schema_id)
        try:
            yield handle
        finally:
            self.release(schema_id)

    # -- eviction ------------------------------------------------------

    def evict(self, schema_id: str) -> bool:
        """Drop *schema_id* now.  Returns ``False`` (and keeps the entry)
        when it is unknown or currently pinned."""
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is None or entry.refcount > 0:
                return False
            self._drop_locked(schema_id)
            return True

    def _drop_locked(self, schema_id: str) -> None:
        entry = self._entries.pop(schema_id)
        for source_key in entry.source_keys:
            self._source_ids.pop(source_key, None)
        self.evictions += 1
        _count("service.registry.evictions")

    def _evict_excess_locked(self) -> None:
        # Bounded by capacity, not worklist-shaped: each pass drops one
        # cold unpinned entry or gives up when everything left is pinned.
        # The hottest (just-touched) entry is never a victim — evicting
        # the handle a request just admitted would defeat admission, so
        # capacity is transiently exceeded instead.
        while len(self._entries) > self._capacity:
            victim = None
            for schema_id, entry in list(self._entries.items())[:-1]:
                if entry.refcount == 0:
                    victim = schema_id
                    break
            if victim is None:
                self.pinned_skips += 1
                _count("service.registry.pinned_skips")
                break
            self._drop_locked(victim)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, schema_id: str) -> bool:
        with self._lock:
            return schema_id in self._entries

    def schema_ids(self) -> list[str]:
        """Resident ids, coldest first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot: size/capacity plus lifetime hit/miss/compile/
        eviction/pinned-skip totals."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "compiles": self.compiles,
                "evictions": self.evictions,
                "pinned_skips": self.pinned_skips,
            }
