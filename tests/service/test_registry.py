"""`SchemaRegistry`: content addressing, LRU eviction under refcounts,
and concurrent-compile deduplication."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.registry as registry_mod
from repro.errors import ServiceError
from repro.families.hard import example_2_6
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas import text_format
from repro.schemas.text_format import dumps
from repro.service import SchemaRegistry


def _schema(n: int) -> SingleTypeEDTD:
    """A family of structurally distinct schemas (root arity n)."""
    return SingleTypeEDTD(
        alphabet={"a", "b"},
        types={"ra", "tb"},
        rules={"ra": ", ".join(["tb"] * n) if n else "~", "tb": "~"},
        starts={"ra"},
        mu={"ra": "a", "tb": "b"},
    )


class TestContentAddressing:
    def test_same_object_registers_once(self):
        registry = SchemaRegistry(capacity=4)
        schema = _schema(1)
        first = registry.register(schema)
        second = registry.register(schema)
        assert first is second
        assert registry.stats()["compiles"] == 1
        assert registry.stats()["hits"] == 1

    def test_structural_copy_converges(self):
        registry = SchemaRegistry(capacity=4)
        first = registry.register(_schema(2))
        second = registry.register(_schema(2))
        assert first is second
        assert registry.stats()["compiles"] == 1

    def test_source_text_fast_path(self):
        registry = SchemaRegistry(capacity=4)
        text = dumps(_schema(1))
        first = registry.register(text)
        second = registry.register(text)
        assert first is second
        assert registry.stats()["compiles"] == 1
        assert registry.stats()["hits"] == 1

    def test_cold_source_text_is_parsed_once(self, monkeypatch):
        calls = []
        real_loads = text_format.loads

        def counting_loads(text, **kwargs):
            calls.append(text)
            return real_loads(text, **kwargs)

        monkeypatch.setattr("repro.schemas.text_format.loads", counting_loads)
        monkeypatch.setattr("repro.api._loads_schema", counting_loads)
        registry = SchemaRegistry(capacity=4)
        text = dumps(_schema(4))
        registry.register(text)
        assert len(calls) == 1
        registry.register(text)
        assert len(calls) == 1

    def test_text_and_object_converge(self):
        registry = SchemaRegistry(capacity=4)
        by_object = registry.register(_schema(3))
        by_text = registry.register(dumps(_schema(3)))
        assert by_object is by_text

    def test_lookup_and_contains(self):
        registry = SchemaRegistry(capacity=4)
        handle = registry.register(_schema(1))
        assert handle.schema_id in registry
        assert registry.lookup(handle.schema_id) is handle
        assert registry.lookup("no-such-id") is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ServiceError):
            SchemaRegistry(capacity=0)


class TestEviction:
    def test_lru_bounds_residency(self):
        registry = SchemaRegistry(capacity=2)
        a = registry.register(_schema(1))
        b = registry.register(_schema(2))
        c = registry.register(_schema(3))
        assert len(registry) == 2
        assert a.schema_id not in registry  # coldest, evicted
        assert b.schema_id in registry and c.schema_id in registry
        assert registry.stats()["evictions"] == 1

    def test_lookup_freshens(self):
        registry = SchemaRegistry(capacity=2)
        a = registry.register(_schema(1))
        registry.register(_schema(2))
        registry.lookup(a.schema_id)  # freshen a: now 2 is coldest
        evicted_candidate = registry.register(_schema(3))
        assert a.schema_id in registry
        assert evicted_candidate.schema_id in registry

    def test_pinned_entries_survive_pressure(self):
        registry = SchemaRegistry(capacity=1)
        a = registry.register(_schema(1))
        registry.acquire(a.schema_id)
        registry.register(_schema(2))
        # capacity transiently exceeded rather than evicting the pinned handle
        assert a.schema_id in registry
        assert registry.stats()["pinned_skips"] >= 1
        registry.release(a.schema_id)
        registry.register(_schema(3))
        assert a.schema_id not in registry  # unpinned and coldest: gone

    def test_release_trims_excess(self):
        registry = SchemaRegistry(capacity=1)
        a = registry.register(_schema(1))
        registry.acquire(a.schema_id)
        registry.register(_schema(2))
        assert len(registry) == 2
        registry.release(a.schema_id)
        assert len(registry) == 1

    def test_lease_pins_for_the_extent(self):
        registry = SchemaRegistry(capacity=1)
        a = registry.register(_schema(1))
        with registry.lease(a.schema_id) as handle:
            registry.register(_schema(2))
            assert handle.schema_id in registry
        assert registry.evict(a.schema_id) or a.schema_id not in registry

    def test_explicit_evict(self):
        registry = SchemaRegistry(capacity=4)
        a = registry.register(_schema(1))
        assert registry.evict(a.schema_id)
        assert a.schema_id not in registry
        assert not registry.evict(a.schema_id)  # already gone

    def test_evict_refuses_pinned(self):
        registry = SchemaRegistry(capacity=4)
        a = registry.register(_schema(1))
        registry.acquire(a.schema_id)
        assert not registry.evict(a.schema_id)
        registry.release(a.schema_id)
        assert registry.evict(a.schema_id)

    def test_acquire_unknown_raises(self):
        registry = SchemaRegistry(capacity=4)
        with pytest.raises(ServiceError):
            registry.acquire("no-such-id")

    def test_evicted_source_alias_is_cleaned(self):
        registry = SchemaRegistry(capacity=4)
        text = dumps(_schema(1))
        a = registry.register(text)
        registry.evict(a.schema_id)
        again = registry.register(text)  # must recompile, not hit a stale alias
        assert again.schema_id == a.schema_id
        assert registry.stats()["compiles"] == 2


class TestConcurrentCompileDedup:
    def test_racing_registrations_compile_once(self, monkeypatch):
        registry = SchemaRegistry(capacity=4)
        started = threading.Barrier(8)
        compile_calls = []
        real_compile = registry_mod.compile_schema

        def slow_compile(schema, **kwargs):
            compile_calls.append(threading.get_ident())
            threading.Event().wait(0.05)  # hold the in-flight window open
            return real_compile(schema, **kwargs)

        monkeypatch.setattr(registry_mod, "compile_schema", slow_compile)
        schema = example_2_6()

        def race():
            started.wait()
            return registry.register(schema)

        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(pool.map(lambda _: race(), range(8)))
        assert len(compile_calls) == 1
        assert all(handle is handles[0] for handle in handles)
        stats = registry.stats()
        assert stats["compiles"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 7
