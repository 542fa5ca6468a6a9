"""`Settings` / `configured` / `configure`: facade-wide defaults."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import Settings, configure, configured, current_settings
from repro.runtime import Budget


@pytest.fixture(autouse=True)
def restore_defaults():
    yield
    configure(Settings())


class TestSettings:
    def test_frozen(self):
        settings = Settings(timeout=1.0)
        with pytest.raises(AttributeError):
            settings.timeout = 2.0

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            Settings(strategy="psychic")

    def test_budget_maps_fields(self):
        budget = Settings(timeout=1.5, max_states=10, max_steps=20).budget()
        assert isinstance(budget, Budget)
        assert budget.deadline is not None  # derived from the timeout
        assert budget.max_states == 10
        assert budget.max_steps == 20
        assert Settings().budget().deadline is None


class TestConfigured:
    def test_installs_for_the_extent(self):
        settings = Settings(max_steps=7)
        assert current_settings().max_steps is None
        with configured(settings):
            assert current_settings() is settings
        assert current_settings().max_steps is None

    def test_nests(self):
        outer = Settings(max_steps=1)
        inner = Settings(max_steps=2)
        with configured(outer):
            with configured(inner):
                assert current_settings() is inner
            assert current_settings() is outer

    def test_is_task_local(self):
        async def probe():
            async def child():
                with configured(Settings(max_steps=99)):
                    await asyncio.sleep(0)
                    return current_settings().max_steps

            task = asyncio.create_task(child())
            await asyncio.sleep(0)
            here = current_settings().max_steps
            return here, await task

        here, child_value = asyncio.run(probe())
        assert here is None
        assert child_value == 99


class TestConfigure:
    def test_swaps_process_default_and_returns_previous(self):
        previous = configure(Settings(max_states=5))
        assert current_settings().max_states == 5
        restored = configure(previous)
        assert restored.max_states == 5

    def test_keyword_form_is_rejected(self):
        configure(Settings(max_steps=3))
        with pytest.raises(TypeError):
            configure(timeout=1.0)  # type: ignore[call-arg]
        assert current_settings() == Settings(max_steps=3)

    def test_explicit_settings_do_not_warn(self, recwarn):
        configure(Settings(timeout=1.0))
        assert not [w for w in recwarn if w.category is DeprecationWarning]
