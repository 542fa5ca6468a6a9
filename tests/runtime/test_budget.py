"""Unit tests for the resource governor (:mod:`repro.runtime.budget`)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import BudgetExceededError, ReproError
from repro.runtime import (
    Budget,
    BudgetProgress,
    CancellationToken,
    budget_phase,
    current_budget,
    resolve_budget,
)


class TestConstruction:
    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        budget.charge_states(10_000)
        budget.tick(1_000_000)
        budget.check()
        assert budget.states == 10_000
        # charge_states also counts one step per state
        assert budget.steps == 1_010_000

    def test_invalid_check_interval(self):
        with pytest.raises(ValueError):
            Budget(check_interval=3)
        with pytest.raises(ValueError):
            Budget(check_interval=0)

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_states=-1)
        with pytest.raises(ValueError):
            Budget(timeout=-0.5)

    def test_nan_timeout_rejected(self):
        # NaN passes a `timeout < 0` test and would switch the deadline off.
        with pytest.raises(ValueError):
            Budget(timeout=float("nan"))
        assert Budget(timeout=float("inf")).deadline == float("inf")

    def test_deadline_overrides_timeout(self):
        deadline = time.monotonic() + 100.0
        budget = Budget(timeout=1.0, deadline=deadline)
        assert budget.deadline == deadline


class TestLimits:
    def test_max_states_trips_with_progress(self):
        budget = Budget(max_states=5)
        budget.charge_states(5)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.charge_states(1, frontier=7)
        error = exc_info.value
        assert error.reason == "max-states"
        assert error.limit == 5
        assert error.progress.states_explored == 6
        assert error.progress.frontier_size == 7
        assert error.progress.elapsed_seconds >= 0

    def test_max_steps_trips(self):
        budget = Budget(max_steps=10)
        budget.tick(10)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(1)
        assert exc_info.value.reason == "max-steps"
        assert exc_info.value.progress.steps == 11

    def test_deadline_trips(self):
        budget = Budget(timeout=0.0, check_interval=1)
        time.sleep(0.002)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(1)
        assert exc_info.value.reason == "deadline"

    def test_deadline_checked_only_at_interval(self):
        budget = Budget(timeout=0.0, check_interval=1024)
        time.sleep(0.002)
        # Ticks below the interval boundary skip the clock check entirely.
        for _ in range(1023):
            budget.tick(1)
        with pytest.raises(BudgetExceededError):
            budget.tick(1)

    def test_check_runs_expensive_checks_unconditionally(self):
        budget = Budget(timeout=0.0)
        time.sleep(0.002)
        with pytest.raises(BudgetExceededError):
            budget.check()

    def test_memory_watermark(self):
        # 1 byte is below any real RSS, so this must trip immediately.
        budget = Budget(max_memory_bytes=1, check_interval=1)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(1)
        assert exc_info.value.reason == "memory"

    def test_remaining_time(self):
        assert Budget().remaining_time() is None
        budget = Budget(timeout=100.0)
        remaining = budget.remaining_time()
        assert 99.0 < remaining <= 100.0


class TestCancellation:
    def test_token_cancel(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled

    def test_cancel_trips_budget(self):
        token = CancellationToken()
        budget = Budget(cancel=token, check_interval=1)
        budget.tick(5)
        token.cancel()
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(1)
        assert exc_info.value.reason == "cancelled"

    def test_cancel_from_other_thread(self):
        token = CancellationToken()
        budget = Budget(cancel=token, check_interval=1)
        tripped = threading.Event()

        def worker():
            try:
                while True:
                    budget.tick(1)
            except BudgetExceededError:
                tripped.set()

        thread = threading.Thread(target=worker)
        thread.start()
        token.cancel()
        thread.join(timeout=5)
        assert tripped.is_set()


class TestContextDefault:
    def test_no_ambient_budget(self):
        assert current_budget() is None
        assert resolve_budget(None) is None

    def test_context_manager_installs_and_removes(self):
        budget = Budget(max_states=10)
        with budget:
            assert current_budget() is budget
            assert resolve_budget(None) is budget
        assert current_budget() is None

    def test_explicit_argument_wins(self):
        ambient = Budget(max_states=10)
        explicit = Budget(max_states=20)
        with ambient:
            assert resolve_budget(explicit) is explicit

    def test_nesting_restores_outer(self):
        outer, inner = Budget(), Budget()
        with outer:
            with inner:
                assert current_budget() is inner
            assert current_budget() is outer

    def test_not_reentrant(self):
        budget = Budget()
        with budget:
            with pytest.raises(ReproError):
                with budget:
                    pass  # pragma: no cover

    def test_usable_again_after_exit(self):
        budget = Budget()
        with budget:
            pass
        with budget:
            assert current_budget() is budget


class TestProgressAndPhases:
    def test_progress_snapshot(self):
        budget = Budget()
        budget.charge_states(3)
        budget.tick(4)
        progress = budget.progress(frontier=2)
        assert isinstance(progress, BudgetProgress)
        assert progress.states_explored == 3
        assert progress.steps == 7
        assert progress.frontier_size == 2
        assert "3 states explored" in progress.describe()

    def test_budget_phase_labels_errors(self):
        budget = Budget(max_steps=1)
        with budget_phase(budget, "outer"):
            with budget_phase(budget, "inner"):
                with pytest.raises(BudgetExceededError) as exc_info:
                    budget.tick(2)
            assert budget.phase == "outer"
        assert budget.phase is None
        assert exc_info.value.progress.phase == "inner"

    def test_budget_phase_noop_without_budget(self):
        with budget_phase(None, "anything"):
            pass

    def test_lazy_checkpoint_factory_called_at_trip(self):
        calls = []

        def factory():
            calls.append(1)
            return "snapshot"

        budget = Budget(max_steps=100)
        budget.tick(50, checkpoint=factory)
        assert not calls  # not materialized while within budget
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(51, checkpoint=factory)
        assert calls == [1]
        assert exc_info.value.checkpoint == "snapshot"

    def test_error_message_is_one_line(self):
        budget = Budget(max_steps=1)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(2)
        assert "\n" not in str(exc_info.value)
        assert "budget exceeded (max-steps)" in str(exc_info.value)
