"""Golden-fixture coverage for the whole-program rules R008, R010, R011.

Every rule is exercised both ways: a fixture that *fires* and the
matching suppress path (``# ungoverned:`` for R008, a reasoned
``# repro-lint: disable=RXXX`` pragma for the rest), plus the silent
"actually fine" variants (governed loop, complete key, matching twins).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "interproc"


@pytest.fixture(scope="module")
def findings():
    return analyze_paths([FIXTURES])


def _rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestR008GovernanceEscape:
    def test_fires_on_reachable_ungoverned_loop(self, findings):
        hits = _rule(findings, "R008")
        assert len(hits) == 1
        (hit,) = hits
        assert hit.path.endswith("api.py")
        assert "reachable from public entry point(s) run" in hit.message
        # The finding points at the loop inside the *private* helper the
        # public entry delegates to — that is the whole point of R008.
        assert hit.context == "_drain"

    def test_ungoverned_pragma_suppresses(self, findings):
        assert not any(
            f.context == "_drain_marked" for f in _rule(findings, "R008")
        )

    def test_disable_pragma_suppresses(self, findings):
        assert not any(
            f.context == "_drain_waived" for f in _rule(findings, "R008")
        )

    def test_budgeted_loop_is_silent(self, findings):
        assert not any(
            f.context == "_drain_governed" for f in _rule(findings, "R008")
        )

    def test_unreachable_loop_is_silent(self, findings):
        assert not any(
            f.context == "_never_called" for f in _rule(findings, "R008")
        )


class TestR010CacheKeyCompleteness:
    def test_fires_when_key_drops_a_parameter(self, findings):
        hits = _rule(findings, "R010")
        assert len(hits) == 1
        (hit,) = hits
        assert hit.path.endswith("kernels.py")
        assert "flag" in hit.message
        assert "language" not in hit.message  # reached via the key tuple

    def test_complete_key_and_waiver_are_silent(self, findings):
        # `cached_good` routes every behavior-affecting parameter through
        # a local into the key; `cached_waived` documents the omission.
        assert len(_rule(findings, "R010")) == 1


class TestR011TwinDrift:
    def test_fires_on_missing_governed_keyword(self, findings):
        hits = [
            f
            for f in _rule(findings, "R011")
            if "missing checkpoint=" in f.message
        ]
        assert len(hits) == 1
        assert "collapse" in hits[0].message

    def test_fires_on_positional_budget(self, findings):
        hits = [
            f
            for f in _rule(findings, "R011")
            if "must be keyword-only" in f.message
        ]
        assert len(hits) == 1
        assert "shift" in hits[0].message

    def test_matching_twins_and_waiver_are_silent(self, findings):
        assert len(_rule(findings, "R011")) == 2


def test_fixture_dir_total(findings):
    """Exactly the four designed findings — nothing else fires."""
    assert len(findings) == 4
