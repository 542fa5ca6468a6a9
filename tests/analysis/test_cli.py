"""CLI behaviour: exit codes, JSON report shape, baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "strings" / "r001_bad.py"
GOOD = FIXTURES / "strings" / "r001_good.py"


class TestExitCodes:
    def test_findings_exit_1(self, capsys):
        assert main([str(BAD), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "3 new findings" in out

    def test_clean_exit_0(self, capsys):
        assert main([str(GOOD), "--no-baseline"]) == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, capsys):
        try:
            main(["definitely/not/a/path.py"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("expected SystemExit")


class TestJsonReport:
    def test_report_shape(self, capsys):
        assert main([str(BAD), "--no-baseline", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["summary"]["new"] == 3
        assert report["summary"]["suppressed"] == 0
        first = report["findings"][0]
        assert first["rule"] == "R001"
        assert first["severity"] == "error"
        assert first["path"].endswith("r001_bad.py")
        assert first["hint"]


class TestSelect:
    def test_select_restricts_rules(self, capsys):
        mixed = FIXTURES / "strings" / "r003_bad.py"
        assert main([str(mixed), "--no-baseline", "--select", "R001"]) == 0
        capsys.readouterr()
        assert main([str(mixed), "--no-baseline", "--select", "R003"]) == 1

    def test_unknown_rule_is_a_usage_error(self):
        try:
            main([str(BAD), "--select", "R999"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("expected SystemExit")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008", "R010", "R011",
        ]


class TestBaselineWorkflow:
    def test_update_then_clean_then_stale(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        # 1. Grandfather the current findings.
        assert main([str(BAD), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # 2. Same findings are now suppressed.
        assert main([str(BAD), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out
        # 3. Against a clean file every entry is stale: reported AND the run
        # fails — a rotted suppression list must not pass silently.
        assert main([str(GOOD), "--baseline", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "stale baseline" in captured.err

    def test_update_baseline_entries_need_justification(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main([str(BAD), "--baseline", str(baseline), "--update-baseline"])
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert all(e["justification"] == "TODO: justify" for e in payload["entries"])

    def test_update_baseline_on_clean_tree_writes_empty_baseline(
        self, tmp_path, capsys
    ):
        # Grandfathering a clean tree must pin an *empty* baseline (the
        # src-clean gate relies on this), and the empty baseline must
        # behave exactly like no baseline afterwards.
        baseline = tmp_path / "baseline.json"
        assert main([str(GOOD), "--baseline", str(baseline), "--update-baseline"]) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["entries"] == []
        capsys.readouterr()
        assert main([str(GOOD), "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main([str(BAD), "--baseline", str(baseline)]) == 1


class TestPragmaRejection:
    LOOP = (
        "def drain(queue):\n"
        "    while queue:  {pragma}\n"
        "        queue.pop()\n"
    )

    def test_reasonless_disable_does_not_suppress(self):
        from repro.analysis import analyze_source

        findings = analyze_source(
            self.LOOP.format(pragma="# repro-lint: disable=R001"),
            "strings/worklist.py",
        )
        assert [f.rule for f in findings] == ["R001"]

    def test_reasoned_disable_suppresses(self):
        from repro.analysis import analyze_source

        findings = analyze_source(
            self.LOOP.format(pragma="# repro-lint: disable=R001 -- caller bounds it"),
            "strings/worklist.py",
        )
        assert findings == []

    def test_rejected_pragma_is_recorded_for_tooling(self):
        from repro.analysis import ModuleContext

        ctx = ModuleContext.from_source(
            self.LOOP.format(pragma="# repro-lint: disable=R001"),
            Path("strings/worklist.py"),
        )
        assert ctx.rejected_pragmas == [
            (2, "# repro-lint: disable=R001"),
        ]
