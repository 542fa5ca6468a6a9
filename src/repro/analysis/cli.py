"""argparse front end for the repro-lint analysis pass."""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import Baseline, apply_baseline
from repro.analysis.engine import analyze_paths, default_rules

DEFAULT_BASELINE = "analysis-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: AST- and call-graph-based checker for the "
            "repository's governor, kernel, determinism, and cache "
            "invariants (rules R001-R008, R010, R011)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            f"baseline file of grandfathered findings (default: "
            f"{DEFAULT_BASELINE} if it exists in the current directory)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding as new)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (e.g. R001,R004)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.title:28s} [{rule.severity}] {rule.hint}")
        return 0

    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            parser.error(f"unknown rule ids: {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.rule_id in wanted]

    targets = [Path(p) for p in args.paths]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    findings = analyze_paths(targets, rules=rules)

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    baseline: Baseline | None = None
    if not args.no_baseline and baseline_path.exists():
        baseline = Baseline.load(baseline_path)

    if args.update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {len(findings)} baseline entries to {baseline_path}")
        return 0

    result = apply_baseline(findings, baseline)

    if args.format == "json":
        report = {
            "version": 1,
            "findings": [f.to_dict() for f in result.new],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "stale_baseline": [e.to_dict() for e in result.stale],
            "summary": {
                "new": len(result.new),
                "suppressed": len(result.suppressed),
                "stale_baseline": len(result.stale),
            },
        }
        print(json.dumps(report, indent=2))
    else:
        for finding in result.new:
            print(finding.render())
            if finding.hint:
                print(f"    hint: {finding.hint}")
        if result.stale:
            print(
                f"error: {len(result.stale)} stale baseline entr"
                f"{'y matches' if len(result.stale) == 1 else 'ies match'} "
                f"nothing anymore — prune {baseline_path} "
                f"(or rerun with --update-baseline)",
                file=sys.stderr,
            )
        summary = (
            f"{len(result.new)} new finding{'s' if len(result.new) != 1 else ''}"
        )
        if result.suppressed:
            summary += f", {len(result.suppressed)} suppressed by baseline"
        print(summary)

    # Stale baseline entries fail the run too: a rotted suppression list
    # hides real findings behind fingerprints that no longer exist.
    return 1 if (result.new or result.stale) else 0
