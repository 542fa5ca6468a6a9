"""EXP-A — analyzer self-benchmark: the whole-program lint pass over ``src/``.

The lint CI job runs ``python -m repro.analysis src`` on every push, so
the analyzer's own cost is part of the development loop.  This benchmark
pins it: one full lint pass (R001–R008, R010, R011, which internally
builds the call graph) under a loose wall-clock bound.  The bound is
deliberately generous — machine-noise-proof, catching only
order-of-magnitude regressions (an accidentally quadratic rule, a
call-resolution blow-up), not percent-level drift.

The CI lint job has no pytest installed, so this file runs standalone:

    PYTHONPATH=src python benchmarks/bench_analysis.py

It is also collected by the pytest benchmark sweep.  Override the bound
with ``REPRO_BENCH_ANALYSIS_BUDGET`` (seconds; ``0`` or ``none``
disables the assertion).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Loose default wall bound for the pass, in seconds.  The full pass takes
#: ~2 s on a warm developer machine; 60 s only trips on a complexity
#: regression, never on a slow CI runner.
DEFAULT_BUDGET_SECONDS = 60.0


def _budget_seconds() -> float | None:
    raw = os.environ.get("REPRO_BENCH_ANALYSIS_BUDGET", "").strip().lower()
    if not raw:
        return DEFAULT_BUDGET_SECONDS
    if raw in ("0", "none", "off"):
        return None
    return float(raw)


def run_analysis_benchmark() -> dict:
    """Time one lint pass over ``src/``."""
    from repro.analysis import analyze_contexts, default_rules, load_contexts

    t0 = time.perf_counter()
    ctxs, parse_errors = load_contexts([SRC], root=REPO_ROOT)
    findings = analyze_contexts(ctxs, default_rules())
    lint_seconds = time.perf_counter() - t0
    return {
        "modules": len(ctxs),
        "findings": len(findings),
        "parse_errors": len(parse_errors),
        "lint_seconds": lint_seconds,
    }


def _check(metrics: dict) -> list[str]:
    problems = []
    if metrics["parse_errors"]:
        problems.append(f"{metrics['parse_errors']} files failed to parse")
    budget = _budget_seconds()
    if budget is not None and metrics["lint_seconds"] > budget:
        problems.append(
            f"lint pass took {metrics['lint_seconds']:.1f}s > {budget:.0f}s "
            "budget (REPRO_BENCH_ANALYSIS_BUDGET overrides)"
        )
    return problems


def test_analyzer_within_wall_budget():
    """Pytest entry point: the same standalone measurement, asserted."""
    metrics = run_analysis_benchmark()
    problems = _check(metrics)
    assert not problems, "; ".join(problems)


def main() -> int:
    metrics = run_analysis_benchmark()
    print("EXP-A  analyzer self-benchmark (whole-program pass over src/)")
    print(
        f"  lint pass over {metrics['modules']} modules: "
        f"{metrics['lint_seconds']:6.2f}s  [{metrics['findings']} findings]"
    )
    problems = _check(metrics)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
