"""Compare two result sets of the benchmark: parent against change.

Usage::

    python3 wirebench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files of result records (``run.py --out FILE``
appends one JSON line per run) or directories of such files.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the share of pairs the change won (runs are
paired by seed, ties count for neither side) and a verdict:

* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``better`` — the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``unresolved`` — the parent's quartile spread is wider than the bound
  and not every change run beats every parent run;
* ``within`` — none of these: no regression beyond the bound, no gain.

Pairs whose runs had different input digests are reported, since they
did not run identical inputs.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles


def load(path: Path) -> list[dict]:
    """Every untraced result record under *path* (a file or a directory)."""
    files = sorted(path.rglob("*.jsonl")) + sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and record.get("trace") == 0 and "workload" in record:
                records.append(record)
    return records


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher: bool, bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won by the change)."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    won = sum(1 for p, c in pairs if _better(c, p, higher))
    share = won / len(pairs) if pairs else 0.0
    worse_by = (pmed - cmed if higher else cmed - pmed) / abs(pmed) if pmed else 0.0
    if worse_by > bound:
        return "worse", share
    if share >= 0.9 and _better(cmed, pmed, higher) and abs(cmed - pmed) > p3 - p1:
        return "better", share
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(_better(c, p, higher) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    return "within", share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    sides = {"parent": load(args.parent), "change": load(args.change)}
    grouped: dict[str, dict[str, list[dict]]] = {"parent": defaultdict(list), "change": defaultdict(list)}
    for side, records in sides.items():
        for record in records:
            grouped[side][record["workload"]].append(record)

    header = f"{'workload':<15} {'metric':<14} {'parent median [Q1, Q3] (n)':<36} " \
             f"{'change median [Q1, Q3] (n)':<36} {'won':>5}  verdict"
    print(header)
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        parent_runs, change_runs = grouped["parent"].get(workload), grouped["change"].get(workload)
        if not parent_runs or not change_runs:
            print(f"{workload:<15} (missing on {'parent' if not parent_runs else 'change'})")
            continue
        by_seed = {r["seed"]: r for r in parent_runs}
        matched = [(by_seed[r["seed"]], r) for r in change_runs if r["seed"] in by_seed]
        if not matched:
            matched = list(zip(parent_runs, change_runs))
        for p, c in matched:
            if p["env"].get("inputs_digest") != c["env"].get("inputs_digest"):
                print(f"{workload:<15} note: seed {p['seed']} / {c['seed']} ran different inputs")
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [r["metrics"][name]["value"] for r in parent_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in matched]
            result, share = verdict(parent, change, pairs, higher, metric["bound"])
            worse = worse or result == "worse"
            cells = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
            print(f"{workload:<15} {name:<14} {cells[0]:<36} {cells[1]:<36} {share:>5.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
