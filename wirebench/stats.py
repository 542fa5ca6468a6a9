"""Percentiles, quartiles and the provenance (``env``) block of a result."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``inf`` counts: a
    failed operation misses every latency limit)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest(root: Path) -> str:
    """sha256 over every file of ``src/`` (path and bytes), so a result
    names the program that produced it even outside a git checkout."""
    hasher = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def environment(root: Path, seed: int, inputs_digest: str) -> dict:
    """The provenance block every result carries."""
    import numpy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "source_digest": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "inputs_digest": inputs_digest,
    }
