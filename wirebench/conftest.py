"""Make ``python3 -m pytest wirebench`` find the program and the benchmark
modules (the benchmark's modules import each other as top-level modules,
the way ``python3 wirebench/run.py`` runs them)."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
