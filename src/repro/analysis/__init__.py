"""repro-lint: AST- and call-graph-based invariant checking for this repo.

The paper's constructions are worst-case exponential, which is why PR 1
threaded :class:`repro.runtime.Budget` through every closure / determinize
/ inclusion loop and PR 2 split the hot paths into integer-coded kernels
with ``*_reference`` differential oracles.  This package makes those
contracts — plus the determinism and error-taxonomy conventions the
regression suite pins — mechanically checkable on every commit.

Rules R001–R007 are per-file AST checks.  Rules R008, R010 and R011 are
*whole-program*: they run on a call graph built over every analyzed
module (:mod:`repro.analysis.callgraph`).

========  =========================  ==========================================
Rule      Name                       Invariant
========  =========================  ==========================================
``R001``  governed-loop              worklist/fixpoint loops in governed
                                     packages charge the Budget (or carry an
                                     explicit ``# ungoverned:`` marker)
``R002``  deterministic-iteration    no hash-order iteration where state
                                     numbers are assigned or output is emitted
``R003``  kernel-boundary            frozenset-of-frozensets hot loops stay
                                     inside ``kernels.py`` / ``*_reference``
``R004``  error-taxonomy             no bare/broad excepts; only the
                                     ``repro.errors`` taxonomy crosses the API
``R005``  frozen-mutation            no attribute assignment on frozen
                                     dataclass instances outside sanctioned
                                     factories
``R006``  api-signature              public construction entry points declare
                                     the governed trio as trailing
                                     keyword-only parameters
``R007``  fault-swallowing           no silently discarded failures; map,
                                     record, or quarantine them
``R008``  governance-escape          no path from a public ``repro.api``/CLI
                                     entry point to an unbudgeted worklist
                                     loop, wherever the loop lives
``R010``  cache-key-completeness     memo-cache entry points key on every
                                     behavior-affecting parameter
``R011``  twin-drift                 ``*_reference`` oracles keep the same
                                     keyword-only governed surface as their
                                     kernel twins
========  =========================  ==========================================

Run it as ``python -m repro.analysis [paths]`` (see ``--help``).  The
pytest-importable API is :func:`analyze_paths` / :func:`analyze_source`
plus :func:`~repro.analysis.baseline.apply_baseline`, and the
program-level surface is :class:`~repro.analysis.callgraph.Program`.
``docs/ANALYSIS.md`` has the full catalog, pragma syntax, and baseline
workflow.
"""

from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    BaselineResult,
    apply_baseline,
)
from repro.analysis.callgraph import FunctionNode, ModuleInfo, Program
from repro.analysis.engine import (
    ModuleContext,
    ProgramRule,
    Rule,
    analyze_contexts,
    analyze_paths,
    analyze_source,
    collect_files,
    default_rules,
    load_contexts,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.interproc import (
    PROGRAM_RULES,
    CacheKeyCompletenessRule,
    GovernanceEscapeRule,
    TwinDriftRule,
)
from repro.analysis.rules import (
    ALL_RULES,
    ApiSignatureRule,
    DeterministicIterationRule,
    ErrorTaxonomyRule,
    FaultSwallowRule,
    FrozenMutationRule,
    GovernedLoopRule,
    KernelBoundaryRule,
)

__all__ = [
    "ALL_RULES",
    "ApiSignatureRule",
    "Baseline",
    "BaselineEntry",
    "BaselineResult",
    "CacheKeyCompletenessRule",
    "DeterministicIterationRule",
    "ErrorTaxonomyRule",
    "FaultSwallowRule",
    "Finding",
    "FrozenMutationRule",
    "FunctionNode",
    "GovernanceEscapeRule",
    "GovernedLoopRule",
    "KernelBoundaryRule",
    "ModuleContext",
    "ModuleInfo",
    "PROGRAM_RULES",
    "Program",
    "ProgramRule",
    "Rule",
    "Severity",
    "TwinDriftRule",
    "analyze_contexts",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "collect_files",
    "default_rules",
    "load_contexts",
]
