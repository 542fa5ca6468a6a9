"""repro — single-type (XSD) approximations of regular tree languages.

Reproduction of Gelade, Idziaszek, Martens, Neven, Paredaens:
*Simplifying XML Schema: Single-Type Approximations of Regular Tree
Languages* (PODS 2010).

Quickstart::

    from repro import SingleTypeEDTD, upper_union, parse_tree

    orders = SingleTypeEDTD(
        alphabet={"order", "item"},
        types={"o", "i"},
        rules={"o": "i+", "i": "~"},
        starts={"o"},
        mu={"o": "order", "i": "item"},
    )
    invoices = SingleTypeEDTD(
        alphabet={"order", "item", "paid"},
        types={"o", "i", "p"},
        rules={"o": "i+, p"},
        starts={"o"},
        mu={"o": "order", "i": "item", "p": "paid"},
    )
    merged = upper_union(orders, invoices)   # unique minimal upper approx
    merged.accepts(parse_tree("order(item, item)"))

Subpackages
-----------
``repro.strings``
    Regular string languages: NFAs, DFAs, the paper's regex grammar,
    Glushkov automata, determinization, minimization.
``repro.trees``
    Unranked trees, contexts, forks, binary encodings, enumeration /
    counting / sampling of EDTD languages.
``repro.schemas``
    DTDs, EDTDs, single-type EDTDs, DFA-based XSDs, type automata,
    PTIME inclusion (Lemma 3.3), stEDTD minimization.
``repro.tree_automata``
    Unranked and binary tree automata; exact EXPTIME EDTD inclusion.
``repro.closure``
    Ancestor-(type-)guarded subtree exchange, closures, derivation trees.
``repro.core``
    The contribution: minimal upper and maximal lower XSD-approximations
    and the associated decision procedures.
``repro.families``
    The paper's lower-bound families and random schema generators.
``repro.api``
    The stable high-level facade: :func:`compile_schema` produces a
    frozen :class:`CompiledSchema` handle that pays for reduction,
    fingerprints, and hot validation tables once; its methods — and the
    source-compatible free functions :func:`approximate_upper`,
    :func:`approximate_lower`, :func:`definability`,
    :func:`schema_includes`, :func:`schema_equivalent`, :func:`validate`
    — each return a frozen result object carrying the answer plus the
    :class:`~repro.observability.Trace` and budget usage of the call.
    Facade-wide defaults live in the frozen :class:`Settings`
    (:func:`configured` / :func:`configure`).
``repro.service``
    Long-lived asyncio validation/approximation service: a bounded
    LRU :class:`~repro.service.SchemaRegistry` of compiled handles and
    a newline-delimited-JSON TCP server with per-request budgets; see
    ``docs/SERVICE.md``.
``repro.observability``
    Zero-dependency structured tracing (span trees) and metrics for every
    governed construction; see ``docs/OBSERVABILITY.md``.
``repro.cache``
    Crash-safe persistent artifact cache for compiled DFAs and
    approximation schemas; see ``docs/CACHING.md``.
``repro.faults``
    Deterministic fault injection for the chaos test harness; see
    ``docs/ROBUSTNESS.md``.
"""

from repro.api import (
    ApproximationResult,
    BudgetUsage,
    CompiledSchema,
    DefinabilityReport,
    InclusionResult,
    Settings,
    ValidationResult,
    approximate_lower,
    approximate_upper,
    compile_schema,
    configure,
    configured,
    definability,
    schema_equivalent,
    schema_includes,
    validate,
)
from repro.core import (
    Definability,
    DefinabilityResult,
    difference_witness,
    greedy_maximal_lower,
    inclusion_counterexample,
    is_lower_approximation,
    is_maximal_lower_approximation,
    is_minimal_upper_approximation,
    is_single_type_definable,
    is_upper_approximation,
    lower_quality,
    maximal_lower_union,
    minimal_upper_approximation,
    non_violating,
    single_type_definability,
    upper_complement,
    upper_difference,
    upper_intersection,
    upper_quality,
    upper_union,
)
from repro.errors import (
    AutomatonError,
    BudgetExceededError,
    NotSingleTypeError,
    RegexSyntaxError,
    ReproError,
    SchemaError,
    TreeSyntaxError,
    ValidationError,
)
from repro.runtime import (
    Budget,
    BudgetProgress,
    CancellationToken,
    current_budget,
)
from repro.schemas import (
    DTD,
    EDTD,
    DFAXSD,
    SingleTypeEDTD,
    complement_edtd,
    difference_edtd,
    edtd_intersection,
    edtd_union,
    included_in_single_type,
    is_single_type,
    minimize_single_type,
    single_type_equivalent,
    type_automaton,
)
from repro.cache import ArtifactCache
from repro.errors import CacheError, InjectedFaultError
from repro.observability import METRICS, Span, Trace
from repro.trees import Tree, parse_tree, unary_tree

__version__ = "1.0.0"

__all__ = [
    "ApproximationResult",
    "ArtifactCache",
    "AutomatonError",
    "Budget",
    "BudgetUsage",
    "BudgetExceededError",
    "BudgetProgress",
    "CacheError",
    "CancellationToken",
    "CompiledSchema",
    "DFAXSD",
    "DTD",
    "Definability",
    "DefinabilityReport",
    "DefinabilityResult",
    "EDTD",
    "InclusionResult",
    "InjectedFaultError",
    "Settings",
    "METRICS",
    "Span",
    "Trace",
    "ValidationResult",
    "approximate_lower",
    "approximate_upper",
    "compile_schema",
    "configure",
    "configured",
    "current_budget",
    "definability",
    "schema_equivalent",
    "schema_includes",
    "single_type_definability",
    "validate",
    "NotSingleTypeError",
    "RegexSyntaxError",
    "ReproError",
    "SchemaError",
    "SingleTypeEDTD",
    "Tree",
    "TreeSyntaxError",
    "ValidationError",
    "complement_edtd",
    "difference_edtd",
    "edtd_intersection",
    "edtd_union",
    "included_in_single_type",
    "is_lower_approximation",
    "is_maximal_lower_approximation",
    "is_minimal_upper_approximation",
    "is_single_type",
    "is_single_type_definable",
    "is_upper_approximation",
    "lower_quality",
    "maximal_lower_union",
    "minimal_upper_approximation",
    "minimize_single_type",
    "non_violating",
    "parse_tree",
    "single_type_equivalent",
    "type_automaton",
    "unary_tree",
    "upper_complement",
    "upper_difference",
    "upper_intersection",
    "upper_quality",
    "upper_union",
    "difference_witness",
    "greedy_maximal_lower",
    "inclusion_counterexample",
    "__version__",
]
