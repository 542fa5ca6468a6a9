"""Regular string-language substrate (Section 2.1 of the paper).

Public API:

* :class:`~repro.strings.nfa.NFA`, :class:`~repro.strings.dfa.DFA`
* :func:`~repro.strings.determinize.determinize`
* :func:`~repro.strings.minimize.minimize_dfa`, :func:`~repro.strings.minimize.moore_partition`
* :mod:`~repro.strings.regex` — the paper's RE grammar + parser
* :func:`~repro.strings.glushkov.glushkov_nfa` — state-labeled NFAs
* :mod:`~repro.strings.ops` — coercions and decision procedures
* :mod:`~repro.strings.builders` — the paper's concrete languages
* :mod:`~repro.strings.kernels` — integer-coded bitmask hot loops and the
  structural memo cache (see ``docs/PERFORMANCE.md``)
* :mod:`~repro.strings.schema_guided` — schema-guided pruned
  determinization (``determinize(..., strategy="schema-guided")``)
"""

from repro.strings.derivatives import derivative, dfa_from_regex, matches, normalize
from repro.strings.determinize import determinize
from repro.strings.dfa import DFA
from repro.strings.glushkov import glushkov_nfa, is_deterministic_expression
from repro.strings.kernels import (
    cache_stats,
    cached_min_dfa,
    clear_caches,
    hopcroft_refine,
    nfa_includes,
    structural_key,
    subset_construction,
)
from repro.strings.minimize import minimal_dfa_equal, minimize_dfa, moore_partition
from repro.strings.nfa import NFA
from repro.strings.ops import (
    as_dfa,
    as_min_dfa,
    as_nfa,
    count_words_by_length,
    enumerate_words,
    equivalent,
    includes,
    is_empty,
    is_universal,
    sample_word,
    shortest_word,
)
from repro.strings.regex import (
    EMPTY,
    EPSILON,
    Regex,
    concat,
    parse,
    sym,
    union,
)
from repro.strings.schema_guided import (
    SchemaGuidedCheckpoint,
    depth_guide,
    guided_subset_construction,
    universal_guide,
)

__all__ = [
    "DFA",
    "EMPTY",
    "EPSILON",
    "NFA",
    "Regex",
    "SchemaGuidedCheckpoint",
    "as_dfa",
    "as_min_dfa",
    "as_nfa",
    "cache_stats",
    "cached_min_dfa",
    "clear_caches",
    "concat",
    "depth_guide",
    "guided_subset_construction",
    "universal_guide",
    "count_words_by_length",
    "derivative",
    "determinize",
    "dfa_from_regex",
    "matches",
    "normalize",
    "enumerate_words",
    "equivalent",
    "glushkov_nfa",
    "hopcroft_refine",
    "includes",
    "is_deterministic_expression",
    "is_empty",
    "is_universal",
    "minimal_dfa_equal",
    "minimize_dfa",
    "moore_partition",
    "nfa_includes",
    "parse",
    "sample_word",
    "shortest_word",
    "structural_key",
    "subset_construction",
    "sym",
    "union",
]
