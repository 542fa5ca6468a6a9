"""Tree automata: unranked NTAs, binary TAs, exact EDTD decision procedures."""

from repro.tree_automata.bta import BTA
from repro.tree_automata.inclusion import (
    bta_difference_empty,
    bta_from_edtd,
    edtd_equivalent,
    edtd_includes,
    edtd_universal,
    universal_edtd,
)
from repro.tree_automata.kernels import cached_bta_determinize, cached_bta_from_edtd
from repro.tree_automata.monoid import (
    FiniteMonoid,
    MonoidForestAutomaton,
    forest_automaton_for_child_language,
    monoid_from_edtd,
    transition_monoid_from_dfa,
)
from repro.tree_automata.nta import NTA, edtd_from_nta, nta_from_edtd
from repro.tree_automata.schema_guided import (
    GuidedBTADetCheckpoint,
    bta_determinize_guided,
    bta_guide_from_edtd,
    universal_bta_guide,
)

__all__ = [
    "BTA",
    "GuidedBTADetCheckpoint",
    "FiniteMonoid",
    "MonoidForestAutomaton",
    "forest_automaton_for_child_language",
    "monoid_from_edtd",
    "transition_monoid_from_dfa",
    "NTA",
    "bta_determinize_guided",
    "bta_difference_empty",
    "bta_from_edtd",
    "bta_guide_from_edtd",
    "cached_bta_determinize",
    "universal_bta_guide",
    "cached_bta_from_edtd",
    "edtd_equivalent",
    "edtd_from_nta",
    "edtd_includes",
    "edtd_universal",
    "nta_from_edtd",
    "universal_edtd",
]
