"""Schema formalisms: DTDs, EDTDs, single-type EDTDs, DFA-based XSDs."""

from repro.schemas.dfa_xsd import DFAXSD, from_single_type
from repro.schemas.dtd import DTD
from repro.schemas.edtd import EDTD
from repro.schemas.inclusion import included_in_single_type, single_type_equivalent
from repro.schemas.measures import RepresentationSizes, representation_sizes
from repro.schemas.minimize import minimize_single_type, type_minimal_size
from repro.schemas.ops import (
    complement_edtd,
    difference_edtd,
    edtd_intersection,
    edtd_union,
    st_intersection,
)
from repro.schemas.recursion import depth_bound, is_depth_bounded_by, is_non_recursive
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.schemas.streaming import validate_events, validate_xml_stream
from repro.schemas.text_format import dumps as dumps_schema, loads as loads_schema
from repro.schemas.xsd_export import export_xsd
from repro.schemas.xsd_import import import_xsd
from repro.schemas.type_automaton import Q_INIT, assignable_types, is_single_type, type_automaton
from repro.trees.xml_io import events_of_tree

__all__ = [
    "DFAXSD",
    "DTD",
    "EDTD",
    "Q_INIT",
    "SingleTypeEDTD",
    "assignable_types",
    "complement_edtd",
    "depth_bound",
    "dumps_schema",
    "is_depth_bounded_by",
    "is_non_recursive",
    "loads_schema",
    "difference_edtd",
    "edtd_intersection",
    "edtd_union",
    "from_single_type",
    "included_in_single_type",
    "is_single_type",
    "RepresentationSizes",
    "minimize_single_type",
    "representation_sizes",
    "single_type_equivalent",
    "events_of_tree",
    "export_xsd",
    "import_xsd",
    "validate_events",
    "validate_xml_stream",
    "st_intersection",
    "type_automaton",
    "type_minimal_size",
]
