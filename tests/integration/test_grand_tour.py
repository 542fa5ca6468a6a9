"""A grand tour: one scenario exercising the whole public API in order.

Living documentation — each step uses the API exactly as a downstream user
would, with assertions pinning the observable behaviour.  The scenario: a
data-integration team merges two partner feeds, ships an XSD, diffs the
versions, rolls out safely, and audits the approximation.
"""

from __future__ import annotations

import random

from repro import (
    EDTD,
    SingleTypeEDTD,
    edtd_union,
    included_in_single_type,
    inclusion_counterexample,
    is_minimal_upper_approximation,
    is_single_type,
    is_single_type_definable,
    maximal_lower_union,
    minimal_upper_approximation,
    minimize_single_type,
    parse_tree,
    single_type_equivalent,
    upper_quality,
    upper_union,
    validate,
)
from repro.core import check_compatibility, merge_all, merge_report
from repro.schemas import events_of_tree, export_xsd, import_xsd, validate_events
from repro.schemas.text_format import dumps, loads
from repro.trees.generate import sample_tree
from repro.trees.xml_io import from_xml, to_xml


def partner_a() -> SingleTypeEDTD:
    return loads(
        """
        start: f
        f [feed]  -> e*
        e [entry] -> t, m?
        t [title] -> ~
        m [media] -> ~
        """
    )


def partner_b() -> SingleTypeEDTD:
    return loads(
        """
        start: f
        f [feed]  -> e+
        e [entry] -> t, l
        t [title] -> ~
        l [link]  -> ~
        """
    )


def test_grand_tour(tmp_path):
    a, b = partner_a(), partner_b()
    assert is_single_type(a) and is_single_type(b)

    # --- 1. The union is not an XSD; build the optimal one. --------------
    union = edtd_union(a, b)
    assert isinstance(union, EDTD)
    assert not is_single_type_definable(union)
    portal = minimize_single_type(upper_union(a, b))
    assert is_minimal_upper_approximation(portal, union)
    assert included_in_single_type(a, portal)
    assert included_in_single_type(b, portal)

    # --- 2. Quantify and exhibit the slack. ------------------------------
    quality = upper_quality(union, portal, max_size=8)
    assert quality.total_slack() > 0  # mixed-entry feeds are the price
    mixed = from_xml(
        "<feed><entry><title/><media/></entry>"
        "<entry><title/><link/></entry></feed>"
    )
    assert portal.accepts(mixed) and not union.accepts(mixed)
    report = merge_report(a, b, left_name="A", right_name="B")
    assert "not** expressible" in report or "**not** expressible" in report

    # --- 3. Ship it: text format, W3C XSD, round trips. ------------------
    schema_file = tmp_path / "portal.schema"
    schema_file.write_text(dumps(portal))
    assert single_type_equivalent(loads(schema_file.read_text()), portal)
    xsd_document = export_xsd(portal)
    assert single_type_equivalent(import_xsd(xsd_document), portal)

    # --- 4. Validate documents three ways. --------------------------------
    doc = from_xml("<feed><entry><title/><link/></entry></feed>")
    assert portal.accepts(doc)
    assert validate(portal, to_xml(doc)).valid
    assert validate_events(portal, events_of_tree(doc))
    assert from_xml(to_xml(doc)) == doc

    # --- 5. Compatibility story for partner A's consumers. ----------------
    compat = check_compatibility(a, portal)
    assert compat.backward_compatible       # every A document stays valid
    assert compat.new_only is not None      # portal admits more
    assert portal.accepts(compat.new_only) and not a.accepts(compat.new_only)
    assert inclusion_counterexample(portal, a) is not None

    # --- 6. Conservative roll-out: maximal lower approximation. -----------
    rollout = minimize_single_type(maximal_lower_union(a, b))
    assert included_in_single_type(a, rollout)
    assert included_in_single_type(rollout, portal)

    # --- 7. A third partner joins: n-ary merge, order-independent. --------
    c = loads(
        """
        start: f
        f [feed]  -> e*
        e [entry] -> t
        t [title] -> ~
        """
    )
    merged_abc = merge_all([a, b, c])
    merged_cba = merge_all([c, b, a])
    assert single_type_equivalent(merged_abc, merged_cba)
    for partner in (a, b, c):
        assert included_in_single_type(partner, merged_abc)

    # --- 8. Fuzz the final artifact with sampled documents. ---------------
    rng = random.Random(2026)
    for _ in range(10):
        document = sample_tree(merged_abc, rng, target_size=12)
        assert merged_abc.accepts(document)
        assert validate_events(merged_abc, events_of_tree(document))

    # --- 9. And the paper's fixed point: approximating an XSD is free. ----
    assert single_type_equivalent(
        minimal_upper_approximation(merged_abc), merged_abc
    )
