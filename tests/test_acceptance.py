"""Acceptance criteria, one test per criterion, exact comparisons only.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and the printed witnesses for the failing codes.
"""

import itertools
from math import comb

import pytest

from rootflags.axioms import (
    check_linkage_axiom,
    check_support_axiom,
    support_matching,
)
from rootflags.checks import (
    check_backward_only_closed_form,
    check_catalan_run_identity,
    check_f_vector,
    check_forest_polynomials,
    check_forward_saturated_delannoy,
    check_lex_refined,
    check_matching_ensembles,
    check_node_enriched_egf,
    check_prefix_refined,
    check_revlex_facets,
    check_revlex_saturated,
    check_simion_facets,
    check_simion_saturated,
    check_transfer_roundtrip,
    check_delannoy_egf_routes,
)
from rootflags.complexes import dimension_face_count, excess_signature, face_table
from rootflags.matchings import construct_matching
from rootflags.rules import (
    ALIASES,
    NEST,
    ClassLabel,
    RuleSet,
    TABLE_ROW_ORDER,
    classify,
    orbit_census,
    orbits,
    valid_rulesets,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_classification():
    """Exactly 34 of 64 codes pass SA+LA at n=5 and at n=6, in 15 orbits with
    the published census; the 30 others fail with a witness."""
    expected = set(valid_rulesets())
    ok = True
    for n in (5, 6):
        passes = []
        failures = []
        for code in range(64):
            rs = RuleSet.from_code(code)
            sa = check_support_axiom(rs, n)
            if sa.passed:
                la = check_linkage_axiom(rs, n)
                if la.passed:
                    passes.append(rs)
                    continue
                failures.append((rs, la.witnesses[0]))
            else:
                failures.append((rs, sa.witnesses[0]))

        ok = ok and set(passes) == expected and len(passes) == 34 and len(failures) == 30
        ok = ok and all(witness is not None for _, witness in failures)
        for rs, witness in failures:
            print(f"  n={n} witness {rs.letters}: {witness.to_json_dict()}")

    census = orbit_census()
    ok = ok and len(orbits()) == 15
    ok = ok and sorted(census[ClassLabel.LEX]) == [1, 1, 2]
    ok = ok and sorted(census[ClassLabel.REVLEX]) == [1, 1, 2]
    ok = ok and census[ClassLabel.SIMION_A] == [2, 2, 2, 2]
    ok = ok and census[ClassLabel.SIMION_B] == [4, 4, 4, 4]
    ok = ok and census[ClassLabel.SIMION_C] == [2]
    report(
        "criterion 1 (classification at n=5 and n=6)",
        ok,
        f"{len(passes)} codes pass SA+LA, {len(failures)} fail with witnesses, "
        f"{len(orbits())} orbits with census lex 3 / revlex 3 / a 4 / b 4 / c 1",
    )


EXPECTED_SIGNATURES = {
    "LEX_NN": "1^6 2^4 3^2 4^4 6^4",
    "LEX_NX": "0^1 1^3 2^7 3^1 4^4 6^4",
    "LEX_XX": "0^2 2^10 4^4 6^4",
    "SIMION_A_NN": "1^5 2^5 3^5 6^5",
    "SIMION_A_XN": "0^1 1^3 2^4 3^5 4^4 6^3",
    "SIMION_A_NX": "1^4 2^4 3^8 6^4",
    "SIMION_A_XX": "0^1 1^2 2^3 3^8 4^4 6^2",
    "SIMION_B_NN": "0^1 1^2 2^5 3^7 4^1 5^1 6^3",
    "SIMION_B_XN": "0^2 1^1 2^5 3^4 4^5 5^1 6^2",
    "SIMION_B_NX": "0^2 1^2 2^1 3^10 4^1 5^2 6^2",
    "SIMION_B_XX": "0^3 1^1 2^1 3^7 4^5 5^2 6^1",
    "SIMION_C": "0^2 2^4 3^8 4^3 5^2 6^1",
    "REVLEX_NN": "0^4 2^4 4^10 6^2",
    "REVLEX_XN": "0^4 2^4 3^1 4^7 5^3 6^1",
    "REVLEX_XX": "0^4 2^4 3^2 4^4 5^6",
}


def test_criterion_2_excess_signatures():
    """Brute-force excess signatures at n=4 equal the 15 published multisets
    verbatim and are pairwise distinct."""
    got = {name: excess_signature(ALIASES[name], 4).runs() for name in TABLE_ROW_ORDER}
    mismatches = [
        (name, got[name], EXPECTED_SIGNATURES[name])
        for name in TABLE_ROW_ORDER
        if got[name] != EXPECTED_SIGNATURES[name]
    ]
    distinct = len(set(got.values())) == 15
    report(
        "criterion 2 (n=4 excess signatures)",
        not mismatches and distinct,
        f"15 published signatures reproduced, pairwise distinct: {distinct}"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_3_f_vector_universality():
    """All 34 codes share the per-dimension counts C(n+k,k) C(n,k) and the
    per-class refined tables for n <= 7."""
    result = check_f_vector(7)
    report("criterion 3 (f-vector universality, n<=7)", result.passed, result.detail)


@pytest.mark.slow
def test_refined_tables_depend_only_on_the_class_at_n11():
    """The paper's claim past the resource cap: the 15 orbit representatives
    share the per-dimension counts C(n+k,k) C(n,k), and their refined tables
    are equal within each class, oriented as in f-vector universality."""
    n = 11
    reference: dict[str, dict] = {}
    for name in TABLE_ROW_ORDER:
        rs = ALIASES[name]
        table = face_table(rs, n, force=True)
        assert table.by_dimension() == {k: dimension_face_count(n, k) for k in range(n + 1)}
        label = classify(rs)
        if label.simion and rs.thth != NEST:
            table = table.transpose()
        counts = reference.setdefault("simion" if label.simion else label.value, table.counts)
        assert table.counts == counts, name
    assert sorted(reference) == ["lex", "revlex", "simion"]


def test_criterion_4_simion_class():
    """Saturated series match the counted tables for every Simion code
    (n <= 7); facet counts match the closed forms for n <= 8 and sum to
    C(2n,n)."""
    series = check_simion_saturated(7)
    facets = check_simion_facets(8)
    report(
        "criterion 4 (Simion class)",
        series.passed and facets.passed,
        f"{series.detail}; {facets.detail}",
    )


def test_criterion_5_revlex_class():
    """Quadruple-sum series matches the counted tables (n <= 7); facet
    formula matches them (n <= 8); the node-enriched EGF matches brute force
    to orders (u,v) <= (4,4) and its two constructions agree."""
    series = check_revlex_saturated(7)
    facets = check_revlex_facets(8)
    egf = check_node_enriched_egf(5)
    routes = check_delannoy_egf_routes(5)
    report(
        "criterion 5 (revlex class)",
        all(r.passed for r in (series, facets, egf, routes)),
        f"{series.detail}; {facets.detail}; {egf.detail}; {routes.detail}",
    )


def test_criterion_6_lex_class():
    """Refined cells equal C(n+k,k) C(n,k)/(k+1) for n <= 7; the Catalan run
    identity holds for k <= 10; mixed-forest polynomials match the counted
    saturated tables for k <= 5."""
    cells = check_lex_refined(7)
    runs = check_catalan_run_identity(10)
    forests = check_forest_polynomials(6)  # k <= 5, tables up to n = 9
    report(
        "criterion 6 (lex class)",
        cells.passed and runs.passed and forests.passed,
        f"{cells.detail}; {runs.detail}; {forests.detail}",
    )


def test_criterion_7_constructive_matchings():
    """construct_matching equals the brute-force unique support matching for
    every valid code and every disjoint (I, J) with |I| = |J| <= 3 in 1..7."""
    nodes = range(1, 8)
    checked = 0
    mismatches = []
    for rs in valid_rulesets():
        for k in (1, 2, 3):
            for tails in itertools.combinations(nodes, k):
                rest = [x for x in nodes if x not in tails]
                for heads in itertools.combinations(rest, k):
                    checked += 1
                    if construct_matching(rs, tails, heads) != support_matching(
                        rs, tails, heads
                    ):
                        mismatches.append((rs.letters, tails, heads))
    report(
        "criterion 7 (constructive matchings)",
        not mismatches,
        f"{checked} (code, I, J) triples agree with the brute-force matching"
        + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_8_matching_ensembles():
    """Restrictions to I x J with |I|, |J| <= 3 pass the ensemble axioms,
    the spanning-tree correspondence round-trips, and all facet pairs pass
    the compatibility test."""
    result = check_matching_ensembles(5)
    report("criterion 8 (matching-ensemble layer)", result.passed, result.detail)


def test_criterion_9_tool_layer():
    """Backward-only coefficients equal the closed form for n <= 8; the
    transfer lemma round-trips to order 8; the prefix-restricted and
    forward-only refinements match brute force for n <= 5."""
    closed = check_backward_only_closed_form(8)
    roundtrip = check_transfer_roundtrip(8)
    prefix = check_prefix_refined(5)
    forward = check_forward_saturated_delannoy(5)
    report(
        "criterion 9 (enumeration tool layer)",
        all(r.passed for r in (closed, roundtrip, prefix, forward)),
        f"{closed.detail}; {roundtrip.detail}; {prefix.detail}; {forward.detail}",
    )
