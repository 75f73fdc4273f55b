import pytest

from rootflags import checks, complexes
from rootflags.checks import CHECKS, CheckResult, check_delannoy_routes, run_checks
from rootflags.rules import ALIASES


def test_registry_names_are_stable():
    expected = {
        "catalan-quadratic",
        "delannoy-routes",
        "backward-only-coefficients",
        "backward-only-vs-enumeration",
        "transfer-roundtrip",
        "prefix-refined-backward",
        "forward-saturated-delannoy",
        "forest-node-polynomials",
        "simion-saturated-series",
        "simion-facet-formula",
        "revlex-saturated-series",
        "revlex-facet-formula",
        "node-enriched-egf",
        "delannoy-egf-routes",
        "lex-refined-cells",
        "catalan-run-identity",
        "f-vector-universality",
        "dual-symmetry",
        "excess-degree-formula",
        "matching-ensembles",
    }
    assert set(CHECKS) == expected


def test_run_checks_subset_and_order():
    names = ["catalan-run-identity", "catalan-quadratic"]
    results = run_checks(names, zorder=3)
    assert [r.name for r in results] == names
    assert all(isinstance(r, CheckResult) and r.passed for r in results)


def test_delannoy_routes_agree():
    # the DP of delannoy_poly against the binomial expansion, the literal
    # walk and the generating function, which live only in the check
    result = check_delannoy_routes(6)
    assert result.passed, result.detail


def test_run_checks_rejects_unknown():
    with pytest.raises(KeyError):
        run_checks(["nope"], zorder=3)


def test_abandoned_enumeration_does_not_corrupt_later_runs():
    # fail-fast consumers abandon the clique generator mid-walk; fresh
    # calls must see fresh union-find state
    from rootflags.complexes import enumerate_faces, face_table
    from rootflags.rules import ALIASES

    rs = ALIASES["SIMION_B_NX"]
    stream = enumerate_faces(rs, 4)
    for _ in range(25):
        next(stream)
    del stream
    assert face_table(rs, 4).total() == sum(
        1 for _ in enumerate_faces(rs, 4)
    )
    assert all(f.is_forest for f in enumerate_faces(rs, 4))


def _no_key_in_the_ring(monkeypatch):
    # with every key outside the ring, the EGF check has nothing to compare
    egf = checks.srs.node_enriched_egf(4, 4)
    monkeypatch.setattr(checks.srs, "node_enriched_egf", lambda u, v: egf)
    monkeypatch.setattr(checks.srs.SeriesRing, "within", lambda self, exps: False)


def _no_alias_nests(monkeypatch):
    # no alias has THTH nest under a value no rule takes, so all are skipped
    monkeypatch.setattr(checks, "NEST", "no such rule")


def _no_valid_code(monkeypatch):
    monkeypatch.setattr(checks, "valid_rulesets", lambda: [])


NO_VALID_CODE = [
    "matching-ensembles",
    "lex-refined-cells",
    "simion-saturated-series",
    "simion-facet-formula",
    "revlex-saturated-series",
    "revlex-facet-formula",
    "f-vector-universality",
    "dual-symmetry",
    "excess-degree-formula",
]
# below zero their horizons n <= min(zorder, ...) hold no n
NO_HORIZON = [
    "prefix-refined-backward",
    "lex-refined-cells",
    "f-vector-universality",
    "dual-symmetry",
]


@pytest.mark.parametrize(
    "name, zorder, empty",
    [
        pytest.param("node-enriched-egf", 5, _no_key_in_the_ring, id="node-enriched-egf-no-key"),
        pytest.param(
            "forward-saturated-delannoy", 5, _no_alias_nests, id="forward-saturated-delannoy-no-nest"
        ),
        *[pytest.param(name, 5, _no_valid_code, id=f"{name}-no-code") for name in NO_VALID_CODE],
        *[pytest.param(name, -1, None, id=f"{name}-zorder-1") for name in NO_HORIZON],
    ],
)
def test_a_check_fails_when_it_compares_nothing(monkeypatch, name, zorder, empty):
    if empty:
        empty(monkeypatch)
    result = CHECKS[name](zorder)
    assert not result.passed and result.compared == 0
    assert result.detail == "1 mismatches; first: compared-nothing"


def test_every_check_reports_what_it_compared(count_calls):
    calls = count_calls(checks, "_result")
    results = run_checks(zorder=5)
    compared = {name: count for name, _, _, count in calls}
    assert len(calls) == len(compared) == len(CHECKS)
    assert {r.name: r.compared for r in results} == compared
    assert [name for name, count in compared.items() if count <= 0] == []
    assert {r.name: r.to_json_dict()["compared"] for r in results} == compared
    # the table checks compare every cell: i + j <= n holds (n+1)(n+2)/2 cells
    # and i + j = n holds n + 1; 4 lex, 4 revlex and 26 Simion codes
    triangle = [(n + 1) * (n + 2) // 2 for n in range(6)]
    top = [n + 1 for n in range(6)]
    cells = {
        "backward-only-vs-enumeration": 4 * sum(top),
        "transfer-roundtrip": sum(triangle[:5]),
        # k arrows on m = k+1..2k nodes, split k+1 ways, for k <= 4
        "forest-node-polynomials": 2 * sum(k * (k + 1) for k in range(1, 5)),
        "simion-saturated-series": 26 * sum(triangle),
        "simion-facet-formula": 26 * sum(top),
        "revlex-saturated-series": 4 * sum(triangle),
        "revlex-facet-formula": 4 * sum(top),
        "lex-refined-cells": 4 * sum(triangle),
    }
    assert {name: compared[name] for name in cells} == cells


def test_dual_symmetry_counts_the_dual_sides_itself(monkeypatch, count_calls):
    # with SIMION_B_NN the only code swept, a check that derived the dual
    # tables from its own would count one code
    rs = ALIASES["SIMION_B_NN"]
    monkeypatch.setattr(checks, "valid_rulesets", lambda: [rs])
    complexes._face_tables.cache_clear()
    calls = count_calls(complexes, "_face_counts")
    result = checks.check_dual_symmetry(5)
    assert result.passed and result.compared == 18
    want = {(side.code, 5) for side in (rs, rs.dual(), rs.reflected_dual())}
    assert len(want) == 3 and set(calls) == want


def test_run_checks_refuses_a_negative_zorder_before_any_check(count_calls):
    calls = count_calls(checks, "_result")
    with pytest.raises(ValueError, match="zorder must be >= 0, got -1"):
        run_checks(zorder=-1)
    assert calls == []


def test_a_table_check_names_its_first_mismatching_cell(monkeypatch):
    # every facet count 0: the first cell compared is the one facet of V_0
    monkeypatch.setattr(checks.srs, "revlex_facet_count", lambda n, k: 0)
    result = checks.check_revlex_facets(5)
    first = checks.codes_of(checks.ClassLabel.REVLEX)[0].letters
    assert not result.passed
    assert result.detail.endswith(f"first: {(first, 0, 0, 0, '0', 1)}")


def test_forward_saturated_delannoy_compares_at_zorder_0():
    result = checks.check_forward_saturated_delannoy(0)
    assert result.passed and result.detail.endswith("n <= 1")


@pytest.mark.parametrize("zorder, n_max", [(0, 5), (5, 5), (6, 6), (7, 7), (12, 8)])
def test_excess_formula_horizon_follows_zorder(zorder, n_max):
    result = checks.check_excess_formula(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")


@pytest.mark.parametrize("zorder, n_max", [(0, 0), (5, 5), (6, 6), (7, 7), (12, 10)])
def test_prefix_refined_horizon_follows_zorder(zorder, n_max):
    result = checks.check_prefix_refined(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")


@pytest.mark.parametrize("zorder, n_max", [(0, 1), (5, 5), (6, 6), (7, 7), (12, 10)])
def test_forward_saturated_horizon_follows_zorder(zorder, n_max):
    result = checks.check_forward_saturated_delannoy(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")
