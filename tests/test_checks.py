import pytest

from rootflags import checks
from rootflags.checks import CHECKS, CheckResult, check_delannoy_routes, run_checks


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


def test_node_enriched_egf_fails_when_it_compares_nothing(monkeypatch):
    # with every key outside the ring, the check has nothing to compare
    egf = checks.srs.node_enriched_egf(4, 4)
    monkeypatch.setattr(checks.srs, "node_enriched_egf", lambda u, v: egf)
    monkeypatch.setattr(checks.srs.SeriesRing, "within", lambda self, exps: False)
    result = checks.check_node_enriched_egf(5)
    assert not result.passed
    assert result.detail == "1 mismatches; first: compared-nothing"


def test_forward_saturated_delannoy_fails_when_it_compares_nothing(monkeypatch):
    # no alias has THTH nest under a value no rule takes, so all are skipped
    monkeypatch.setattr(checks, "NEST", "no such rule")
    result = checks.check_forward_saturated_delannoy(5)
    assert not result.passed
    assert result.detail == "1 mismatches; first: compared-nothing"


def test_matching_ensembles_fails_when_it_compares_nothing(monkeypatch):
    # with no valid code there is no restriction to check
    monkeypatch.setattr(checks, "valid_rulesets", lambda: [])
    result = checks.check_matching_ensembles(5)
    assert not result.passed
    assert result.detail == "1 mismatches; first: compared-nothing"


def test_forward_saturated_delannoy_compares_at_zorder_0():
    result = checks.check_forward_saturated_delannoy(0)
    assert result.passed and result.detail.endswith("n <= 1")


@pytest.mark.parametrize("zorder, n_max", [(0, 5), (5, 5), (6, 6), (7, 7), (12, 8)])
def test_excess_formula_horizon_follows_zorder(zorder, n_max):
    result = checks.check_excess_formula(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")


@pytest.mark.parametrize("zorder, n_max", [(0, 0), (5, 5), (6, 6), (7, 7), (12, 7)])
def test_prefix_refined_horizon_follows_zorder(zorder, n_max):
    result = checks.check_prefix_refined(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")


@pytest.mark.parametrize("zorder, n_max", [(0, 1), (5, 5), (6, 6), (7, 7), (12, 7)])
def test_forward_saturated_horizon_follows_zorder(zorder, n_max):
    result = checks.check_forward_saturated_delannoy(zorder)
    assert result.passed and result.detail.endswith(f"n <= {n_max}")
