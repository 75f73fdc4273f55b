from functools import lru_cache

import pytest

from rootflags import axioms, complexes
from rootflags.axioms import (
    BipartiteEnsemble,
    MultiplicityError,
    check_linkage_axiom,
    check_permissible,
    check_support_axiom,
    me_axioms,
    phi,
    phi_inverse,
    postnikov_compatible,
    restriction_ensemble,
    spanning_trees,
    support_matching,
)
from rootflags.rules import ALIASES, Arrow, RuleSet, classify, orbit_of

LEX = ALIASES["LEX_NN"]
REVLEX = ALIASES["REVLEX_NN"]


def test_support_matching_examples():
    assert support_matching(LEX, [2, 4], [1, 5]) == frozenset({Arrow(2, 1), Arrow(4, 5)})
    assert support_matching(REVLEX, [1, 4], [2, 3]) == frozenset({Arrow(1, 3), Arrow(4, 2)})


def test_support_matching_multiplicity_witness():
    rs = RuleSet.parse("THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:nest HHTT:cross")
    with pytest.raises(MultiplicityError) as info:
        support_matching(rs, [2, 4, 6], [1, 3, 5])
    err = info.value
    assert err.count == 2
    expected = {
        frozenset({Arrow(2, 1), Arrow(4, 3), Arrow(6, 5)}),
        frozenset({Arrow(2, 5), Arrow(4, 1), Arrow(6, 3)}),
    }
    assert set(err.matchings) == expected


def test_support_matching_validates_input():
    with pytest.raises(ValueError, match="^tail and head sets must be disjoint$"):
        support_matching(LEX, [1, 2], [2, 3])
    with pytest.raises(ValueError, match="^tail and head sets must have equal size$"):
        support_matching(LEX, [1], [2, 3])


@pytest.mark.parametrize("check", [check_permissible, check_support_axiom, check_linkage_axiom])
def test_checks_reject_negative_n(check):
    with pytest.raises(ValueError, match="ambient size must be >= 0, got -1"):
        check(LEX, -1)


def test_support_matching_output_is_a_matching_face():
    from rootflags.rules import is_edge
    from itertools import combinations

    sigma = support_matching(ALIASES["SIMION_B_NN"], [1, 3, 6], [2, 5, 7])
    nodes = [x for a in sigma for x in a]
    assert len(set(nodes)) == len(nodes)
    assert all(is_edge(ALIASES["SIMION_B_NN"], a, b) for a, b in combinations(sigma, 2))


def test_axioms_pass_for_valid_codes_small_n():
    for name in ("LEX_NN", "REVLEX_XX", "SIMION_A_NX", "SIMION_B_XN", "SIMION_C"):
        rs = ALIASES[name]
        for n in (1, 2, 3, 4):
            assert check_support_axiom(rs, n).passed
            assert check_linkage_axiom(rs, n).passed
            assert check_permissible(rs, n).passed


def test_linkage_failure_witness_at_n4():
    # lex-like rules except HTTH crosses: the crossing edge {(2,5),(4,1)}
    # cannot absorb node 3
    rs = RuleSet.parse("THTH:nonest HTHT:nonest THHT:noncross HTTH:cross TTHH:cross HHTT:cross")
    assert classify(rs).value == "invalid"
    report = check_linkage_axiom(rs, 4, all_witnesses=True)
    assert not report.passed
    sigma = [[2, 5], [4, 1]]
    assert any(w.detail["matching"] == sigma and w.detail["k"] == 3 for w in report.witnesses)


def test_support_failure_for_invalid_code_at_n5():
    rs = RuleSet.parse("THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:nest HHTT:cross")
    report = check_support_axiom(rs, 5)
    assert not report.passed
    witness = report.witnesses[0]
    assert witness.detail["count"] != 1


def test_permissibility_forest_check_outcomes():
    # genuinely fails for the double-crossing Simion-c-like code
    rs = RuleSet.parse("THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:cross HHTT:cross")
    report = check_permissible(rs, 5)
    assert not report.passed
    assert any(w.detail.get("reason") == "contains a circuit" for w in report.witnesses)
    # the nest/nest noncrossing code is invalid yet circuit-free at n=5:
    # the forest condition is a reported outcome, not an assumption
    rs = RuleSet.parse("THTH:nest HTHT:nest THHT:noncross HTTH:noncross TTHH:nest HHTT:nest")
    assert classify(rs).value == "invalid"
    assert check_permissible(rs, 5).passed


def test_single_arrow_support_matchings():
    # hexagon: single-arrow matchings are unique trivially
    assert support_matching(LEX, [1], [2]) == frozenset({Arrow(1, 2)})
    assert support_matching(LEX, [2], [1]) == frozenset({Arrow(2, 1)})


def test_me_axioms_k11():
    ens = BipartiteEnsemble(1, 1, frozenset({frozenset(), frozenset({(1, 1)})}))
    assert me_axioms(ens).passed


def test_me_axioms_closure_failure():
    ens = BipartiteEnsemble(1, 1, frozenset({frozenset({(1, 1)})}))
    report = me_axioms(ens)
    assert not report.passed
    assert report.witnesses[0].axiom == "closure"


def test_me_axioms_support_failure():
    matchings = {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
        frozenset({(2, 2)}),
        frozenset({(1, 1), (2, 2)}),
        frozenset({(1, 2), (2, 1)}),
    }
    report = me_axioms(BipartiteEnsemble(2, 2, frozenset(matchings)))
    assert not report.passed
    assert any(w.axiom == "support" for w in report.witnesses)


def test_k22_diagonal_ensembles():
    # each diagonal of the square gives a two-tree triangulation
    for diagonal in (frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 1)})):
        trees = [t for t in spanning_trees(2, 2) if postnikov_compatible(t, diagonal)]
        ens = phi(trees, 2, 2)
        assert me_axioms(ens).passed
        assert diagonal in ens.matchings
        assert phi_inverse(ens) == frozenset(trees)
        assert len(trees) == 2


def test_phi_inverse_refuses_non_ensembles():
    ens = BipartiteEnsemble(1, 1, frozenset({frozenset({(1, 1)})}))
    with pytest.raises(ValueError):
        phi_inverse(ens)


def test_k1b_star_roundtrip():
    b = 3
    star = frozenset((1, j) for j in range(1, b + 1))
    assert spanning_trees(1, b) == [star]
    ens = phi([star], 1, b)
    assert me_axioms(ens).passed
    assert phi_inverse(ens) == frozenset({star})


def test_postnikov_examples():
    assert not postnikov_compatible(
        frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 1)})
    )
    same = frozenset({(1, 1), (2, 2)})
    assert postnikov_compatible(same, same)
    assert postnikov_compatible(frozenset({(1, 1)}), frozenset({(2, 2)}))


def test_spanning_tree_counts():
    # a^(b-1) b^(a-1)
    assert len(spanning_trees(2, 2)) == 4
    assert len(spanning_trees(3, 3)) == 81
    assert len(spanning_trees(1, 1)) == 1


@pytest.mark.parametrize("a, b", [(0, 0), (0, 2), (-1, 2)])
def test_spanning_trees_refuse_an_empty_part(a, b):
    with pytest.raises(ValueError, match="^both parts must be nonempty$"):
        spanning_trees(a, b)


def test_spanning_trees_returns_a_fresh_list():
    trees = spanning_trees(3, 3)
    trees.clear()
    again = spanning_trees(3, 3)
    assert len(again) == 81 and again is not trees


def test_restriction_ensemble_matches_support_matchings():
    tails, heads = (2, 4), (1, 5)
    ens = restriction_ensemble(LEX, tails, heads)
    assert ens.a == 2 and ens.b == 2
    # the unique perfect matching must relabel (2,1),(4,5) -> (1,1),(2,2)
    assert frozenset({(1, 1), (2, 2)}) in ens.matchings
    assert me_axioms(ens).passed


def test_restriction_uniformity():
    # node labels are irrelevant; only the pattern matters
    first = restriction_ensemble(REVLEX, (1, 4), (2, 3))
    second = restriction_ensemble(REVLEX, (2, 9), (5, 7))
    assert first.matchings == second.matchings


def test_equal_restriction_families_share_one_object():
    # LEX_NN and REVLEX_NN both nest on TTHH but differ on THHT: equal
    # families from different (code, pattern) keys are one object
    first = restriction_ensemble(LEX, (1, 2), (3, 4)).matchings
    assert restriction_ensemble(REVLEX, (2, 5), (7, 9)).matchings is first
    other = restriction_ensemble(REVLEX, (1, 4), (2, 3)).matchings
    assert other != restriction_ensemble(LEX, (1, 4), (2, 3)).matchings


def _count_table_walks(monkeypatch):
    # a fresh cache around the table walk, recording each (code, n) it walks
    walks = []
    build = axioms._word_table.__wrapped__

    def walk(code, n):
        walks.append((code, n))
        return build(code, n)

    monkeypatch.setattr(axioms, "_word_table", lru_cache(maxsize=30)(walk))
    return walks


def test_verify_walks_one_word_table(monkeypatch, count_calls):
    # permissibility, support and linkage all read one word table, built by
    # one walk and not by a search per word; code 30 fails all three at
    # n = 6, so their witnesses are listed too
    walks = _count_table_walks(monkeypatch)
    searches = count_calls(axioms, "_word_matchings")
    rs = RuleSet.from_code(30)
    reports = axioms.verify(rs, 6)
    assert not any(report.passed for report in reports)
    assert walks == [(orbit_of(rs)[0].code, 6)]
    assert searches == []


def test_verify_all_walks_one_word_table_per_orbit(monkeypatch, count_calls):
    # the 64 codes fall into 30 orbits; only each orbit's least code walks
    # its table, the other members relabel it
    walks = _count_table_walks(monkeypatch)
    searches = count_calls(axioms, "_word_matchings")
    codes = [RuleSet.from_code(code) for code in range(64)]
    for rs in codes:
        axioms.verify(rs, 6)
    orbits = {orbit_of(rs) for rs in codes}
    assert len(orbits) == 30
    assert sorted(walks) == sorted((orbit[0].code, 6) for orbit in orbits)
    assert searches == []


def test_verify_all_builds_the_code_free_word_slots_once(monkeypatch, count_calls):
    # the words, their keys and the walk's node masks do not depend on the
    # code: over all 64 codes they are built once, and the walk runs once
    # per orbit; _word_slots lists the words of each length k once per build
    n = 6
    walks = _count_table_walks(monkeypatch)
    fresh = lru_cache(maxsize=16)(axioms._word_slots.__wrapped__)
    monkeypatch.setattr(axioms, "_word_slots", fresh)
    lengths = count_calls(axioms, "_words")
    for code in range(64):
        axioms.verify(RuleSet.from_code(code), n)
    assert lengths == [(1,), (2,), (3,)]
    assert len(walks) == 30


def test_passing_member_codes_read_their_orbit_verdicts(count_calls):
    # a code that is not its orbit's least and passes reads the verdicts of
    # the least code: it relabels no word and builds no masks of its own;
    # the members here take each of the three symmetries
    n = 6
    members = [RuleSet.from_code(code) for code in (2, 24, 36, 40, 45)]
    for rs in members:
        axioms.verify(orbit_of(rs)[0], n)
    relabels = count_calls(axioms, "_relabeled")
    masks = [count_calls(axioms, "_adjacency"), count_calls(complexes, "_adjacency")]
    reports = [axioms.verify(rs, n) for rs in members[:-1]]
    assert all(report.passed for report in sum(reports, []))
    assert relabels == [] and masks == [[], []]
    # code 45 fails all three: its circuit walk builds its own masks, and
    # support relabels only its first failing word
    assert not any(report.passed for report in axioms.verify(members[-1], n))
    assert len(relabels) == 1
    assert {args[0] for calls in masks for args in calls} == {45}


def test_linkage_witnesses_are_placed_misses_of_the_orbit(monkeypatch, count_calls):
    # every linkage witness, the first or all of them, is a placement of a
    # miss of the orbit's least code: no code walks its own faces or builds
    # its own masks or gap tables, whichever symmetry carries the misses
    n = 6
    fresh = lru_cache(maxsize=64)(axioms._linkage_misses.__wrapped__)
    monkeypatch.setattr(axioms, "_linkage_misses", fresh)
    walks = count_calls(axioms, "_iter_cliques")
    masks = count_calls(axioms, "adjacency")
    gaps = count_calls(axioms, "_gap_table")
    codes = [RuleSet.from_code(code) for code in range(64)]
    failed = 0
    for rs in codes:
        for all_witnesses in (False, True):
            failed += not axioms.check_linkage_axiom(rs, n, all_witnesses).passed
    assert failed == 2 * 26
    assert walks == [] and masks == []
    assert {code for code, _ in gaps} == {orbit_of(rs)[0].code for rs in codes}
