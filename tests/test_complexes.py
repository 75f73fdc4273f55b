import json

import pytest

from rootflags.complexes import (
    Face,
    ResourceLimitError,
    dimension_face_count,
    enumerate_faces,
    excess_degree,
    excess_degree_formula,
    excess_signature,
    face_table,
)
from rootflags.rules import ALIASES, Arrow, RuleSet, classify, valid_rulesets


LEX = ALIASES["LEX_NN"]
REVLEX = ALIASES["REVLEX_NN"]
SIMION_C = ALIASES["SIMION_C"]


def test_small_face_counts():
    # P_2 is a hexagon: 1 empty + 6 vertices + 6 edges, for every code
    for code in (LEX, REVLEX, SIMION_C, RuleSet.from_code(21)):
        assert face_table(code, 2).total() == 13
    assert face_table(LEX, 3).total() == 1 + 12 + 30 + 20


def test_n0_has_only_the_empty_face():
    faces = list(enumerate_faces(LEX, 0))
    assert len(faces) == 1
    assert faces[0].arrows == ()
    assert faces[0].saturated
    for selector in ("all", "saturated", "facets"):
        assert face_table(LEX, 0, selector).counts == {(0, 0): 1}


def test_enumeration_order_is_lexicographic_and_starts_empty():
    faces = list(enumerate_faces(LEX, 2))
    assert faces[0].arrows == ()
    keys = [f.arrows for f in faces]
    assert keys == sorted(keys, key=lambda arrows: [(a.tail, a.head) for a in arrows] or [(0, 0)])
    # stable across runs
    assert [f.arrows for f in enumerate_faces(LEX, 2)] == keys


def test_enumeration_golden_stream():
    # the exact stream for the hexagon is part of the contract; every code
    # agrees at n = 2 since there are no four-node squares yet
    golden = [
        (),
        ((1, 2),),
        ((1, 2), (1, 3)),
        ((1, 2), (3, 2)),
        ((1, 3),),
        ((1, 3), (2, 3)),
        ((2, 1),),
        ((2, 1), (2, 3)),
        ((2, 1), (3, 1)),
        ((2, 3),),
        ((3, 1),),
        ((3, 1), (3, 2)),
        ((3, 2),),
    ]
    for rs in (LEX, REVLEX):
        stream = [
            tuple((a.tail, a.head) for a in face.arrows)
            for face in enumerate_faces(rs, 2)
        ]
        assert stream == golden


def test_enumeration_refuses_a_negative_max_arrows():
    # without the check the stream held only the empty face
    with pytest.raises(ValueError, match="^max_arrows must be >= 0, got -1$"):
        list(enumerate_faces(LEX, 2, max_arrows=-1))
    assert [f.arrows for f in enumerate_faces(LEX, 2, max_arrows=0)] == [()]


def test_face_metadata():
    face = Face((Arrow(1, 2), Arrow(3, 2)), 2, True)
    assert face.forward == 1 and face.backward == 1
    assert face.nodes == (1, 2, 3)
    assert face.saturated
    assert not face.is_matching


def test_valid_codes_yield_forests():
    for rs in (LEX, REVLEX, SIMION_C):
        assert all(face.is_forest for face in enumerate_faces(rs, 5))


def test_invalid_code_can_yield_circuits():
    # the Simion-c-like code with both TTHH and HHTT crossing admits 6-cycles
    rs = RuleSet.parse("THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:cross HHTT:cross")
    assert classify(rs).value == "invalid"
    circuits = [f for f in enumerate_faces(rs, 5) if not f.is_forest]
    assert circuits
    assert min(len(f.arrows) for f in circuits) == 6


def test_dimension_counts_match_formula():
    for rs in (LEX, REVLEX, SIMION_C):
        for n in range(5):
            dims = face_table(rs, n).by_dimension()
            for k in range(n + 1):
                assert dims.get(k, 0) == dimension_face_count(n, k)


def test_facets_are_saturated_spanning_forests():
    for rs in (LEX, SIMION_C):
        n = 4
        facet_count = 0
        for face in enumerate_faces(rs, n):
            if len(face.arrows) == n:
                facet_count += 1
                assert face.saturated and face.is_forest
        assert facet_count == face_table(rs, n, "facets").total()


def test_revlex_facet_row_n3():
    table = face_table(REVLEX, 3, "facets")
    assert [table.coefficient(k, 3 - k) for k in range(4)] == [4, 6, 6, 4]
    assert table.total() == 20


def test_simion_facet_row_n3():
    table = face_table(SIMION_C, 3, "facets")
    assert [table.coefficient(i, 3 - i) for i in range(4)] == [5, 5, 6, 4]


def test_excess_degree_example():
    assert excess_degree(LEX, 4, Arrow(1, 2)) == 6
    assert excess_degree_formula(LEX, 4, Arrow(1, 2)) == 6


@pytest.mark.parametrize("arrow", [(1, 9), (4, 5), (2, 2), (0, 1)])
def test_excess_degree_refuses_arrows_outside_v_n(arrow):
    # without the range check the closed form reads 51, 5, 5 and 5 here,
    # and the brute force 3 for (1, 9) and 6 for (4, 5)
    for degree in (excess_degree, excess_degree_formula):
        with pytest.raises(ValueError):
            degree(LEX, 3, arrow)


def test_excess_signature_rows():
    assert excess_signature(LEX, 4).runs() == "1^6 2^4 3^2 4^4 6^4"
    assert excess_signature(SIMION_C, 4).runs() == "0^2 2^4 3^8 4^3 5^2 6^1"
    assert len(excess_signature(LEX, 4).degrees) == 20


def test_excess_formula_matches_bruteforce_sample():
    from rootflags.rules import arrows_of

    for rs in (LEX, REVLEX, SIMION_C, ALIASES["SIMION_B_XN"]):
        for n in (1, 2, 3, 4):
            for arrow in arrows_of(n):
                assert excess_degree(rs, n, arrow) == excess_degree_formula(rs, n, arrow)


def test_excess_signature_is_the_brute_force_for_all_codes(monkeypatch):
    # the signature comes from the closed form; the brute force is its oracle,
    # for the invalid codes too.  pair_relation is a pure function of the two
    # arrows, so sharing its answers across the 64 codes changes no count.
    from functools import lru_cache

    from rootflags import complexes
    from rootflags.rules import arrows_of

    monkeypatch.setattr(complexes, "pair_relation", lru_cache(maxsize=None)(complexes.pair_relation))
    for code in range(64):
        rs = RuleSet.from_code(code)
        for n in range(7):
            want = sorted(excess_degree(rs, n, arrow) for arrow in arrows_of(n))
            assert list(excess_signature(rs, n).degrees) == want, (code, n)


def test_excess_signature_invariant_under_involutions():
    for rs in valid_rulesets()[:8]:
        sig = excess_signature(rs, 3).degrees
        assert excess_signature(rs.dual(), 3).degrees == sig
        assert excess_signature(rs.reflected_dual(), 3).degrees == sig


def test_resource_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        face_table(LEX, 11)
    monkeypatch.setenv("ROOTFLAGS_MAX_N", "2")
    with pytest.raises(ResourceLimitError):
        list(enumerate_faces(LEX, 3))
    # force overrides
    assert face_table(LEX, 3, force=True).total() == 63
    monkeypatch.delenv("ROOTFLAGS_MAX_N")


def test_table_serialization():
    table = face_table(LEX, 2, "facets")
    payload = table.to_json_dict()
    assert payload["n"] == 2 and payload["selector"] == "facets"
    assert json.dumps(payload)  # serializable
    assert sum(row[2] for row in payload["counts"]) == 6
    assert table.transpose().transpose() == table


def test_tables_transpose_under_dual():
    for rs in (SIMION_C, ALIASES["SIMION_A_NN"]):
        for n in (2, 3):
            assert face_table(rs.dual(), n) == face_table(rs, n).transpose()
            assert face_table(rs.reflected_dual(), n) == face_table(rs, n)
