"""Counted face tables against a face-by-face tally of ``enumerate_faces``.

``face_table`` counts cliques on the adjacency masks and derives the
saturated table by binomial inversion; the oracle here walks every face and
tallies it by (forward, backward) arrows, testing saturation and the facet
size on the face itself.
"""

import pytest

from rootflags.complexes import SELECTORS, FaceTable, enumerate_faces, face_table
from rootflags.rules import ALIASES, TABLE_ROW_ORDER, RuleSet


def brute_tables(rs: RuleSet, n: int) -> dict[str, FaceTable]:
    tables: dict[str, dict[tuple[int, int], int]] = {s: {} for s in SELECTORS}
    for face in enumerate_faces(rs, n):
        forward = face.forward
        key = (forward, len(face.arrows) - forward)
        picked = ["all"]
        if face.saturated:
            picked.append("saturated")
        if len(face.arrows) == n:
            picked.append("facets")
        for selector in picked:
            tables[selector][key] = tables[selector].get(key, 0) + 1
    return {s: FaceTable(n, s, counts) for s, counts in tables.items()}


def assert_tables_match(rs: RuleSet, n: int) -> None:
    brute = brute_tables(rs, n)
    for selector in SELECTORS:
        assert face_table(rs, n, selector) == brute[selector], (rs.code, n, selector)


@pytest.mark.parametrize("n", range(6))
def test_all_codes_match_enumeration(n):
    for code in range(64):
        assert_tables_match(RuleSet.from_code(code), n)


@pytest.mark.parametrize("alias", TABLE_ROW_ORDER)
def test_orbit_representatives_match_enumeration_at_n6(alias):
    assert_tables_match(ALIASES[alias], 6)


def test_circuit_faces_are_counted_beyond_n_arrows():
    # code 28 has circuits at n = 5, faces with n + 1 arrows, which do not
    # fit the first packing of the count and force it to widen
    for selector in ("all", "saturated"):
        table = face_table(RuleSet.from_code(28), 5, selector)
        assert max(i + j for i, j in table.counts) == 6
