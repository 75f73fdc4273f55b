"""The mask-based tallies behind ``series check`` against face-by-face oracles.

``checks.node_enriched_counts`` ORs per-arrow node bits over the clique
walk of the adjacency masks; the oracle here walks ``Face`` objects from
``enumerate_faces`` and builds the node sets as Python sets.  The excess
degrees of ``complexes._excess_degrees`` are popcounts of the masks; their
oracle is the pairwise count ``excess_degree``.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from rootflags import complexes
from rootflags.checks import node_enriched_counts
from rootflags.complexes import _excess_degrees, enumerate_faces, excess_degree
from rootflags.rules import ALIASES, RuleSet, arrows_of


def node_enriched_brute(rs: RuleSet, u_order: int, v_order: int) -> dict:
    """Node-enriched statistics of the saturated faces: keys are
    (u, v, forward, backward, n) with a node that is both a left and a
    right end counted in neither u nor v."""
    out: dict[tuple[int, int, int, int, int], Fraction] = {}
    for n in range(u_order + v_order):
        for face in enumerate_faces(rs, n):
            if not face.saturated:
                continue
            if n == 0:
                key = (0, 0, 0, 0, 0)
                out[key] = out.get(key, Fraction(0)) + 1
                continue
            left = {a.tail for a in face.arrows if a.forward}
            left |= {a.head for a in face.arrows if a.backward}
            right = {a.head for a in face.arrows if a.forward}
            right |= {a.tail for a in face.arrows if a.backward}
            shared = left & right
            u, v = len(left - shared), len(right - shared)
            if u > u_order or v > v_order:
                continue
            key = (u, v, face.forward, face.backward, n)
            out[key] = out.get(key, Fraction(0)) + Fraction(
                1, factorial(u) * factorial(v)
            )
    return out


@pytest.mark.parametrize("code", range(64))
def test_node_enriched_counts_match_face_walk(code):
    rs = RuleSet.from_code(code)
    assert node_enriched_counts(rs, 3, 3) == node_enriched_brute(rs, 3, 3)


def test_node_enriched_counts_match_face_walk_at_check_orders():
    rs = ALIASES["REVLEX_NN"]
    got = node_enriched_counts(rs, 4, 4)
    assert got == node_enriched_brute(rs, 4, 4)
    # saturated faces up to n = 7 with u or v at the order both occur
    assert any(u == 4 for u, *_ in got) and any(v == 4 for _, v, *_ in got)


def test_mask_excess_degrees_are_the_pairwise_count(monkeypatch):
    # pair_relation is a pure function of the two arrows, so sharing its
    # answers across the 64 codes changes no count of the oracle.
    monkeypatch.setattr(complexes, "pair_relation", lru_cache(maxsize=None)(complexes.pair_relation))
    for code in range(64):
        rs = RuleSet.from_code(code)
        for n in range(7):
            want = [excess_degree(rs, n, arrow) for arrow in arrows_of(n)]
            assert _excess_degrees(code, n) == want, (code, n)
