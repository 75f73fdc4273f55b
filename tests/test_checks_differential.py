"""The mask-based tallies behind ``series check`` against face-by-face oracles.

``checks.node_enriched_counts``, ``checks.prefix_refined_counts`` and
``checks.forward_saturated_groups`` reduce one end tally of the clique DFS
on the adjacency masks (``complexes._end_tally``); the oracles here walk
``Face`` objects from ``enumerate_faces`` and build the node sets as Python
sets.  The excess degrees of ``complexes._excess_degrees`` are popcounts of
the masks; their oracle is the pairwise count ``excess_degree``.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from rootflags import checks, complexes
from rootflags.checks import (
    forward_saturated_groups,
    node_enriched_counts,
    prefix_refined_counts,
    run_checks,
)
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


def prefix_refined_walk(rs: RuleSet, n_max: int) -> tuple[dict, dict]:
    """Backward-only faces of V_n, n <= n_max, by (i, backward, n) where the
    first i nodes of the face are heads; and the nonempty saturated ones."""
    brute: dict[tuple[int, int, int], int] = {}
    brute_sat: dict[tuple[int, int, int], int] = {}
    for n in range(n_max + 1):
        for face in enumerate_faces(rs, n):
            if face.forward:
                continue
            if not face.arrows:
                i = 0
            else:
                nodes = face.nodes
                heads = {a.head for a in face.arrows}
                i = 0
                while i < len(nodes) and nodes[i] in heads:
                    i += 1
            key = (i, face.backward, n)
            brute[key] = brute.get(key, 0) + 1
            if face.saturated and face.arrows:
                brute_sat[key] = brute_sat.get(key, 0) + 1
    return brute, brute_sat


def forward_saturated_walk(rs: RuleSet, n_max: int) -> dict[int, dict]:
    """Per n in 1..n_max, the nonempty forward-only saturated faces of V_n by
    (distinct tails - 1, distinct heads - 1, arrows)."""
    groups = {}
    for n in range(1, n_max + 1):
        buckets: dict[tuple[int, int, int], int] = {}
        for face in enumerate_faces(rs, n):
            if face.backward or not face.saturated or not face.arrows:
                continue
            tails = len({a.tail for a in face.arrows})
            heads = len({a.head for a in face.arrows})
            key = (tails - 1, heads - 1, len(face.arrows))
            buckets[key] = buckets.get(key, 0) + 1
        groups[n] = buckets
    return groups


@pytest.mark.parametrize("code", range(64))
def test_end_tally_reductions_match_face_walks(code):
    rs = RuleSet.from_code(code)
    walked, walked_sat = prefix_refined_walk(rs, 5)
    groups = forward_saturated_walk(rs, 5)
    for n_max in range(6):
        counts, saturated = prefix_refined_counts(rs, n_max)
        assert counts == {k: c for k, c in walked.items() if k[2] <= n_max}, n_max
        assert saturated == {k: c for k, c in walked_sat.items() if k[2] <= n_max}, n_max
        assert forward_saturated_groups(rs, n_max) == {
            n: g for n, g in groups.items() if n <= n_max
        }, n_max


def test_series_checks_walk_no_faces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series check walked the faces")

    for name in ("enumerate_faces", "_iter_cliques"):
        monkeypatch.setattr(complexes, name, refuse)
        monkeypatch.setattr(checks, name, refuse, raising=False)
    results = run_checks(zorder=5)
    assert len(results) == 20
    assert all(r.passed for r in results), [r for r in results if not r.passed]
