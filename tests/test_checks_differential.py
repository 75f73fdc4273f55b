"""The mask-based counts behind ``series check`` against walk oracles.

``checks.node_enriched_counts``, ``checks.prefix_refined_counts`` and
``checks.forward_saturated_groups`` reduce one count of the saturated
cliques by node roles, memoised on the adjacency masks
(``complexes._role_counts``).  Two oracles walk every clique instead: the
end tally of ``conftest``, a DFS on the same masks, with the reductions it
used to feed kept here; and ``Face`` objects from ``enumerate_faces``
(walked once per session through ``conftest``), with the node sets built
as Python sets.  The excess degrees of ``complexes._excess_degrees`` are
popcounts of the masks; their oracle is the pairwise count
``excess_degree``.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from rootflags import checks, complexes
from rootflags.checks import (
    _arrows_where,
    forward_saturated_groups,
    node_enriched_counts,
    prefix_refined_counts,
    run_checks,
)
from rootflags.complexes import _excess_degrees, _role_counts, excess_degree
from rootflags.rules import ALIASES, RuleSet, arrows_of


def node_enriched_brute(faces, rs: RuleSet, u_order: int, v_order: int) -> dict:
    """Node-enriched statistics of the saturated faces: keys are
    (u, v, forward, backward, n) with a node that is both a left and a
    right end counted in neither u nor v."""
    out: dict[tuple[int, int, int, int, int], Fraction] = {}
    for n in range(u_order + v_order):
        for face in faces(rs, n):
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
def test_node_enriched_counts_match_face_walk(faces, code):
    rs = RuleSet.from_code(code)
    assert node_enriched_counts(rs, 3, 3) == node_enriched_brute(faces, rs, 3, 3)


def test_node_enriched_counts_match_face_walk_at_check_orders(faces):
    rs = ALIASES["REVLEX_NN"]
    got = node_enriched_counts(rs, 4, 4)
    assert got == node_enriched_brute(faces, rs, 4, 4)
    # saturated faces up to n = 7 with u or v at the order both occur
    assert any(u == 4 for u, *_ in got) and any(v == 4 for _, v, *_ in got)


def test_mask_excess_degrees_are_the_pairwise_count(monkeypatch):
    # pair_relation is a pure function of the two arrows, so sharing its
    # answers across the 64 codes changes no count of the oracle.
    monkeypatch.setattr(complexes, "pair_relation", lru_cache(maxsize=None)(complexes.pair_relation))
    for code in range(64):
        rs = RuleSet.from_code(code)
        for n in range(7):
            want = [(arrow, excess_degree(rs, n, arrow)) for arrow in arrows_of(n)]
            assert sorted(_excess_degrees(code, n)) == want, (code, n)


def prefix_refined_walk(faces, rs: RuleSet, n_max: int) -> tuple[dict, dict]:
    """Backward-only faces of V_n, n <= n_max, by (i, backward, n) where the
    first i nodes of the face are heads; and the nonempty saturated ones."""
    brute: dict[tuple[int, int, int], int] = {}
    brute_sat: dict[tuple[int, int, int], int] = {}
    for n in range(n_max + 1):
        for face in faces(rs, n):
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


def forward_saturated_walk(faces, rs: RuleSet, n_max: int) -> dict[int, dict]:
    """Per n in 1..n_max, the nonempty forward-only saturated faces of V_n by
    (distinct tails - 1, distinct heads - 1, arrows)."""
    groups = {}
    for n in range(1, n_max + 1):
        buckets: dict[tuple[int, int, int], int] = {}
        for face in faces(rs, n):
            if face.backward or not face.saturated or not face.arrows:
                continue
            tails = len({a.tail for a in face.arrows})
            heads = len({a.head for a in face.arrows})
            key = (tails - 1, heads - 1, len(face.arrows))
            buckets[key] = buckets.get(key, 0) + 1
        groups[n] = buckets
    return groups


@pytest.mark.parametrize("code", range(64))
def test_role_count_reductions_match_face_walks(faces, code):
    rs = RuleSet.from_code(code)
    walked, walked_sat = prefix_refined_walk(faces, rs, 5)
    groups = forward_saturated_walk(faces, rs, 5)
    for n_max in range(6):
        counts, saturated = prefix_refined_counts(rs, n_max)
        assert counts == {k: c for k, c in walked.items() if k[2] <= n_max}, n_max
        assert saturated == {k: c for k, c in walked_sat.items() if k[2] <= n_max}, n_max
        assert forward_saturated_groups(rs, n_max) == {
            n: g for n, g in groups.items() if n <= n_max
        }, n_max


def _saturated_at(nodes: int) -> int | None:
    """The n at which a face on these node bits is saturated: its nodes are
    exactly 1..n+1, or none for the empty face at n = 0."""
    if not nodes:
        return 0
    n = nodes.bit_length() - 2
    return n if nodes == (1 << n + 2) - 2 else None


def roles_of_tally(tally: dict, n: int) -> dict:
    """The role counts of V_n off the end tally of a V_N, N >= n, on the
    same kind of start arrows: by uniformity its cliques on exactly the
    nodes 1..m+1, m <= n, are the saturated cliques of V_m."""
    out: dict[tuple[int, int, int, int, int, int], int] = {}
    for (lower, upper, fwd, size), c in tally.items():
        m = _saturated_at(lower | upper)
        if size and m is not None and m <= n:
            u, v = (lower & ~upper).bit_count(), (upper & ~lower).bit_count()
            key = (u, v, fwd, size, m, (upper & -upper).bit_length() - 1)
            out[key] = out.get(key, 0) + c
    return out


def node_enriched_of_tally(tally: dict, u_order: int, v_order: int) -> dict:
    """``node_enriched_counts`` off the end tally of a V_N on all its arrows,
    N >= u_order + v_order - 1 >= 0."""
    out: dict[tuple[int, int, int, int, int], int] = {}
    for (lower, upper, fwd, size), c in tally.items():
        n = _saturated_at(lower | upper)
        u, v = (lower & ~upper).bit_count(), (upper & ~lower).bit_count()
        if n is not None and n < u_order + v_order and u <= u_order and v <= v_order:
            key = (u, v, fwd, size - fwd, n)
            out[key] = out.get(key, 0) + c
    return {key: Fraction(c, factorial(key[0]) * factorial(key[1])) for key, c in out.items()}


def prefix_refined_of_tally(tally: dict, n_max: int) -> tuple[dict, dict]:
    """``prefix_refined_counts`` off the end tally of a V_N on its backward
    arrows, N >= n_max, whose lower ends are the heads: a face whose nodes
    lie in 1..m+1 is a face of every V_n with m <= n."""
    counts: dict[tuple[int, int, int], int] = {}
    saturated: dict[tuple[int, int, int], int] = {}
    for (heads, tails, _, size), c in tally.items():
        nodes = heads | tails
        i = (nodes & (tails & -tails) - 1).bit_count()
        for n in range(max(nodes.bit_length() - 2, 0), n_max + 1):
            counts[i, size, n] = counts.get((i, size, n), 0) + c
        n = _saturated_at(nodes)
        if size and n is not None and n <= n_max:
            saturated[i, size, n] = saturated.get((i, size, n), 0) + c
    return counts, saturated


def forward_groups_of_tally(tally: dict, n_max: int) -> dict:
    """``forward_saturated_groups`` off the end tally of a V_N on its
    forward arrows, N >= n_max, whose lower ends are the tails."""
    groups: dict[int, dict[tuple[int, int, int], int]] = {n: {} for n in range(1, n_max + 1)}
    for (tails, heads, _, size), c in tally.items():
        n = _saturated_at(tails | heads)
        if size and n is not None and n <= n_max:
            key = (tails.bit_count() - 1, heads.bit_count() - 1, size)
            groups[n][key] = groups[n].get(key, 0) + c
    return groups


def _every_arrow(n: int) -> int:
    return (1 << n * (n + 1)) - 1


#: The start masks of V_n whose role counts the checks read, by name.
STARTS = {
    "all": _every_arrow,
    "forward": lambda n: _arrows_where(n, True),
    "backward": lambda n: _arrows_where(n, False),
}
#: The largest n walked per code in the default run.
WALK_N = 6


@pytest.mark.parametrize("code", range(64))
def test_role_counts_match_the_end_tally(end_tally, code):
    for name, start in STARTS.items():
        tally = end_tally(code, WALK_N, start(WALK_N))
        for n in range(WALK_N + 1):
            assert _role_counts(code, n, start(n))[0] == roles_of_tally(tally, n), (name, n)


@pytest.mark.parametrize("code", range(64))
def test_role_count_reductions_match_the_end_tally(end_tally, code):
    rs = RuleSet.from_code(code)
    every = end_tally(code, WALK_N, _every_arrow(WALK_N))
    for orders in ((0, 1), (2, 3), (4, 3)):
        assert node_enriched_counts(rs, *orders) == node_enriched_of_tally(every, *orders), orders
    backward = end_tally(code, WALK_N, _arrows_where(WALK_N, False))
    forward = end_tally(code, WALK_N, _arrows_where(WALK_N, True))
    for n_max in range(WALK_N + 1):
        assert prefix_refined_counts(rs, n_max) == prefix_refined_of_tally(backward, n_max), n_max
        assert forward_saturated_groups(rs, n_max) == forward_groups_of_tally(forward, n_max), n_max


@pytest.mark.slow
def test_role_counts_match_the_end_tally_at_n9(end_tally):
    code = ALIASES["REVLEX_NN"].code
    assert _role_counts(code, 9, _every_arrow(9))[0] == roles_of_tally(
        end_tally(code, 9, _every_arrow(9)), 9
    )


@pytest.mark.slow
def test_role_count_reductions_match_the_end_tally_at_n10(end_tally):
    rs = ALIASES["LEX_NN"]
    backward = end_tally(rs.code, 10, _arrows_where(10, False))
    assert prefix_refined_counts(rs, 10) == prefix_refined_of_tally(backward, 10)
    for name in ("SIMION_A_NN", "SIMION_C", "REVLEX_NN"):
        rs = ALIASES[name]
        forward = end_tally(rs.code, 10, _arrows_where(10, True))
        assert forward_saturated_groups(rs, 10) == forward_groups_of_tally(forward, 10), name


def test_role_count_memo_states_are_pinned(end_tally):
    # REVLEX_NN on all arrows at n = 7, the count behind node-enriched-egf,
    # against the cliques the end tally walks
    code = ALIASES["REVLEX_NN"].code
    assert _role_counts(code, 7, _every_arrow(7))[1] == 1505
    assert sum(end_tally(code, 7, _every_arrow(7)).values()) == 48639


def test_series_checks_walk_no_faces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series check walked the faces")

    for name in ("enumerate_faces", "_iter_cliques"):
        monkeypatch.setattr(complexes, name, refuse)
        monkeypatch.setattr(checks, name, refuse, raising=False)
    results = run_checks(zorder=5)
    assert len(results) == 20
    assert all(r.passed for r in results), [r for r in results if not r.passed]
