"""Counted face tables against a face-by-face tally of ``enumerate_faces``.

``face_table`` counts cliques on the adjacency masks and derives the
saturated table by binomial inversion; the oracle here walks every face and
tallies it by (forward, backward) arrows, testing saturation and the facet
size on the face itself.  The count runs over the arrows in count order
(``complexes._count_order``); a second oracle runs the same count on the
index-order masks of ``_adjacency(code, n)``.  The tables of every V_m,
m <= n, that the checks read off one count of V_n
(``complexes._tables_upto``) are compared with the count of V_m alone.  The
count itself is also compared, on random graphs, with a tally of every
subset of each start mask.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rootflags import complexes
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


@pytest.mark.parametrize("n", range(7))
def test_tables_read_off_the_count_of_v_n_equal_the_count_at_m(n):
    # the invalid codes too: code 28 has faces of m + 1 arrows from m = 5 on,
    # so its count at n = 6 packs the tables of m < 5 wider than their own
    for code in range(64):
        rs = RuleSet.from_code(code)
        for selector in SELECTORS:
            tables = complexes._tables_upto(rs, n, selector)
            assert tables == [face_table(rs, m, selector) for m in range(n + 1)], (code, selector)
    if n == 6:
        assert [complexes._face_counts(28, m)[3] for m in (4, 6)] == [4, 7]


def test_circuit_faces_are_counted_beyond_n_arrows():
    # code 28 has circuits at n = 5, faces with n + 1 arrows, which do not
    # fit the first packing of the count and force it to widen
    for selector in ("all", "saturated"):
        table = face_table(RuleSet.from_code(28), 5, selector)
        assert max(i + j for i, j in table.counts) == 6


@pytest.fixture
def memo_states(monkeypatch):
    """The memo sizes returned by every ``_count_cliques`` call, in call order."""
    states = []
    count = complexes._count_cliques

    def recorded(*args):
        polys, width, size = count(*args)
        states.append(size)
        return polys, width, size

    monkeypatch.setattr(complexes, "_count_cliques", recorded)
    return states


@pytest.mark.parametrize("n", [7, pytest.param(8, marks=pytest.mark.slow)])
def test_count_order_tables_equal_the_index_order_count(monkeypatch, memo_states, n):
    got = [complexes._face_counts.__wrapped__(code, n) for code in range(64)]
    upper_first = sum(memo_states)
    # the oracle: the same count on the masks of _adjacency(code, n), whose
    # arrows are in index order; the packed polynomials of every m <= n agree
    monkeypatch.setattr(complexes, "_count_order", lambda n: None)
    for code in range(64):
        assert complexes._face_counts.__wrapped__(code, n) == got[code], code
    assert upper_first < sum(memo_states) - upper_first


def test_count_order_memo_states_are_pinned(memo_states):
    # the memo size of SIMION_C, one count per n; the index order has
    # 6,540 states at n = 8 and 17,507 at n = 9
    for n in (8, 9):
        complexes._face_counts.__wrapped__(ALIASES["SIMION_C"].code, n)
    assert memo_states == [2382, 5561]


@st.composite
def _drawn_graphs(draw):
    """Up to 10 arrows with random directions, a random symmetric adjacency,
    1-4 start masks (not closed under taking suffixes) and a dim of at least
    the clique number."""
    m = draw(st.integers(0, 10))
    arrows = tuple((1, 2) if draw(st.booleans()) else (2, 1) for _ in range(m))
    masks = [0] * m
    for u, v in combinations(range(m), 2):
        if draw(st.booleans()):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    starts = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    clique = max(
        (len(c) for k in range(m + 1) for c in combinations(range(m), k)
         if all(masks[u] >> v & 1 for u, v in combinations(c, 2))),
        default=0,
    )
    dim = clique + draw(st.integers(0, 2))
    return arrows, tuple(masks), starts, dim


def _subset_tally(arrows, masks, start):
    """(forward, backward) -> number of cliques inside start, by every subset."""
    inside = [v for v in range(len(arrows)) if start >> v & 1]
    tally: dict[tuple[int, int], int] = {}
    for k in range(len(inside) + 1):
        for face in combinations(inside, k):
            if all(masks[u] >> v & 1 for u, v in combinations(face, 2)):
                forward = sum(arrows[v][0] < arrows[v][1] for v in face)
                key = (forward, k - forward)
                tally[key] = tally.get(key, 0) + 1
    return tally


def _suffix_closure(masks, starts):
    """The start masks closed under S -> S & up[v], v in S, up[v] the
    neighbours of v above it."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        cand = todo.pop()
        for v in range(len(masks)):
            if cand >> v & 1:
                sub = cand & masks[v] & -(2 << v)
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
    return seen


@settings(max_examples=150, deadline=None)
@given(_drawn_graphs())
def test_count_cliques_matches_a_subset_tally(graph):
    arrows, masks, starts, dim = graph
    polys, width, states = complexes._count_cliques(arrows, masks, starts, dim)
    slot = (1 << width) - 1
    for poly, start in zip(polys, starts):
        assert poly.bit_length() <= (dim + 1) ** 2 * width
        cells = {}
        for d in range(dim + 1):
            for i in range(d + 1):
                c = poly >> width * (d * (dim + 1) + i) & slot
                if c:
                    cells[(i, d - i)] = c
        assert cells == _subset_tally(arrows, masks, start)
    assert states == len(_suffix_closure(masks, starts))


def test_count_cliques_on_an_edgeless_graph_needs_no_deep_recursion():
    # the count resumes from memoised suffixes in a loop, so its depth is
    # bounded by the largest face, not by the number of arrows
    m = 3000
    arrows = ((1, 2),) * (m - 1000) + ((2, 1),) * 1000
    full = (1 << m) - 1
    polys, width, states = complexes._count_cliques(arrows, (0,) * m, [full], 1)
    slot = (1 << width) - 1
    assert [polys[0] >> width * k & slot for k in range(4)] == [1, 0, 1000, 2000]
    assert states == 2
