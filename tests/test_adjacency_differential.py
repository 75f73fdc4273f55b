"""The range-model adjacency build against the pairwise sweep it replaced.

``complexes._pair_classes`` classifies 24 range cases on a model line and
builds every row from node masks; the oracle here classifies every arrow
pair of V_n with ``pair_relation``.  ``_adjacency`` is also compared, for
all 64 codes, with the masks of the pairwise edge predicate, and its
count-order masks with its index-order masks.  The per-node masks of
``_node_masks`` place every arrow (t, h) on the one bit of
leaving[t] & entering[h], in both arrow orders.
"""

from functools import lru_cache

import pytest

import brute_axioms as brute
from rootflags import axioms, complexes, rules
from rootflags.rules import Arrow, RuleSet, arrows_of, pair_relation


def pair_classes_sweep(
    n: int,
) -> tuple[tuple[Arrow, ...], tuple[int, ...], dict[tuple[str, str], tuple[int, ...]]]:
    """``_pair_classes`` by ``pair_relation`` on every arrow pair."""
    arrows = tuple(arrows_of(n))
    m = len(arrows)
    shared = [0] * m
    rows: dict[tuple[str, str], list[int]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            rel = pair_relation(arrows[i], arrows[j])
            if rel.kind == "shared":
                row = shared
            elif rel.kind == "disjoint":
                row = rows.setdefault((rel.word, rel.placement), [0] * m)
            else:
                continue
            row[i] |= 1 << j
            row[j] |= 1 << i
    return arrows, tuple(shared), {key: tuple(row) for key, row in rows.items()}


@pytest.mark.parametrize("n", range(11))
def test_pair_classes_match_the_sweep(n):
    got = complexes._pair_classes.__wrapped__(n, None)
    want = pair_classes_sweep(n)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2], sorted(set(got[2]) ^ set(want[2]))


def test_pair_classes_classify_only_the_range_cases(count_calls):
    # two arrow directions times 12 range cases, classified once for the
    # pair classes of every n and the gap classes of every word length; the
    # all-pairs sweep would make m(m-1)/2 = 12,246 calls at n = 12
    calls = count_calls(complexes, "pair_relation")
    complexes._model_cases.cache_clear()
    complexes._pair_classes.__wrapped__(12, None)
    assert 0 < len(calls) <= 24
    axioms._gap_classes.__wrapped__(12)
    complexes._pair_classes.__wrapped__(11, None)
    assert 0 < len(calls) <= 24


def test_adjacency_matches_the_edge_predicate(monkeypatch):
    # pair_relation is a pure function of the two arrows, so sharing its
    # answers across the 64 codes leaves every is_edge answer as it is
    monkeypatch.setattr(rules, "pair_relation", lru_cache(maxsize=None)(rules.pair_relation))
    for code in range(64):
        rs = RuleSet.from_code(code)
        for n in range(7):
            arrows, masks = complexes._adjacency(code, n)
            assert arrows == tuple(arrows_of(n))
            assert masks == brute.edge_masks(rs, n), (rs.letters, n)


def edges(arrows: tuple[Arrow, ...], masks: tuple[int, ...]) -> set[tuple[Arrow, Arrow]]:
    """The arrow pairs (a, b) with b in the mask of a."""
    return {(a, b) for a, mask in zip(arrows, masks) for w, b in enumerate(arrows) if mask >> w & 1}


def test_count_order_masks_are_the_index_masks_relabeled():
    for n in range(8):
        order = complexes._count_order(n)
        assert sorted(order) == arrows_of(n)
        # upper node descending, then lower node ascending
        assert [(-max(a), min(a)) for a in order] == sorted((-max(a), min(a)) for a in order)
        for code in range(64):
            arrows, masks = complexes._adjacency(code, n, order)
            assert arrows == order
            got = edges(arrows, masks)
            assert got == edges(*complexes._adjacency(code, n)), (code, n)
            assert got == {(b, a) for a, b in got}, (code, n)


@pytest.mark.parametrize("n", range(9))
def test_node_masks_place_each_arrow_on_one_bit(n):
    # leaving[t] & entering[h] is the one bit of arrow (t, h) in either
    # arrow order, and empty for t = h: the one map from nodes to arrows
    for order in (None, complexes._count_order(n)):
        listed = order or arrows_of(n)
        leaving, entering = complexes._node_masks(n, order)
        for t in range(1, n + 2):
            assert leaving[t] & entering[t] == 0, (n, order is None, t)
            for h in range(1, n + 2):
                if h != t:
                    want = 1 << listed.index(Arrow(t, h))
                    assert leaving[t] & entering[h] == want, (n, order is None, t, h)
