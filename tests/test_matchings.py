import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import brute_axioms as brute
from rootflags import matchings
from rootflags.axioms import MultiplicityError, restriction_ensemble, support_matching
from rootflags.matchings import (
    BOTH_EMPTY,
    LOWER_DYCK,
    NEITHER,
    UPPER_DYCK,
    canonical_backward_matching,
    canonical_forward_matching,
    construct_matching,
    dyck_classify,
    th_word,
)
from rootflags.rules import (
    ALIASES,
    Arrow,
    CROSS,
    NEST,
    TABLE_ROW_ORDER,
    RuleSet,
    is_edge,
    valid_rulesets,
)


def test_th_word_and_classification():
    w = th_word([3, 4], [1, 2])
    assert w.word == "HHTT"
    assert dyck_classify(w) == LOWER_DYCK

    w = th_word([1, 2], [3, 4])
    assert w.word == "TTHH"
    assert dyck_classify(w) == UPPER_DYCK

    # touches the axis but never goes below: upper
    w = th_word([1, 3], [2, 4])
    assert w.word == "THTH"
    assert dyck_classify(w) == UPPER_DYCK

    assert dyck_classify(th_word([], [])) == BOTH_EMPTY
    assert dyck_classify(th_word([1, 4], [2, 3])) == NEITHER


def test_th_word_validation():
    with pytest.raises(ValueError):
        th_word([1, 2], [2, 3])
    with pytest.raises(ValueError):
        th_word([1], [2, 3])


def test_canonical_backward_matching_rules():
    w = th_word([3, 4], [1, 2])  # HHTT
    nested = canonical_backward_matching(NEST, w)
    assert nested == frozenset({Arrow(4, 1), Arrow(3, 2)})
    crossing = canonical_backward_matching(CROSS, w)
    assert crossing == frozenset({Arrow(3, 1), Arrow(4, 2)})

    w = th_word([2, 4], [1, 3])  # HTHT: forced on two factors
    for rule in (NEST, CROSS):
        assert canonical_backward_matching(rule, w) == frozenset(
            {Arrow(2, 1), Arrow(4, 3)}
        )

    with pytest.raises(ValueError):
        canonical_backward_matching(NEST, th_word([1, 2], [3, 4]))


def test_canonical_forward_matching_rules():
    w = th_word([1, 2], [3, 4])  # TTHH
    assert canonical_forward_matching(NEST, w) == frozenset(
        {Arrow(1, 4), Arrow(2, 3)}
    )
    assert canonical_forward_matching(CROSS, w) == frozenset(
        {Arrow(1, 3), Arrow(2, 4)}
    )
    assert canonical_forward_matching(NEST, th_word([1], [2])) == frozenset(
        {Arrow(1, 2)}
    )
    with pytest.raises(ValueError):
        canonical_forward_matching(NEST, th_word([1, 3], [2, 4]))


def test_construct_matching_examples():
    assert construct_matching(ALIASES["LEX_NN"], [2, 4], [1, 5]) == frozenset(
        {Arrow(2, 1), Arrow(4, 5)}
    )
    assert construct_matching(ALIASES["SIMION_A_NN"], [1, 4], [2, 3]) == frozenset(
        {Arrow(1, 2), Arrow(4, 3)}
    )
    assert construct_matching(ALIASES["REVLEX_NN"], [1, 2], [3, 4]) == frozenset(
        {Arrow(1, 4), Arrow(2, 3)}
    )
    assert construct_matching(ALIASES["REVLEX_NN"], [1, 4], [2, 3]) == frozenset(
        {Arrow(1, 3), Arrow(4, 2)}
    )


def test_construct_matching_empty_and_invalid():
    assert construct_matching(ALIASES["LEX_NN"], [], []) == frozenset()
    bad = RuleSet.parse("THTH:nonest HTHT:nonest THHT:noncross HTTH:cross TTHH:nest HHTT:nest")
    with pytest.raises(ValueError):
        construct_matching(bad, [1], [2])


def test_construct_matching_handles_both_orientations():
    rs = ALIASES["SIMION_B_XN"]
    flipped = rs.dual()
    sigma = construct_matching(rs, [1, 3, 6], [2, 4, 5])
    tau = construct_matching(flipped, [2, 4, 5], [1, 3, 6])
    assert tau == frozenset(a.reversed() for a in sigma)


def test_construct_equals_support_matching_up_to_twelve_tails():
    # seeded words of every length 0, 2, ..., 24 for each orbit representative
    rng = random.Random(12)
    for name in TABLE_ROW_ORDER:
        rs = ALIASES[name]
        for k in range(13):
            for _ in range(2):
                nodes = rng.sample(range(1, 2 * k + 7), 2 * k)
                tails, heads = sorted(nodes[:k]), sorted(nodes[k:])
                assert construct_matching(rs, tails, heads) == support_matching(
                    rs, tails, heads
                ), (name, tails, heads)


def test_construct_equals_support_matching_on_every_word_up_to_length_ten():
    # every T/H word with k = 1..5 tails placed on nodes 1..2k, for each of
    # the 34 valid codes; the 30 invalid codes are refused
    words = [
        (tails, tuple(x for x in range(1, 2 * k + 1) if x not in tails))
        for k in range(1, 6)
        for tails in itertools.combinations(range(1, 2 * k + 1), k)
    ]
    assert len(words) == 2 + 6 + 20 + 70 + 252
    for code in range(64):
        rs = RuleSet.from_code(code)
        if rs not in VALID:
            with pytest.raises(ValueError, match="does not define a triangulation"):
                construct_matching(rs, [1], [2])
            continue
        for tails, heads in words:
            assert construct_matching(rs, tails, heads) == support_matching(
                rs, tails, heads
            ), (rs.letters, tails, heads)
    assert len(VALID) == 34


@pytest.mark.parametrize(
    "rs, descents",
    [
        (ALIASES["LEX_NN"], 0),
        (ALIASES["REVLEX_XN"], 0),
        (ALIASES["SIMION_C"], 1),
        (ALIASES["SIMION_A_NN"].dual(), 2),  # the dual branch
        (ALIASES["SIMION_B_NN"].reflected_dual(), 2),  # the reflected branch
        (ALIASES["SIMION_B_NN"].dual().reflected_dual(), 3),  # both
    ],
)
def test_each_node_set_is_parsed_once(count_calls, rs, descents):
    # support_matching, construct_matching and restriction_ensemble all parse
    # I and J in matchings._trace; the Simion branches run on the word
    parsed = count_calls(matchings, "parse_nodes")
    oriented = count_calls(matchings, "_oriented_simion_matching")
    tails, heads = [2, 5, 6, 9], [1, 3, 7, 8]
    built = construct_matching(rs, tails, heads)
    assert len(parsed) == 2 and len(oriented) == descents
    assert support_matching(rs, tails, heads) == built
    assert len(parsed) == 4
    restriction_ensemble(rs, tails, heads[:3])
    assert len(parsed) == 6


def test_multiplicity_error_parses_each_node_set_once(count_calls):
    parsed = count_calls(matchings, "parse_nodes")
    bad = RuleSet.parse("THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:nest HHTT:cross")
    with pytest.raises(MultiplicityError) as exc:
        support_matching(bad, "6 2 4", [5, 3, 1])
    assert len(parsed) == 2
    assert (exc.value.tails, exc.value.heads, exc.value.count) == ((2, 4, 6), (1, 3, 5), 2)
    assert list(exc.value.matchings) == brute.all_support_matchings(bad, [2, 4, 6], [1, 3, 5])


def test_backward_matching_avoids_forbidden_pattern():
    # under the nesting rule no two output arrows cross; under the crossing
    # rule no two nest
    w = th_word([4, 5, 6], [1, 2, 3])
    nested = canonical_backward_matching(NEST, w)
    crossing = canonical_backward_matching(CROSS, w)

    def spans(m):
        return sorted((min(a), max(a)) for a in m)

    for lo1, hi1 in spans(nested):
        for lo2, hi2 in spans(nested):
            assert not (lo1 < lo2 < hi1 < hi2)
    for lo1, hi1 in spans(crossing):
        for lo2, hi2 in spans(crossing):
            assert not (lo1 < lo2 < hi2 < hi1)


def test_construct_matches_bruteforce_beyond_size_three():
    # the acceptance sweep stops at |I| = 3; spot-check sizes 4 and 5
    import random

    rng = random.Random(7)
    nodes = list(range(1, 11))
    for rs in valid_rulesets():
        for size in (4, 5):
            for _ in range(3):
                chosen = rng.sample(nodes, 2 * size)
                tails = sorted(rng.sample(chosen, size))
                heads = sorted(x for x in chosen if x not in tails)
                assert construct_matching(rs, tails, heads) == support_matching(
                    rs, tails, heads
                ), (rs.letters, tails, heads)


VALID = valid_rulesets()


@st.composite
def disjoint_node_sets(draw, max_node=9, max_size=3):
    size = draw(st.integers(1, max_size))
    nodes = draw(
        st.lists(
            st.integers(1, max_node), min_size=2 * size, max_size=2 * size, unique=True
        )
    )
    tails = draw(st.permutations(nodes))[:size]
    heads = [x for x in nodes if x not in tails]
    return sorted(tails), sorted(heads)


@settings(max_examples=60, deadline=None)
@given(
    rs=st.sampled_from(VALID),
    sets=disjoint_node_sets(),
)
def test_construct_equals_bruteforce(rs, sets):
    tails, heads = sets
    built = construct_matching(rs, tails, heads)
    assert built == support_matching(rs, tails, heads)


@settings(max_examples=60, deadline=None)
@given(
    rs=st.sampled_from(VALID),
    sets=disjoint_node_sets(max_node=12, max_size=4),
)
def test_construct_output_is_a_matching_face(rs, sets):
    tails, heads = sets
    sigma = construct_matching(rs, tails, heads)
    assert {a.tail for a in sigma} == set(tails)
    assert {a.head for a in sigma} == set(heads)
    arrows = sorted(sigma)
    for i, a in enumerate(arrows):
        for b in arrows[i + 1:]:
            assert is_edge(rs, a, b)


@settings(max_examples=60, deadline=None)
@given(sets=disjoint_node_sets(max_node=14, max_size=5))
def test_th_word_path_properties(sets):
    tails, heads = sets
    w = th_word(tails, heads)
    levels = w.levels()
    assert levels[-1] == 0
    kind = dyck_classify(w)
    if kind == LOWER_DYCK:
        assert max(levels) <= 0
    elif kind == UPPER_DYCK:
        assert min(levels) >= 0
    else:
        assert max(levels) > 0 and min(levels) < 0
