"""The bitmask axiom checks against the brute-force oracles in brute_axioms,
over all 64 codes, the invalid ones included.

The reports must agree exactly: verdict, witnesses and their order.  This
also catches a linkage check that wrongly passes, which the n = 5 verdicts
alone would not show.  The gap-mask linkage verdict meets the placement
walk it replaced, each code's verdicts decided on its orbit's least code
meet those decided on its own word table, the per-word relabel meets the
direct solve, the one-walk word table meets one search per word, and the
first support and linkage witnesses lead the lists of all witnesses.
Support matching lists (in their order) and restriction ensembles are
compared the same way, and so are the face stream with its forest flags
and the pruned walk that lists circuit faces.  On
K_{a,b}, the mask kernel of the matching-ensemble axioms meets the set-based
oracle on every small family and on drawn ones, and lists the same witnesses
in the same order as the scanning mask oracle; the tree table meets the
alternating-cycle oracle on every (spanning tree, matching) pair, and equals
the table built by one alternating-walk search per pair for a, b <= 4.
"""

import itertools
import json
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import brute_axioms as brute
from rootflags import axioms, checks, rules
from rootflags.axioms import AxiomReport, BipartiteEnsemble, MultiplicityError
from rootflags.complexes import adjacency, enumerate_faces
from rootflags.rules import ALIASES, Arrow, RuleSet

CODES = [RuleSet.from_code(code) for code in range(64)]
CHECKS = ("check_permissible", "check_support_axiom", "check_linkage_axiom")
# the codes with a circuit at n = 5, the least size with circuits, and at n = 6
CIRCUIT_CODES = [RuleSet.from_code(code) for code in (28, 29, 30, 44, 45, 46)]


def _has_circuit(rs, n):
    # the per-word verdict of check_permissible
    return bool(axioms._circuit_cores(rs.code, n))


@pytest.mark.parametrize(
    "n", [*range(8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9))]
)
def test_circuit_verdicts_per_word_match_path_search(n):
    # the circuit cores of the word table against the oracle's search for
    # alternating cycles, for every code; circuits first appear at n = 5
    circuits = [rs for rs in CODES if brute.has_circuit(rs, n)]
    assert [rs for rs in CODES if _has_circuit(rs, n)] == circuits
    assert circuits == (CIRCUIT_CODES if n >= 5 else [])


@pytest.mark.parametrize("n", range(8))
def test_permissibility_pair_conditions_hold_by_construction(n):
    # check_permissible does not re-check (a) and (b): for every code, every
    # pair sharing an endpoint is an edge and exactly one diagonal of every
    # square on four distinct nodes is
    arrows = rules.arrows_of(n)
    index = {arrow: v for v, arrow in enumerate(arrows)}
    pairs = []
    for (i, a), (j, b) in itertools.combinations(enumerate(arrows), 2):
        kind = rules.pair_relation(a, b).kind
        if kind == "shared":
            pairs.append((i, j, i, j))
        elif kind == "disjoint":
            pairs.append((i, j, index[(a.tail, b.head)], index[(b.tail, a.head)]))
    for rs in CODES:
        masks = adjacency(rs, n)[1]
        for i, j, i2, j2 in pairs:
            if (i, j) == (i2, j2):
                assert masks[i] >> j & 1, (rs.letters, arrows[i], arrows[j])
            else:
                assert masks[i] >> j & 1 != masks[i2] >> j2 & 1, (rs.letters, arrows[i], arrows[j])


def _first_witness(report):
    # the brute-force checks stop at the first witness they would list
    return AxiomReport(report.axiom, report.passed, report.witnesses[:1])


@pytest.mark.parametrize("n", range(6))
def test_adjacency_masks_are_the_edge_predicate(n):
    for rs in CODES:
        assert adjacency(rs, n)[1] == brute.edge_masks(rs, n), rs.letters


@pytest.mark.parametrize("n", range(6))
def test_reports_match_oracle_all_witnesses(axiom_oracle, n):
    # support and linkage list every witness as a placement of their
    # orbit's failing words and misses, so the oracle's walks over every
    # (I, J) pair and every matching face check them up to n = 5, where
    # support first fails; n = 5 circuits have their own test below
    for rs in CODES:
        for name in CHECKS if n < 5 else CHECKS[1:]:
            want = axiom_oracle(name, rs, n, all_witnesses=True)
            got = getattr(axioms, name)(rs, n, all_witnesses=True)
            assert got.to_json_dict() == want.to_json_dict(), (rs.letters, name)
            first = getattr(axioms, name)(rs, n)
            assert first.to_json_dict() == _first_witness(want).to_json_dict(), (rs.letters, name)


def test_reports_match_oracle_first_witness_n5(axiom_oracle):
    n = 5
    failed = dict.fromkeys(CHECKS, 0)
    circuits = 0
    for rs in CODES:
        wants = {name: axiom_oracle(name, rs, n) for name in CHECKS}
        for name, want in wants.items():
            got = getattr(axioms, name)(rs, n)
            assert got.to_json_dict() == want.to_json_dict(), (rs.letters, name)
            failed[name] += not want.passed
        circuit = any(
            w.detail.get("reason") == "contains a circuit"
            for w in wants["check_permissible"].witnesses
        )
        assert _has_circuit(rs, n) == brute.has_circuit(rs, n) == circuit, rs.letters
        circuits += circuit
    # every check was compared on failing codes, not only on passing ones
    assert all(count > 0 for count in failed.values()), failed
    assert circuits == 6


@pytest.mark.parametrize("n", range(1, 9))
def test_first_support_witness_leads_all_witnesses(n):
    # the first witness is the first failing word on nodes 1..2k; the list
    # of every placement of every failing word, in (|I|, I, J) order, must
    # start with it
    failed = 0
    for rs in CODES:
        every = axioms.check_support_axiom(rs, n, all_witnesses=True)
        first = axioms.check_support_axiom(rs, n)
        assert first.to_json_dict() == _first_witness(every).to_json_dict(), (rs.letters, n)
        failed += not first.passed
    # every code has unique support matchings up to n = 4
    assert (failed > 0) == (n >= 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_relabeled_word_tables_match_direct_solve(n):
    # each code's matchings of a word are relabeled from its orbit's least
    # code's table; solving the code's own words gives the same matching
    # lists, in the same order, for every word
    relabeled = longest = 0
    for rs in CODES:
        want = axioms._word_table.__wrapped__(rs.code, n)
        got = {word: axioms._relabeled(rs.code, n, word) for word in want}
        assert got == want, (rs.letters, n)
        if rules.orbit_of(rs)[0] != rs:
            relabeled += 1
            longest = max(longest, *map(len, got.values()))
    assert relabeled == 64 - len({rules.orbit_of(rs) for rs in CODES}) == 34
    # from n = 5 some relabeled lists hold several matchings, whose order counts
    assert longest >= 2 or n < 5


@pytest.mark.parametrize(
    "n", [*range(9), *(pytest.param(n, marks=pytest.mark.slow) for n in (9, 10))]
)
def test_word_table_walk_matches_per_word_solve(n):
    # the one-walk table against one _word_matchings search per word, in
    # order, for every code, the invalid ones included; at n = 10 on the 30
    # orbit least codes, whose tables verify builds
    codes = [rs for rs in CODES if n < 10 or rules.orbit_of(rs)[0] == rs]
    several = 0
    for rs in codes:
        masks = adjacency(rs, n)[1]
        want = {
            word: axioms._word_matchings(n, masks, word)
            for k in range(1, (n + 1) // 2 + 1)
            for word in axioms._words(k)
        }
        got = axioms._word_table.__wrapped__(rs.code, n)
        assert list(got) == list(want) and got == want, (rs.letters, n)
        several += any(len(matchings) > 1 for matchings in got.values())
    # from n = 5 some lists hold several matchings, whose order counts
    assert (several > 0) == (n >= 5)


@pytest.mark.parametrize(
    "n", [*range(1, 8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9))]
)
def test_first_linkage_witness_leads_all_witnesses(n):
    # the first witness is the least placement of the orbit's misses; the
    # list of every placement of every miss, in the order of the faces'
    # sorted arrow tuples, must start with it
    failed = 0
    for rs in CODES:
        every = axioms.check_linkage_axiom(rs, n, all_witnesses=True)
        first = axioms.check_linkage_axiom(rs, n)
        assert first.to_json_dict() == _first_witness(every).to_json_dict(), (rs.letters, n)
        failed += not first.passed
    # linkage first fails at n = 4, for 24 codes, and for 26 from n = 6
    assert failed == (0 if n < 4 else 24 if n < 6 else 26)


@pytest.mark.parametrize(
    "n", [*range(8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9, 10))]
)
def test_linkage_gap_masks_match_placement_walk(n):
    # the gap-mask verdict on each code's own word table against the
    # placement walk it replaced, for every code, the invalid ones included;
    # at n = 10 on the 30 orbit least codes, whose verdicts verify reads
    codes = [rs for rs in CODES if n < 10 or rules.orbit_of(rs)[0] == rs]
    assert len(codes) == (64 if n < 10 else 30)
    verdicts = [not axioms._linkage_misses(rs.code, n) for rs in codes]
    assert verdicts == [brute.linkage_holds_on_words(rs, n) for rs in codes]
    # linkage first fails at n = 4
    assert all(verdicts) == (n < 4)


@pytest.mark.slow
def test_linkage_witnesses_match_oracle_n6(axiom_oracle):
    # every linkage witness, in order, placed from the orbit's misses; the
    # tier-1 comparison of all witnesses stops at n = 5
    for rs in CODES:
        want = axiom_oracle("check_linkage_axiom", rs, 6, all_witnesses=True)
        got = axioms.check_linkage_axiom(rs, 6, all_witnesses=True)
        assert got.to_json_dict() == want.to_json_dict(), rs.letters


@pytest.mark.slow
def test_support_witnesses_match_oracle_n6(axiom_oracle):
    # every support witness, in order, placed from the orbit's failing
    # words; the tier-1 comparison of all witnesses stops at n = 5
    failed = 0
    for rs in CODES:
        want = axiom_oracle("check_support_axiom", rs, 6, all_witnesses=True)
        got = axioms.check_support_axiom(rs, 6, all_witnesses=True)
        assert got.to_json_dict() == want.to_json_dict(), rs.letters
        failed += not want.passed
    assert failed > 0


@pytest.mark.parametrize("n", range(9))
def test_orbit_verdicts_match_own_table_verdicts(n):
    # verify decides each axiom on the orbit's least code; deciding it on
    # every code's own word table and masks gives the same verdicts
    for rs in CODES:
        own = axioms._word_table.__wrapped__(rs.code, n)
        want = [
            not axioms._circuit_cores(rs.code, n),
            all(len(matchings) == 1 for matchings in own.values()),
            not axioms._linkage_misses(rs.code, n),
        ]
        assert [report.passed for report in axioms.verify(rs, n)] == want, (rs.letters, n)


def test_gap_tables_are_the_edge_predicate(shared_pair_relation):
    # every gap bit of every position triple, for every code and every word
    # length up to 6: the relinked arrow at a with k in the gap, against
    # is_edge with position p on node 2p+2 and gap g on node 2g+1
    for length in range(3, 7):
        for rs in CODES:
            table = axioms._gap_table(rs.code, length)
            for a, t, h in itertools.product(range(length), repeat=3):
                got = table[a][t * length + h]
                if len({a, t, h}) < 3:
                    assert got == -1, (rs.letters, a, t, h)
                    continue
                other = Arrow(2 * t + 2, 2 * h + 2)
                want = 0
                for gap in range(length + 1):
                    k = 2 * gap + 1
                    want |= rules.is_edge(rs, Arrow(k, 2 * a + 2), other) << gap
                    want |= rules.is_edge(rs, Arrow(2 * a + 2, k), other) << gap + length + 1
                assert got == want, (rs.letters, length, a, t, h)


@pytest.mark.parametrize("n", [5, pytest.param(6, marks=pytest.mark.slow)])
def test_circuit_witnesses_match_oracle_all_witnesses(axiom_oracle, n):
    # the full witness listing of the circuit walk, from the least size
    # with circuits; n = 6 has 19-42 witnesses per code
    assert [rs for rs in CODES if _has_circuit(rs, n)] == CIRCUIT_CODES
    for rs in CIRCUIT_CODES:
        want = axiom_oracle("check_permissible", rs, n, all_witnesses=True)
        got = axioms.check_permissible(rs, n, all_witnesses=True)
        assert want.witnesses
        assert got.to_json_dict() == want.to_json_dict(), rs.letters


@pytest.mark.parametrize("n", range(6))
def test_face_stream_and_forest_flags_match_oracle(n):
    # all codes below n = 5, where every face is a forest, and the circuit
    # codes at n = 5
    for rs in CODES if n < 5 else CIRCUIT_CODES:
        want = [(face, brute.is_forest(face)) for face in brute.faces(rs, n)]
        got = [(face.arrows, face.is_forest) for face in enumerate_faces(rs, n)]
        assert got == want, rs.letters
        assert all(forest for _, forest in want) == (n < 5), rs.letters


@pytest.mark.parametrize("n", [5, 6])
def test_circuit_prune_drops_only_circuit_free_subtrees(n, monkeypatch):
    # the pruned walk of check_permissible lists the same circuit faces, in
    # the same order, as the unpruned stream, and the prune is asked only
    # about children that are still forests, each answer that of the
    # oracle's cycle search; at n = 5 every circuit face is maximal, at
    # n = 6 some extend
    walk = axioms._iter_cliques
    for rs in CIRCUIT_CODES:
        arrows = adjacency(rs, n)[0]
        asked = []

        def spied(arrows, masks, n, prune):
            def checked(face, cand):
                got = prune(face, cand)
                assert got == brute.has_circuit(rs, n, cand, face), (rs.letters, face, cand)
                asked.append((face, got))
                return got

            return walk(arrows, masks, n, prune=checked)

        monkeypatch.setattr(axioms, "_iter_cliques", spied)
        report = axioms.check_permissible(rs, n, all_witnesses=True)
        want = [face.arrows for face in enumerate_faces(rs, n) if not face.is_forest]
        assert [w.detail["face"] for w in report.witnesses] == [
            [list(a) for a in sorted(face)] for face in want
        ], rs.letters
        assert want and asked, rs.letters
        # both answers were compared
        assert {got for _, got in asked} == {True, False}, rs.letters
        for face, _ in asked:
            assert brute.is_forest(a for v, a in enumerate(arrows) if face >> v & 1), rs.letters


@pytest.mark.parametrize("n", [5, 6, 7])
def test_lazy_circuit_prune_matches_placement_table(n, monkeypatch):
    # on every call of the pruned walk, the lazy embedding of the core
    # shapes answers as the table of every core placed on every node set
    # that it replaced, and both answers occur
    walk = axioms._iter_cliques
    for rs in CIRCUIT_CODES:
        oracle = brute.placement_prune(rs, n)
        answers = set()

        def spied(arrows, masks, n, prune):
            def checked(face, cand):
                got = prune(face, cand)
                assert got == oracle(face, cand), (rs.letters, face, cand)
                answers.add(got)
                return got

            return walk(arrows, masks, n, prune=checked)

        monkeypatch.setattr(axioms, "_iter_cliques", spied)
        axioms.check_permissible(rs, n, all_witnesses=True)
        assert answers == {True, False}, rs.letters


@pytest.fixture
def shared_pair_relation(monkeypatch):
    # pair_relation is a pure function of the two arrows, so sharing its
    # answers across the 64 codes leaves every is_edge answer as it is
    monkeypatch.setattr(rules, "pair_relation", lru_cache(maxsize=None)(rules.pair_relation))


def _support_matchings(rs, tails, heads):
    """All matchings from I onto J as ``support_matching`` reports them: its
    one matching, or the list its MultiplicityError carries."""
    try:
        return [axioms.support_matching(rs, tails, heads)]
    except MultiplicityError as exc:
        assert exc.count == len(exc.matchings) != 1
        return list(exc.matchings)


def test_support_matchings_match_oracle(shared_pair_relation):
    # n = 5 gives every disjoint (I, J) with |I| = |J| <= 3 on nodes 1..6,
    # so every T/H word of length <= 6 in every placement
    pairs = list(brute.disjoint_pairs(5))
    assert len(pairs) == 140
    counts = set()
    for rs in CODES:
        assert _support_matchings(rs, [], []) == [frozenset()]
        for tails, heads in pairs:
            want = brute.all_support_matchings(rs, tails, heads)
            # the caller's node order does not matter
            got = _support_matchings(rs, tails[::-1], heads)
            assert got == want, (rs.letters, tails, heads)
            counts.add(len(want))
    # the unique case and both kinds of failure were compared
    assert 0 in counts and 1 in counts and any(count >= 2 for count in counts), counts


def test_word_matchings_match_oracle_on_every_word(shared_pair_relation):
    # every word of at most 4 tails, placed on nodes 1..len(word) and solved
    # on the masks of every V_n, n <= 7, that holds it; the oracle's
    # matchings do not depend on n
    counts = set()
    for rs in CODES:
        for k in range(5):
            for word in axioms._words(k):
                tails, heads = _tails_heads(word)
                want = brute.all_support_matchings(rs, tails, heads)
                counts.add(len(want))
                assert _support_matchings(rs, tails, heads) == want, (rs.letters, word)
                for n in range(max(2 * k - 1, 0), 8):
                    got = axioms._word_matchings(n, adjacency(rs, n)[1], word)
                    assert all([t + 1 for t, _ in m] == tails for m in got)
                    relabeled = [frozenset(Arrow(t + 1, h + 1) for t, h in m) for m in got]
                    assert relabeled == want, (rs.letters, word, n)
    assert 0 in counts and 1 in counts and any(count >= 2 for count in counts), counts


def test_support_matchings_match_oracle_at_eight_tails(shared_pair_relation):
    # |I| = |J| = 8 solves each word at n = 15, where the adjacency build is
    # the cost of a cold request
    rng = random.Random(8)
    codes = [ALIASES["LEX_NN"], ALIASES["SIMION_C"], ALIASES["REVLEX_NN"]]
    codes += [RuleSet.from_code(0), RuleSet.from_code(63)]
    for rs in codes:
        for _ in range(5):
            nodes = rng.sample(range(1, 21), 16)
            tails, heads = sorted(nodes[:8]), sorted(nodes[8:])
            want = brute.all_support_matchings(rs, tails, heads)
            assert _support_matchings(rs, tails, heads) == want, (rs.letters, tails, heads)


def test_restriction_patterns_match_oracle(shared_pair_relation):
    patterns = [
        pattern
        for a, b in itertools.product(range(4), repeat=2)
        for pattern in set(itertools.permutations("T" * a + "H" * b))
    ]
    shared = {}
    for rs in CODES:
        for pattern in patterns:
            want = brute.restriction_by_pattern(rs, pattern)
            got = axioms._restriction_by_pattern(rs.code, pattern)  # edge masks
            assert axioms._edge_family(pattern.count("H"), got) == want, (rs.letters, pattern)
            if "T" in pattern and "H" in pattern:
                tails, heads = _tails_heads(pattern)
                matchings = axioms.restriction_ensemble(rs, tails, heads).matchings
                assert matchings == want, (rs.letters, pattern)
                # equal families are one object
                assert shared.setdefault(want, matchings) is matchings, (rs.letters, pattern)


def _tails_heads(pattern):
    tails = [p for p, letter in enumerate(pattern, 1) if letter == "T"]
    heads = [p for p, letter in enumerate(pattern, 1) if letter == "H"]
    return tails, heads


@lru_cache(maxsize=None)
def ensemble_families():
    """The distinct restriction ensembles of the valid codes with
    1 <= |I|, |J| <= 3, the ones the matching-ensembles check visits."""
    found = {}
    for rs in rules.valid_rulesets():
        for a, b in itertools.product((1, 2, 3), repeat=2):
            for pattern in set(itertools.permutations("T" * a + "H" * b)):
                ens = axioms.restriction_ensemble(rs, *_tails_heads(pattern))
                found.setdefault((ens.a, ens.b, ens.matchings), ens)
    return tuple(found.values())


def _k22_diagonal_ensembles():
    out = []
    for diagonal in (frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 1)})):
        trees = [t for t in brute.spanning_trees(2, 2) if not brute.has_alternating_cycle(t, diagonal)]
        out.append(brute.phi(trees, 2, 2))
    return out


def test_spanning_trees_match_oracle():
    for a, b in itertools.product(range(1, 4), repeat=2):
        assert axioms.spanning_trees(a, b) == brute.spanning_trees(a, b), (a, b)


def test_postnikov_compatible_matches_oracle_on_k33_trees():
    trees = brute.spanning_trees(3, 3)
    for t1, t2 in itertools.product(trees, repeat=2):
        want = not brute.has_alternating_cycle(t1, t2)
        assert axioms.postnikov_compatible(t1, t2) == want, (sorted(t1), sorted(t2))


def test_postnikov_compatible_matches_oracle_on_ensemble_trees_and_matchings():
    families = ensemble_families()
    assert len(families) == 74
    pairs = {
        (tree, m)
        for ens in families
        for tree in brute.spanning_trees(ens.a, ens.b)
        for m in ens.matchings
    }
    for tree, m in pairs:
        want = not brute.has_alternating_cycle(tree, m)
        assert axioms.postnikov_compatible(tree, m) == want, (sorted(tree), sorted(m))


def test_phi_and_phi_inverse_match_oracle():
    for ens in ensemble_families() + tuple(_k22_diagonal_ensembles()):
        assert _assert_me_axioms_match_oracle(ens).passed, ens
        trees = brute.phi_inverse(ens)
        assert axioms.phi_inverse(ens) == trees, ens
        assert axioms.phi(trees, ens.a, ens.b) == brute.phi(trees, ens.a, ens.b) == ens


def _all_matchings(a, b):
    edges = {(l, r) for l in range(1, a + 1) for r in range(1, b + 1)}
    return sorted(brute.matchings_within(edges), key=sorted)


def _vertices(matching):
    return {l for l, _ in matching}, {r for _, r in matching}


def _witness_keys(report):
    return sorted(json.dumps(w.to_json_dict(), sort_keys=True) for w in report.witnesses)


def _assert_me_axioms_match_oracle(ens):
    """Compare the mask kernel with the oracle on one family, and its
    witnesses, in order, with the scanning mask oracle's in both modes;
    return the oracle's report with every witness."""
    want = brute.me_axioms(ens, all_witnesses=True)
    got = axioms.me_axioms(ens, all_witnesses=True)
    assert got.passed == want.passed, ens
    assert _witness_keys(got) == _witness_keys(want), ens
    # the first witness may differ in order, not in kind
    first = axioms.me_axioms(ens)
    family = frozenset(axioms._edge_mask(m, ens.a, ens.b) for m in ens.matchings)
    for report, mode in ((first, False), (got, True)):
        scanned = brute.ensemble_violations_by_scan(ens.a, ens.b, family, mode)
        assert list(report.witnesses) == scanned, (ens, mode)
    assert first.passed == want.passed and len(first.witnesses) == (not want.passed), ens
    if not want.passed:
        assert first.witnesses[0].axiom == want.witnesses[0].axiom, ens
        assert _witness_keys(first)[0] in _witness_keys(want), ens
    return want


def test_me_axioms_match_oracle_on_every_small_family():
    # every family of matchings of K_{a,b} with a*b <= 4: 2^7 on K_{2,2};
    # linkage fails on 152 of them, never first
    firsts, kinds = set(), set()
    families = 0
    for a, b in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)]:
        matchings = _all_matchings(a, b)
        for size in range(len(matchings) + 1):
            for chosen in itertools.combinations(matchings, size):
                want = _assert_me_axioms_match_oracle(BipartiteEnsemble(a, b, frozenset(chosen)))
                firsts.add(want.witnesses[0].axiom if want.witnesses else "pass")
                kinds |= {w.axiom for w in want.witnesses}
                families += 1
    assert families == 4 + 2 * 8 + 2 * 16 + 2 * 32 + 128
    assert firsts == {"pass", "closure", "support"}
    assert kinds == {"closure", "support", "linkage"}


@st.composite
def _drawn_ensembles(draw):
    """A family on K_{2,3}, K_{3,2} or K_{3,3}: any set of matchings (mostly
    failing closure), a set closed under taking submatchings (mostly failing
    support), or a restriction ensemble with one matching swapped for
    another on the same vertices (failing any axiom, or none)."""
    a, b = draw(st.sampled_from([(2, 3), (3, 2), (3, 3)]))
    matchings = _all_matchings(a, b)
    mode = draw(st.sampled_from(["any", "closed", "swapped"]))
    if mode == "swapped":
        bases = [ens.matchings for ens in ensemble_families() if (ens.a, ens.b) == (a, b)]
        base = draw(st.sampled_from(bases))
        drop = draw(st.sampled_from(sorted(base, key=sorted)))
        same = [m for m in matchings if m != drop and _vertices(m) == _vertices(drop)]
        chosen = base - {drop} | ({draw(st.sampled_from(same))} if same else set())
    else:
        chosen = draw(st.sets(st.sampled_from(matchings)))
        if mode == "closed":
            chosen = {sub for m in chosen for sub in brute.matchings_within(m)}
    return BipartiteEnsemble(a, b, frozenset(chosen))


def _swapped(drop, new):
    """The LEX_NN restriction ensemble on K_{3,3} with one matching swapped."""
    base = axioms.restriction_ensemble(ALIASES["LEX_NN"], (1, 2, 3), (4, 5, 6)).matchings
    return BipartiteEnsemble(3, 3, base - {frozenset(drop)} | {frozenset(new)})


# a family of K_{3,3} whose first violation is of each kind
FAILING = {
    "closure": _swapped([(1, 3), (2, 2)], [(1, 2), (2, 3)]),
    "support": BipartiteEnsemble(3, 3, frozenset({frozenset(), frozenset({(1, 1)})})),
    "linkage": _swapped([(1, 2), (3, 1)], [(1, 1), (3, 2)]),
}


def test_failing_examples_fail_first_where_named():
    for axiom, ens in FAILING.items():
        assert brute.me_axioms(ens).witnesses[0].axiom == axiom


@settings(max_examples=100, deadline=None)
@given(_drawn_ensembles())
@example(FAILING["closure"])
@example(FAILING["support"])
@example(FAILING["linkage"])
def test_me_axioms_match_oracle_on_drawn_families(ens):
    _assert_me_axioms_match_oracle(ens)


def test_tree_table_matches_oracle_on_every_tree_and_matching():
    # every (spanning tree, matching) pair of K_{a,b}, a, b <= 3, not only
    # the pairs that the restriction families reach
    pairs = 0
    for a, b in itertools.product(range(1, 4), repeat=2):
        index, table = axioms._tree_table(a, b)
        matchings = _all_matchings(a, b)
        assert sorted(index) == sorted(axioms._edge_mask(m, a, b) for m in matchings)
        assert [axioms._edge_set(tree, b) for tree, _, _ in table] == brute.spanning_trees(a, b)
        for tree, conflicts, inside in table:
            edges = axioms._edge_set(tree, b)
            for m in matchings:
                bit = index[axioms._edge_mask(m, a, b)]
                assert bool(conflicts & bit) == brute.has_alternating_cycle(edges, m), (edges, m)
                assert bool(inside & bit) == (m <= edges), (edges, m)
                pairs += 1
    assert pairs == 2 + 2 * 3 + 2 * 4 + 4 * 7 + 2 * 12 * 13 + 81 * 34


def test_cycle_halves_are_counted():
    # two ordered halves per simple cycle of length >= 4
    counts = {(2, 2): 2, (2, 3): 6, (3, 3): 30, (3, 4): 84, (4, 4): 408}
    assert {ab: len(axioms._cycle_halves(*ab)) for ab in counts} == counts
    assert axioms._cycle_halves(1, 4) == axioms._cycle_halves(4, 1) == ()


@pytest.mark.parametrize(
    "a, b",
    [
        *((a, b) for a, b in itertools.product(range(1, 5), repeat=2) if a * b <= 12),
        pytest.param(4, 4, marks=pytest.mark.slow),  # 4,096 trees
    ],
)
def test_tree_table_matches_the_walk_oracle(a, b):
    assert axioms._tree_table(a, b) == brute.tree_table_by_walks(a, b)


def test_matching_ensembles_check_work(count_calls):
    # the check's work, by counts: each distinct family once through the
    # axiom kernel and the tree table
    kernel = count_calls(checks, "_ensemble_violations")
    trees = count_calls(checks, "_compatible_trees")
    assert checks.check_matching_ensembles(5).passed
    assert len(kernel) == len(trees) == 74
    assert sum(len(axioms._compatible_trees(*args)[1]) for args in trees) == 375
