import pytest

from rootflags.rules import (
    ALIASES,
    Arrow,
    ClassLabel,
    CROSS,
    NEST,
    NONCROSS,
    NONEST,
    RuleSet,
    TABLE_ROW_ORDER,
    TYPE_WORDS,
    alias_of,
    all_rulesets,
    arrows_of,
    classify,
    is_edge,
    orbit_census,
    orbit_of,
    orbits,
    pair_relation,
    parse_nodes,
    valid_rulesets,
)


def test_pair_relation_examples():
    rel = pair_relation(Arrow(1, 4), Arrow(3, 2))
    assert (rel.kind, rel.word, rel.placement) == ("disjoint", "THTH", "nested")

    assert pair_relation(Arrow(1, 2), Arrow(2, 3)).kind == "inadmissible"
    assert pair_relation(Arrow(1, 2), Arrow(2, 1)).kind == "inadmissible"

    rel = pair_relation(Arrow(2, 1), Arrow(4, 3))
    assert (rel.kind, rel.word, rel.placement) == ("disjoint", "HTHT", "sequential")

    rel = pair_relation(Arrow(1, 2), Arrow(1, 3))
    assert (rel.kind, rel.shared) == ("shared", "tail")
    rel = pair_relation(Arrow(1, 3), Arrow(2, 3))
    assert (rel.kind, rel.shared) == ("shared", "head")


def test_pair_relation_all_six_words():
    cases = {
        ("THTH", "sequential"): (Arrow(1, 2), Arrow(3, 4)),
        ("THTH", "nested"): (Arrow(1, 4), Arrow(3, 2)),
        ("HTHT", "sequential"): (Arrow(2, 1), Arrow(4, 3)),
        ("HTHT", "nested"): (Arrow(4, 1), Arrow(2, 3)),
        ("THHT", "noncrossing"): (Arrow(1, 2), Arrow(4, 3)),
        ("THHT", "crossing"): (Arrow(1, 3), Arrow(4, 2)),
        ("HTTH", "noncrossing"): (Arrow(2, 1), Arrow(3, 4)),
        ("HTTH", "crossing"): (Arrow(3, 1), Arrow(2, 4)),
        ("TTHH", "nested"): (Arrow(1, 4), Arrow(2, 3)),
        ("TTHH", "crossing"): (Arrow(1, 3), Arrow(2, 4)),
        ("HHTT", "nested"): (Arrow(4, 1), Arrow(3, 2)),
        ("HHTT", "crossing"): (Arrow(3, 1), Arrow(4, 2)),
    }
    for (word, placement), (a, b) in cases.items():
        rel = pair_relation(a, b)
        assert (rel.word, rel.placement) == (word, placement)
        # symmetric in the argument order
        rel2 = pair_relation(b, a)
        assert (rel2.word, rel2.placement) == (word, placement)


def test_pair_relation_rejects_bad_arrows():
    with pytest.raises(ValueError):
        pair_relation(Arrow(1, 1), Arrow(2, 3))
    with pytest.raises(ValueError):
        pair_relation(Arrow(1, 2), Arrow(2, 9), n=3)
    with pytest.raises(ValueError):
        pair_relation(Arrow(1, 2), Arrow(1, 2))


def test_classify_examples():
    lex = RuleSet(NONEST, NONEST, NONCROSS, NONCROSS, NEST, NEST)
    assert classify(lex) is ClassLabel.LEX

    simion_c = RuleSet(NEST, NONEST, CROSS, CROSS, NEST, NEST)
    assert classify(simion_c) is ClassLabel.SIMION_C

    bad = RuleSet(NEST, NONEST, CROSS, CROSS, CROSS, CROSS)
    assert classify(bad) is ClassLabel.INVALID

    # lex/revlex demand the forced THHT/HTTH settings
    almost_lex = RuleSet(NONEST, NONEST, CROSS, NONCROSS, NEST, NEST)
    assert classify(almost_lex) is ClassLabel.INVALID
    almost_revlex = RuleSet(NEST, NEST, CROSS, NONCROSS, NEST, NEST)
    assert classify(almost_revlex) is ClassLabel.INVALID


def test_exactly_one_classification_clause():
    def clauses(rs):
        lex = (
            rs.thth == NONEST
            and rs.htht == NONEST
            and rs.thht == NONCROSS
            and rs.htth == NONCROSS
        )
        revlex = (
            rs.thth == NEST
            and rs.htht == NEST
            and rs.thht == CROSS
            and rs.htth == CROSS
        )
        crossings = (rs.thht == CROSS) + (rs.htth == CROSS)
        simion = (rs.thth == NEST) != (rs.htht == NEST) and (
            crossings < 2 or (rs.tthh == NEST and rs.hhtt == NEST)
        )
        return [lex, revlex, simion]

    for rs in all_rulesets():
        hits = sum(clauses(rs))
        if classify(rs) is ClassLabel.INVALID:
            assert hits == 0
        else:
            assert hits == 1


def test_code_and_letters_roundtrip():
    for code in range(64):
        rs = RuleSet.from_code(code)
        assert RuleSet.from_code(code) is rs
        assert rs.code == code
        assert RuleSet.from_letters(rs.letters) == rs
        assert RuleSet.parse(str(code)) == rs
        assert RuleSet.parse(rs.verbose()) == rs
    assert RuleSet.parse("0b111100").code == 0b111100
    assert RuleSet.parse(0b111100) == RuleSet.parse("0b111100")


def test_code_is_computed_once_per_instance():
    for code in range(64):
        assert RuleSet.from_code(code).code == code
        # a fresh instance equal to the shared one keeps its code in the
        # instance after the first read, outside equality and hashing
        fresh = RuleSet(**{word.lower(): RuleSet.from_code(code).choice(word) for word in TYPE_WORDS})
        assert "code" not in vars(fresh)
        assert fresh.code == code and vars(fresh)["code"] == code
        assert fresh == RuleSet.from_code(code) and hash(fresh) == hash(RuleSet.from_code(code))


def test_parse_aliases_and_errors():
    assert RuleSet.parse("LEX_NN") == ALIASES["LEX_NN"]
    assert RuleSet.parse("simion_c") == ALIASES["SIMION_C"]
    with pytest.raises(ValueError):
        RuleSet.parse("ZZZZZZ")
    with pytest.raises(ValueError):
        RuleSet.parse("64")
    for code in (-1, 64):
        with pytest.raises(ValueError):
            RuleSet.from_code(code)
    with pytest.raises(ValueError):
        RuleSet.parse("THTH:nest")


def test_involutions():
    for rs in all_rulesets():
        assert rs.dual().dual() == rs
        assert rs.reflected_dual().reflected_dual() == rs
        assert rs.dual().reflected_dual() == rs.reflected_dual().dual()
        assert classify(rs.dual()) is classify(rs)
        assert classify(rs.reflected_dual()) is classify(rs)


#: Each involution as the field swap it stands for.
SWAPPED_FIELDS = {
    "dual": lambda rs: RuleSet(
        thth=rs.htht, htht=rs.thth, thht=rs.htth, htth=rs.thht, tthh=rs.hhtt, hhtt=rs.tthh
    ),
    "reflected_dual": lambda rs: RuleSet(
        thth=rs.thth, htht=rs.htht, thht=rs.htth, htth=rs.thht, tthh=rs.tthh, hhtt=rs.hhtt
    ),
}


@pytest.mark.parametrize("method", sorted(SWAPPED_FIELDS))
def test_involutions_are_the_field_swaps_and_shared_instances(method):
    for rs in all_rulesets():
        image = getattr(rs, method)()
        assert image == SWAPPED_FIELDS[method](rs), (rs.letters, method)
        assert image is getattr(rs, method)() is RuleSet.from_code(image.code)
        assert getattr(image, method)() is rs
        # an instance built field by field maps to the same shared instance
        fresh = RuleSet.parse(rs.verbose())
        assert fresh is not rs and getattr(fresh, method)() is image


def test_dual_swaps_tthh_hhtt():
    lex_nx = ALIASES["LEX_NX"]
    assert lex_nx.hhtt == NEST and lex_nx.tthh == CROSS
    flipped = lex_nx.dual()
    assert flipped.hhtt == CROSS and flipped.tthh == NEST
    assert classify(flipped) is ClassLabel.LEX


def test_reflected_dual_swaps_thht_htth():
    rs = RuleSet(NEST, NONEST, CROSS, NONCROSS, NEST, NEST)
    flipped = rs.reflected_dual()
    assert flipped.thht == NONCROSS and flipped.htth == CROSS
    assert (flipped.thth, flipped.htht, flipped.tthh, flipped.hhtt) == (
        rs.thth,
        rs.htht,
        rs.tthh,
        rs.hhtt,
    )


def test_valid_census():
    valid = valid_rulesets()
    assert len(valid) == 34
    assert len(orbits()) == 15
    census = orbit_census()
    assert sorted(census[ClassLabel.LEX]) == [1, 1, 2]
    assert sorted(census[ClassLabel.REVLEX]) == [1, 1, 2]
    assert census[ClassLabel.SIMION_A] == [2, 2, 2, 2]
    assert census[ClassLabel.SIMION_B] == [4, 4, 4, 4]
    assert census[ClassLabel.SIMION_C] == [2]


def test_orbit_of_simion_c():
    rep = ALIASES["SIMION_C"]
    assert orbit_of(rep) == tuple(sorted({rep, rep.dual()}, key=lambda r: r.code))
    assert len(orbit_of(rep)) == 2


def test_aliases_cover_the_orbits():
    reps = [ALIASES[name] for name in TABLE_ROW_ORDER]
    assert len(reps) == 15
    seen = set()
    for rep in reps:
        orbit = orbit_of(rep)
        assert orbit not in seen
        seen.add(orbit)
    for rep in reps:
        assert alias_of(rep) in TABLE_ROW_ORDER


def test_alias_of_is_the_orbit_scan():
    def scan(rs):
        for name in TABLE_ROW_ORDER:
            if rs in orbit_of(ALIASES[name]):
                return name
        return None

    names = [alias_of(rs) for rs in all_rulesets()]
    assert names == [scan(rs) for rs in all_rulesets()]
    assert names.count(None) == 30


def test_is_edge_examples():
    lex = ALIASES["LEX_NN"]
    assert is_edge(lex, Arrow(1, 2), Arrow(3, 4))
    assert not is_edge(lex, Arrow(1, 4), Arrow(3, 2))
    assert not is_edge(lex, Arrow(1, 2), Arrow(2, 3))
    assert is_edge(lex, Arrow(1, 2), Arrow(1, 3))


def test_arrows_of():
    assert len(arrows_of(4)) == 20
    assert arrows_of(1) == [Arrow(1, 2), Arrow(2, 1)]
    assert arrows_of(0) == []
    assert arrows_of(2)[0] == Arrow(1, 2)


def test_parse_nodes():
    assert parse_nodes("4, 1 3") == (1, 3, 4)
    assert parse_nodes([2, "5", 1]) == (1, 2, 5)
    assert parse_nodes("") == parse_nodes([]) == ()
    for bad in ("0 2", [3, -1], "1,2,1", "1 x"):
        with pytest.raises(ValueError):
            parse_nodes(bad)
