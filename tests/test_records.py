"""Value semantics of the record classes.

Each record is immutable and compares, hashes and prints by its fields:
construction by position and by keyword agree, equal records hash alike,
a field can be neither assigned nor deleted, and the repr is
``Name(field=value, ...)``.  ``Violation.detail`` and ``FaceTable.counts``
take part in equality but not in the hash.  Each class names its fields
once, in ``_fields``, in ``__init__`` order, and survives pickling and
copying.
"""

import copy
import pickle

import pytest

from rootflags.axioms import AxiomReport, BipartiteEnsemble, Violation
from rootflags.checks import CheckResult
from rootflags.complexes import ExcessSignature, Face, FaceTable
from rootflags.matchings import THWord, dyck_classify, th_word
from rootflags.rules import Arrow, PairRelation, RuleSet
from rootflags.series import SeriesRing

EDGES = frozenset({frozenset({(1, 1), (2, 2)})})
CHOICES = ("nonest", "nonest", "noncross", "noncross", "cross", "cross")
WORDS = ("thth", "htht", "thht", "htth", "tthh", "hhtt")

#: name: (by position, by keyword, an unequal record, its fields, its repr)
RECORDS = {
    "Violation": (
        lambda: Violation("support", {"count": 2}),
        lambda: Violation(axiom="support", detail={"count": 2}),
        lambda: Violation("linkage", {"count": 2}),
        ("axiom", "detail"),
        "Violation(axiom='support', detail={'count': 2})",
    ),
    "AxiomReport": (
        lambda: AxiomReport("support", False, (Violation("support", {}),)),
        lambda: AxiomReport(axiom="support", passed=False, witnesses=(Violation("support", {}),)),
        lambda: AxiomReport("support", False),
        ("axiom", "passed", "witnesses"),
        "AxiomReport(axiom='support', passed=False, "
        "witnesses=(Violation(axiom='support', detail={}),))",
    ),
    "BipartiteEnsemble": (
        lambda: BipartiteEnsemble(2, 2, EDGES),
        lambda: BipartiteEnsemble(a=2, b=2, matchings=EDGES),
        lambda: BipartiteEnsemble(2, 3, EDGES),
        ("a", "b", "matchings"),
        "BipartiteEnsemble(a=2, b=2, matchings=frozenset({frozenset({(1, 1), (2, 2)})}))",
    ),
    "CheckResult": (
        lambda: CheckResult("catalan-quadratic", True, "ok", 11),
        lambda: CheckResult(name="catalan-quadratic", passed=True, detail="ok", compared=11),
        lambda: CheckResult("catalan-quadratic", True, "ok", 12),
        ("name", "passed", "detail", "compared"),
        "CheckResult(name='catalan-quadratic', passed=True, detail='ok', compared=11)",
    ),
    "Face": (
        lambda: Face((Arrow(1, 2),), 1, True),
        lambda: Face(arrows=(Arrow(1, 2),), n=1, is_forest=True),
        lambda: Face((Arrow(2, 1),), 1, True),
        ("arrows", "n", "is_forest"),
        "Face(arrows=(Arrow(tail=1, head=2),), n=1, is_forest=True)",
    ),
    "FaceTable": (
        lambda: FaceTable(2, "all", {(0, 0): 1, (1, 0): 3}),
        lambda: FaceTable(n=2, selector="all", counts={(0, 0): 1, (1, 0): 3}),
        lambda: FaceTable(2, "saturated", {(0, 0): 1, (1, 0): 3}),
        ("n", "selector", "counts"),
        "FaceTable(n=2, selector='all', counts={(0, 0): 1, (1, 0): 3})",
    ),
    "ExcessSignature": (
        lambda: ExcessSignature(1, (1, 1)),
        lambda: ExcessSignature(n=1, degrees=(1, 1)),
        lambda: ExcessSignature(1, (1, 2)),
        ("n", "degrees"),
        "ExcessSignature(n=1, degrees=(1, 1))",
    ),
    "THWord": (
        lambda: THWord((1, 3), ("T", "H")),
        lambda: THWord(positions=(1, 3), letters=("T", "H")),
        lambda: THWord((1, 3), ("H", "T")),
        ("positions", "letters"),
        "THWord(positions=(1, 3), letters=('T', 'H'))",
    ),
    "PairRelation": (
        lambda: PairRelation("disjoint", "THTH", "nested"),
        lambda: PairRelation(kind="disjoint", word="THTH", placement="nested"),
        lambda: PairRelation("disjoint", "THTH", "sequential"),
        ("kind", "word", "placement", "shared"),
        "PairRelation(kind='disjoint', word='THTH', placement='nested', shared=None)",
    ),
    "RuleSet": (
        lambda: RuleSet(*CHOICES),
        lambda: RuleSet(**dict(zip(WORDS, CHOICES))),
        lambda: RuleSet.from_code(63),
        WORDS,
        "RuleSet(thth='nonest', htht='nonest', thht='noncross', htth='noncross', "
        "tthh='cross', hhtt='cross')",
    ),
    "SeriesRing": (
        lambda: SeriesRing(("x", "y"), (2, 3)),
        lambda: SeriesRing(variables=("x", "y"), orders=(2, 3)),
        lambda: SeriesRing(("x", "y"), (3, 2)),
        ("variables", "orders"),
        "SeriesRing(variables=('x', 'y'), orders=(2, 3))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    positional, keyword, unequal, _, _ = RECORDS[name]
    a, b = positional(), keyword()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != unequal() and not a == unequal()
    assert a != object() and a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_name_and_fields(name):
    positional, _, _, _, text = RECORDS[name]
    assert repr(positional()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    positional, _, _, fields, _ = RECORDS[name]
    record, fresh = positional(), positional()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == fresh


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_the_init_parameters_in_order(name):
    positional, _, _, fields, _ = RECORDS[name]
    cls = type(positional())
    code = cls.__init__.__code__
    assert cls._fields == fields == code.co_varnames[1 : code.co_argcount]


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copies_are_equal_and_hash_alike(name):
    record = RECORDS[name][0]()
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)


def test_defaults():
    assert AxiomReport("linkage", True) == AxiomReport("linkage", True, ())
    assert AxiomReport("linkage", True).witnesses == ()
    relation = PairRelation("inadmissible")
    assert (relation.word, relation.placement, relation.shared) == (None, None, None)
    assert PairRelation("shared", shared="tail") == PairRelation("shared", None, None, "tail")


def test_hash_leaves_out_violation_detail_and_face_table_counts():
    a, b = Violation("support", {"count": 0}), Violation("support", {"count": 2})
    assert a != b and hash(a) == hash(b)
    t, u = FaceTable(3, "all", {(0, 0): 1}), FaceTable(3, "all", {(0, 0): 2})
    assert t != u and hash(t) == hash(u)
    # the other fields do reach the hash of equal records
    assert len({Violation(axiom, {}) for axiom in ("support", "linkage")}) == 2
    assert len({FaceTable(n, "all", {}) for n in range(4)}) == 4


def test_ruleset_refuses_a_bad_choice():
    with pytest.raises(ValueError, match="THTH must be one of"):
        RuleSet("cross", *CHOICES[1:])
    with pytest.raises(ValueError, match="HHTT must be one of"):
        RuleSet(*CHOICES[:5], "nest-ish")


@pytest.mark.parametrize(
    "variables, orders, message",
    [
        (("x", "x"), (1, 1), "repeated variable"),
        (("x", "y"), (1,), "must align"),
        (("x",), (-1,), "nonnegative"),
    ],
)
def test_series_ring_refuses_bad_variables_or_orders(variables, orders, message):
    with pytest.raises(ValueError, match=message):
        SeriesRing(variables, orders)


@pytest.mark.parametrize(
    "a, b, matchings, message",
    [
        (0, 2, frozenset(), "nonempty"),
        (2, 0, frozenset(), "nonempty"),
        (2, 2, frozenset({frozenset({(1, 1), (1, 2)})}), "not a matching"),
        (2, 2, frozenset({frozenset({(1, 1), (2, 1)})}), "not a matching"),
        (2, 2, frozenset({frozenset({(3, 1)})}), "out of range"),
        (2, 2, frozenset({frozenset({(1, 0)})}), "out of range"),
    ],
)
def test_bipartite_ensemble_refuses_bad_parts_or_edges(a, b, matchings, message):
    with pytest.raises(ValueError, match=message):
        BipartiteEnsemble(a, b, matchings)


@pytest.mark.parametrize(
    "positions, letters, message",
    [
        ((1, 2, 3), ("T", "H"), "must align"),
        ((1, 2), ("T", "T"), "equally many"),
        ((1, 2), ("X", "Y"), "T or H"),
        ((1, 2, 3, 4), ("T", "H", "t", "h"), "T or H"),
        ((2, 1), ("T", "H"), "strictly increase"),
        ((1, 1), ("T", "H"), "strictly increase"),
        ((1, 3, 2, 4), ("T", "T", "H", "H"), "strictly increase"),
    ],
)
def test_th_word_refuses_misaligned_unbalanced_or_unordered_words(positions, letters, message):
    with pytest.raises(ValueError, match=message):
        THWord(positions, letters)


def test_lazy_fields_stay_out_of_equality():
    # a record whose cached field was read equals a fresh one that has none
    ring = SeriesRing(("x",), (4,))
    assert ring.packing is ring.packing
    assert ring == SeriesRing(("x",), (4,)) and hash(ring) == hash(SeriesRing(("x",), (4,)))
    rs = RuleSet(*CHOICES)
    assert rs.code == 0 and rs == RuleSet(*CHOICES)
    assert hash(rs) == hash(RuleSet(*CHOICES))


def test_dyck_classify_refuses_letters_other_than_t_and_h():
    assert dyck_classify(THWord((1, 2), ("T", "H"))) == "upper"
    assert dyck_classify(THWord((1, 2), ("H", "T"))) == "lower"
    with pytest.raises(ValueError):
        dyck_classify(THWord((1, 2), ("X", "Y")))


@pytest.mark.parametrize(
    "tails, heads",
    [((), ()), ((1,), (2,)), ((2, 4), (1, 5)), ((1, 3, 5), (6, 4, 2)), ((9, 2), (7, 3))],
)
def test_th_word_builds_only_words_the_constructor_accepts(tails, heads):
    # th_word skips the constructor checks, as its nodes are sorted and distinct
    word = th_word(tails, heads)
    assert THWord(list(word.positions), list(word.letters)) == word


def test_th_word_stores_tuples():
    word = THWord([1, 4], ["H", "T"])
    assert word == THWord((1, 4), ("H", "T")) and hash(word) == hash(THWord((1, 4), ("H", "T")))
    assert word.positions == (1, 4) and word.letters == ("H", "T")


def test_series_ring_stores_tuples_of_str_names():
    ring = SeriesRing(["x", "y"], [1, 2])
    assert ring.variables == ("x", "y") and ring.orders == (1, 2)
    assert ring == SeriesRing(("x", "y"), (1, 2))
    assert hash(SeriesRing(("x",), [1])) == hash(SeriesRing(("x",), (1,)))
    assert SeriesRing(("x",), [1]) == SeriesRing(("x",), (1,))
    with pytest.raises(TypeError, match="string"):
        SeriesRing("xy", (1, 2))
    with pytest.raises(TypeError, match="strings"):
        SeriesRing((1, 2), (1, 2))
    with pytest.raises(KeyError):
        SeriesRing(("x", "y"), (1, 2)).index("xy")


def test_bipartite_ensemble_stores_a_frozenset_family():
    family = [frozenset({(1, 1)}), frozenset()]
    ensemble = BipartiteEnsemble(1, 1, family)
    assert ensemble.matchings == frozenset(family)
    assert ensemble == BipartiteEnsemble(1, 1, frozenset(family))
    assert hash(ensemble) == hash(BipartiteEnsemble(1, 1, frozenset(family)))
    # a frozenset family is kept as the same object
    shared = frozenset(family)
    assert BipartiteEnsemble(1, 1, shared).matchings is shared
