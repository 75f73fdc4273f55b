"""Rule codes for uniform flag complexes on the arrows of the root polytope.

The vertices of the full type-A root polytope P_n are the n(n+1) arrows
(i, j), i != j, on nodes 1..n+1 (arrow (i, j) stands for the point
e_j - e_i).  A *uniform* flag complex is one whose edge predicate for two
node-disjoint arrows depends only on the tail/head pattern the four
endpoints trace on the number line -- one of the six type words THTH, HTHT,
THHT, HTTH, TTHH, HHTT -- together with a binary choice per word (the two
diagonals of the corresponding square face).  That gives 64 rule codes.

This module implements the codes, their classification into the lex,
revlex and Simion a/b/c classes, and the two involutions (arrow reversal;
arrow reversal composed with node reflection) whose orbits partition the
34 valid codes into 15 isomorphism classes.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from ._record import Record

TYPE_WORDS = ("THTH", "HTHT", "THHT", "HTTH", "TTHH", "HHTT")

NEST = "nest"
NONEST = "nonest"
CROSS = "cross"
NONCROSS = "noncross"

#: The two admissible choices per type word; the first entry is the one
#: encoded by bit 1 in the 6-bit integer code.
CHOICES = {
    "THTH": (NEST, NONEST),
    "HTHT": (NEST, NONEST),
    "THHT": (CROSS, NONCROSS),
    "HTTH": (CROSS, NONCROSS),
    "TTHH": (NEST, CROSS),
    "HHTT": (NEST, CROSS),
}

# Placements of two arrows on four distinct nodes, read off their spans.
NESTED = "nested"
SEQUENTIAL = "sequential"
CROSSING = "crossing"
NONCROSSING = "noncrossing"

#: Which placement a rule choice selects as the edge.
PLACEMENT_OF_CHOICE = {
    NEST: NESTED,
    NONEST: SEQUENTIAL,
    CROSS: CROSSING,
    NONCROSS: NONCROSSING,
}

_LETTER = {
    (NEST, NONEST): {NEST: "N", NONEST: "S"},
    (CROSS, NONCROSS): {CROSS: "C", NONCROSS: "X"},
    (NEST, CROSS): {NEST: "N", CROSS: "C"},
}


class Arrow(NamedTuple):
    """A directed nonloop edge on nodes 1..n+1; the vertex e_head - e_tail."""

    tail: int
    head: int

    @property
    def forward(self) -> bool:
        return self.tail < self.head

    @property
    def backward(self) -> bool:
        return self.tail > self.head

    def reversed(self) -> "Arrow":
        return Arrow(self.head, self.tail)

    def span(self) -> tuple[int, int]:
        return (min(self.tail, self.head), max(self.tail, self.head))


def _check_arrow(a: Arrow, n: int | None) -> None:
    if a.tail == a.head:
        raise ValueError(f"loop arrow {a!r}")
    if a.tail < 1 or a.head < 1:
        raise ValueError(f"nodes must be >= 1: {a!r}")
    if n is not None and max(a.tail, a.head) > n + 1:
        raise ValueError(f"arrow {a!r} out of range for ambient size n={n}")


class ClassLabel(Enum):
    LEX = "lex"
    REVLEX = "revlex"
    SIMION_A = "simion-a"
    SIMION_B = "simion-b"
    SIMION_C = "simion-c"
    INVALID = "invalid"

    @property
    def simion(self) -> bool:
        return self in (ClassLabel.SIMION_A, ClassLabel.SIMION_B, ClassLabel.SIMION_C)


class PairRelation(Record):
    """Outcome of comparing two distinct arrows.

    kind is one of "disjoint", "shared", "inadmissible".  For "disjoint"
    the type word and placement are set; for "shared" the shared attribute
    is "tail" or "head".
    """

    _fields = ("kind", "word", "placement", "shared")

    def __init__(
        self,
        kind: str,
        word: str | None = None,
        placement: str | None = None,
        shared: str | None = None,
    ):
        self.__dict__.update(kind=kind, word=word, placement=placement, shared=shared)


def pair_relation(a: Arrow, b: Arrow, n: int | None = None) -> PairRelation:
    """Classify an unordered pair of distinct arrows.

    Inadmissible means some node is a head of one arrow and a tail of the
    other (including the 2-cycle); such a pair is never an edge.  A common
    tail or common head is always an edge.  Otherwise the four nodes are
    distinct and the pair is one of the two diagonals of a square face,
    reported as the type word plus placement.
    """
    a, b = Arrow(*a), Arrow(*b)
    _check_arrow(a, n)
    _check_arrow(b, n)
    if a == b:
        raise ValueError("pair_relation needs two distinct arrows")
    heads = {a.head, b.head}
    tails = {a.tail, b.tail}
    if heads & tails:
        return PairRelation("inadmissible")
    if a.tail == b.tail:
        return PairRelation("shared", shared="tail")
    if a.head == b.head:
        return PairRelation("shared", shared="head")

    nodes = sorted((a.tail, a.head, b.tail, b.head))
    word = "".join("T" if x in tails else "H" for x in nodes)
    lo_a, hi_a = a.span()
    lo_b, hi_b = b.span()
    if hi_a < lo_b or hi_b < lo_a:
        placement = SEQUENTIAL if word in ("THTH", "HTHT") else NONCROSSING
    elif (lo_a < lo_b and hi_b < hi_a) or (lo_b < lo_a and hi_a < hi_b):
        placement = NESTED
    else:
        placement = CROSSING
    return PairRelation("disjoint", word=word, placement=placement)


class RuleSet(Record):
    """One of the 64 uniform edge rules: a choice per type word."""

    _fields = ("thth", "htht", "thht", "htth", "tthh", "hhtt")

    def __init__(self, thth: str, htht: str, thht: str, htth: str, tthh: str, hhtt: str):
        for word, value in zip(TYPE_WORDS, (thth, htht, thht, htth, tthh, hhtt)):
            if value not in CHOICES[word]:
                raise ValueError(f"{word} must be one of {CHOICES[word]}, got {value!r}")
        self.__dict__.update(thth=thth, htht=htht, thht=thht, htth=htth, tthh=tthh, hhtt=hhtt)

    def choice(self, word: str) -> str:
        return getattr(self, word.lower())

    def placement(self, word: str) -> str:
        """The placement this rule set declares to be an edge for the word."""
        return PLACEMENT_OF_CHOICE[self.choice(word)]

    @cached_property
    def code(self) -> int:
        """Canonical 6-bit integer; MSB = THTH, bit set = first-listed choice."""
        value = 0
        for word in TYPE_WORDS:
            value = (value << 1) | (self.choice(word) == CHOICES[word][0])
        return value

    @property
    def letters(self) -> str:
        return "".join(
            _LETTER[CHOICES[word]][self.choice(word)] for word in TYPE_WORDS
        )

    def verbose(self) -> str:
        return " ".join(f"{word}:{self.choice(word)}" for word in TYPE_WORDS)

    def __str__(self) -> str:
        return self.letters

    @classmethod
    def from_code(cls, code: int) -> "RuleSet":
        """The rule set of a 6-bit code, one shared instance per code."""
        if not 0 <= code <= 63:
            raise ValueError(f"rule code must be in 0..63, got {code}")
        return _rulesets_by_code()[code]

    @classmethod
    def from_letters(cls, text: str) -> "RuleSet":
        text = text.strip().upper()
        if len(text) != 6:
            raise ValueError(f"expected 6 letters, got {text!r}")
        values = {}
        for letter, word in zip(text, TYPE_WORDS):
            table = {v: k for k, v in _LETTER[CHOICES[word]].items()}
            if letter not in table:
                raise ValueError(f"bad letter {letter!r} for {word}")
            values[word.lower()] = table[letter]
        return cls(**values)

    @classmethod
    def parse(cls, text: "str | int | RuleSet") -> "RuleSet":
        """Accept an integer code, 0b-literal, 6-letter string, verbose
        WORD:choice list, or a named alias."""
        if isinstance(text, RuleSet):
            return text
        if isinstance(text, int):
            return cls.from_code(text)
        text = text.strip()
        upper = text.upper()
        if upper in ALIASES:
            return ALIASES[upper]
        if ":" in text:
            values = {}
            for piece in text.replace(",", " ").split():
                word, _, choice = piece.partition(":")
                word = word.upper()
                choice = choice.lower()
                if word not in TYPE_WORDS or choice not in CHOICES[word]:
                    raise ValueError(f"bad rule component {piece!r}")
                values[word.lower()] = choice
            missing = [w for w in TYPE_WORDS if w.lower() not in values]
            if missing:
                raise ValueError(f"missing choices for {missing}")
            return cls(**values)
        try:
            code = int(text, 0)
        except ValueError:
            return cls.from_letters(text)
        return cls.from_code(code)

    def dual(self) -> "RuleSet":
        """Reverse all arrows: swaps the choices THTH<->HTHT, THHT<->HTTH,
        TTHH<->HHTT, which are the bit pairs (5, 4), (3, 2), (1, 0) of the
        code.  One shared instance per code, as from ``from_code``."""
        code = self.code
        return RuleSet.from_code((code & 0b101010) >> 1 | (code & 0b010101) << 1)

    def reflected_dual(self) -> "RuleSet":
        """Reverse all arrows and reflect node labels: swaps only the
        THHT<->HTTH choices, bits 3 and 2 of the code.  One shared instance
        per code, as from ``from_code``."""
        code = self.code
        return RuleSet.from_code(code & 0b110011 | (code & 0b1000) >> 1 | (code & 0b100) << 1)


@lru_cache(maxsize=1)
def _rulesets_by_code() -> tuple[RuleSet, ...]:
    """The 64 rule sets, indexed by code."""
    out = []
    for code in range(64):
        values = {}
        for position, word in enumerate(TYPE_WORDS):
            bit = (code >> (5 - position)) & 1
            values[word.lower()] = CHOICES[word][0] if bit else CHOICES[word][1]
        out.append(RuleSet(**values))
    return tuple(out)


def is_edge(rs: RuleSet, a: Arrow, b: Arrow, n: int | None = None) -> bool:
    """Edge predicate of the flag complex defined by the rule set."""
    rel = pair_relation(a, b, n)
    if rel.kind == "shared":
        return True
    if rel.kind == "inadmissible":
        return False
    return rel.placement == rs.placement(rel.word)


def classify(rs: RuleSet) -> ClassLabel:
    """Assign the rule set to its class; Invalid if it defines no triangulation.

    Lex: neither THTH nor HTHT nests and neither THHT nor HTTH crosses.
    Revlex: both nest and both cross.  Simion: exactly one of THTH/HTHT
    nests, with subclass a/b/c by how many of THHT/HTTH cross (for two
    crossings both TTHH and HHTT must additionally nest).  Everything else
    fails the support or linkage axiom for ambient size five and up.
    """
    nests = (rs.thth == NEST, rs.htht == NEST)
    crossings = (rs.thht == CROSS) + (rs.htth == CROSS)
    if nests == (False, False):
        return ClassLabel.LEX if crossings == 0 else ClassLabel.INVALID
    if nests == (True, True):
        return ClassLabel.REVLEX if crossings == 2 else ClassLabel.INVALID
    if crossings == 0:
        return ClassLabel.SIMION_A
    if crossings == 1:
        return ClassLabel.SIMION_B
    if rs.tthh == NEST and rs.hhtt == NEST:
        return ClassLabel.SIMION_C
    return ClassLabel.INVALID


def all_rulesets() -> list[RuleSet]:
    return [RuleSet.from_code(code) for code in range(64)]


def valid_rulesets() -> list[RuleSet]:
    return [rs for rs in all_rulesets() if classify(rs) is not ClassLabel.INVALID]


def orbit_of(rs: RuleSet) -> tuple[RuleSet, ...]:
    """Orbit under {id, dual, reflected_dual, dual o reflected_dual},
    sorted by code."""
    members = {rs, rs.dual(), rs.reflected_dual(), rs.dual().reflected_dual()}
    return tuple(sorted(members, key=lambda r: r.code))


@lru_cache(maxsize=1)
def orbits() -> tuple[tuple[RuleSet, ...], ...]:
    """The orbits of the valid rule sets, sorted by their least member."""
    seen: set[int] = set()
    found = []
    for rs in valid_rulesets():
        if rs.code in seen:
            continue
        orbit = orbit_of(rs)
        seen.update(member.code for member in orbit)
        found.append(orbit)
    return tuple(sorted(found, key=lambda orbit: orbit[0].code))


def orbit_census() -> dict[ClassLabel, list[int]]:
    """Orbit sizes per class, each list sorted ascending."""
    census: dict[ClassLabel, list[int]] = {}
    for orbit in orbits():
        census.setdefault(classify(orbit[0]), []).append(len(orbit))
    for sizes in census.values():
        sizes.sort()
    return census


def _alias_table() -> dict[str, RuleSet]:
    # Alias suffix letters name the HHTT then TTHH choice, N = nest, X = cross.
    # Simion aliases use the orientation with THTH nesting, and SIMION_B the
    # variant where HTTH crosses.
    base = {
        "LEX": dict(thth=NONEST, htht=NONEST, thht=NONCROSS, htth=NONCROSS),
        "REVLEX": dict(thth=NEST, htht=NEST, thht=CROSS, htth=CROSS),
        "SIMION_A": dict(thth=NEST, htht=NONEST, thht=NONCROSS, htth=NONCROSS),
        "SIMION_B": dict(thth=NEST, htht=NONEST, thht=NONCROSS, htth=CROSS),
    }
    suffixes = {
        "LEX": ("NN", "NX", "XX"),
        "REVLEX": ("NN", "XN", "XX"),
        "SIMION_A": ("NN", "XN", "NX", "XX"),
        "SIMION_B": ("NN", "XN", "NX", "XX"),
    }
    table = {}
    for prefix, fixed in base.items():
        for suffix in suffixes[prefix]:
            hhtt = NEST if suffix[0] == "N" else CROSS
            tthh = NEST if suffix[1] == "N" else CROSS
            table[f"{prefix}_{suffix}"] = RuleSet(tthh=tthh, hhtt=hhtt, **fixed)
    table["SIMION_C"] = RuleSet(
        thth=NEST, htht=NONEST, thht=CROSS, htth=CROSS, tthh=NEST, hhtt=NEST
    )
    return table


#: Named representatives for the 15 orbits, in census table row order.
ALIASES: dict[str, RuleSet] = _alias_table()

#: Row order used by census-style output: lex, Simion a, b, c, revlex.
TABLE_ROW_ORDER: tuple[str, ...] = (
    "LEX_NN",
    "LEX_NX",
    "LEX_XX",
    "SIMION_A_NN",
    "SIMION_A_XN",
    "SIMION_A_NX",
    "SIMION_A_XX",
    "SIMION_B_NN",
    "SIMION_B_XN",
    "SIMION_B_NX",
    "SIMION_B_XX",
    "SIMION_C",
    "REVLEX_NN",
    "REVLEX_XN",
    "REVLEX_XX",
)


def alias_of(rs: RuleSet) -> str | None:
    """The alias whose orbit contains the rule set, if any."""
    return _alias_by_code().get(rs.code)


@lru_cache(maxsize=1)
def _alias_by_code() -> dict[int, str]:
    return {
        member.code: name
        for name in TABLE_ROW_ORDER
        for member in orbit_of(ALIASES[name])
    }


def arrows_of(n: int) -> list[Arrow]:
    """All arrows of V_n in (tail, head) lexicographic order."""
    return [
        Arrow(t, h)
        for t in range(1, n + 2)
        for h in range(1, n + 2)
        if t != h
    ]


def parse_nodes(text: "str | Iterable[int]") -> tuple[int, ...]:
    """Parse a node set given as comma/space separated integers."""
    if isinstance(text, str):
        text = text.replace(",", " ").split()
    values = tuple(map(int, text))
    if values and min(values) < 1:
        raise ValueError(f"nodes must be >= 1: {values}")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated node in {values}")
    return tuple(sorted(values))
