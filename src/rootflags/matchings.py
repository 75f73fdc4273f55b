"""Explicit support matchings built from lattice-path factorizations.

For disjoint equal-size node sets I (tails) and J (heads), reading the
members of I as up steps and of J as down steps gives a lattice path.  Each
valid rule class admits an explicit construction of the unique matching
face from I onto J in terms of this path: the lex class matches above-axis
and below-axis runs separately, the revlex class matches across the
midpoint, and the Simion classes peel off the forward arrows at the marked
extreme steps of the path and match the rest as backward arrows.  Every
construction here is validated in the tests against the exhaustive
unique matching.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .rules import (
    CROSS,
    NEST,
    NONCROSS,
    NONEST,
    Arrow,
    ClassLabel,
    RuleSet,
    classify,
    parse_nodes,
)

Matching = frozenset[Arrow]

#: Annotated letter: (node label, "T" or "H").
Letter = tuple[int, str]


class THWord(Record):
    """The tail/head pattern of a node set, with explicit node labels: the
    positions strictly increase and each letter is T or H."""

    _fields = ("positions", "letters")

    def __init__(self, positions: Sequence[int], letters: Sequence[str]):
        positions, letters = tuple(positions), tuple(letters)
        if len(positions) != len(letters):
            raise ValueError("positions and letters must align")
        tails = letters.count("T")
        if tails + letters.count("H") != len(letters):
            raise ValueError(f"letters must be T or H, got {letters}")
        if 2 * tails != len(letters):
            raise ValueError("need equally many tails and heads")
        if any(p >= q for p, q in zip(positions, positions[1:])):
            raise ValueError(f"positions must strictly increase, got {positions}")
        self.__dict__.update(positions=positions, letters=letters)

    @classmethod
    def _of(cls, positions: tuple[int, ...], letters: tuple[str, ...]) -> "THWord":
        """The word of positions and letters that are already known to be
        valid, as ``th_word`` and the Simion relabelings make them."""
        self = object.__new__(cls)
        self.__dict__.update(positions=positions, letters=letters)
        return self

    @property
    def word(self) -> str:
        return "".join(self.letters)

    def annotated(self) -> list[Letter]:
        return list(zip(self.positions, self.letters))

    def levels(self) -> list[int]:
        """Running path heights after each step (T = +1, H = -1)."""
        out = []
        level = 0
        for letter in self.letters:
            level += 1 if letter == "T" else -1
            out.append(level)
        return out


def _trace(
    tails: Sequence[int], heads: Sequence[int]
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """I and J, each parsed once and checked disjoint, as the sorted nodes
    of I + J and the letter T or H of each."""
    tails = parse_nodes(tails)
    heads = parse_nodes(heads)
    tail_set = set(tails)
    if not tail_set.isdisjoint(heads):
        raise ValueError("tail and head sets must be disjoint")
    nodes = tuple(sorted(tails + heads))
    return nodes, tuple("T" if x in tail_set else "H" for x in nodes)


def th_word(tails: Sequence[int], heads: Sequence[int]) -> THWord:
    nodes, letters = _trace(tails, heads)
    if 2 * letters.count("T") != len(letters):
        raise ValueError("tail and head sets must have equal size")
    return THWord._of(nodes, letters)


LOWER_DYCK = "lower"
UPPER_DYCK = "upper"
NEITHER = "neither"
BOTH_EMPTY = "both"


def dyck_classify(word: THWord) -> str:
    """Lower iff the path never rises above the axis, upper iff never below;
    the empty word is both."""
    if not word.letters:
        return BOTH_EMPTY
    levels = word.levels()
    if max(levels) <= 0:
        return LOWER_DYCK
    if min(levels) >= 0:
        return UPPER_DYCK
    return NEITHER


def _match_open_close(
    seq: Sequence[Letter], open_letter: str, rule: str
) -> list[tuple[int, int]]:
    """Pair each open letter with a close letter: parenthesis matching for
    the nesting rule, k-th open to k-th close for the crossing rule.
    Returns (open position, close position) pairs."""
    opens = [pos for pos, letter in seq if letter == open_letter]
    closes = [pos for pos, letter in seq if letter != open_letter]
    if rule == CROSS:
        return list(zip(opens, closes))
    pairs = []
    stack: list[int] = []
    for pos, letter in seq:
        if letter == open_letter:
            stack.append(pos)
        else:
            if not stack:
                raise ValueError(f"unbalanced sequence at node {pos}")
            pairs.append((stack.pop(), pos))
    if stack:
        raise ValueError("unbalanced sequence")
    return pairs


def _lower_dyck_matching(hhtt_rule: str, seq: Sequence[Letter]) -> Matching:
    """Backward-only matching of a lower Dyck letter sequence.

    Nesting rule: each head is matched to the tail making the first return
    to the same level (parenthesis matching with H open).  Crossing rule:
    k-th head to k-th tail in left-to-right order.
    """
    if hhtt_rule not in (NEST, CROSS):
        raise ValueError(f"HHTT rule must be nest or cross, got {hhtt_rule!r}")
    pairs = _match_open_close(seq, "H", hhtt_rule)
    return frozenset(Arrow(tail, head) for head, tail in pairs)


def _upper_dyck_matching(tthh_rule: str, seq: Sequence[Letter]) -> Matching:
    """Forward-only matching of an upper Dyck letter sequence (mirror of the
    backward case with T open and the TTHH rule deciding)."""
    if tthh_rule not in (NEST, CROSS):
        raise ValueError(f"TTHH rule must be nest or cross, got {tthh_rule!r}")
    pairs = _match_open_close(seq, "T", tthh_rule)
    return frozenset(Arrow(tail, head) for tail, head in pairs)


def canonical_backward_matching(hhtt_rule: str, word: THWord) -> Matching:
    """The unique backward-only matching of a lower Dyck word."""
    if dyck_classify(word) not in (LOWER_DYCK, BOTH_EMPTY):
        raise ValueError(f"not a lower Dyck word: {word.word}")
    return _lower_dyck_matching(hhtt_rule, word.annotated())


def canonical_forward_matching(tthh_rule: str, word: THWord) -> Matching:
    """The unique forward-only matching of a word whose tails all precede
    its heads: decreasing head order under the nesting rule, increasing
    under the crossing rule."""
    letters = word.word
    first_head = letters.find("H")
    if first_head != -1 and "T" in letters[first_head:]:
        raise ValueError(f"every tail must precede every head: {letters}")
    return _upper_dyck_matching(tthh_rule, word.annotated())


def _first_ascent_marks(word: THWord) -> list[int]:
    """Indices of the up steps reaching a new maximum level (one per level
    1..h, where h is the path maximum)."""
    marks = []
    level = 0
    best = 0
    for idx, letter in enumerate(word.letters):
        level += 1 if letter == "T" else -1
        if letter == "T" and level > best:
            best = level
            marks.append(idx)
    return marks


def _last_descent_marks(word: THWord) -> list[int]:
    """Indices of the down steps from a level the path never reaches again
    (one per level h..1)."""
    levels = word.levels()
    marks = []
    suffix_max = -(10**9)
    for idx in range(len(word.letters) - 1, -1, -1):
        pre = levels[idx - 1] if idx else 0
        if word.letters[idx] == "H" and pre > 0 and max(levels[idx], suffix_max) < pre:
            marks.append(idx)
        suffix_max = max(suffix_max, levels[idx])
    marks.reverse()
    return marks


def _first_tails(word: THWord, h: int) -> list[int]:
    return [idx for idx, letter in enumerate(word.letters) if letter == "T"][:h]


def _last_heads(word: THWord, h: int) -> list[int]:
    heads = [idx for idx, letter in enumerate(word.letters) if letter == "H"]
    return heads[len(heads) - h:]


def _simion_matching(rs: RuleSet, word: THWord) -> Matching:
    """Simion-class construction for the orientation in which THTH nests.

    The number of forward arrows equals the maximum height h of the path.
    Their tails are the first h tails when HTTH crosses and the first
    ascents otherwise; their heads are the last h heads when THHT crosses
    and the last descents otherwise.  The unmarked letters form a lower
    Dyck word matched backward by the HHTT rule.
    """
    levels = word.levels()
    h = max(levels, default=0)
    if h <= 0:
        return _lower_dyck_matching(rs.hhtt, word.annotated())

    tail_marks = (
        _first_tails(word, h) if rs.htth == CROSS else _first_ascent_marks(word)
    )
    head_marks = (
        _last_heads(word, h) if rs.thht == CROSS else _last_descent_marks(word)
    )
    if len(tail_marks) != h or len(head_marks) != h:
        raise AssertionError("mark counts must equal the path maximum")

    annotated = word.annotated()
    marked = [annotated[idx] for idx in sorted(tail_marks + head_marks)]
    forward = _upper_dyck_matching(rs.tthh, marked)

    rest_idx = set(range(len(annotated))) - set(tail_marks) - set(head_marks)
    rest = [annotated[idx] for idx in sorted(rest_idx)]
    level = 0
    for _pos, letter in rest:
        level += 1 if letter == "T" else -1
        if level > 0:
            raise AssertionError("unmarked letters must form a lower Dyck word")
    backward = _lower_dyck_matching(rs.hhtt, rest)
    return forward | backward


def _lex_matching(rs: RuleSet, word: THWord) -> Matching:
    """Lex-class construction: letters on above-axis arches are matched
    forward by the TTHH rule, letters on below-axis arches backward by the
    HHTT rule."""
    above: list[Letter] = []
    below: list[Letter] = []
    level = 0
    for pos, letter in word.annotated():
        nxt = level + (1 if letter == "T" else -1)
        (above if level + nxt > 0 else below).append((pos, letter))
        level = nxt
    return _upper_dyck_matching(rs.tthh, above) | _lower_dyck_matching(rs.hhtt, below)


def _revlex_matching(rs: RuleSet, word: THWord) -> Matching:
    """Revlex-class construction: every arrow arches over the midpoint.
    Left tails pair with right heads by the TTHH rule; left heads pair
    with right tails by the HHTT rule."""
    annotated = word.annotated()
    mid = len(annotated) // 2
    forward = [x for x in annotated[:mid] if x[1] == "T"]
    forward += [x for x in annotated[mid:] if x[1] == "H"]
    backward = [x for x in annotated[:mid] if x[1] == "H"]
    backward += [x for x in annotated[mid:] if x[1] == "T"]
    return _upper_dyck_matching(rs.tthh, forward) | _lower_dyck_matching(
        rs.hhtt, backward
    )


_SWAP = {"T": "H", "H": "T"}


def _oriented_simion_matching(rs: RuleSet, word: THWord) -> Matching:
    """The Simion construction in the orientation it is written for, reached
    through the arrow-reversal involution (the word's letters swap) and the
    reflected dual (the word is reflected, reversed and its letters swap)."""
    if rs.thth == NONEST:
        dual = THWord._of(word.positions, tuple(_SWAP[x] for x in word.letters))
        return frozenset(a.reversed() for a in _oriented_simion_matching(rs.dual(), dual))
    if rs.thht == CROSS and rs.htth == NONCROSS:
        ends = word.positions[0] + word.positions[-1]
        mirrored = THWord._of(
            tuple(ends - x for x in reversed(word.positions)),
            tuple(_SWAP[x] for x in reversed(word.letters)),
        )
        return frozenset(
            Arrow(ends - a.head, ends - a.tail)
            for a in _oriented_simion_matching(rs.reflected_dual(), mirrored)
        )
    return _simion_matching(rs, word)


def construct_matching(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> Matching:
    """The unique matching face from I onto J, built constructively.

    Dispatches on the class of the rule set.  The Simion construction is
    written for the orientation where THTH nests and the THHT/HTTH variant
    where HTTH crosses; the other orientation goes through the
    arrow-reversal involution and the mirrored variant through the
    reflected dual plus a node reflection.
    """
    label = classify(rs)
    if label is ClassLabel.INVALID:
        raise ValueError(f"rule set {rs} does not define a triangulation")
    word = th_word(tails, heads)
    if not word.positions:
        return frozenset()
    if label is ClassLabel.LEX:
        return _lex_matching(rs, word)
    if label is ClassLabel.REVLEX:
        return _revlex_matching(rs, word)
    return _oriented_simion_matching(rs, word)
