"""Explicit support matchings built from lattice-path factorizations.

For disjoint equal-size node sets I (tails) and J (heads), the sorted nodes
of I + J spell a T/H word, T for a member of I and H for one of J, and read
as up and down steps the word is a lattice path.  By uniformity the unique
matching face from I onto J depends only on that word, so each valid rule
class builds it on the word's positions, as (tail position, head position)
pairs, and ``construct_matching`` places them on the nodes, building each
arrow once.  The lex class matches above-axis and below-axis arches
separately, the revlex class matches across the midpoint, and the Simion
classes peel off the forward arrows at the marked extreme steps of the
path and match the rest as backward arrows.  The Simion construction is
written for one orientation; the others reach it through the symmetry map
that the axiom checks' word tables use: ``_source`` takes the word to the
one the construction solves (T and H swap for the arrow reversal, and the
word also reverses for the reflected dual) and ``_moved`` carries its pairs
back.  Every construction is compared in the tests with the exhaustive
unique matching on every word of length at most 10.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

#: (tail position, head position) pairs on the letters of a word.
Pairs = Sequence[tuple[int, int]]


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

    @property
    def word(self) -> str:
        return "".join(self.letters)

    def levels(self) -> list[int]:
        """Running path heights after each step (T = +1, H = -1)."""
        out = []
        level = 0
        for letter in self.letters:
            level += 1 if letter == "T" else -1
            out.append(level)
        return out


def _trace(tails: Sequence[int], heads: Sequence[int]) -> tuple[tuple[int, ...], str]:
    """I and J, each parsed once and checked disjoint, as the sorted nodes
    of I + J and their word, one letter per node: T for I, H for J."""
    tails = parse_nodes(tails)
    heads = parse_nodes(heads)
    tail_set = set(tails)
    if not tail_set.isdisjoint(heads):
        raise ValueError("tail and head sets must be disjoint")
    nodes = tuple(sorted(tails + heads))
    return nodes, "".join(["T" if x in tail_set else "H" for x in nodes])


def _balanced_trace(tails: Sequence[int], heads: Sequence[int]) -> tuple[tuple[int, ...], str]:
    """``_trace`` of equally many tails and heads."""
    nodes, word = _trace(tails, heads)
    if 2 * word.count("T") != len(word):
        raise ValueError("tail and head sets must have equal size")
    return nodes, word


def th_word(tails: Sequence[int], heads: Sequence[int]) -> THWord:
    nodes, letters = _balanced_trace(tails, heads)
    word = object.__new__(THWord)  # sorted, distinct nodes and a balanced word
    word.__dict__.update(positions=nodes, letters=tuple(letters))
    return word


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


_SWAP = str.maketrans("TH", "HT")


def _source(word: str, swap: bool, reverse: bool) -> str:
    """The word that a symmetry carries onto word: the arrow reversal swaps
    T and H, and the node reflection reverses the word."""
    word = word.translate(_SWAP) if swap else word
    return word[::-1] if reverse else word


def _moved(
    pairs: Iterable[tuple[int, int]], last: int, swap: bool, reverse: bool
) -> tuple[tuple[int, int], ...]:
    """(tail, head) positions on a word carried by a symmetry, sorted: dual
    maps (t, h) to (h, t), reversal to (last-t, last-h)."""
    if swap:
        pairs = [(h, t) for t, h in pairs]
    if reverse:
        pairs = [(last - t, last - h) for t, h in pairs]
    return tuple(sorted(pairs))


def _arches(
    word: Sequence[str], seq: Sequence[int], open_letter: str, rule: str
) -> list[tuple[int, int]]:
    """Pair the positions in seq holding open_letter with those holding the
    other letter, as (tail, head) positions: parenthesis matching under the
    nesting rule, k-th open to k-th close under the crossing rule."""
    if rule == CROSS:
        opens = [p for p in seq if word[p] == open_letter]
        pairs = zip(opens, [p for p in seq if word[p] != open_letter])
    else:
        pairs, stack = [], []
        for p in seq:
            if word[p] == open_letter:
                stack.append(p)
            else:
                pairs.append((stack.pop(), p))
    return list(pairs) if open_letter == "T" else [(t, h) for h, t in pairs]


def _placed(nodes: Sequence[int], pairs: Pairs) -> Matching:
    """The matching of the pairs on a word whose letters sit on the nodes."""
    return frozenset([Arrow(nodes[t], nodes[h]) for t, h in pairs])


def canonical_backward_matching(hhtt_rule: str, word: THWord) -> Matching:
    """The unique backward-only matching of a lower Dyck word: under the
    nesting rule each head is matched to the tail making the first return
    to its level, under the crossing rule the k-th head to the k-th tail."""
    if dyck_classify(word) not in (LOWER_DYCK, BOTH_EMPTY):
        raise ValueError(f"not a lower Dyck word: {word.word}")
    if hhtt_rule not in (NEST, CROSS):
        raise ValueError(f"HHTT rule must be nest or cross, got {hhtt_rule!r}")
    return _placed(word.positions, _arches(word.letters, range(len(word.letters)), "H", hhtt_rule))


def canonical_forward_matching(tthh_rule: str, word: THWord) -> Matching:
    """The unique forward-only matching of a word whose tails all precede
    its heads: decreasing head order under the nesting rule, increasing
    under the crossing rule."""
    letters = word.word
    first_head = letters.find("H")
    if first_head != -1 and "T" in letters[first_head:]:
        raise ValueError(f"every tail must precede every head: {letters}")
    if tthh_rule not in (NEST, CROSS):
        raise ValueError(f"TTHH rule must be nest or cross, got {tthh_rule!r}")
    return _placed(word.positions, _arches(letters, range(len(letters)), "T", tthh_rule))


def _simion_matching(rs: RuleSet, word: str) -> Pairs:
    """Simion-class construction for the orientation in which THTH nests.

    The number of forward arrows equals the maximum height h of the path.
    Their tails are the first h tails when HTTH crosses and the first
    ascents to the levels 1..h otherwise; their heads are the last h heads
    when THHT crosses and the last descents from the levels h..1
    otherwise.  The marked letters are matched forward by the TTHH rule;
    the unmarked ones form a lower Dyck word, matched backward by the HHTT
    rule.
    """
    level = height = 0
    ascents: list[int] = []
    descents: dict[int, int] = {}  # level -> the last down step from it
    for p, letter in enumerate(word):
        if letter == "T":
            level += 1
            if level > height:
                height = level
                ascents.append(p)
        else:
            descents[level] = p
            level -= 1
    if rs.htth == CROSS:
        ascents = [p for p, letter in enumerate(word) if letter == "T"][:height]
    if rs.thht == CROSS:
        last = [p for p, letter in enumerate(word) if letter == "H"][len(word) // 2 - height :]
    else:
        last = [descents[x] for x in range(height, 0, -1)]
    marked = sorted(ascents + last)
    rest = sorted(set(range(len(word))).difference(marked))
    return _arches(word, marked, "T", rs.tthh) + _arches(word, rest, "H", rs.hhtt)


def _lex_matching(rs: RuleSet, word: str) -> Pairs:
    """Lex-class construction: letters on above-axis arches are matched
    forward by the TTHH rule, letters on below-axis arches backward by the
    HHTT rule."""
    above, below = [], []
    level = 0
    for p, letter in enumerate(word):
        step = 1 if letter == "T" else -1
        (above if 2 * level + step > 0 else below).append(p)
        level += step
    return _arches(word, above, "T", rs.tthh) + _arches(word, below, "H", rs.hhtt)


def _revlex_matching(rs: RuleSet, word: str) -> Pairs:
    """Revlex-class construction: every arrow arches over the midpoint.
    Left tails pair with right heads by the TTHH rule; left heads pair
    with right tails by the HHTT rule."""
    mid = len(word) // 2
    left, right = range(mid), range(mid, len(word))
    forward = [p for p in left if word[p] == "T"] + [p for p in right if word[p] == "H"]
    backward = [p for p in left if word[p] == "H"] + [p for p in right if word[p] == "T"]
    return _arches(word, forward, "T", rs.tthh) + _arches(word, backward, "H", rs.hhtt)


def _oriented_simion_matching(rs: RuleSet, word: str) -> Pairs:
    """The Simion construction in the orientation it is written for, reached
    one symmetry at a time: the arrow reversal when THTH does not nest, the
    reflected dual when only THHT crosses."""
    if rs.thth == NONEST:
        swap, reverse, image = True, False, rs.dual()
    elif rs.thht == CROSS and rs.htth == NONCROSS:
        swap, reverse, image = True, True, rs.reflected_dual()
    else:
        return _simion_matching(rs, word)
    pairs = _oriented_simion_matching(image, _source(word, swap, reverse))
    return _moved(pairs, len(word) - 1, swap, reverse)


def construct_matching(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> Matching:
    """The unique matching face from I onto J, built constructively on the
    word of I and J and placed on their nodes.

    Dispatches on the class of the rule set.  The Simion construction is
    written for the orientation where THTH nests and the THHT/HTTH variant
    where HTTH crosses; the other orientations go through the arrow
    reversal and the reflected dual of the word (``_oriented_simion_matching``).
    """
    label = classify(rs)
    if label is ClassLabel.INVALID:
        raise ValueError(f"rule set {rs} does not define a triangulation")
    nodes, word = _balanced_trace(tails, heads)
    if label is ClassLabel.LEX:
        pairs = _lex_matching(rs, word)
    elif label is ClassLabel.REVLEX:
        pairs = _revlex_matching(rs, word)
    else:
        pairs = _oriented_simion_matching(rs, word)
    return _placed(nodes, pairs)
