"""Exhaustive verification that a rule set triangulates the polytope boundary.

A permissible uniform flag complex triangulates the boundary exactly when
its family of matching faces satisfies the support axiom (for every pair
of disjoint equal-size node sets I, J there is a unique matching face from
I onto J) and the linkage axiom (a matching face can absorb any outside
node by relinking one arrow endpoint).  Both are decided here
exhaustively on the adjacency bitmasks of ``complexes.adjacency``, together
with the underlying matching-ensemble axioms on complete bipartite graphs
and the spanning-tree correspondence.  All three verdicts are read off one
table of the T/H words and their matchings (``_word_table``), built by one
walk over the matching faces on the lowest nodes: support counts each
word's matchings, a circuit is a pair of matchings of one word whose
arrows are pairwise edges, and linkage ANDs and ORs per-gap edge masks
over each matching (``_gap_cover``) and keeps the matchings that miss a
gap.  Dual swaps T and H in every word and reflected dual also reverses
it, so both carry a code's table exactly onto the other codes of its
orbit, and each verdict is decided once per orbit, on the orbit's least
code.  Only a failing code lists witnesses, each support and linkage one
a placement of what the least code's tables hold: support places its
failing words, relabeled onto the code (``_relabeled``), and linkage the
misses carried onto the code, the first at their least placement
(``_first_failing_face``); a code with a circuit walks its own faces by
the clique walk of ``complexes._iter_cliques``, pruned by lazy core
embeddings.  The one map from nodes to arrows is ``_node_masks`` of
``complexes``: arrow (t, h) is the one bit of leaving[t] & entering[h].

Bipartite objects live on K_{a,b} with left part 1..a and right part 1..b.
The public functions take and return edges as plain (left, right) pairs and
matchings/forests as frozensets of edges; inside, an edge set is an int with
edge (l, r) at bit (l-1)*b + (r-1), and the ensemble axioms, the
matchings within a restriction and the spanning trees run on these edge
masks.  Per K_{a,b} one table holds, for each spanning tree, the index
masks of the matchings it alternates with (read off the halves of the
cycles of K_{a,b}) and of those inside it, so that phi_inverse and tree
compatibility are bit tests.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .complexes import _adjacency, _code_rows, _count_order, _iter_cliques, _model_cases
from .complexes import _node_masks, _pair_classes
from .complexes import adjacency, check_ambient_size
from .matchings import _balanced_trace, _moved, _source, _trace
from .rules import Arrow, RuleSet, orbit_of

Matching = frozenset[Arrow]
BipartiteEdge = tuple[int, int]
EdgeSet = frozenset[BipartiteEdge]


class MultiplicityError(Exception):
    """Support-axiom violation: the number of matchings from I to J is not 1."""

    def __init__(self, tails, heads, matchings: Sequence[Matching]):
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.matchings = tuple(matchings)
        self.count = len(matchings)
        super().__init__(
            f"expected a unique matching from {self.tails} to {self.heads}, "
            f"found {self.count}"
        )


class Violation(Record):
    """One witness against an axiom; the detail takes part in equality but
    not in the hash."""

    _fields = ("axiom", "detail")
    _hashed = ("axiom",)

    def __init__(self, axiom: str, detail: dict):
        self.__dict__.update(axiom=axiom, detail=detail)

    def to_json_dict(self) -> dict:
        out = {"axiom": self.axiom}
        out.update(self.detail)
        return out


class AxiomReport(Record):
    """The verdict on one axiom with its witnesses, as ``verify`` lists them."""

    _fields = ("axiom", "passed", "witnesses")

    def __init__(self, axiom: str, passed: bool, witnesses: tuple[Violation, ...] = ()):
        self.__dict__.update(axiom=axiom, passed=passed, witnesses=witnesses)

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": "pass" if self.passed else "fail",
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _arrow_json(arrows: Iterable[Arrow]) -> list[list[int]]:
    return [[a.tail, a.head] for a in sorted(arrows)]


@lru_cache(maxsize=16)
def _walk_tables(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The tables of the support walk on V_n: per node, the masks of the
    arrows leaving and entering it; per arrow, its 0-based (tail, head)
    positions and the mask of the arrows that share neither its tail nor
    its head.  ANDed with the arrow's neighbours, that last mask leaves the
    neighbours that share no node with it."""
    arrows, shared, _ = _pair_classes(n, None)
    full = (1 << len(arrows)) - 1
    return (
        *_node_masks(n, None),
        tuple((t - 1, h - 1) for t, h in arrows),
        tuple(full ^ mask for mask in shared),
    )


def support_matching(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> Matching:
    """The unique matching face from I onto J, solved by uniformity on the
    T/H word they trace and relabeled; raises MultiplicityError carrying all
    matchings found (in ``_word_matchings`` order) when there is not one."""
    nodes, word = _balanced_trace(tails, heads)
    n = max(len(nodes) - 1, 0)
    found = [
        frozenset(Arrow(nodes[t], nodes[h]) for t, h in matching)
        for matching in _word_matchings(n, adjacency(rs, n)[1], word)
    ]
    if len(found) != 1:
        raise MultiplicityError(
            [x for x, letter in zip(nodes, word) if letter == "T"],
            [x for x, letter in zip(nodes, word) if letter == "H"],
            found,
        )
    return found[0]


def _words(k: int) -> Iterator[str]:
    """All T/H words with k tails and k heads."""
    for tails in itertools.combinations(range(2 * k), k):
        yield "".join("T" if p in tails else "H" for p in range(2 * k))


def _word_matchings(
    n: int, masks: Sequence[int], word: Sequence[str]
) -> list[tuple[tuple[int, int], ...]]:
    """Matchings of a T/H word's tail positions onto its head positions whose
    arrows are pairwise edges, with the word placed on nodes 1..len(word).

    Each matching is a tuple of 0-based (tail, head) positions in tail order;
    the list is in tail order, each tail trying the free heads in increasing
    order, as ``support_matching`` reports them.  A tail's candidates are
    the set bits of its row (its arrows into the word's heads) that are
    neighbours of every arrow chosen so far and share no node with one; for
    a fixed tail the arrow index grows with the head.
    """
    leaving, entering, positions, apart = _walk_tables(n)
    heads = 0
    rows = []
    for p, letter in enumerate(word, 1):
        if letter == "T":
            rows.append(leaving[p])
        else:
            heads |= entering[p]
    rows = [row & heads for row in rows]
    found: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []

    def assign(k: int, cand: int) -> None:
        if k == len(rows):
            found.append(tuple(chosen))
            return
        step = cand & rows[k]
        while step:
            low = step & -step
            v = low.bit_length() - 1
            step ^= low
            chosen.append(positions[v])
            assign(k + 1, cand & masks[v] & apart[v])
            chosen.pop()

    assign(0, -1)
    return found


WordTable = dict[str, list[tuple[tuple[int, int], ...]]]

@lru_cache(maxsize=16)
def _word_slots(n: int) -> tuple[tuple[tuple[str, int], ...], tuple[int, ...], int]:
    """The code-free part of ``_word_table``: its words with their tail-bit
    keys, the arrows at each 0-based position, and the walk's start mask."""
    leaving, entering = _walk_tables(n)[:2]
    top = (n + 1) // 2 * 2
    words = tuple(
        (word, sum(1 << p for p, letter in enumerate(word) if letter == "T") | 1 << len(word))
        for k in range(1, top // 2 + 1) for word in _words(k)
    )
    incident = tuple(leaving[x] | entering[x] for x in range(1, top + 1))
    start = reduce(or_, leaving[1 : top + 1], 0) & reduce(or_, entering[1 : top + 1], 0)
    return words, incident, start


@lru_cache(maxsize=30)
def _word_table(code: int, n: int) -> WordTable:
    """Every T/H word of length at most n+1, in ``_words`` order, with its
    ``_word_matchings`` on the masks of V_n, all from one walk.

    The walk covers the matching faces of V_n inside the nodes 1..top, top
    the largest even number <= n+1: each step covers the lowest uncovered
    node by one of its arrows that is a neighbour of every arrow chosen so
    far and shares no node with one.  A face whose nodes are exactly 1..2k
    is a matching of the word its tails and heads trace; each word's list
    is then sorted into the order of ``_word_matchings``, that of the
    (tail, head) tuples.  The checks build it only for the least code of an
    orbit, so ``verify --all`` walks once per orbit; one (code, n) per
    orbit is kept, and the code-free parts once per n (``_word_slots``)."""
    masks = _adjacency(code, n)[1]
    positions, apart = _walk_tables(n)[2:]
    words, incident, start = _word_slots(n)
    top = len(incident)
    found: dict[int, list[tuple[tuple[int, int], ...]]] = {key: [] for _, key in words}
    chosen: list[tuple[int, int]] = []

    def walk(covered: int, tails: int, cand: int) -> None:
        low = ~covered & covered + 1
        x = low.bit_length() - 1  # the lowest uncovered position
        if 0 < x == 2 * len(chosen):  # the nodes are 1..2k
            found[tails | low].append(tuple(sorted(chosen)))
        if x >= top - 1:
            return
        step = cand & incident[x]
        while step:
            bit = step & -step
            v = bit.bit_length() - 1
            step ^= bit
            t, h = positions[v]
            chosen.append(positions[v])
            walk(covered | 1 << t | 1 << h, tails | 1 << t, cand & masks[v] & apart[v])
            chosen.pop()

    walk(0, 0, start)
    return {word: sorted(found[key]) for word, key in words}


@lru_cache(maxsize=64)
def _orbit_relabel(code: int) -> tuple[int, bool, bool]:
    """The least code of a code's orbit, and whether the symmetry that takes
    it to the code swaps T and H (dual, reflected dual) and whether it
    reverses the words (reflected dual, dual o reflected dual)."""
    least = orbit_of(RuleSet.from_code(code))[0]
    images = {
        (False, False): least,
        (True, False): least.dual(),
        (True, True): least.reflected_dual(),
        (False, True): least.dual().reflected_dual(),
    }
    return least.code, *next(key for key, image in images.items() if image.code == code)


@lru_cache(maxsize=1024)
def _relabeled(code: int, n: int, word: str) -> list[tuple[tuple[int, int], ...]]:
    """A word's matchings for any code: its source word's in the least
    code's table, carried by the symmetry and sorted back into the order of
    ``_word_matchings``, which is that of their (tail, head) tuples.  Only
    the support witnesses of a failing code call it."""
    least, swap, reverse = _orbit_relabel(code)
    solved = _word_table(least, n)[_source(word, swap, reverse)]
    return sorted(_moved(m, len(word) - 1, swap, reverse) for m in solved)


def check_support_axiom(
    rs: RuleSet, n: int, all_witnesses: bool = False
) -> AxiomReport:
    """Demand a unique matching face from I onto J for every pair of disjoint
    equal-size node sets.

    By uniformity the matchings depend only on the T/H word that I and J
    trace on the number line, so each word is solved once per orbit
    (``_word_table``), and a symmetry carries the words with one matching
    onto those of the other members.  Every witness is a failing word
    placed on some nodes of V_n, with its matchings relabeled onto the code
    (``_relabeled``) and placed.  The first witness in (|I|, I, J) order is
    the code's first failing word (shortest, then least tail positions)
    placed on nodes 1..2k: any other placement of any failing word raises
    every node, so its (I, J) comes later.  For all witnesses every failing
    word takes every placement on 1..n+1, sorted into (|I|, I, J) order.
    """
    check_ambient_size(n)
    least, swap, reverse = _orbit_relabel(rs.code)
    solved = _word_table(least, n)
    if all(len(matchings) == 1 for matchings in solved.values()):
        return AxiomReport("support", True)
    failing = (w for w in solved if len(solved[_source(w, swap, reverse)]) != 1)
    words = list(failing) if all_witnesses else [next(failing)]
    top = n + 1 if all_witnesses else len(words[0])  # or one placement, on nodes 1..2k
    witnesses = []
    for word in words:
        matchings = _relabeled(rs.code, n, word)
        for nodes in itertools.combinations(range(1, top + 1), len(word)):
            tails = [x for x, letter in zip(nodes, word) if letter == "T"]
            heads = [x for x, letter in zip(nodes, word) if letter == "H"]
            found = [[[nodes[t], nodes[h]] for t, h in m] for m in matchings]
            detail = {"I": tails, "J": heads, "count": len(found), "matchings": found}
            witnesses.append(Violation("support", detail))
    witnesses.sort(key=lambda w: (len(w.detail["I"]), w.detail["I"], w.detail["J"]))
    return AxiomReport("support", False, tuple(witnesses))


@lru_cache(maxsize=16)
def _gap_classes(length: int) -> tuple[tuple[int, ...], dict[tuple[str, str], tuple[int, ...]]]:
    """The code-free part of ``_gap_table``: -1 at the triples that are not
    three distinct positions, and per (type word, placement) the masks of
    the gaps where the relinked arrow has that word and placement with the
    other arrow, from the range model of ``_model_cases``."""
    size = length**3
    base = [-1] * size
    cases = _model_cases()
    rows = {key: [0] * size for key in set(cases.values())}
    for t, h in itertools.permutations(range(length), 2):
        lo, hi = min(t, h), max(t, h)
        for a in range(length):
            if a == t or a == h:
                continue
            index = (a * length + t) * length + h
            base[index] = 0
            y = (a > lo) + (a > hi)  # the ranges of a and the gap around (t, h)
            for gap in range(length + 1):
                x = (gap > lo) + (gap > hi)
                rows[cases[t < h, x, y, gap <= a]][index] |= 1 << gap  # (k, a)
                rows[cases[t < h, y, x, gap > a]][index] |= 1 << gap + length + 1  # (a, k)
    return tuple(base), {key: tuple(row) for key, row in rows.items()}


@lru_cache(maxsize=8)
def _gap_table(code: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Per position a of a word of the given length, per (t, h) at t*length
    + h, the gaps g (after g of the word's nodes) where an outside node k
    makes (k, a) an edge to (t, h), at bit g, and (a, k), at bit length+1+g;
    -1 when a, t, h are not distinct.  By uniformity the edge depends only
    on the order of the four nodes, so the table is the code's choice of the
    rows of ``_gap_classes``, as ``_adjacency`` is of ``_pair_classes``."""
    flat = _code_rows(code, *_gap_classes(length))
    block = length * length
    return tuple(flat[a : a + block] for a in range(0, len(flat), block))


def _gap_cover(
    table: tuple[tuple[int, ...], ...], length: int, pairs: Sequence[tuple[int, int]]
) -> int:
    """The gaps where a matching, as (tail, head) positions on a word of the
    given length, absorbs an outside node as a tail (low length+1 bits) and
    as a head (the bits above): relinking arrow i is an edge to every other
    arrow j, so AND the masks of ``_gap_table`` over j and OR over i."""
    keys = [t * length + h for t, h in pairs]
    low = (1 << length + 1) - 1
    cover = 0
    for t, h in pairs:
        as_tail, as_head = table[h], table[t]
        tail = head = -1
        for key in keys:  # j = i reads -1
            tail &= as_tail[key]
            head &= as_head[key]
        cover |= tail & low | head & ~low
    return cover


LinkageMiss = tuple[int, tuple[tuple[int, int], ...], int]


@lru_cache(maxsize=64)
def _linkage_misses(code: int, n: int) -> tuple[LinkageMiss, ...]:
    """Linkage decided once per T/H word: the matchings of the words of
    length 2r <= n in ``_word_table`` that fail to absorb an outside node
    in some of their 2r+1 gaps on some side, as (length, matching, the gap
    bits that ``_gap_cover`` misses).  By uniformity the axiom holds for
    all matching faces at size n exactly when there are none.  A single
    arrow always relinks, so words start at r = 2."""
    misses = []
    for word, matchings in _word_table(code, n).items():
        length = len(word)
        if not 4 <= length <= n:
            continue
        table, full = _gap_table(code, length), (1 << 2 * length + 2) - 1
        for m in matchings:
            missed = full ^ _gap_cover(table, length, m)
            if missed:
                misses.append((length, m, missed))
    return tuple(misses)


def _first_failing_face(misses: Iterable[LinkageMiss], swap: bool, reverse: bool) -> tuple:
    """The first face, in the order of the sorted arrow tuples of the code's
    matching faces, that fails linkage, for the code that a symmetry carries
    the misses of its orbit's least code onto: (face, its nodes, the miss's
    gap bits).  The least placement of a matching that leaves a node outside
    in gap g puts position p on node p+1 when p < g and on node p+2 when
    p >= g; the higher the gap, the lower every node.  So each matching
    fails first at its highest missed gap, on either side, and the first
    face is the least of these placements.  Reversal maps gap g to gap
    length-g."""

    def placed(length: int, m: Sequence[tuple[int, int]], missed: int) -> tuple:
        gaps = (missed | missed >> length + 1) & (1 << length + 1) - 1
        g = length + 1 - (gaps & -gaps).bit_length() if reverse else gaps.bit_length() - 1
        m = _moved(m, length - 1, swap, reverse)
        return tuple((t + 1 + (t >= g), h + 1 + (h >= g)) for t, h in m), g, length, missed

    face, g, length, missed = min(placed(*miss) for miss in misses)
    return face, tuple(p + 1 + (p >= g) for p in range(length)), missed


def check_linkage_axiom(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    """For every nonempty matching face and every node k outside it, demand
    a relink that absorbs k as a tail and one that absorbs k as a head.

    The verdict is decided once per T/H word of the orbit's least code
    (``_linkage_misses``): a symmetry carries faces and relinks onto the
    other members, so every failing face is a miss carried onto the code
    and placed on some nodes of V_n.  The witnesses are listed in the order
    of the faces' sorted arrow tuples: the first failing face is read off
    the misses (``_first_failing_face``), and for all witnesses every miss
    takes every placement on 1..n+1.  Each face lists its outside nodes k
    and sides that no relink absorbs, read off the miss's own gap bits: a
    swap of T and H exchanges the sides of each gap and reversal maps gap g
    to gap length-g.  A single arrow always relinks, so misses have two or
    more arrows."""
    check_ambient_size(n)
    least, swap, reverse = _orbit_relabel(rs.code)
    misses = _linkage_misses(least, n)
    if not misses:
        return AxiomReport("linkage", True)
    if all_witnesses:
        placements = sorted(
            (tuple((nodes[t], nodes[h]) for t, h in moved), nodes, missed)
            for length, m, missed in misses
            for moved in [_moved(m, length - 1, swap, reverse)]
            for nodes in itertools.combinations(range(1, n + 2), length)
        )
    else:
        placements = [_first_failing_face(misses, swap, reverse)]
    witnesses = []
    for face, nodes, missed in placements:
        length = len(nodes)
        gap = 0  # the face's nodes below k
        for k in range(1, n + 2):
            if gap < length and nodes[gap] == k:
                gap += 1
                continue
            low = length - gap if reverse else gap  # the gap of the least code's word
            sides = (low, low + length + 1)
            for side, bit in zip(("tail", "head"), sides[::-1] if swap else sides):
                if not missed >> bit & 1:
                    continue
                witnesses.append(
                    Violation(
                        "linkage",
                        {
                            "matching": [list(arrow) for arrow in face],
                            "I": sorted(t for t, _ in face),
                            "J": sorted(h for _, h in face),
                            "k": k,
                            "side": side,
                        },
                    )
                )
                if not all_witnesses:
                    return AxiomReport("linkage", False, tuple(witnesses))
    return AxiomReport("linkage", False, tuple(witnesses))


@lru_cache(maxsize=64)
def _circuit_cores(code: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The simple cycles of the faces of V_n up to placement, per T/H word.

    A face with a cycle contains a simple one, and tails and heads of a face
    are disjoint, so the cycle alternates t1 -> h1 <- t2 -> ... <- t1 on the
    2r nodes of a word, r >= 2, and its 2r arrows split into two matchings
    of that word that share no arrow.  Conversely, two distinct matchings of
    a word whose arrows are pairwise edges hold such a cycle, on a shorter
    word if they share an arrow.  So the cores are the unions of two
    matchings of a ``_word_table`` word of which every arrow of one is a
    neighbour of every arrow of the other (so none is shared), as 0-based
    (tail, head) positions; by uniformity a core placed on any 2r nodes of
    V_n is a face, and every simple cycle of a face is such a placement.
    Words with fewer than two matchings, all words of a valid code, hold
    no core.  No placement is listed; ``check_permissible`` embeds them.
    """
    masks = _adjacency(code, n)[1]
    leaving, entering = _walk_tables(n)[:2]  # (t, h) is leaving[t] & entering[h]
    cores = []
    for matchings in _word_table(code, n).values():
        if len(matchings) < 2:
            continue
        bits = [sum(leaving[t + 1] & entering[h + 1] for t, h in m) for m in matchings]
        common = [reduce(and_, (masks[v] for v in _ones(m))) for m in bits]
        for i, j in itertools.combinations(range(len(matchings)), 2):
            if not bits[j] & ~common[i]:
                cores.append(matchings[i] + matchings[j])
    return tuple(cores)


def check_permissible(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    """Check the square-face and forest conditions.

    (a) every shared-tail and shared-head pair is an edge, (b) exactly one
    diagonal of each square face is an edge, (c) every clique is an
    admissible forest.  (a) and (b) hold for all 64 codes by construction of
    the edge predicate, so they are not re-checked here: every code's masks
    contain the shared-endpoint pairs, and the two diagonals of a square are
    the two placements of one type word, of which each code picks one.
    For (c), every clique is admissible, since a pair in which a node is the
    head of one arrow and the tail of the other is never an edge; some
    clique contains a circuit exactly when some word of the orbit's least
    code has a circuit core (``_circuit_cores``), and this genuinely happens
    for invalid codes.  Only then are the cores carried onto the code and
    its faces walked, in the order of ``enumerate_faces``, to report the
    first (or every) face with a circuit: a subtree is skipped when no
    core, carried onto the code, embeds into its face and candidates: its
    positions on increasing nodes, each arrow tested at its higher end.
    """
    check_ambient_size(n)
    least, swap, reverse = _orbit_relabel(rs.code)
    cores = _circuit_cores(least, n)
    if not cores:
        return AxiomReport("permissible", True)
    arrows, masks = adjacency(rs, n)
    positions = _walk_tables(n)[2]
    # per shape, shortest first, and position, the arrows whose higher end
    # it is, as (lower end, whether it is their tail); equal steps shared
    plans, steps = [], {}
    for shape in sorted({_moved(core, len(core) - 1, swap, reverse) for core in cores}, key=len):
        plan = [()] * len(shape)
        for t, h in shape:
            plan[max(t, h)] += ((min(t, h), t > h),)
        plans.append(tuple(steps.setdefault(step, step) for step in plan))

    def embeds(plan: tuple, near: tuple[list[int], list[int]], nodes: list[int], p: int) -> bool:
        free = (1 << n + 2 - len(plan) + p) - (2 << nodes[p - 1] if p else 1)
        for o, tail in plan[p]:
            free &= near[tail][nodes[o]]
        while free:
            low = free & -free
            free ^= low
            nodes[p] = low.bit_length() - 1
            if p + 1 == len(plan) or embeds(plan, near, nodes, p + 1):
                return True
        return False

    def prune(face: int, cand: int) -> bool:
        # per 0-based node, its heads and its tails by the arrows in face | cand
        near: tuple[list[int], list[int]] = ([0] * (n + 1), [0] * (n + 1))
        for v in _ones(face | cand):
            t, h = positions[v]
            near[0][t] |= 1 << h
            near[1][h] |= 1 << t
        return any(embeds(plan, near, [0] * len(plan), 0) for plan in plans)

    witnesses = []
    for face, forest in _iter_cliques(arrows, masks, n, prune=prune):
        if forest:
            continue
        witnesses.append(
            Violation(
                "permissible",
                {"face": _arrow_json(arrows[v] for v in face), "reason": "contains a circuit"},
            )
        )
        if not all_witnesses:
            break
    return AxiomReport("permissible", False, tuple(witnesses))


def verify(rs: RuleSet, n: int, all_witnesses: bool = False) -> list[AxiomReport]:
    """Permissibility, support and linkage reports for one (rule set, n)."""
    return [
        check_permissible(rs, n, all_witnesses),
        check_support_axiom(rs, n, all_witnesses),
        check_linkage_axiom(rs, n, all_witnesses),
    ]


# ---------------------------------------------------------------------------
# Matching ensembles on K_{a,b}


class BipartiteEnsemble(Record):
    """A family of matchings of K_{a,b}, each a frozenset of (left, right)
    edges; the family is stored as a frozenset (the same object when it is
    one already)."""

    _fields = ("a", "b", "matchings")

    def __init__(self, a: int, b: int, matchings: Iterable[EdgeSet]):
        if a < 1 or b < 1:
            raise ValueError("both parts must be nonempty")
        matchings = frozenset(matchings)
        for m in matchings:
            if len({l for l, _ in m}) != len(m) or len({r for _, r in m}) != len(m):
                raise ValueError(f"{sorted(m)} is not a matching")
            if any(not (1 <= l <= a and 1 <= r <= b) for l, r in m):
                raise ValueError(f"edge out of range in {sorted(m)}")
        self.__dict__.update(a=a, b=b, matchings=matchings)


def me_axioms(ensemble: BipartiteEnsemble, all_witnesses: bool = False) -> AxiomReport:
    """Check the closure, support and linkage axioms for a matching family."""
    a, b = ensemble.a, ensemble.b
    family = frozenset(_edge_mask(m, a, b) for m in ensemble.matchings)
    witnesses = _ensemble_violations(a, b, family, all_witnesses)
    return AxiomReport("ensemble", not witnesses, tuple(witnesses))


def _ensemble_violations(
    a: int, b: int, family: frozenset[int], all_witnesses: bool = False
) -> list[Violation]:
    """The closure, support and linkage violations, in that order, of a
    family of matchings of K_{a,b} as edge masks: all of them, or the first.

    Closure: each matching less any one edge is in the family.  Support:
    each k-subset pair of the parts is the vertex mask (the OR of the edges'
    ends) of exactly one matching.  Linkage: a vertex outside a nonempty
    matching is absorbed by trading one edge for an edge at that vertex, an
    edge that completes the rest to a member; as the family holds only
    matchings, a trade found in it is a matching.
    """
    ends = [1 << k // b | 1 << a + k % b for k in range(a * b)]
    witnesses: list[Violation] = []

    def bail(axiom: str, detail: dict) -> bool:
        witnesses.append(Violation(axiom, detail))
        return not all_witnesses

    def edges(m: int) -> list[BipartiteEdge]:
        return sorted(_edge_set(m, b))

    for m in family:
        for k in _ones(m):
            if m ^ 1 << k not in family and bail(
                "closure", {"matching": edges(m), "missing": edges(m ^ 1 << k)}
            ):
                return witnesses
    by_vertices: dict[int, list[int]] = {}
    for m in family:
        by_vertices.setdefault(reduce(or_, (ends[k] for k in _ones(m)), 0), []).append(m)
    for k in range(1, min(a, b) + 1):
        for lefts, rights in itertools.product(
            itertools.combinations(range(a), k), itertools.combinations(range(b), k)
        ):
            hits = by_vertices.get(sum(1 << l for l in lefts) + sum(1 << a + r for r in rights), [])
            if len(hits) != 1 and bail("support", {
                "I": [l + 1 for l in lefts],
                "J": [r + 1 for r in rights],
                "count": len(hits),
                "matchings": sorted(map(edges, hits)),
            }):
                return witnesses
    absorbed: dict[int, int] = {}  # per member less one edge, the ends that complete it
    for m in family:
        for k in _ones(m):
            absorbed[m ^ 1 << k] = absorbed.get(m ^ 1 << k, 0) | ends[k]
    everyone = (1 << a + b) - 1
    for m in family:
        # the ORs also hold m's own ends, so what they miss is outside m
        reach = reduce(or_, (absorbed[m ^ 1 << k] for k in _ones(m)), 0)
        for v in _ones(everyone & ~reach if m else 0):
            vertex = ["L", v + 1] if v < a else ["R", v - a + 1]
            if bail("linkage", {"matching": edges(m), "vertex": vertex}):
                return witnesses
    return witnesses


def _ones(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=64)
def _stars(a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex of K_{a,b}, the left part first, the mask of its edges;
    per edge, the mask of the edges that share no vertex with it."""
    stars = tuple((1 << b) - 1 << l * b for l in range(a))
    stars += tuple(sum(1 << l * b + r for l in range(a)) for r in range(b))
    return stars, tuple(~(stars[k // b] | stars[a + k % b]) for k in range(a * b))


def _edge_mask(edges: Iterable[BipartiteEdge], a: int, b: int) -> int:
    """An edge set of K_{a,b} as an int: edge (l, r) is bit (l-1)*b + (r-1)."""
    edges = frozenset(edges)
    if any(not (1 <= l <= a and 1 <= r <= b) for l, r in edges):
        raise ValueError(f"edge out of range in {sorted(edges)}")
    return sum(1 << (l - 1) * b + r - 1 for l, r in edges)


def _edge_set(mask: int, b: int) -> EdgeSet:
    """The edge set of an edge mask of K_{a,b}."""
    return frozenset((k // b + 1, k % b + 1) for k in _ones(mask))


@lru_cache(maxsize=1024)
def _edge_family(b: int, family: frozenset[int]) -> frozenset[EdgeSet]:
    """A family of edge masks as a family of edge sets, one object per
    distinct family."""
    return frozenset(_edge_set(m, b) for m in family)


def _matchings_in(a: int, b: int, edges: int, adjacent: Sequence[int] | None = None) -> list[int]:
    """The matchings of K_{a,b} inside an edge mask whose edges are pairwise
    adjacent (per edge, the mask of its neighbours; default: all edges), as
    edge masks, the empty matching first."""
    keep = _stars(a, b)[1]
    if adjacent is not None:
        keep = tuple(map(and_, keep, adjacent))
    found: list[int] = []

    def rec(cand: int, face: int) -> None:
        found.append(face)
        while cand:
            low = cand & -cand
            cand ^= low
            rec(cand & keep[low.bit_length() - 1], face | low)

    rec(edges, 0)
    return found


def phi(trees: Iterable[EdgeSet], a: int, b: int) -> BipartiteEnsemble:
    """Union over the trees of all matchings contained in each tree."""
    family = {m for tree in trees for m in _matchings_in(a, b, _edge_mask(tree, a, b))}
    return BipartiteEnsemble(a, b, _edge_family(b, frozenset(family)))


def spanning_trees(a: int, b: int) -> list[EdgeSet]:
    """All spanning trees of K_{a,b}."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return [_edge_set(tree, b) for tree in _spanning_trees(a, b)]


@lru_cache(maxsize=64)
def _spanning_trees(a: int, b: int) -> tuple[int, ...]:
    """The spanning trees of K_{a,b} as edge masks, in the order of the
    (a+b-1)-subsets of the edge bits: the subsets that touch every vertex
    and whose edges all join the first left vertex."""
    stars = _stars(a, b)[0]
    out = []
    for combo in itertools.combinations(range(a * b), a + b - 1):
        edges = sum(1 << k for k in combo)
        joined, grown = 0, stars[0] & edges
        while grown != joined:
            joined = grown
            grown = edges & reduce(or_, (star for star in stars if star & joined))
        if joined == edges and all(star & edges for star in stars):
            out.append(edges)
    return tuple(out)


def postnikov_compatible(first: EdgeSet, second: EdgeSet) -> bool:
    """Two bipartite forests span simplices meeting in a common face exactly
    when their union has no alternating cycle of length >= 4."""
    first, second = frozenset(first), frozenset(second)
    # relabel the vertices that occur to 1..a and 1..b
    left = {l: k for k, l in enumerate(sorted({l for l, _ in first | second}), 1)}
    right = {r: k for k, r in enumerate(sorted({r for _, r in first | second}), 1)}
    a, b = len(left), len(right)
    first_mask, second_mask = (
        _edge_mask(((left[l], right[r]) for l, r in edges), a, b) for edges in (first, second)
    )
    # the second's edges on an alternating cycle are a matching
    return not any(
        _alternates(a, b, first_mask, m) for m in _matchings_in(a, b, second_mask) if m & m - 1
    )


def _alternates(a: int, b: int, edges: int, matching: int) -> bool:
    """Whether an edge mask and a matching of K_{a,b} have a simple cycle of
    length >= 4 whose edges alternate between them.  As the matching pairs
    each right vertex r with at most one left vertex m(r), this is a cycle
    of the digraph on the left vertices with an arc l -> m(r) for each edge
    (l, r) with m(r) != l, that is, a walk of length a."""
    partner = [0] * b
    for k in _ones(matching):
        partner[k % b] = 1 << k // b
    arcs = [0] * a
    for k in _ones(edges):
        arcs[k // b] |= partner[k % b] & ~(1 << k // b)
    walks = (1 << a) - 1  # the left vertices that start a walk of length i
    for _ in range(a):
        walks = sum(1 << l for l in range(a) if arcs[l] & walks)
    return walks != 0


@lru_cache(maxsize=16)
def _cycle_halves(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The simple cycles of length >= 4 of K_{a,b}, each as its two perfect
    matchings in both orders (half, other), as edge masks: the cycle
    l_0 r_0 l_1 r_1 ... l_{k-1} r_{k-1} splits into (l_i, r_i) and
    (l_{i+1}, r_i), and with l_0 the least left vertex each cycle is listed
    once per direction."""
    pairs = []
    for k in range(2, min(a, b) + 1):
        for lefts in itertools.combinations(range(a), k):
            for rest in itertools.permutations(lefts[1:]):
                ring = lefts[:1] + rest
                for rights in itertools.permutations(range(b), k):
                    half = sum(1 << l * b + r for l, r in zip(ring, rights))
                    other = sum(1 << l * b + r for l, r in zip(ring[1:] + ring[:1], rights))
                    pairs.append((half, other))
    return tuple(pairs)


@lru_cache(maxsize=16)
def _tree_table(a: int, b: int) -> tuple[dict[int, int], tuple[tuple[int, int, int], ...]]:
    """The matchings of K_{a,b} as one-bit index masks, and per spanning tree
    (in order) a row: the tree, the index mask of the matchings of two or
    more edges it has an alternating cycle with, and that of the matchings
    inside it.  Two trees alternate when one alternates with a matching
    inside the other.  On an alternating cycle the matching's edges are one
    half of the cycle and the tree's the other, so a tree conflicts with
    the matchings that hold a half whose other half lies in the tree."""
    index = {m: 1 << i for i, m in enumerate(_matchings_in(a, b, (1 << a * b) - 1))}
    holding = [
        (other, sum(bit for m, bit in index.items() if m & half == half))
        for half, other in _cycle_halves(a, b)
    ]
    rows = []
    for tree in _spanning_trees(a, b):
        conflicts = reduce(or_, (bits for other, bits in holding if other & tree == other), 0)
        rows.append((tree, conflicts, sum(index[m] for m in _matchings_in(a, b, tree))))
    return index, tuple(rows)


def _compatible_trees(
    a: int, b: int, family: Iterable[int]
) -> tuple[int, list[tuple[int, int, int]]]:
    """A set of matchings of K_{a,b} (edge masks) as one index mask of
    ``_tree_table``, and the rows of the table whose conflicts miss it: the
    spanning trees with no alternating cycle with any of the matchings."""
    index, table = _tree_table(a, b)
    bits = sum(map(index.__getitem__, family))
    return bits, [row for row in table if not row[1] & bits]


def phi_inverse(ensemble: BipartiteEnsemble) -> frozenset[EdgeSet]:
    """The spanning trees compatible with every matching of the ensemble.

    Refuses ensembles that fail the matching-ensemble axioms.
    """
    report = me_axioms(ensemble)
    if not report.passed:
        raise ValueError(f"not a matching ensemble: {report.to_json_dict()}")
    a, b = ensemble.a, ensemble.b
    family = [_edge_mask(m, a, b) for m in ensemble.matchings]
    return frozenset(_edge_set(tree, b) for tree, _, _ in _compatible_trees(a, b, family)[1])


@lru_cache(maxsize=4096)
def _pattern_arrows(pattern: Sequence[str]) -> tuple[int, int, int, tuple[int, ...], int]:
    """The part of a restriction that does not depend on the code: n, |I|,
    |J|, the count-order indices of the arrows from the pattern's tail
    positions to its head positions, tails in order, and their mask."""
    n = max(len(pattern) - 1, 0)
    leaving, entering = _node_masks(n, _count_order(n))  # (t, h) is leaving[t] & entering[h]
    tails = [p for p, letter in enumerate(pattern, 1) if letter == "T"]
    heads = [p for p, letter in enumerate(pattern, 1) if letter == "H"]
    arrows = tuple((leaving[t] & entering[h]).bit_length() - 1 for t in tails for h in heads)
    return n, len(tails), len(heads), arrows, sum(1 << v for v in arrows)


def _restriction_by_pattern(code: int, pattern: Sequence[str]) -> frozenset[int]:
    """Relabeled matchings of a rule set within I x J, as edge masks of
    K_{|I|,|J|}, keyed by the tail/head pattern of sorted(I + J); uniformity
    makes the node labels irrelevant.  They are the matching faces among the
    arrows from the pattern's tail positions to its head positions, with the
    pattern placed on nodes 1..len(pattern), and depend only on the
    adjacency among those arrows."""
    n, a, b, arrows, start = _pattern_arrows(pattern)
    masks = _adjacency(code, n, _count_order(n))[1]  # cached by the face tables of V_n
    return _family(a, b, arrows, tuple(masks[v] & start for v in arrows))


@lru_cache(maxsize=4096)
def _family(a: int, b: int, arrows: tuple[int, ...], restricted: tuple[int, ...]) -> frozenset[int]:
    """The matchings of K_{a,b}, as edge masks, whose arrows are pairwise
    edges: edge bit k is the k-th arrow, and restricted holds its
    neighbours among the arrows, as an arrow mask."""
    adjacent = [sum(1 << k for k, w in enumerate(arrows) if mask >> w & 1) for mask in restricted]
    return frozenset(_matchings_in(a, b, (1 << a * b) - 1, adjacent))


def restriction_ensemble(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> BipartiteEnsemble:
    """Matchings of the complex inside I x J, relabeled to K_{|I|,|J|}
    (sorted I maps to the left part, sorted J to the right part)."""
    pattern = _trace(tails, heads)[1]
    _, a, b, _, _ = _pattern_arrows(pattern)
    return BipartiteEnsemble(a, b, _edge_family(b, _restriction_by_pattern(rs.code, pattern)))
