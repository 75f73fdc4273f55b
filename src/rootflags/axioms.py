"""Exhaustive verification that a rule set triangulates the polytope boundary.

A permissible uniform flag complex triangulates the boundary exactly when
its family of matching faces satisfies the support axiom (for every pair
of disjoint equal-size node sets I, J there is a unique matching face from
I onto J) and the linkage axiom (a matching face can absorb any outside
node by relinking one arrow endpoint).  Both are decided here
exhaustively on the adjacency bitmasks of ``complexes.adjacency``, together
with the underlying matching-ensemble axioms on complete bipartite graphs
and the spanning-tree correspondence.  All three verdicts are decided
from one table of the T/H words and their matchings (``_code_table``):
support counts each word's matchings and reads its first witness off the
least failing word, linkage relinks the matchings, and a circuit is a pair
of matchings of one word whose arrows are pairwise edges.  The table is
solved once per symmetry orbit, for the orbit's least code
(``_word_table``); the other members relabel it exactly, since dual swaps
T and H in every word and reflected dual also reverses it.  The matching
faces and the circuit witnesses are listed by the clique walk of
``complexes._iter_cliques``.

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
from .complexes import _adjacency, _count_order, _iter_cliques, _node_masks, _pair_classes
from .complexes import adjacency, check_ambient_size
from .matchings import THWord, _trace, th_word
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
def _index_table(n: int) -> tuple[tuple[int, ...], ...]:
    """index[t][h]: position of the arrow (t, h) in ``arrows_of(n)``."""
    size = n + 2
    return tuple(
        tuple((t - 1) * n + h - 1 - (h > t) for h in range(size)) for t in range(size)
    )


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


def _word_support(rs: RuleSet, word: THWord) -> list[Matching]:
    """``all_support_matchings`` of the I and J that trace the word."""
    nodes = word.positions
    n = max(len(nodes) - 1, 0)
    return [
        frozenset(Arrow(nodes[t], nodes[h]) for t, h in matching)
        for matching in _word_matchings(n, adjacency(rs, n)[1], word.letters)
    ]


def all_support_matchings(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> list[Matching]:
    """All matchings of I onto J whose arrows are pairwise edges, in tail
    order, each tail trying the free heads in increasing order.

    By uniformity they are the matchings of the T/H word that I and J trace,
    solved on nodes 1..|I|+|J| and relabeled onto I and J.
    """
    return _word_support(rs, th_word(tails, heads))


def support_matching(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> Matching:
    """The unique matching face from I onto J; raises MultiplicityError
    carrying all matchings found when the count differs from one."""
    word = th_word(tails, heads)
    found = _word_support(rs, word)
    if len(found) != 1:
        annotated = word.annotated()
        raise MultiplicityError(
            [x for x, letter in annotated if letter == "T"],
            [x for x, letter in annotated if letter == "H"],
            found,
        )
    return found[0]


def _disjoint_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs of disjoint nonempty equal-size subsets of 1..n+1,
    in (|I|, I, J) order."""
    nodes = range(1, n + 2)
    for k in range(1, (n + 1) // 2 + 1):
        for tails in itertools.combinations(nodes, k):
            rest = [x for x in nodes if x not in tails]
            for heads in itertools.combinations(rest, k):
                yield tails, heads


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
    the list is in the order of ``all_support_matchings``: tails in order,
    each trying the free heads in increasing order.  A tail's candidates
    are the set bits of its row (its arrows into the word's heads) that are
    neighbours of every arrow chosen so far and share no node with one;
    for a fixed tail the arrow index grows with the head.
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

_SWAP = str.maketrans("TH", "HT")


@lru_cache(maxsize=30)
def _word_table(code: int, n: int) -> WordTable:
    """Every T/H word of length at most n+1, in ``_words`` order, with its
    ``_word_matchings`` on the masks of V_n, for the least code of an orbit.
    ``_code_table`` relabels it onto the other members, so ``verify --all``
    solves each word once per orbit; one (code, n) per orbit is kept."""
    masks = _adjacency(code, n)[1]
    return {
        word: _word_matchings(n, masks, word)
        for k in range(1, (n + 1) // 2 + 1)
        for word in _words(k)
    }


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


def _code_table(code: int, n: int) -> WordTable:
    """``_word_table`` of any code: its orbit's solved table, relabeled onto
    the code unless the code is the orbit's least.  Permissibility, support
    and linkage all read it."""
    return _word_table(code, n) if _orbit_relabel(code)[0] == code else _member_table(code, n)


@lru_cache(maxsize=1)
def _member_table(code: int, n: int) -> WordTable:
    """The word table of a code that is not its orbit's least, relabeled
    from the least code's; only the last (code, n) is kept.

    On a word of length L, dual swaps T and H and maps (t, h) to (h, t),
    reflected dual reverses and swaps the word and maps (t, h) to
    (L-1-h, L-1-t), and their product reverses the word and maps (t, h) to
    (L-1-t, L-1-h).  The relabeled matchings are sorted back into the order
    of ``_word_matchings``, which is that of their (tail, head) tuples."""
    least, swap, reverse = _orbit_relabel(code)
    solved = _word_table(least, n)
    table = {}
    for word in solved:  # the words of a length are closed under each symmetry
        source = word.translate(_SWAP) if swap else word
        last = len(word) - 1
        matchings = []
        for matching in solved[source[::-1] if reverse else source]:
            if swap:
                matching = [(h, t) for t, h in matching]
            if reverse:
                matching = [(last - t, last - h) for t, h in matching]
            matchings.append(tuple(sorted(matching)))
        table[word] = sorted(matchings)
    return table


def check_support_axiom(
    rs: RuleSet, n: int, all_witnesses: bool = False
) -> AxiomReport:
    """Demand a unique matching face from I onto J for every pair of disjoint
    equal-size node sets.

    By uniformity the matchings depend only on the T/H word that I and J
    trace on the number line, so each word is solved once (``_code_table``).
    The first witness in (|I|, I, J) order is the first failing word of the
    table (shortest, then least tail positions) placed on nodes 1..2k: any
    other placement of any failing word raises every node, so its (I, J)
    comes later.  Only for all witnesses are the (I, J) pairs walked, in
    order, with each failing word's matchings relabeled onto them.
    """
    check_ambient_size(n)
    by_word = _code_table(rs.code, n)
    failing = next((word for word, matchings in by_word.items() if len(matchings) != 1), None)
    if failing is None:
        return AxiomReport("support", True)
    if all_witnesses:
        pairs = _disjoint_pairs(n)
    else:  # the first failing word on nodes 1..2k
        tails = tuple(p for p, letter in enumerate(failing, 1) if letter == "T")
        heads = tuple(p for p, letter in enumerate(failing, 1) if letter == "H")
        pairs = [(tails, heads)]
    witnesses = []
    for tails, heads in pairs:
        nodes = sorted(tails + heads)
        matchings = by_word["".join("T" if x in tails else "H" for x in nodes)]
        if len(matchings) != 1:
            witnesses.append(
                Violation(
                    "support",
                    {
                        "I": list(tails),
                        "J": list(heads),
                        "count": len(matchings),
                        "matchings": [[[nodes[t], nodes[h]] for t, h in m] for m in matchings],
                    },
                )
            )
    return AxiomReport("support", False, tuple(witnesses))


def matching_faces(rs: RuleSet, n: int) -> Iterator[Matching]:
    """All faces that are matchings (pairwise node-disjoint arrows): the
    clique walk on each arrow's neighbours that share no node with it."""
    check_ambient_size(n)
    arrows, masks = adjacency(rs, n)
    faces = _iter_cliques(arrows, tuple(map(and_, masks, _walk_tables(n)[3])), n)
    next(faces)  # the empty face
    for face, _ in faces:
        yield frozenset(arrows[v] for v in face)


def _relinks(
    index: Sequence[Sequence[int]], sigma: Sequence[tuple[int, int]], rests: Sequence[int], k: int
) -> tuple[bool, bool]:
    """Whether the matching face sigma, given as (tail, head) node pairs, can
    absorb the outside node k as a tail, and as a head, by relinking one
    arrow so that the new arrow is an edge to every other arrow of sigma;
    rests[i] is the AND of the neighbour masks of all arrows but the i-th."""
    as_tail = as_head = False
    for (t, h), rest in zip(sigma, rests):
        as_tail = as_tail or bool(rest >> index[k][h] & 1)
        as_head = as_head or bool(rest >> index[t][k] & 1)
    return as_tail, as_head


def _rests(masks: Sequence[int], face: Sequence[int]) -> list[int]:
    """Per arrow of a face, the AND of the neighbour masks of the others."""
    rests = []
    for v in face:
        rest = -1
        for w in face:
            if w != v:
                rest &= masks[w]
        rests.append(rest)
    return rests


def _linkage_holds_on_words(code: int, n: int) -> bool:
    """Linkage decided once per T/H word: every matching of every word of
    length 2r <= n in ``_code_table``, placed on nodes 1..2r+1 around each
    outside node k, relinks to absorb k on both sides.  By uniformity this
    is the linkage axiom for all matching faces at size n.  A single arrow
    always relinks, so words start at r = 2."""
    masks = _adjacency(code, n)[1]
    index = _index_table(n)
    for word, matchings in _code_table(code, n).items():
        if not 4 <= len(word) <= n:
            continue
        for matching in matchings:
            for k in range(1, len(word) + 2):
                sigma = [
                    (t + 1 + (t + 1 >= k), h + 1 + (h + 1 >= k)) for t, h in matching
                ]
                rests = _rests(masks, [index[t][h] for t, h in sigma])
                if not all(_relinks(index, sigma, rests, k)):
                    return False
    return True


def check_linkage_axiom(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    """For every nonempty matching face and every node k outside it, demand
    a relink that absorbs k as a tail and one that absorbs k as a head.

    The verdict is decided once per T/H word; only when it fails are the
    matching faces walked, in the order of ``matching_faces``, to list the
    witnesses.  A single arrow always relinks, so only faces of two or more
    arrows are tested, each with its rests built once for every k."""
    check_ambient_size(n)
    if _linkage_holds_on_words(rs.code, n):
        return AxiomReport("linkage", True)
    arrows, masks = adjacency(rs, n)
    index = _index_table(n)
    witnesses = []
    # the walk of matching_faces, on arrow indices: frozensets cost per face
    faces = _iter_cliques(arrows, tuple(map(and_, masks, _walk_tables(n)[3])), n)
    next(faces)  # the empty face
    for face, _ in faces:
        if len(face) < 2:
            continue
        sigma = [arrows[v] for v in face]
        rests = _rests(masks, face)
        covered = sum(1 << a.tail | 1 << a.head for a in sigma)  # the nodes are distinct
        for k in range(1, n + 2):
            if covered >> k & 1:
                continue
            for side, ok in zip(("tail", "head"), _relinks(index, sigma, rests, k)):
                if ok:
                    continue
                witnesses.append(
                    Violation(
                        "linkage",
                        {
                            "matching": _arrow_json(sigma),
                            "I": sorted(a.tail for a in sigma),
                            "J": sorted(a.head for a in sigma),
                            "k": k,
                            "side": side,
                        },
                    )
                )
                if not all_witnesses:
                    return AxiomReport("linkage", False, tuple(witnesses))
    return AxiomReport("linkage", not witnesses, tuple(witnesses))


def _circuit_cores(code: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """The simple cycles of the faces of V_n up to placement, per T/H word.

    A face with a cycle contains a simple one, and tails and heads of a face
    are disjoint, so the cycle alternates t1 -> h1 <- t2 -> ... <- t1 on the
    2r nodes of a word, r >= 2, and its 2r arrows split into two matchings
    of that word that share no arrow.  Conversely, two distinct matchings of
    a word whose arrows are pairwise edges hold such a cycle, on a shorter
    word if they share an arrow.  So the cores are the unions of two
    matchings of a ``_code_table`` word of which every arrow of one is a
    neighbour of every arrow of the other (so none is shared), as 0-based
    (tail, head) positions; by uniformity a core placed on any 2r nodes of
    V_n is a face, and every simple cycle of a face is such a placement.
    Words with fewer than two matchings, all words of a valid code, hold
    no core.
    """
    masks = _adjacency(code, n)[1]
    index = _index_table(n)
    cores = []
    for matchings in _code_table(code, n).values():
        if len(matchings) < 2:
            continue
        arrows = [[index[t + 1][h + 1] for t, h in m] for m in matchings]
        bits = [sum(1 << v for v in m) for m in arrows]
        common = [reduce(and_, (masks[v] for v in m)) for m in arrows]
        for i, j in itertools.combinations(range(len(matchings)), 2):
            if not bits[j] & ~common[i]:
                cores.append(matchings[i] + matchings[j])
    return cores


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
    clique contains a circuit exactly when some word of ``_code_table`` has
    a circuit core (``_circuit_cores``), and this genuinely happens for
    invalid codes.  Only then are the faces walked, in the order of
    ``enumerate_faces``, to report the first (or every) face with a circuit:
    a subtree is skipped when no placed core lies inside its face and
    candidates together.
    """
    check_ambient_size(n)
    cores = _circuit_cores(rs.code, n)
    if not cores:
        return AxiomReport("permissible", True)
    arrows, masks = adjacency(rs, n)
    index = _index_table(n)
    placed = [
        sum(1 << index[nodes[t]][nodes[h]] for t, h in core)
        for core in cores
        # a core of 2r arrows spans 2r nodes
        for nodes in itertools.combinations(range(1, n + 2), len(core))
    ]

    def prune(face: int, cand: int) -> bool:
        outside = ~(face | cand)
        return any(not core & outside for core in placed)

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
def _pattern_arrows(pattern: tuple[str, ...]) -> tuple[int, int, int, tuple[int, ...], int]:
    """The part of a restriction that does not depend on the code: n, |I|,
    |J|, the count-order indices of the arrows from the pattern's tail
    positions to its head positions, tails in order, and their mask."""
    n = max(len(pattern) - 1, 0)
    leaving, entering = _node_masks(n, _count_order(n))  # (t, h) is leaving[t] & entering[h]
    tails = [p for p, letter in enumerate(pattern, 1) if letter == "T"]
    heads = [p for p, letter in enumerate(pattern, 1) if letter == "H"]
    arrows = tuple((leaving[t] & entering[h]).bit_length() - 1 for t in tails for h in heads)
    return n, len(tails), len(heads), arrows, sum(1 << v for v in arrows)


def _restriction_by_pattern(code: int, pattern: tuple[str, ...]) -> frozenset[int]:
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
