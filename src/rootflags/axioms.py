"""Exhaustive verification that a rule set triangulates the polytope boundary.

A permissible uniform flag complex triangulates the boundary exactly when
its family of matching faces satisfies the support axiom (for every pair
of disjoint equal-size node sets I, J there is a unique matching face from
I onto J) and the linkage axiom (a matching face can absorb any outside
node by relinking one arrow endpoint).  Both are decided here
exhaustively on the adjacency bitmasks of ``complexes.adjacency``, together
with the underlying matching-ensemble axioms on complete bipartite graphs
and the spanning-tree correspondence.

Bipartite objects live on K_{a,b} with left part 1..a and right part 1..b.
The public functions take and return edges as plain (left, right) pairs and
matchings/forests as frozensets of edges; inside, an edge set is an int with
edge (l, r) at bit (l-1)*b + (r-1), so the matchings within a restriction,
the spanning trees, phi, phi_inverse and the alternating-cycle test run on
edge bitmasks and convert at the public boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .complexes import _adjacency, _count_order, _node_masks, _pair_classes
from .complexes import adjacency, check_ambient_size
from .matchings import THWord, _trace, th_word
from .rules import Arrow, RuleSet

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


@dataclass(frozen=True)
class Violation:
    axiom: str
    detail: dict = field(hash=False)

    def to_json_dict(self) -> dict:
        out = {"axiom": self.axiom}
        out.update(self.detail)
        return out


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witnesses: tuple[Violation, ...] = ()

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


def check_support_axiom(
    rs: RuleSet, n: int, all_witnesses: bool = False
) -> AxiomReport:
    """Demand a unique matching face from I onto J for every pair of disjoint
    equal-size node sets.

    By uniformity the matchings depend only on the T/H word that I and J
    trace on the number line, so each word is solved once.  Only when some
    word has no or several matchings are the (I, J) pairs walked, in order,
    to list the witnesses with the word's matchings relabeled onto them.
    """
    check_ambient_size(n)
    _, masks = adjacency(rs, n)
    by_word = {
        word: _word_matchings(n, masks, word)
        for k in range(1, (n + 1) // 2 + 1)
        for word in _words(k)
    }
    witnesses = []
    if any(len(matchings) != 1 for matchings in by_word.values()):
        for tails, heads in _disjoint_pairs(n):
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
                            "matchings": [
                                [[nodes[t], nodes[h]] for t, h in m] for m in matchings
                            ],
                        },
                    )
                )
                if not all_witnesses:
                    break
    return AxiomReport("support", not witnesses, tuple(witnesses))


def _matching_cliques(n: int, masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Arrow indices of the nonempty matching faces, in the lexicographic
    order of ``enumerate_faces``: its DFS with the candidates cut down to
    the arrows that touch no node of the face so far."""
    apart = _walk_tables(n)[3]
    prefix: list[int] = []

    def rec(cand: int) -> Iterator[tuple[int, ...]]:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            prefix.append(v)
            yield tuple(prefix)
            yield from rec(cand & masks[v] & apart[v])
            prefix.pop()

    yield from rec((1 << len(masks)) - 1)


def matching_faces(rs: RuleSet, n: int) -> Iterator[Matching]:
    """All faces that are matchings (pairwise node-disjoint arrows)."""
    check_ambient_size(n)
    arrows, masks = adjacency(rs, n)
    for face in _matching_cliques(n, masks):
        yield frozenset(arrows[v] for v in face)


def _relinks(
    n: int, masks: Sequence[int], sigma: Sequence[tuple[int, int]], k: int
) -> tuple[bool, bool]:
    """Whether the matching face sigma, given as (tail, head) node pairs, can
    absorb the outside node k as a tail, and as a head, by relinking one
    arrow so that the new arrow is an edge to every other arrow of sigma."""
    index = _index_table(n)
    arrows = [index[t][h] for t, h in sigma]
    as_tail = as_head = False
    for i, (t, h) in enumerate(sigma):
        rest = -1
        for j, w in enumerate(arrows):
            if j != i:
                rest &= masks[w]
        as_tail = as_tail or bool(rest >> index[k][h] & 1)
        as_head = as_head or bool(rest >> index[t][k] & 1)
    return as_tail, as_head


def _linkage_holds_on_words(n: int, masks: Sequence[int]) -> bool:
    """Linkage decided once per T/H word: every matching of every word of
    length 2r <= n, placed on nodes 1..2r+1 around each outside node k,
    relinks to absorb k on both sides.  By uniformity this is the linkage
    axiom for all matching faces at size n."""
    for r in range(1, n // 2 + 1):
        for word in _words(r):
            for matching in _word_matchings(n, masks, word):
                for k in range(1, 2 * r + 2):
                    sigma = [
                        (t + 1 + (t + 1 >= k), h + 1 + (h + 1 >= k)) for t, h in matching
                    ]
                    if not all(_relinks(n, masks, sigma, k)):
                        return False
    return True


def check_linkage_axiom(
    rs: RuleSet, n: int, all_witnesses: bool = False
) -> AxiomReport:
    """For every nonempty matching face and every node k outside it, demand
    a relink that absorbs k as a tail and one that absorbs k as a head.

    The verdict is decided once per T/H word; only when it fails are the
    matching faces walked, in the order of ``matching_faces``, to list the
    witnesses."""
    check_ambient_size(n)
    arrows, masks = adjacency(rs, n)
    if _linkage_holds_on_words(n, masks):
        return AxiomReport("linkage", True)
    witnesses = []
    for face in _matching_cliques(n, masks):
        sigma = [arrows[v] for v in face]
        covered = 0
        for a in sigma:
            covered |= 1 << a.tail | 1 << a.head
        for k in range(1, n + 2):
            if covered >> k & 1:
                continue
            for side, ok in zip(("tail", "head"), _relinks(n, masks, sigma, k)):
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


def _has_circuit(
    n: int, arrows: Sequence[Arrow], masks: Sequence[int], cand: int, free: int = 0
) -> bool:
    """Whether the arrows in free, together with a clique of arrows in cand,
    contain a circuit.  free must be a face and cand lie in the common
    neighbourhood of its arrows.

    A face with a cycle contains a simple one, and tails and heads of a face
    are disjoint, so the cycle alternates t1 -> h1 <- t2 -> h2 <- ... <- t1.
    Search such cycles from their least tail t1 by a path DFS: each arrow
    taken from cand ANDs its mask into the candidates, and the cycle closes
    at head h when the arrow (t1, h) is still free or a candidate.
    """
    leaving, entering = _node_masks(n, None)
    above = [0] * (n + 3)  # above[t]: the arrows whose tail exceeds t
    for t in range(n + 1, 0, -1):
        above[t - 1] = above[t] | leaving[t]

    def from_head(t1: int, h: int, cand: int, used: int) -> bool:
        step = (cand | free) & entering[h] & above[t1]
        while step:
            low = step & -step
            v = low.bit_length() - 1
            step ^= low
            t = arrows[v].tail
            if used >> t & 1:
                continue
            nxt = cand if free >> v & 1 else cand & masks[v]
            if from_tail(t1, t, nxt, used | 1 << t):
                return True
        return False

    def from_tail(t1: int, t: int, cand: int, used: int) -> bool:
        step = (cand | free) & leaving[t]
        while step:
            low = step & -step
            v = low.bit_length() - 1
            step ^= low
            h = arrows[v].head
            if used >> h & 1:
                continue
            nxt = cand if free >> v & 1 else cand & masks[v]
            if (nxt | free) & leaving[t1] & entering[h] or from_head(t1, h, nxt, used | 1 << h):
                return True
        return False

    for t1 in range(1, n + 2):
        first = (cand | free) & leaving[t1]
        while first:
            low = first & -first
            v = low.bit_length() - 1
            first ^= low
            h1 = arrows[v].head
            nxt = cand if free >> v & 1 else cand & masks[v]
            if from_head(t1, h1, nxt, 1 << t1 | 1 << h1):
                return True
    return False


def _circuit_faces(
    n: int, arrows: Sequence[Arrow], masks: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Arrow indices of the faces that contain a circuit, in the order of
    ``enumerate_faces``: its DFS, skipping every subtree whose faces are
    all forests."""
    prefix: list[int] = []

    def rec(face: int, cand: int, closed: bool) -> Iterator[tuple[int, ...]]:
        if closed:
            yield tuple(prefix)
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & masks[v]
            if closed or _has_circuit(n, arrows, masks, sub, face | low):
                prefix.append(v)
                yield from rec(
                    face | low, sub, closed or _has_circuit(n, arrows, masks, 0, face | low)
                )
                prefix.pop()

    yield from rec(0, (1 << len(masks)) - 1, False)


def check_permissible(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    """Check the square-face and forest conditions.

    (a) every shared-tail and shared-head pair is an edge, (b) exactly one
    diagonal of each square face is an edge, (c) every clique is an
    admissible forest.  (a) and (b) hold for all 64 codes by construction of
    the edge predicate, so they are not re-checked here: every code's masks
    contain the shared-endpoint pairs, and the two diagonals of a square are
    the two placements of one type word, of which each code picks one.
    For (c), every clique is admissible, since a pair in which a node is the
    head of one arrow and the tail of the other is never an edge; whether
    some clique contains a circuit is decided by a search for alternating
    cycles whose arrows are pairwise edges (``_has_circuit``), and this can
    genuinely succeed for invalid codes.  Only then are the faces walked, on
    the masks and in the order of ``enumerate_faces``, to report the first
    (or every) face that contains a circuit.
    """
    check_ambient_size(n)
    arrows, masks = adjacency(rs, n)
    witnesses = []
    if _has_circuit(n, arrows, masks, (1 << len(arrows)) - 1):
        for face in _circuit_faces(n, arrows, masks):
            witnesses.append(
                Violation(
                    "permissible",
                    {"face": _arrow_json(arrows[v] for v in face), "reason": "contains a circuit"},
                )
            )
            if not all_witnesses:
                break
    return AxiomReport("permissible", not witnesses, tuple(witnesses))


def verify(rs: RuleSet, n: int, all_witnesses: bool = False) -> list[AxiomReport]:
    """Permissibility, support and linkage reports for one (rule set, n)."""
    return [
        check_permissible(rs, n, all_witnesses),
        check_support_axiom(rs, n, all_witnesses),
        check_linkage_axiom(rs, n, all_witnesses),
    ]


# ---------------------------------------------------------------------------
# Matching ensembles on K_{a,b}


@dataclass(frozen=True)
class BipartiteEnsemble:
    """A family of matchings of K_{a,b}."""

    a: int
    b: int
    matchings: frozenset[EdgeSet]

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("both parts must be nonempty")
        for m in self.matchings:
            lefts = [e[0] for e in m]
            rights = [e[1] for e in m]
            if len(set(lefts)) != len(m) or len(set(rights)) != len(m):
                raise ValueError(f"{sorted(m)} is not a matching")
            if any(not (1 <= l <= self.a and 1 <= r <= self.b) for l, r in m):
                raise ValueError(f"edge out of range in {sorted(m)}")


def me_axioms(ensemble: BipartiteEnsemble, all_witnesses: bool = False) -> AxiomReport:
    """Check the support, closure and linkage axioms for a matching family."""
    witnesses = []
    matchings = ensemble.matchings

    def bail() -> bool:
        return bool(witnesses) and not all_witnesses

    for m in matchings:
        for e in m:
            if m - {e} not in matchings:
                witnesses.append(
                    Violation("closure", {"matching": sorted(m), "missing": sorted(m - {e})})
                )
                if bail():
                    return AxiomReport("ensemble", False, tuple(witnesses))

    for k in range(1, min(ensemble.a, ensemble.b) + 1):
        for lefts in itertools.combinations(range(1, ensemble.a + 1), k):
            for rights in itertools.combinations(range(1, ensemble.b + 1), k):
                hits = [
                    m
                    for m in matchings
                    if len(m) == k
                    and {e[0] for e in m} == set(lefts)
                    and {e[1] for e in m} == set(rights)
                ]
                if len(hits) != 1:
                    witnesses.append(
                        Violation(
                            "support",
                            {
                                "I": list(lefts),
                                "J": list(rights),
                                "count": len(hits),
                                "matchings": [sorted(m) for m in hits],
                            },
                        )
                    )
                    if bail():
                        return AxiomReport("ensemble", False, tuple(witnesses))

    for m in matchings:
        if not m:
            continue
        used_left = {e[0] for e in m}
        used_right = {e[1] for e in m}
        free = [("L", v) for v in range(1, ensemble.a + 1) if v not in used_left]
        free += [("R", v) for v in range(1, ensemble.b + 1) if v not in used_right]
        for side, v in free:
            ok = False
            for e in m:
                rest = m - {e}
                rest_left = {x[0] for x in rest}
                rest_right = {x[1] for x in rest}
                if side == "L":
                    candidates = [
                        (v, r)
                        for r in range(1, ensemble.b + 1)
                        if r not in rest_right
                    ]
                else:
                    candidates = [
                        (l, v)
                        for l in range(1, ensemble.a + 1)
                        if l not in rest_left
                    ]
                for new in candidates:
                    if new not in m and rest | {new} in matchings:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                witnesses.append(
                    Violation("linkage", {"matching": sorted(m), "vertex": [side, v]})
                )
                if bail():
                    return AxiomReport("ensemble", False, tuple(witnesses))

    return AxiomReport("ensemble", not witnesses, tuple(witnesses))


def _edge_mask(edges: Iterable[BipartiteEdge], a: int, b: int) -> int:
    """An edge set of K_{a,b} as an int: edge (l, r) is bit (l-1)*b + (r-1)."""
    edges = frozenset(edges)
    if any(not (1 <= l <= a and 1 <= r <= b) for l, r in edges):
        raise ValueError(f"edge out of range in {sorted(edges)}")
    return sum(1 << (l - 1) * b + r - 1 for l, r in edges)


def _edge_set(mask: int, b: int) -> EdgeSet:
    """The edge set of an edge mask of K_{a,b}."""
    edges = []
    while mask:
        low = mask & -mask
        mask ^= low
        l, r = divmod(low.bit_length() - 1, b)
        edges.append((l + 1, r + 1))
    return frozenset(edges)


@lru_cache(maxsize=1024)
def _edge_family(b: int, family: frozenset[int]) -> frozenset[EdgeSet]:
    """A family of edge masks as a family of edge sets, one object per
    distinct family."""
    return frozenset(_edge_set(m, b) for m in family)


def _matchings_in(a: int, b: int, edges: int, adjacent: Sequence[int] | None = None) -> list[int]:
    """The matchings of K_{a,b} inside an edge mask whose edges are pairwise
    adjacent (per edge, the mask of its neighbours; default: all edges), as
    edge masks, the empty matching first."""
    row = (1 << b) - 1
    column = sum(1 << l * b for l in range(a))
    keep = [
        ~(row << k // b * b | column << k % b) & (-1 if adjacent is None else adjacent[k])
        for k in range(a * b)
    ]
    found: list[int] = []

    def rec(cand: int, face: int) -> None:
        found.append(face)
        while cand:
            low = cand & -cand
            cand ^= low
            rec(cand & keep[low.bit_length() - 1], face | low)

    rec(edges, 0)
    return found


def _phi(a: int, b: int, trees: Iterable[int]) -> frozenset[int]:
    """``phi`` on edge masks."""
    return frozenset(m for tree in trees for m in _matchings_in(a, b, tree))


def phi(trees: Iterable[EdgeSet], a: int, b: int) -> BipartiteEnsemble:
    """Union over the trees of all matchings contained in each tree."""
    family = _phi(a, b, [_edge_mask(tree, a, b) for tree in trees])
    return BipartiteEnsemble(a, b, _edge_family(b, family))


def spanning_trees(a: int, b: int) -> list[EdgeSet]:
    """All spanning trees of K_{a,b}."""
    return [_edge_set(tree, b) for tree in _spanning_trees(a, b)]


@lru_cache(maxsize=64)
def _spanning_trees(a: int, b: int) -> tuple[int, ...]:
    """The spanning trees of K_{a,b} as edge masks, in the order of the
    (a+b-1)-subsets of the edge bits."""
    out = []
    for combo in itertools.combinations(range(a * b), a + b - 1):
        parent = list(range(a + b))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for k in combo:
            l, r = divmod(k, b)
            ra, rb = find(l), find(a + r)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            out.append(sum(1 << k for k in combo))
    return tuple(out)


@lru_cache(maxsize=8192)
def _alternating_cycle(a: int, b: int, first: int, second: int) -> bool:
    """Whether two edge masks of K_{a,b} have a simple cycle of length >= 4
    whose edges alternate between them.

    With first's edges directed left to right and second's right to left,
    such a cycle is a directed cycle through at least two right vertices;
    it is searched from its least left vertex by a path DFS on vertex masks.
    """
    right_of = [first >> l * b & (1 << b) - 1 for l in range(a)]
    left_of = [sum((second >> l * b + r & 1) << l for l in range(a)) for r in range(b)]

    def from_left(start: int, l: int, lefts: int, rights: int) -> bool:
        step = right_of[l] & ~rights
        while step:
            low = step & -step
            step ^= low
            back = left_of[low.bit_length() - 1]
            if rights and back >> start & 1:
                return True
            back &= ~lefts & -(2 << start)
            while back:
                nxt = back & -back
                back ^= nxt
                if from_left(start, nxt.bit_length() - 1, lefts | nxt, rights | low):
                    return True
        return False

    return any(from_left(l, l, 1 << l, 0) for l in range(a))


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
    return not _alternating_cycle(a, b, first_mask, second_mask)


def _compatible_trees(a: int, b: int, family: Iterable[int]) -> list[int]:
    """The spanning trees of K_{a,b} with no alternating cycle with any
    matching of the family (edge masks)."""
    nonempty = [m for m in family if m]
    return [
        tree
        for tree in _spanning_trees(a, b)
        if not any(_alternating_cycle(a, b, tree, m) for m in nonempty)
    ]


def phi_inverse(ensemble: BipartiteEnsemble) -> frozenset[EdgeSet]:
    """The spanning trees compatible with every matching of the ensemble.

    Refuses ensembles that fail the matching-ensemble axioms.
    """
    report = me_axioms(ensemble)
    if not report.passed:
        raise ValueError(f"not a matching ensemble: {report.to_json_dict()}")
    a, b = ensemble.a, ensemble.b
    family = [_edge_mask(m, a, b) for m in ensemble.matchings]
    return frozenset(_edge_set(tree, b) for tree in _compatible_trees(a, b, family))


@lru_cache(maxsize=100000)
def _restriction_by_pattern(code: int, pattern: tuple[str, ...]) -> frozenset[int]:
    """Relabeled matchings of a rule set within I x J, as edge masks of
    K_{|I|,|J|}, keyed by the tail/head pattern of sorted(I + J); uniformity
    makes the node labels irrelevant.  They are the matching faces among the
    arrows from the pattern's tail positions to its head positions, with the
    pattern placed on nodes 1..len(pattern), and depend only on the
    adjacency among those arrows."""
    n = max(len(pattern) - 1, 0)
    masks = _adjacency(code, n, _count_order(n))[1]  # cached by the face tables of V_n
    leaving, entering = _node_masks(n, _count_order(n))  # (t, h) is leaving[t] & entering[h]
    tails = [p for p, letter in enumerate(pattern, 1) if letter == "T"]
    heads = [p for p, letter in enumerate(pattern, 1) if letter == "H"]
    arrows = tuple((leaving[t] & entering[h]).bit_length() - 1 for t in tails for h in heads)
    start = sum(1 << v for v in arrows)
    return _family(len(tails), len(heads), arrows, tuple(masks[v] & start for v in arrows))


@lru_cache(maxsize=4096)
def _family(
    a: int, b: int, arrows: tuple[int, ...], restricted: tuple[int, ...]
) -> frozenset[int]:
    """The matchings of K_{a,b}, as edge masks, whose arrows are pairwise
    edges: edge bit k is the k-th arrow, and restricted holds its
    neighbours among the arrows, as an arrow mask."""
    adjacent = [sum(1 << k for k, w in enumerate(arrows) if mask >> w & 1) for mask in restricted]
    return _interned_family(frozenset(_matchings_in(a, b, (1 << a * b) - 1, adjacent)))


@lru_cache(maxsize=100000)
def _interned_family(family: frozenset[int]) -> frozenset[int]:
    """The first cached family equal to this one, so that patterns with equal
    families share one object (the 2,108 patterns of the matching-ensembles
    check have 274 restricted adjacencies and 72 distinct families, 74 with
    their part sizes)."""
    return family


def restriction_ensemble(
    rs: RuleSet, tails: Sequence[int], heads: Sequence[int]
) -> BipartiteEnsemble:
    """Matchings of the complex inside I x J, relabeled to K_{|I|,|J|}
    (sorted I maps to the left part, sorted J to the right part)."""
    pattern = _trace(tails, heads)[1]
    a = pattern.count("T")
    b = len(pattern) - a
    return BipartiteEnsemble(a, b, _edge_family(b, _restriction_by_pattern(rs.code, pattern)))
