"""Brute-force axiom checks, kept as oracles for the bitmask checks in
``rootflags.axioms``.

Every check here goes through the edge predicate ``is_edge`` pair by pair,
and none shares code with the library's clique walk: ``faces`` is a plain
DFS over the neighbour masks that ``edge_masks`` builds from ``is_edge``, in
the order of ``enumerate_faces``; ``is_forest`` strips leaves off each face
from scratch; and a matching face is one whose arrows touch twice as many
nodes as they number.  Support walks every (I, J) pair in order
(``disjoint_pairs``) and linkage every matching face; the library places
the failing words and linkage misses of the orbit's least code instead.
The reports must agree exactly, witnesses and their order included.  The
same holds for the support matchings of one (I, J) and the matchings of
one restriction pattern, which the library also reads off the masks.
``has_circuit`` searches alternating cycles by a path DFS on the masks of
``edge_masks``; the library decides circuits per T/H word instead, from
pairs of a word's matchings.  ``placement_prune`` is the circuit prune
that the library's lazy embedding replaced: every circuit core placed on
every node set up front, in a table keyed by the placed core's highest
arrow.  ``linkage_holds_on_words`` is the placement walk that decided
linkage per word before the gap masks: every matching of a word placed
around each outside node, with the AND of the other arrows' neighbour masks
rebuilt per placement; it finds each placed arrow by its own index over
``arrows_of``, not by the library's per-node arrow masks.

The K_{a,b} layer is kept here on frozensets of (left, right) edges: the
matching-ensemble axioms (closure, support and linkage, each by its
definition on edge sets), the spanning trees, the matchings inside an edge
set, phi and phi_inverse, and the alternating-cycle test.  The library runs
them on edge bitmasks: one mask kernel for the axioms, and per K_{a,b} a
table of the matchings each spanning tree alternates with, built from the
halves of the cycles of K_{a,b}.  Two earlier mask versions of those are
kept here as well: ``ensemble_violations_by_scan``, which scans every star
and trade and pins the witness order, and ``tree_table_by_walks``, which
runs one alternating-walk search per (tree, matching) pair.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from rootflags.axioms import (
    AxiomReport,
    BipartiteEdge,
    BipartiteEnsemble,
    EdgeSet,
    Matching,
    Violation,
    _alternates,
    _arrow_json,
    _circuit_cores,
    _edge_set,
    _matchings_in,
    _moved,
    _ones,
    _orbit_relabel,
    _spanning_trees,
    _stars,
    _walk_tables,
    _word_table,
)
from rootflags.complexes import _adjacency
from rootflags.rules import Arrow, RuleSet, arrows_of, is_edge, pair_relation


@lru_cache(maxsize=None)
def edge_masks(rs: RuleSet, n: int) -> tuple[int, ...]:
    """Per-arrow neighbour bitmasks from the pairwise edge predicate, once
    per (code, n)."""
    arrows = arrows_of(n)
    masks = [0] * len(arrows)
    for i, j in itertools.combinations(range(len(arrows)), 2):
        if is_edge(rs, arrows[i], arrows[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(masks)


def faces(rs: RuleSet, n: int) -> Iterator[tuple[Arrow, ...]]:
    """Every face as its sorted arrows, the empty face first, in the order of
    ``enumerate_faces``: a DFS that extends a face by each later arrow that is
    a neighbour of all of its arrows."""
    arrows = arrows_of(n)
    masks = edge_masks(rs, n)

    def rec(face: tuple[int, ...], common: int) -> Iterator[tuple[Arrow, ...]]:
        yield tuple(arrows[v] for v in face)
        for v in range(face[-1] + 1 if face else 0, len(arrows)):
            if common >> v & 1:
                yield from rec(face + (v,), common & masks[v])

    yield from rec((), (1 << len(arrows)) - 1)


def is_forest(face: Iterable[Arrow]) -> bool:
    """Whether the arrows, as undirected edges, contain no cycle: stripping
    the edges at nodes of degree one, round after round, leaves none."""
    edges = list(face)
    while edges:
        ends = [x for arrow in edges for x in arrow]
        kept = [arrow for arrow in edges if ends.count(arrow.tail) > 1 and ends.count(arrow.head) > 1]
        if len(kept) == len(edges):
            return False
        edges = kept
    return True


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def has_circuit(rs: RuleSet, n: int, cand: int | None = None, free: int = 0) -> bool:
    """Whether the arrows in free, together with a clique of arrows in cand
    (default: all arrows), contain a circuit, on the masks of ``edge_masks``.
    free must be a face and cand lie in the common neighbourhood of its
    arrows.

    A face with a cycle contains a simple one, and tails and heads of a face
    are disjoint, so the cycle alternates t1 -> h1 <- t2 -> h2 <- ... <- t1.
    Search such cycles from their least tail t1 by a path DFS: each arrow
    taken from cand ANDs its mask into the candidates, and the cycle closes
    at head h when the arrow (t1, h) is still free or a candidate.
    """
    arrows = arrows_of(n)
    masks = edge_masks(rs, n)
    if cand is None:
        cand = (1 << len(arrows)) - 1
    leaving = [sum(1 << v for v, a in enumerate(arrows) if a.tail == x) for x in range(n + 2)]
    entering = [sum(1 << v for v, a in enumerate(arrows) if a.head == x) for x in range(n + 2)]
    above = [sum(leaving[t + 1:]) for t in range(n + 2)]  # above[t]: the arrows whose tail exceeds t

    def from_head(t1: int, h: int, cand: int, used: int) -> bool:
        step = (cand | free) & entering[h] & above[t1]
        for v in _bits(step):
            t = arrows[v].tail
            if used >> t & 1:
                continue
            nxt = cand if free >> v & 1 else cand & masks[v]
            if from_tail(t1, t, nxt, used | 1 << t):
                return True
        return False

    def from_tail(t1: int, t: int, cand: int, used: int) -> bool:
        step = (cand | free) & leaving[t]
        for v in _bits(step):
            h = arrows[v].head
            if used >> h & 1:
                continue
            nxt = cand if free >> v & 1 else cand & masks[v]
            if (nxt | free) & leaving[t1] & entering[h] or from_head(t1, h, nxt, used | 1 << h):
                return True
        return False

    for t1 in range(1, n + 2):
        first = (cand | free) & leaving[t1]
        for v in _bits(first):
            h1 = arrows[v].head
            nxt = cand if free >> v & 1 else cand & masks[v]
            if from_head(t1, h1, nxt, 1 << t1 | 1 << h1):
                return True
    return False


def all_support_matchings(rs: RuleSet, tails, heads) -> list[Matching]:
    """All matchings of I onto J whose arrows are pairwise edges: tails in
    order, each trying the free heads in increasing order."""
    tails = tuple(sorted(tails))
    heads = tuple(sorted(heads))
    found: list[Matching] = []
    chosen: list[Arrow] = []

    def assign(k: int, free_heads: tuple[int, ...]) -> None:
        if k == len(tails):
            found.append(frozenset(chosen))
            return
        for idx, h in enumerate(free_heads):
            arrow = Arrow(tails[k], h)
            if all(is_edge(rs, arrow, prev) for prev in chosen):
                chosen.append(arrow)
                assign(k + 1, free_heads[:idx] + free_heads[idx + 1:])
                chosen.pop()

    assign(0, heads)
    return found


def restriction_by_pattern(rs: RuleSet, pattern: tuple[str, ...]) -> frozenset[EdgeSet]:
    """Matchings of the complex within I x J relabeled to K_{a,b}, with the
    tail/head pattern placed on nodes 1..len(pattern)."""
    positions = range(1, len(pattern) + 1)
    tails = [p for p, letter in zip(positions, pattern) if letter == "T"]
    heads = [p for p, letter in zip(positions, pattern) if letter == "H"]
    left = {node: k + 1 for k, node in enumerate(tails)}
    right = {node: k + 1 for k, node in enumerate(heads)}
    pairs = [Arrow(t, h) for t in tails for h in heads]
    out: set[EdgeSet] = set()

    def rec(start: int, chosen: list[Arrow]) -> None:
        out.add(frozenset((left[a.tail], right[a.head]) for a in chosen))
        for idx in range(start, len(pairs)):
            arrow = pairs[idx]
            if any(arrow.tail == c.tail or arrow.head == c.head for c in chosen):
                continue
            if all(is_edge(rs, arrow, c) for c in chosen):
                chosen.append(arrow)
                rec(idx + 1, chosen)
                chosen.pop()

    rec(0, [])
    return frozenset(out)


def matching_faces(rs: RuleSet, n: int) -> Iterator[Matching]:
    """The nonempty faces whose arrows touch twice as many nodes as they number."""
    for face in faces(rs, n):
        if face and len({x for arrow in face for x in arrow}) == 2 * len(face):
            yield frozenset(face)


def disjoint_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs of disjoint nonempty equal-size subsets of 1..n+1,
    in (|I|, I, J) order."""
    nodes = range(1, n + 2)
    for k in range(1, (n + 1) // 2 + 1):
        for tails in itertools.combinations(nodes, k):
            rest = [x for x in nodes if x not in tails]
            for heads in itertools.combinations(rest, k):
                yield tails, heads


def check_support_axiom(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    witnesses = []
    for tails, heads in disjoint_pairs(n):
        matchings = all_support_matchings(rs, tails, heads)
        if len(matchings) != 1:
            witnesses.append(
                Violation(
                    "support",
                    {
                        "I": list(tails),
                        "J": list(heads),
                        "count": len(matchings),
                        "matchings": [_arrow_json(m) for m in matchings],
                    },
                )
            )
            if not all_witnesses:
                break
    return AxiomReport("support", not witnesses, tuple(witnesses))


def check_linkage_axiom(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    witnesses = []
    for sigma in matching_faces(rs, n):
        covered = {x for a in sigma for x in a}
        others = list(sigma)
        for k in range(1, n + 2):
            if k in covered:
                continue
            for side in ("tail", "head"):
                ok = False
                for arrow in sigma:
                    new = Arrow(k, arrow.head) if side == "tail" else Arrow(arrow.tail, k)
                    rest = [a for a in others if a != arrow]
                    if all(is_edge(rs, new, a) for a in rest):
                        ok = True
                        break
                if not ok:
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


def _relinks(
    index: Mapping[tuple[int, int], int],
    sigma: Sequence[tuple[int, int]],
    rests: Sequence[int],
    k: int,
) -> tuple[bool, bool]:
    """Whether the matching face sigma, given as (tail, head) node pairs, can
    absorb the outside node k as a tail, and as a head, by relinking one
    arrow so that the new arrow is an edge to every other arrow of sigma;
    rests[i] is the AND of the neighbour masks of all arrows but the i-th,
    and index maps (tail, head) to the arrow's position in ``arrows_of``."""
    as_tail = as_head = False
    for (t, h), rest in zip(sigma, rests):
        as_tail = as_tail or bool(rest >> index[k, h] & 1)
        as_head = as_head or bool(rest >> index[t, k] & 1)
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


def linkage_holds_on_words(rs: RuleSet, n: int) -> bool:
    """The linkage verdict by the placement walk: every matching of every
    word of length 2r <= n, solved on the code's own masks, placed on nodes
    1..2r+1 around each outside node k, relinks to absorb k on both sides,
    each placement with its own rests.  A single arrow always relinks, so
    words start at r = 2."""
    masks = _adjacency(rs.code, n)[1]
    index = {(t, h): v for v, (t, h) in enumerate(arrows_of(n))}
    for word, matchings in _word_table.__wrapped__(rs.code, n).items():
        if not 4 <= len(word) <= n:
            continue
        for matching in matchings:
            for k in range(1, len(word) + 2):
                sigma = [
                    (t + 1 + (t + 1 >= k), h + 1 + (h + 1 >= k)) for t, h in matching
                ]
                rests = _rests(masks, [index[arrow] for arrow in sigma])
                if not all(_relinks(index, sigma, rests, k)):
                    return False
    return True


def placement_prune(rs: RuleSet, n: int) -> Callable[[int, int], bool]:
    """The circuit prune by a placement table, the one ``check_permissible``
    used before its lazy embedding: every circuit core of the orbit's least
    code, carried onto the code, placed on every set of its length of nodes
    of V_n, kept by its highest arrow.  ``prune(face, cand)`` holds when a
    placed core lies inside face | cand; the prune is asked only about
    faces that are forests, so such a core has its highest arrow among the
    candidates."""
    least, swap, reverse = _orbit_relabel(rs.code)
    leaving, entering = _walk_tables(n)[:2]
    by_top: dict[int, list[int]] = {}
    for core in _circuit_cores(least, n):
        core = _moved(core, len(core) - 1, swap, reverse)
        for nodes in itertools.combinations(range(1, n + 2), len(core)):  # 2r arrows, 2r nodes
            placed = sum(leaving[nodes[t]] & entering[nodes[h]] for t, h in core)
            by_top.setdefault(placed.bit_length() - 1, []).append(placed)
    tops = sum(1 << top for top in by_top)

    def prune(face: int, cand: int) -> bool:
        outside = ~(face | cand)
        return any(not core & outside for top in _ones(cand & tops) for core in by_top[top])

    return prune


def check_permissible(rs: RuleSet, n: int, all_witnesses: bool = False) -> AxiomReport:
    witnesses = []
    arrows = arrows_of(n)
    for a, b in itertools.combinations(arrows, 2):
        rel = pair_relation(a, b)
        if rel.kind == "shared" and not is_edge(rs, a, b):
            witnesses.append(
                Violation("permissible", {"pair": _arrow_json([a, b]), "reason": "shared pair not an edge"})
            )
        if rel.kind == "disjoint":
            other = (Arrow(a.tail, b.head), Arrow(b.tail, a.head))
            if is_edge(rs, a, b) == is_edge(rs, *other):
                witnesses.append(
                    Violation(
                        "permissible",
                        {"pair": _arrow_json([a, b]), "reason": "square has zero or two diagonals"},
                    )
                )
        if witnesses and not all_witnesses:
            return AxiomReport("permissible", False, tuple(witnesses))
    for face in faces(rs, n):
        heads = {a.head for a in face}
        tails = {a.tail for a in face}
        if heads & tails:
            witnesses.append(
                Violation("permissible", {"face": _arrow_json(face), "reason": "not admissible"})
            )
        elif not is_forest(face):
            witnesses.append(
                Violation("permissible", {"face": _arrow_json(face), "reason": "contains a circuit"})
            )
        if witnesses and not all_witnesses:
            break
    return AxiomReport("permissible", not witnesses, tuple(witnesses))


def matchings_within(edges: Iterable[BipartiteEdge]) -> set[EdgeSet]:
    """All matchings contained in an edge set."""
    edges = sorted(edges)
    out: set[EdgeSet] = set()

    def rec(start: int, chosen: list[BipartiteEdge]) -> None:
        out.add(frozenset(chosen))
        for idx in range(start, len(edges)):
            e = edges[idx]
            if all(e[0] != f[0] and e[1] != f[1] for f in chosen):
                chosen.append(e)
                rec(idx + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def phi(trees: Iterable[EdgeSet], a: int, b: int) -> BipartiteEnsemble:
    matchings: set[EdgeSet] = set()
    for tree in trees:
        matchings |= matchings_within(tree)
    return BipartiteEnsemble(a, b, frozenset(matchings))


def spanning_trees(a: int, b: int) -> list[EdgeSet]:
    edges = [(l, r) for l in range(1, a + 1) for r in range(1, b + 1)]
    out = []
    for combo in itertools.combinations(edges, a + b - 1):
        parent = list(range(a + b))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for l, r in combo:
            ra, rb = find(l - 1), find(a + r - 1)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            out.append(frozenset(combo))
    return out


def has_alternating_cycle(first: EdgeSet, second: EdgeSet) -> bool:
    """A simple cycle of length >= 4 whose edges alternate between the two
    edge sets.  Vertices are ("L", i) / ("R", j)."""

    def endpoints(e: BipartiteEdge) -> tuple[tuple[str, int], tuple[str, int]]:
        return ("L", e[0]), ("R", e[1])

    def incident(role: EdgeSet, v: tuple[str, int]) -> list[BipartiteEdge]:
        side, value = v
        k = 0 if side == "L" else 1
        return [e for e in role if e[k] == value]

    def walk(current, start, need_second, visited, used, length) -> bool:
        role = second if need_second else first
        for e in incident(role, current):
            if e in used:
                continue
            u, w = endpoints(e)
            nxt = w if u == current else u
            if nxt == start:
                if length + 1 >= 4 and need_second:
                    return True
                continue
            if nxt in visited:
                continue
            if walk(nxt, start, not need_second, visited | {nxt}, used | {e}, length + 1):
                return True
        return False

    for e in first:
        u, w = endpoints(e)
        if walk(w, u, True, {u, w}, {e}, 1):
            return True
    return False


def me_axioms(ensemble: BipartiteEnsemble, all_witnesses: bool = False) -> AxiomReport:
    """The closure, support and linkage axioms of a matching family, in that
    order, on frozensets of edges; a support witness lists its matchings
    sorted."""
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
                                "matchings": sorted(sorted(m) for m in hits),
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


def phi_inverse(ensemble: BipartiteEnsemble) -> frozenset[EdgeSet]:
    report = me_axioms(ensemble)
    if not report.passed:
        raise ValueError(f"not a matching ensemble: {report.to_json_dict()}")
    nonempty = [m for m in ensemble.matchings if m]
    return frozenset(
        tree
        for tree in spanning_trees(ensemble.a, ensemble.b)
        if not any(has_alternating_cycle(tree, m) for m in nonempty)
    )


def ensemble_violations_by_scan(
    a: int, b: int, family: frozenset[int], all_witnesses: bool = False
) -> list[Violation]:
    """The closure, support and linkage violations of a family of edge masks,
    in the library's order: support keys each matching by the sum of the
    stars it meets, and linkage scans every (matching, vertex, trade)."""
    stars = _stars(a, b)[0]
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
        key = sum(1 << v for v, star in enumerate(stars) if star & m)
        by_vertices.setdefault(key, []).append(m)
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
    for m in family:
        rests = [m ^ 1 << k for k in _ones(m)]
        for v, star in enumerate(stars):
            if m and not star & m and not any(
                rest | 1 << e in family for rest in rests for e in _ones(star)
            ):
                vertex = ["L", v + 1] if v < a else ["R", v - a + 1]
                if bail("linkage", {"matching": edges(m), "vertex": vertex}):
                    return witnesses
    return witnesses


def tree_table_by_walks(a: int, b: int) -> tuple[dict[int, int], tuple[tuple[int, int, int], ...]]:
    """The library's tree table of K_{a,b}, each conflict decided by one
    alternating-walk search (``_alternates``) per (tree, matching of two or
    more edges) pair."""
    index = {m: 1 << i for i, m in enumerate(_matchings_in(a, b, (1 << a * b) - 1))}
    rows = []
    for tree in _spanning_trees(a, b):
        conflicts = sum(bit for m, bit in index.items() if m & m - 1 and _alternates(a, b, tree, m))
        rows.append((tree, conflicts, sum(index[m] for m in _matchings_in(a, b, tree))))
    return index, tuple(rows)
