"""Materialized flag complexes: clique enumeration, face counting, excess degrees.

Arrows of V_n are indexed 0..n(n+1)-1 in (tail, head) lexicographic order
and faces are bitsets over that index, so the compatibility graph is a
precomputed adjacency bitmatrix and clique extension is a single AND.
The bitmatrix is built from a range model: by uniformity the relation of
two node-disjoint arrows depends only on which of the three open ranges
around one arrow's span hold the other's tail and head, so 24 model cases
are classified once and every row is an AND of node-range masks.
Enumeration is depth-first over increasing arrow index; the resulting
stream order (lexicographic on sorted arrow lists, empty face first) is
part of the contract of ``enumerate_faces``.

Face tables are counted, not walked: a clique count memoised on the
candidate mask yields the (forward, backward) polynomial of every complex
V_m, m <= n, at once, and the saturated tables follow by binomial inversion.
The count orders the arrows upper node first, which halves its memo (``_count_cliques``).
The oracles of ``series check`` that need more than (forward, backward)
read one end tally instead: the cliques inside a start mask counted by the
nodes their arrows touch as lower and as upper ends (``_end_tally``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import or_
from typing import Iterable, Iterator, Mapping

from .rules import CROSS, NEST, TYPE_WORDS, Arrow, RuleSet, arrows_of, pair_relation

DEFAULT_MAX_N = 10
_ENV_CAP = "ROOTFLAGS_MAX_N"


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration exceeds the configured ambient-size cap."""


def resource_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None


def check_ambient_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"ambient size must be >= 0, got {n}")


def check_resource_cap(n: int, force: bool = False) -> None:
    check_ambient_size(n)
    cap = resource_cap()
    if n > cap and not force:
        raise ResourceLimitError(
            f"n={n} exceeds the resource cap {cap}; pass force=True "
            f"(CLI: --force) or raise {_ENV_CAP}"
        )


@lru_cache(maxsize=16)
def _count_order(n: int) -> tuple[Arrow, ...]:
    """The arrows of V_n by upper node descending, then lower node ascending."""
    return tuple(sorted(arrows_of(n), key=lambda a: (-max(a), min(a))))


@lru_cache(maxsize=32)
def _node_masks(n: int, order: tuple[Arrow, ...] | None) -> tuple[tuple[int, ...], ...]:
    """Per node, the masks of the arrows (order, or arrows_of(n) if None) out of and into it."""
    leaving = [0] * (n + 2)
    entering = [0] * (n + 2)
    for v, (t, h) in enumerate(order or arrows_of(n)):
        leaving[t] |= 1 << v
        entering[h] |= 1 << v
    return tuple(leaving), tuple(entering)


#: The model line of ``_pair_classes``: an arrow on nodes 3 and 6, and two
#: nodes in each open range around it, below, between and above.
_MODEL_RANGES = ((1, 2), (4, 5), (7, 8))


@lru_cache(maxsize=32)
def _pair_classes(
    n: int, order: tuple[Arrow, ...] | None
) -> tuple[tuple[Arrow, ...], tuple[int, ...], dict[tuple[str, str], tuple[int, ...]]]:
    """Arrow list (order, or arrows_of(n) when None), per-arrow masks of the
    shared-tail/shared-head partners, and per (type word, placement) the
    per-arrow masks of the node-disjoint partners with that word and placement.

    None of this depends on the rule code: by uniformity an arrow pair is an
    edge exactly when it shares an endpoint role or its placement is the one
    the code picks for its word, so every code's adjacency is an OR of these
    rows.  Inadmissible pairs land in no row.

    The rows come from a range model.  A partner sharing no node with an
    arrow of span lo < hi has its tail in one of the open ranges below lo,
    between lo and hi, or above hi, and its head in one too; when both lie
    in one range, the partner's direction orders them.  So the word and
    placement are a function of the arrow's direction and these 12 cases,
    classified once with ``pair_relation`` on a model line, and the row of a
    case is the partners with tail in one range and head in the other, an
    AND of prefix ORs of the node masks.
    """
    arrows = order or tuple(arrows_of(n))
    m = len(arrows)
    full = (1 << m) - 1
    forward = sum(1 << v for v, (t, h) in enumerate(arrows) if t < h)
    leaving, entering = _node_masks(n, order)
    # [k]: the arrows whose tail (head) is one of the nodes 1..k
    tails_upto = list(accumulate(leaving, or_))
    heads_upto = list(accumulate(entering, or_))
    rows: dict[tuple[str, str], list[int]] = {}
    cases = ([], [])  # per direction, backward then forward: (x, y, keep, row)
    for is_forward, arrow in enumerate((Arrow(6, 3), Arrow(3, 6))):
        for x, (a, b) in enumerate(_MODEL_RANGES):
            for y, (c, _) in enumerate(_MODEL_RANGES):
                if x == y:
                    partners = (((a, b), forward), ((b, a), full ^ forward))
                else:
                    partners = (((a, c), full),)
                for partner, keep in partners:
                    rel = pair_relation(arrow, Arrow(*partner))
                    row = rows.setdefault((rel.word, rel.placement), [0] * m)
                    cases[is_forward].append((x, y, keep, row))
    shared = []
    for i, (t, h) in enumerate(arrows):
        lo, hi = min(t, h), max(t, h)
        tails_in = (tails_upto[lo - 1], tails_upto[hi - 1] ^ tails_upto[lo], full ^ tails_upto[hi])
        heads_in = (heads_upto[lo - 1], heads_upto[hi - 1] ^ heads_upto[lo], full ^ heads_upto[hi])
        for x, y, keep, row in cases[t < h]:
            row[i] |= tails_in[x] & heads_in[y] & keep
        shared.append((leaving[t] | entering[h]) ^ 1 << i)
    return arrows, tuple(shared), {key: tuple(row) for key, row in rows.items() if any(row)}


@lru_cache(maxsize=1024)
def _adjacency(
    code: int, n: int, order: tuple[Arrow, ...] | None = None
) -> tuple[tuple[Arrow, ...], tuple[int, ...]]:
    """Arrow list (order, default arrows_of(n)) and neighbour bitmasks for (rule set, n)."""
    rs = RuleSet.from_code(code)
    arrows, masks, rows = _pair_classes(n, order)
    for word in TYPE_WORDS:
        row = rows.get((word, rs.placement(word)))
        if row is not None:
            masks = tuple(map(or_, masks, row))
    return arrows, masks


def adjacency(rs: RuleSet, n: int) -> tuple[tuple[Arrow, ...], tuple[int, ...]]:
    return _adjacency(rs.code, n)


def _iter_cliques(
    arrows: tuple[Arrow, ...],
    masks: tuple[int, ...],
    n: int,
    max_arrows: int | None = None,
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield (arrow indices, is_forest).

    DFS over increasing arrow index with candidate-set pruning; the forest
    flag is maintained by an incremental union-find with rollback, counting
    cycle-closing arrows instead of merging them.
    """
    m = len(arrows)
    parent = list(range(n + 2))
    size = [1] * (n + 2)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    prefix: list[int] = []

    def rec(cand: int, cycles: int) -> Iterator[tuple[tuple[int, ...], bool]]:
        yield tuple(prefix), cycles == 0
        if max_arrows is not None and len(prefix) >= max_arrows:
            return
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            tail, head = arrows[v]
            ra, rb = find(tail), find(head)
            merged = None
            extra_cycle = 0
            if ra == rb:
                extra_cycle = 1
            else:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                merged = (ra, rb)
            prefix.append(v)
            yield from rec(cand & masks[v], cycles + extra_cycle)
            prefix.pop()
            if merged is not None:
                ra, rb = merged
                parent[rb] = rb
                size[ra] -= size[rb]

    full = (1 << m) - 1
    yield from rec(full, 0)


def _end_tally(code: int, n: int, start: int) -> dict[tuple[int, int, int, int], int]:
    """Count the cliques of V_n inside the start mask (over ``_count_order(n)``) by their ends.

    A key is (lower, upper, forward, size): lower and upper OR the node bits
    1 << min(arrow) and 1 << max(arrow) over the clique's arrows, forward
    counts its forward arrows and size all of them.  The four values are
    carried down the clique DFS, so a clique costs one dict update.
    """
    arrows, masks = _adjacency(code, n, _count_order(n))
    lower = [1 << min(arrow) for arrow in arrows]
    upper = [1 << max(arrow) for arrow in arrows]
    forward = [int(arrow.forward) for arrow in arrows]
    tally: dict[tuple[int, int, int, int], int] = {}
    get = tally.get

    def rec(cand: int, lo: int, up: int, fwd: int, size: int) -> None:
        key = (lo, up, fwd, size)
        tally[key] = get(key, 0) + 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            rec(cand & masks[v], lo | lower[v], up | upper[v], fwd + forward[v], size + 1)

    rec(start, 0, 0, 0, 0)
    return tally


@dataclass(frozen=True)
class Face:
    """A face of the flag complex: pairwise compatible arrows, as a sorted
    tuple, with its ambient size and a forest flag."""

    arrows: tuple[Arrow, ...]
    n: int
    is_forest: bool

    @property
    def forward(self) -> int:
        return sum(1 for a in self.arrows if a.forward)

    @property
    def backward(self) -> int:
        return len(self.arrows) - self.forward

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted({x for a in self.arrows for x in a}))

    @property
    def saturated(self) -> bool:
        # at n = 0 the empty face is saturated by convention; nodes lie in 1..n+1
        return self.n == 0 or len({x for a in self.arrows for x in a}) == self.n + 1

    @property
    def is_matching(self) -> bool:
        return len(self.nodes) == 2 * len(self.arrows)


def enumerate_faces(
    rs: RuleSet,
    n: int,
    max_arrows: int | None = None,
    force: bool = False,
) -> Iterator[Face]:
    """Stream every face (clique) of the complex, empty face first,
    in lexicographic order on sorted arrow-index lists."""
    check_resource_cap(n, force)
    arrows, masks = adjacency(rs, n)
    for indices, forest in _iter_cliques(arrows, masks, n, max_arrows):
        yield Face(tuple(arrows[i] for i in indices), n, forest)


@dataclass(frozen=True)
class FaceTable:
    """Counts of faces by (forward, backward) arrow numbers."""

    n: int
    selector: str
    counts: Mapping[tuple[int, int], int] = field(hash=False)

    def cells(self) -> list[tuple[int, int, int]]:
        return [(i, j, c) for (i, j), c in sorted(self.counts.items())]

    def total(self) -> int:
        return sum(self.counts.values())

    def by_dimension(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, j), c in self.counts.items():
            out[i + j] = out.get(i + j, 0) + c
        return out

    def transpose(self) -> "FaceTable":
        return FaceTable(
            self.n, self.selector, {(j, i): c for (i, j), c in self.counts.items()}
        )

    def coefficient(self, i: int, j: int) -> int:
        return self.counts.get((i, j), 0)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "selector": self.selector,
            "counts": [[i, j, c] for i, j, c in self.cells()],
        }

    def to_csv_rows(self) -> list[tuple[int, int, int]]:
        return self.cells()


SELECTORS = ("all", "saturated", "facets")


def _count_cliques(
    arrows: tuple[Arrow, ...], masks: tuple[int, ...], starts: list[int], dim: int
) -> tuple[list[int], int, int]:
    """Clique polynomials of the subgraphs on the start masks, the slot width
    they are packed with, and the number of memo states.

    count(cand) = 1 + sum over v in cand of x^fwd(v) y^bwd(v) * count(cand &
    masks[v] & above(v)), memoised on cand.  A polynomial is one int: cell
    (i, d-i) sits in slot d*(dim+1)+i, so x and y are shifts.  A slot holds
    the number of sets of at most dim arrows, so no cell of a face with at
    most dim arrows carries into the next; larger faces land above slot
    (dim+1)^2 - 1, which the caller must check.  The number of states
    depends on the arrow order: by upper node first (``_count_order``), the
    arrows above v lie on nodes 1..u, u the upper node of v, so the count
    peels the complex from its top node down and clique prefixes often
    leave the same state.  The 15 orbit representatives need 13,193 states
    at n = 7 (24,827 in index order).
    """
    width = sum(comb(len(arrows), k) for k in range(dim + 1)).bit_length()
    shift = [width * (dim + 2 if tail < head else dim + 1) for tail, head in arrows]
    single = [1 << s for s in shift]
    memo: dict[int, int] = {}
    lookup = memo.get

    def count(cand: int) -> int:
        total = 1
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            sub = rest & masks[v]
            if sub:
                got = lookup(sub)
                total += (count(sub) if got is None else got) << shift[v]
            else:
                total += single[v]
        memo[cand] = total
        return total

    polys = [count(start) for start in starts]
    states = len(memo)
    memo.clear()  # count is a reference cycle: free the table now
    return polys, width, states


@lru_cache(maxsize=1024)
def _face_tables(code: int, n: int) -> dict[str, dict[tuple[int, int], int]]:
    arrows, masks = _adjacency(code, n, _count_order(n))
    # By uniformity the arrows inside nodes 1..m+1 span a copy of the
    # complex at size m, with the same forward and backward arrows.
    starts = [
        sum(1 << v for v, (tail, head) in enumerate(arrows) if max(tail, head) <= m + 1)
        for m in range(n + 1)
    ]
    dim = n
    while True:
        polys, width, _ = _count_cliques(arrows, masks, starts, dim)
        if polys[n].bit_length() <= (dim + 1) ** 2 * width:
            break
        dim += 1  # a face has more than dim arrows (a circuit): recount wider
    # a nonempty face of V_m spans k+1 of its m+1 nodes, saturated there:
    # all_m = 1 + sum_{1 <= k <= m} C(m+1, k+1) sat_k
    saturated = polys[:1]
    for m in range(1, n + 1):
        saturated.append(
            polys[m] - 1 - sum(comb(m + 1, k + 1) * saturated[k] for k in range(1, m))
        )
    slot = (1 << width) - 1

    def cells(poly: int, dims: Iterable[int]) -> dict[tuple[int, int], int]:
        out = {}
        for d in dims:
            for i in range(d + 1):
                c = poly >> width * (d * (dim + 1) + i) & slot
                if c:
                    out[(i, d - i)] = c
        return out

    return {
        "all": cells(polys[n], range(dim + 1)),
        "saturated": cells(saturated[n], range(dim + 1)),
        "facets": cells(polys[n], (n,)),
    }


def face_table(rs: RuleSet, n: int, selector: str = "all", force: bool = False) -> FaceTable:
    """Count faces by (forward, backward) arrows; selector picks all faces,
    saturated faces (arrows cover every node), or facets (n-arrow faces).

    The tables are counted on the adjacency masks, not walked face by face
    (see ``_count_cliques``); ``enumerate_faces`` streams the faces."""
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    check_resource_cap(n, force)
    return FaceTable(n, selector, dict(_face_tables(rs.code, n)[selector]))


def dimension_face_count(n: int, k: int) -> int:
    """Number of k-arrow faces shared by every valid code: C(n+k,k)*C(n,k)."""
    return comb(n + k, k) * comb(n, k)


def excess_degree(rs: RuleSet, n: int, arrow: Arrow) -> int:
    """Number of neighbours of the arrow on four distinct nodes, by brute
    force over V_n."""
    arrow = Arrow(*arrow)
    count = 0
    for other in arrows_of(n):
        if other == arrow:
            continue
        rel = pair_relation(arrow, other)
        if rel.kind == "disjoint" and rel.placement == rs.placement(rel.word):
            count += 1
    return count


def _excess_degrees(code: int, n: int) -> list[tuple[Arrow, int]]:
    """Every arrow of V_n, in ``_count_order(n)``, with its neighbours that
    share no endpoint, read off the masks that ``_face_tables`` caches."""
    arrows, masks = _adjacency(code, n, _count_order(n))
    shared = _pair_classes(n, arrows)[1]
    return [(arrow, (mask & ~s).bit_count()) for arrow, mask, s in zip(arrows, masks, shared)]


def excess_degree_formula(rs: RuleSet, n: int, arrow: Arrow) -> int:
    """Closed form for the excess degree in terms of p = i-1, q = j-i-1,
    r = n+1-j for the underlying node pair i < j."""
    arrow = Arrow(*arrow)
    i, j = arrow.span()
    p, q, r = i - 1, j - i - 1, n + 1 - j

    def c2(x: int) -> int:
        return x * (x - 1) // 2

    if arrow.forward:
        total = c2(q) if rs.thth == NEST else c2(p) + c2(r)
        total += p * r if rs.htht == NEST else 0
        total += q * r if rs.thht == CROSS else c2(r)
        total += p * q if rs.htth == CROSS else c2(p)
        total += p * r + c2(q) if rs.tthh == NEST else p * q + q * r
    else:
        total = p * r if rs.thth == NEST else 0
        total += c2(q) if rs.htht == NEST else c2(p) + c2(r)
        total += p * q if rs.thht == CROSS else c2(p)
        total += q * r if rs.htth == CROSS else c2(r)
        total += p * r + c2(q) if rs.hhtt == NEST else p * q + q * r
    return total


@dataclass(frozen=True)
class ExcessSignature:
    """Sorted multiset of the excess degrees of all n(n+1) arrows."""

    n: int
    degrees: tuple[int, ...]

    def runs(self) -> str:
        """Run-length form, e.g. "1^6 2^4 3^2 4^4 6^4"."""
        pieces = []
        k = 0
        while k < len(self.degrees):
            value = self.degrees[k]
            run = 1
            while k + run < len(self.degrees) and self.degrees[k + run] == value:
                run += 1
            pieces.append(f"{value}^{run}")
            k += run
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.runs()


def excess_signature(rs: RuleSet, n: int) -> ExcessSignature:
    """The excess degrees of all arrows by the closed form, O(n^2); the
    brute force ``excess_degree`` is its oracle."""
    check_ambient_size(n)
    degrees = sorted(excess_degree_formula(rs, n, a) for a in arrows_of(n))
    return ExcessSignature(n, tuple(degrees))
