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
part of the contract of ``enumerate_faces``.  ``_iter_cliques`` is the one
enumerating walk: besides ``enumerate_faces``, only the circuit witnesses
of the axioms are listed with it, with a subtree prune.

Face tables are counted, not walked: a clique count memoised on the
candidate mask yields the (forward, backward) polynomial of every complex
V_m, m <= n, at once, and the saturated tables follow by binomial inversion.
``_face_counts`` keeps these packed polynomials per (code, n), and
``_face_tables`` unpacks the three tables of one m when they are asked for,
so a sweep over m <= n reads one count of V_n (``_tables_upto``).
The count orders the arrows upper node first, which halves its memo, and
resumes each sum from its longest memoised suffix, which halves its arrow
steps (``_count_cliques``).
The oracles of ``series check`` that need more than (forward, backward)
read one count by node roles instead: the saturated cliques inside a
start mask by the nodes that are only lower ends and only upper ends,
memoised on the candidate mask, the current upper node and the lower ends
up to it (``_role_counts``).
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping

from ._record import Record
from .rules import CROSS, NEST, TYPE_WORDS, Arrow, RuleSet, _check_arrow, arrows_of, pair_relation

DEFAULT_MAX_N = 10
_ENV_CAP = "ROOTFLAGS_MAX_N"


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration exceeds the configured ambient-size cap."""


def resource_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{_ENV_CAP} must be >= 0, got {raw!r}")
    return cap


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


#: The model line of ``_model_cases``: an arrow on nodes 3 and 6, and two
#: nodes in each open range around it, below, between and above.
_MODEL_RANGES = ((1, 2), (4, 5), (7, 8))


@lru_cache(maxsize=1)
def _model_cases() -> dict[tuple[bool, int, int, bool], tuple[str, str]]:
    """The (type word, placement) of two node-disjoint arrows by the first
    one's direction, the ranges below, between and above its span (0, 1, 2)
    that hold the partner's tail and head, and the partner's direction:
    24 cases, classified with ``pair_relation`` on a model line."""
    cases = {}
    for forward, arrow in ((False, Arrow(6, 3)), (True, Arrow(3, 6))):
        for x, (a, b) in enumerate(_MODEL_RANGES):
            for y, (c, _) in enumerate(_MODEL_RANGES):
                for tail, head in ((a, b), (b, a)) if x == y else ((a, c),):
                    rel = pair_relation(arrow, Arrow(tail, head))
                    cases[forward, x, y, tail < head] = rel.word, rel.placement
    return cases


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
    rows (``_code_rows``).  Inadmissible pairs land in no row.

    The rows come from the range model of ``_model_cases``: the word and
    placement of a partner are a function of the arrow's direction and of
    the ranges around its span that hold the partner's tail and head (and,
    when both lie in one range, of the partner's direction), and the row of
    a case is the partners with tail in one range and head in the other, an
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
    for (is_forward, x, y, partner_forward), key in _model_cases().items():
        keep = full if x != y else forward if partner_forward else full ^ forward
        cases[is_forward].append((x, y, keep, rows.setdefault(key, [0] * m)))
    shared = []
    for i, (t, h) in enumerate(arrows):
        lo, hi = min(t, h), max(t, h)
        tails_in = (tails_upto[lo - 1], tails_upto[hi - 1] ^ tails_upto[lo], full ^ tails_upto[hi])
        heads_in = (heads_upto[lo - 1], heads_upto[hi - 1] ^ heads_upto[lo], full ^ heads_upto[hi])
        for x, y, keep, row in cases[t < h]:
            row[i] |= tails_in[x] & heads_in[y] & keep
        shared.append((leaving[t] | entering[h]) ^ 1 << i)
    return arrows, tuple(shared), {key: tuple(row) for key, row in rows.items() if any(row)}


def _code_rows(code: int, base: tuple[int, ...], rows: Mapping) -> tuple[int, ...]:
    """The base masks ORed with the rows, keyed by (type word, placement),
    of the placement the code picks for each type word."""
    rs = RuleSet.from_code(code)
    for word in TYPE_WORDS:
        row = rows.get((word, rs.placement(word)))
        if row is not None:
            base = tuple(map(or_, base, row))
    return base


@lru_cache(maxsize=1024)
def _adjacency(
    code: int, n: int, order: tuple[Arrow, ...] | None = None
) -> tuple[tuple[Arrow, ...], tuple[int, ...]]:
    """Arrow list (order, default arrows_of(n)) and neighbour bitmasks for (rule set, n)."""
    arrows, shared, rows = _pair_classes(n, order)
    return arrows, _code_rows(code, shared, rows)


def adjacency(rs: RuleSet, n: int) -> tuple[tuple[Arrow, ...], tuple[int, ...]]:
    return _adjacency(rs.code, n)


def _iter_cliques(
    arrows: tuple[Arrow, ...],
    masks: tuple[int, ...],
    n: int,
    max_arrows: int | None = None,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield (arrow indices, is_forest), the empty clique first.

    The one enumerating walk over adjacency masks: DFS over increasing arrow
    index with candidate-set pruning; the forest flag is maintained by an
    incremental union-find with rollback (no ranks: a face spans at most
    n + 1 nodes), counting cycle-closing arrows instead of merging them.  A
    child that is still a forest is entered only when ``prune(face, cand)``
    of its face and candidate masks holds; a child that closes a cycle is
    always entered, as all its extensions contain that cycle.
    """
    parent = list(range(n + 2))
    prefix: list[int] = []

    def rec(face: int, cand: int, cycles: int) -> Iterator[tuple[tuple[int, ...], bool]]:
        yield tuple(prefix), cycles == 0
        if max_arrows is not None and len(prefix) >= max_arrows:
            return
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & masks[v]
            ra, rb = arrows[v]
            while parent[ra] != ra:
                ra = parent[ra]
            while parent[rb] != rb:
                rb = parent[rb]
            if ra != rb:
                if prune is not None and not cycles and not prune(face | low, sub):
                    continue
                parent[rb] = ra
            prefix.append(v)
            yield from rec(face | low, sub, cycles + (ra == rb))
            prefix.pop()
            parent[rb] = rb  # a no-op when the arrow closed a cycle

    yield from rec(0, (1 << len(arrows)) - 1, 0)


def _role_counts(
    code: int, n: int, start: int
) -> tuple[dict[tuple[int, int, int, int, int, int], int], int]:
    """The nonempty cliques of V_n inside the start mask (over ``_count_order(n)``)
    whose nodes are exactly 1..m+1, by (u, v, forward, size, m, least), and
    the number of memo states: u counts the nodes that are only lower ends,
    v those only upper ends, forward the forward arrows, size all arrows,
    and least is the least upper node.

    A clique takes its arrows by upper node descending.  Once one with upper
    node x is taken, no later arrow touches a node above x or makes x a
    lower end, so those roles are final, and a node skipped between two
    upper nodes is never covered: that clique is dropped.  So the count of
    the rest is memoised on (candidate mask, lower ends up to x, x).  Each m
    starts at a virtual node m+2 marked as a lower end: it counts in neither
    u nor v and admits only first arrows on node m+1.
    """
    arrows, masks = _adjacency(code, n, _count_order(n))
    # a tally key packs (u, v, forward, size, least) into fields of w bits,
    # from the top, so taking an arrow adds one int to every key
    w = max(len(arrows), n + 2).bit_length()
    upper = [max(arrow) for arrow in arrows]
    lower_bit = [1 << min(arrow) for arrow in arrows]
    step = [(arrow.forward << w | 1) << w for arrow in arrows]
    memo: dict[tuple[int, int, int], dict[int, int]] = {}
    lookup = memo.get

    def count(cand: int, lower: int, x: int) -> dict[int, int]:
        key = (cand, lower, x)
        got = lookup(key)
        if got is not None:
            return got
        below = (1 << x) - 1
        only_upper = 1 - (lower >> x & 1)
        out: dict[int, int] = {}
        if lower & below == below - 1:  # every node under x is a lower end
            out[((x - 1 << w | only_upper) << 3 * w) + x] = 1
        while cand:
            low = cand & -cand
            a = low.bit_length() - 1
            cand ^= low
            y = upper[a]
            if y == x:
                rest, d = lower | lower_bit[a], step[a]
            else:
                kept = (2 << y) - 1
                if (lower | kept) & below != below:  # a node between y and x stays uncovered
                    continue
                rest = lower & kept | lower_bit[a]
                d = step[a] + ((x - y - 1 << w | only_upper) << 3 * w)
            for k, c in count(cand & masks[a], rest, y).items():
                k += d
                out[k] = out.get(k, 0) + c
        memo[key] = out
        return out

    field = (1 << w) - 1
    counts = {}
    for m in range(1, n + 1):
        above = n * (n + 1) - m * (m + 1)  # the arrows with an upper node above m+1
        for k, c in count(start >> above << above, 1 << m + 2, m + 2).items():
            u, v, f, s, least = (k >> w * i & field for i in range(4, -1, -1))
            counts[u, v, f, s, m, least] = c
    states = len(memo)
    memo.clear()  # count is a reference cycle: free the table now
    return counts, states


class Face(Record):
    """A face of the flag complex: pairwise compatible arrows, as a sorted
    tuple, with its ambient size and a forest flag."""

    _fields = ("arrows", "n", "is_forest")

    def __init__(self, arrows: tuple[Arrow, ...], n: int, is_forest: bool):
        self.__dict__.update(arrows=arrows, n=n, is_forest=is_forest)

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
    if max_arrows is not None and max_arrows < 0:
        raise ValueError(f"max_arrows must be >= 0, got {max_arrows}")
    check_resource_cap(n, force)
    arrows, masks = adjacency(rs, n)
    for indices, forest in _iter_cliques(arrows, masks, n, max_arrows):
        yield Face(tuple(arrows[i] for i in indices), n, forest)


class FaceTable(Record):
    """Counts of faces by (forward, backward) arrow numbers; the counts take
    part in equality but not in the hash."""

    _fields = ("n", "selector", "counts")
    _hashed = ("n", "selector")

    def __init__(self, n: int, selector: str, counts: Mapping[tuple[int, int], int]):
        self.__dict__.update(n=n, selector=selector, counts=counts)

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
    up[v]), up[v] = masks[v] & above(v), memoised on cand.  The sum resumes
    from the longest memoised suffix: it drops the lowest arrow of cand until
    the rest R is in the memo (``{0: 1}`` to begin with) and adds only the
    dropped arrows' terms to count(R).  That is exact because cand & up[w] =
    R & up[w] for w in R, so R's terms are already in count(R).  Every set
    cand & up[v] is still counted, here for the dropped v and when R was
    counted for the rest, so the memo holds what the full sum would: the
    closure of the starts under S -> S & up[v], and only cand is stored.
    The suffix walk is a loop, so the recursion is no deeper than the
    largest face.  Over the 15 orbit representatives this halves the arrow
    steps: 81,923 -> 35,891 at n = 7.

    A polynomial is one int: cell (i, d-i) sits in slot d*(dim+1)+i, so x
    and y are shifts.  A slot holds the number of sets of at most dim
    arrows, so no cell of a face with at most dim arrows carries into the
    next; larger faces land above slot (dim+1)^2 - 1, which the caller must
    check.  The number of states depends on the arrow order: by upper node
    first (``_count_order``), the arrows above v lie on nodes 1..u, u the
    upper node of v, so the count peels the complex from its top node down
    and clique prefixes often leave the same state.  The 15 orbit
    representatives need 13,193 states at n = 7 (24,827 in index order).
    """
    width = sum(comb(len(arrows), k) for k in range(dim + 1)).bit_length()
    shift = [width * (dim + 2 if tail < head else dim + 1) for tail, head in arrows]
    single = [1 << s for s in shift]
    memo: dict[int, int] = {0: 1}
    lookup = memo.get

    def count(cand: int) -> int:
        total = 0
        rest = cand
        while (got := lookup(rest)) is None:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            sub = rest & masks[v]
            if sub:
                got = lookup(sub)
                total += (count(sub) if got is None else got) << shift[v]
            else:
                total += single[v]
        total += got
        memo[cand] = total
        return total

    polys = [count(start) for start in starts]
    states = len(memo)
    memo.clear()  # count is a reference cycle: free the table now
    return polys, width, states


@lru_cache(maxsize=1024)
def _face_counts(code: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """The packed all-face and saturated polynomials of every V_m, m <= n,
    from one count of V_n, with the slot width and dim they are packed with."""
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
    return tuple(polys), tuple(saturated), width, dim


@lru_cache(maxsize=1024)
def _face_tables(code: int, n: int, m: int) -> dict[str, dict[tuple[int, int], int]]:
    """The three tables of V_m, m <= n, read off the count of V_n.  V_m has
    no more arrows in a face than V_n, so its cells fit the same packing."""
    polys, saturated, width, dim = _face_counts(code, n)
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
        "all": cells(polys[m], range(dim + 1)),
        "saturated": cells(saturated[m], range(dim + 1)),
        "facets": cells(polys[m], (m,)),
    }


def face_table(rs: RuleSet, n: int, selector: str = "all", force: bool = False) -> FaceTable:
    """Count faces by (forward, backward) arrows; selector picks all faces,
    saturated faces (arrows cover every node), or facets (n-arrow faces).

    The tables are counted on the adjacency masks, not walked face by face
    (see ``_count_cliques``); ``enumerate_faces`` streams the faces."""
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    check_resource_cap(n, force)
    return FaceTable(n, selector, dict(_face_tables(rs.code, n, n)[selector]))


def _tables_upto(rs: RuleSet, n: int, selector: str = "all") -> list[FaceTable]:
    """``face_table(rs, m, selector)`` for m = 0..n, read off one count of V_n."""
    if n < 0:
        return []
    check_resource_cap(n)
    code = rs.code
    return [FaceTable(m, selector, dict(_face_tables(code, n, m)[selector])) for m in range(n + 1)]


def dimension_face_count(n: int, k: int) -> int:
    """Number of k-arrow faces shared by every valid code: C(n+k,k)*C(n,k)."""
    return comb(n + k, k) * comb(n, k)


def excess_degree(rs: RuleSet, n: int, arrow: Arrow) -> int:
    """Number of neighbours of the arrow on four distinct nodes, by brute
    force over V_n; raises ValueError for a loop or an arrow outside V_n."""
    arrow = Arrow(*arrow)
    _check_arrow(arrow, n)
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
    share no endpoint, read off the masks that ``_face_counts`` counts on."""
    arrows, masks = _adjacency(code, n, _count_order(n))
    shared = _pair_classes(n, arrows)[1]
    return [(arrow, (mask & ~s).bit_count()) for arrow, mask, s in zip(arrows, masks, shared)]


def excess_degree_formula(rs: RuleSet, n: int, arrow: Arrow) -> int:
    """Closed form for the excess degree in terms of p = i-1, q = j-i-1,
    r = n+1-j for the underlying node pair i < j; raises ValueError for a
    loop or an arrow outside V_n."""
    arrow = Arrow(*arrow)
    _check_arrow(arrow, n)
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


class ExcessSignature(Record):
    """Sorted multiset of the excess degrees of all n(n+1) arrows."""

    _fields = ("n", "degrees")

    def __init__(self, n: int, degrees: tuple[int, ...]):
        self.__dict__.update(n=n, degrees=degrees)

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
