"""Oracle-vs-closed-form comparisons, packaged for the CLI and test suite.

Every check pits an exact evaluator against an independent route: the
face tables counted on the complexes, the end tallies of the clique DFS
(both tested against face enumeration), literal lattice-path walks, or a
second algebraic derivation.  Results are exact integer/rational comparisons; a
check never loosens to a tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from . import series as srs
from .axioms import (
    BipartiteEnsemble,
    _alternating_cycle,
    _compatible_trees,
    _edge_family,
    _phi,
    _restriction_by_pattern,
    me_axioms,
)
from .complexes import (
    _count_order,
    _end_tally,
    _excess_degrees,
    dimension_face_count,
    excess_degree_formula,
    face_table,
)
from .rules import (
    ALIASES,
    ClassLabel,
    NEST,
    RuleSet,
    classify,
    valid_rulesets,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def _result(name: str, failures: list, detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} mismatches; first: {failures[0]}")
    return CheckResult(name, True, detail)


# ---------------------------------------------------------------------------
# Small independent oracles


def dyck_path_count(k: int) -> int:
    """Literal enumeration of nonnegative lattice paths with k up and k
    down steps."""

    def rec(level: int, ups: int, downs: int) -> int:
        if ups == 0 and downs == 0:
            return 1
        total = 0
        if ups:
            total += rec(level + 1, ups - 1, downs)
        if downs and level > 0:
            total += rec(level - 1, ups, downs - 1)
        return total

    return rec(0, k, k)


def delannoy_walk(a: int, b: int) -> list[int]:
    """Literal enumeration of N/E/NE lattice paths, counted by step number."""
    out = [0] * (a + b + 1)

    def rec(x: int, y: int, steps: int) -> None:
        if x == a and y == b:
            out[steps] += 1
            return
        if x < a:
            rec(x + 1, y, steps + 1)
        if y < b:
            rec(x, y + 1, steps + 1)
        if x < a and y < b:
            rec(x + 1, y + 1, steps + 1)

    rec(0, 0, 0)
    return out


def delannoy_binomial(a: int, b: int) -> list[int]:
    """Diagonal-corner expansion: sum_k C(a,k) C(b,k) x^(a+b-2k) (x^2+x)^k."""
    out = [0] * (a + b + 1)
    for k in range(min(a, b) + 1):
        base = comb(a, k) * comb(b, k)
        for m in range(k + 1):
            out[a + b - k + m] += base * comb(k, m)
    return out


#: Largest a + b walked path by path by the delannoy-routes check.
DELANNOY_WALK_MAX = 12


def simion_codes(nesting: str) -> list[RuleSet]:
    return [
        rs
        for rs in valid_rulesets()
        if classify(rs).simion
        and (rs.thth == NEST) == (nesting == "THTH")
    ]


def codes_of(label: ClassLabel) -> list[RuleSet]:
    return [rs for rs in valid_rulesets() if classify(rs) is label]


def saturated_mismatches(
    series, codes: Sequence[RuleSet], n_max: int
) -> list[tuple]:
    bad = []
    for rs in codes:
        for n in range(n_max + 1):
            table = face_table(rs, n, "saturated")
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    want = series.coefficient(x=i, y=j, z=n)
                    got = table.coefficient(i, j)
                    if want != got:
                        bad.append((rs.letters, n, i, j, str(want), got))
    return bad


# ---------------------------------------------------------------------------
# Checks


def check_catalan_quadratic(zorder: int) -> CheckResult:
    order = max(zorder, 8)
    c = srs.catalan_series(order)
    ring = c.ring
    u = ring.var("u")
    ok_fix = ring.one() + u * c * c == c
    ok_inv = (ring.one() - u * c).inverse() == c
    bad = [
        (k, str(c.coefficient(u=k)), dyck_path_count(k))
        for k in range(min(order, 8) + 1)
        if c.coefficient(u=k) != dyck_path_count(k)
    ]
    if not ok_fix or not ok_inv:
        bad.append(("functional-equation", ok_fix, ok_inv))
    return _result(
        "catalan-quadratic", bad, f"C = 1 + uC^2 and 1/(1-uC) = C to order {order}"
    )


def check_delannoy_routes(zorder: int) -> CheckResult:
    bound = max(zorder, 4)
    bad = []
    g = srs.delannoy_genfunc(bound, bound, 2 * bound)
    for a in range(bound + 1):
        for b in range(bound + 1):
            poly = list(srs.delannoy_poly(a, b))
            if delannoy_binomial(a, b) != poly:
                bad.append((a, b, "binomial"))
            if a + b <= DELANNOY_WALK_MAX and delannoy_walk(a, b) != poly:
                bad.append((a, b, "walk"))
            for j in range(2 * bound + 1):
                want = poly[j] if j < len(poly) else 0
                if g.coefficient(u=a, v=b, x=j) != want:
                    bad.append((a, b, j))
    walked = "" if 2 * bound <= DELANNOY_WALK_MAX else f" (walk: a+b <= {DELANNOY_WALK_MAX})"
    return _result(
        "delannoy-routes",
        bad,
        f"walk, DP, binomial identity and 1/(1-x(u+v+uv)) agree for a,b <= {bound}{walked}",
    )


def check_backward_only_closed_form(zorder: int) -> CheckResult:
    order = max(zorder, 8)
    f = srs.backward_only_series(order, order)
    bad = [
        (n, j)
        for n in range(order + 1)
        for j in range(order + 1)
        if f.coefficient(y=j, t=n) != srs.backward_only_coefficient(n, j)
    ]
    return _result(
        "backward-only-coefficients",
        bad,
        f"[y^j t^n] = C(n+j,j) C(n,j) / (j+1) for n <= {order}",
    )


def check_backward_only_enumeration(zorder: int) -> CheckResult:
    n_max = min(zorder, 5)
    f = srs.backward_only_series(n_max, n_max)
    bad = []
    for name in ("LEX_NN", "LEX_XX", "SIMION_A_NN", "SIMION_C"):
        rs = ALIASES[name]
        for n in range(n_max + 1):
            table = face_table(rs, n)
            for j in range(n + 1):
                if table.coefficient(0, j) != f.coefficient(y=j, t=n):
                    bad.append((name, n, j))
    return _result(
        "backward-only-vs-enumeration",
        bad,
        f"backward-only columns match the counted face tables for n <= {n_max}",
    )


def check_transfer_roundtrip(zorder: int) -> CheckResult:
    order = max(zorder, 8)
    f = srs.backward_only_series(order, order)
    sat = srs.transfer(f, "all_to_full", True)
    back = srs.transfer(sat, "full_to_all", True)
    closed = srs.backward_saturated_series(order, order)
    bad = []
    if back != f:
        bad.append("roundtrip")
    if sat != closed:
        bad.append("saturated-closed-form")
    empty_only = srs.SeriesRing(("y", "z"), (order, order)).one()
    widened = srs.transfer(empty_only, "full_to_all", True)
    expect = srs.SeriesRing(("y", "t"), (order, order))
    geom = (expect.one() - expect.var("t")).inverse()
    if widened != geom:
        bad.append("empty-family")
    # the refined three-variable transfer reproduces the all-face tables
    n_max = min(zorder, 4)
    full = srs.transfer(
        srs.simion_saturated_series("THTH", n_max, n_max, n_max), "full_to_all", True
    )
    rs = ALIASES["SIMION_A_NN"]
    for n in range(n_max + 1):
        table = face_table(rs, n)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                if full.coefficient(x=i, y=j, t=n) != table.coefficient(i, j):
                    bad.append(("refined-transfer", n, i, j))
    return _result(
        "transfer-roundtrip",
        bad,
        f"all/saturated transfer inverts, matches (C(yz(z+1))+z)/(1+z) to order "
        f"{order}, and carries the refined series onto the all-face tables",
    )


def _saturated_at(nodes: int) -> int | None:
    """The n at which a face on these node bits is saturated: its nodes are
    exactly 1..n+1, or none for the empty face at n = 0."""
    if not nodes:
        return 0
    n = nodes.bit_length() - 2
    return n if nodes == (1 << n + 2) - 2 else None


def _arrows_where(n: int, forward: bool) -> int:
    """The mask of the forward (or backward) arrows of V_n, over ``_count_order(n)``."""
    return sum(1 << v for v, a in enumerate(_count_order(n)) if a.forward == forward)


def prefix_refined_counts(
    rs: RuleSet, n_max: int
) -> tuple[dict[tuple[int, int, int], int], dict[tuple[int, int, int], int]]:
    """The backward-only faces of V_n, n <= n_max, keyed (i, arrows, n) where
    the first i nodes of a face are heads; and the same for the nonempty
    saturated ones.

    Reduced from one end tally of V_{n_max} on its backward arrows, whose
    lower ends are the heads: by uniformity a face whose nodes lie in
    1..m+1 is a face of every V_n with m <= n <= n_max."""
    counts: dict[tuple[int, int, int], int] = {}
    saturated: dict[tuple[int, int, int], int] = {}
    tally = _end_tally(rs.code, n_max, _arrows_where(n_max, False))
    for (heads, tails, _, size), c in tally.items():
        nodes = heads | tails
        i = (nodes & (tails & -tails) - 1).bit_count()
        for n in range(max(nodes.bit_length() - 2, 0), n_max + 1):
            counts[i, size, n] = counts.get((i, size, n), 0) + c
        n = _saturated_at(nodes)
        if size and n is not None:
            saturated[i, size, n] = saturated.get((i, size, n), 0) + c
    return counts, saturated


def check_prefix_refined(zorder: int) -> CheckResult:
    n_max = min(zorder, 7)
    i_max = n_max
    brute, brute_sat = prefix_refined_counts(ALIASES["LEX_NN"], n_max)
    bad = []
    for i in range(i_max + 1):
        f = srs.refined_backward_series(i, n_max, n_max)
        for j in range(n_max + 1):
            for n in range(n_max + 1):
                if f.coefficient(y=j, t=n) != brute.get((i, j, n), 0):
                    bad.append(("all", i, j, n))
        if i >= 1:
            s = srs.refined_backward_saturated_series(i, n_max, n_max)
            for j in range(n_max + 1):
                for n in range(n_max + 1):
                    if s.coefficient(y=j, z=n) != brute_sat.get((i, j, n), 0):
                        bad.append(("saturated", i, j, n))
    return _result(
        "prefix-refined-backward",
        bad,
        f"head-prefix refined series match enumeration for n <= {n_max}",
    )


def forward_saturated_groups(
    rs: RuleSet, n_max: int
) -> dict[int, dict[tuple[int, int, int], int]]:
    """Per n in 1..n_max, the nonempty forward-only saturated faces of V_n
    keyed (tails - 1, heads - 1, arrows).

    Reduced from one end tally of V_{n_max} on its forward arrows, whose
    lower ends are the tails: by uniformity the saturated faces of V_n are
    the faces of the larger complex on exactly the nodes 1..n+1."""
    groups: dict[int, dict[tuple[int, int, int], int]] = {n: {} for n in range(1, n_max + 1)}
    tally = _end_tally(rs.code, n_max, _arrows_where(n_max, True))
    for (tails, heads, _, size), c in tally.items():
        n = _saturated_at(tails | heads)
        if size and n is not None:
            key = (tails.bit_count() - 1, heads.bit_count() - 1, size)
            groups[n][key] = groups[n].get(key, 0) + c
    return groups


def check_forward_saturated_delannoy(zorder: int) -> CheckResult:
    n_max = min(max(zorder, 1), 7)
    bad = []
    compared = 0
    for name in ("SIMION_A_NN", "SIMION_C", "REVLEX_NN"):
        rs = ALIASES[name]
        if rs.thth != NEST:
            continue
        for n, buckets in forward_saturated_groups(rs, n_max).items():
            for a in range(n):
                b = n - 1 - a
                poly = srs.delannoy_poly(a, b)
                compared += len(poly)
                for j, c in enumerate(poly):
                    if buckets.get((a, b, j + 1), 0) != c:
                        bad.append((name, n, a, b, j))
            extras = {k for k in buckets if k[0] + k[1] != n - 1}
            if extras:
                bad.append((name, n, "unexpected-groups", sorted(extras)))
    if not compared:
        bad.append("compared-nothing")
    return _result(
        "forward-saturated-delannoy",
        bad,
        f"forward-only saturated groups match x D_(a,b)(x) z^(a+b+1) for n <= {n_max}",
    )


def check_forest_polynomials(zorder: int) -> CheckResult:
    k_max = min(max(zorder - 1, 2), 5)
    bad = []
    for name in ("LEX_NN", "LEX_XX"):
        rs = ALIASES[name]
        for k in range(1, k_max + 1):
            poly = srs.g_k(k)
            for m in range(k + 1, 2 * k + 1):
                # saturated k-arrow faces on m nodes, by forward arrows
                table = face_table(rs, m - 1, "saturated")
                if poly.coefficient(z=m) != table.coefficient(0, k):
                    bad.append((name, "backward", k, m))
                for i in range(k + 1):
                    mixed = srs.lex_mixed_forest_poly(k, i)
                    if mixed.coefficient(z=m) != table.coefficient(i, k - i):
                        bad.append((name, "mixed", k, i, m))
    return _result(
        "forest-node-polynomials",
        bad,
        f"C_k z^(k+1) (z+1)^(k-1) matches the saturated forest counts for k <= {k_max}",
    )


def check_simion_saturated(zorder: int) -> CheckResult:
    n_max = min(zorder, 8)
    bad = []
    for nesting in ("THTH", "HTHT"):
        s = srs.simion_saturated_series(nesting, n_max, n_max, n_max)
        bad.extend(saturated_mismatches(s, simion_codes(nesting), n_max))
    return _result(
        "simion-saturated-series",
        bad,
        f"saturated series match the counted face tables for all 26 Simion codes, n <= {n_max}",
    )


def check_simion_facets(zorder: int) -> CheckResult:
    n_enum = min(max(zorder, 5), 8)
    bad = []
    for rs in simion_codes("THTH"):
        for n in range(n_enum + 1):
            table = face_table(rs, n, "facets")
            for i in range(n + 1):
                if table.coefficient(i, n - i) != srs.simion_facet_count(n, i):
                    bad.append((rs.letters, n, i))
    for rs in simion_codes("HTHT"):
        # arrow reversal transposes the table: i counts backward arrows here
        for n in range(n_enum + 1):
            table = face_table(rs, n, "facets")
            for i in range(n + 1):
                if table.coefficient(n - i, i) != srs.simion_facet_count(n, i):
                    bad.append((rs.letters, n, i))
    for n in range(9):
        if sum(srs.simion_facet_count(n, i) for i in range(n + 1)) != comb(2 * n, n):
            bad.append(("facet-sum", n))
        for i in range(1, n + 1):
            if srs.simion_facet_count(n, i) != 2 ** (i - 1) * srs.catalan_triangle(n, n - i):
                bad.append(("catalan-triangle", n, i))
    return _result(
        "simion-facet-formula",
        bad,
        f"2^(i-1)(i+1)(2n-i)!/((n-i)!(n+1)!) and C_n match the counted face tables for all "
        f"26 Simion codes up to n = {n_enum}",
    )


def check_revlex_saturated(zorder: int) -> CheckResult:
    n_max = min(zorder, 8)
    s = srs.revlex_saturated_series(n_max, n_max, n_max)
    bad = saturated_mismatches(s, codes_of(ClassLabel.REVLEX), n_max)
    return _result(
        "revlex-saturated-series",
        bad,
        f"quadruple-sum series matches the counted face tables for the revlex codes, n <= {n_max}",
    )


def check_revlex_facets(zorder: int) -> CheckResult:
    n_enum = min(max(zorder, 5), 8)
    bad = []
    for rs in codes_of(ClassLabel.REVLEX):
        for n in range(n_enum + 1):
            table = face_table(rs, n, "facets")
            for k in range(n + 1):
                if table.coefficient(k, n - k) != srs.revlex_facet_count(n, k):
                    bad.append((rs.letters, n, k))
    for n in range(9):
        if sum(srs.revlex_facet_count(n, k) for k in range(n + 1)) != comb(2 * n, n):
            bad.append(("facet-sum", n))
    return _result(
        "revlex-facet-formula",
        bad,
        f"double-sum facet formula matches the counted face tables for the four revlex "
        f"codes up to n = {n_enum}",
    )


def node_enriched_counts(rs: RuleSet, u_order: int, v_order: int) -> dict:
    """Node-enriched statistics of the saturated faces on at most
    u_order + v_order nodes: keys are (u, v, forward, backward, n) and a
    face adds 1/(u! v!), where u counts the nodes that are only the lower
    end of arrows and v those that are only the upper end.

    Reduced from one end tally of V_n, n = u_order + v_order - 1, on all its
    arrows: by uniformity the saturated faces of a smaller V_m are the faces
    on exactly the nodes 1..m+1."""
    tally: dict[tuple[int, int, int, int, int], int] = {}
    top = u_order + v_order - 1
    ends = _end_tally(rs.code, top, (1 << top * (top + 1)) - 1) if top >= 0 else {}
    for (lower, upper, fwd, size), c in ends.items():
        n = _saturated_at(lower | upper)
        u, v = (lower & ~upper).bit_count(), (upper & ~lower).bit_count()
        if n is not None and u <= u_order and v <= v_order:
            key = (u, v, fwd, size - fwd, n)
            tally[key] = tally.get(key, 0) + c
    return {key: Fraction(c, factorial(key[0]) * factorial(key[1])) for key, c in tally.items()}


def check_node_enriched_egf(zorder: int) -> CheckResult:
    u_order = v_order = 4
    egf = srs.node_enriched_egf(u_order, v_order)
    counts = node_enriched_counts(ALIASES["REVLEX_NN"], u_order, v_order)
    bad = []
    compared = 0
    for key in sorted(set(counts) | set(egf.coeffs)):
        if not egf.ring.within(key):
            continue
        compared += 1
        if egf.coeffs.get(key, Fraction(0)) != counts.get(key, Fraction(0)):
            bad.append(key)
    if not compared:
        bad.append("compared-nothing")
    return _result(
        "node-enriched-egf",
        bad,
        f"EGF matches node-enriched saturated counts to orders (u,v) <= ({u_order},{v_order})",
    )


def check_delannoy_egf_routes(zorder: int) -> CheckResult:
    bad = []
    if srs.delannoy_egf(4, 4) != srs.delannoy_egf_psi(4, 4):
        bad.append("definition-vs-derivative-ladder")
    if srs.delannoy_egf_mixed_derivative(4, 4) != srs.bessel_style_product(4, 4):
        bad.append("mixed-derivative-product")
    for k in range(1, 7):
        if srs.psi_series(k, 10) != srs.psi_closed_form(k, 10):
            bad.append(("psi", k))
    return _result(
        "delannoy-egf-routes",
        bad,
        "EGF definition, derivative-ladder product and mixed-derivative identity agree",
    )


def check_lex_refined(zorder: int) -> CheckResult:
    n_max = min(zorder, 8)
    bad = []
    for rs in codes_of(ClassLabel.LEX):
        for n in range(n_max + 1):
            table = face_table(rs, n)
            for k in range(n + 1):
                for i in range(k + 1):
                    if table.coefficient(i, k - i) != srs.lex_refined_count(n, k):
                        bad.append((rs.letters, n, k, i))
    return _result(
        "lex-refined-cells",
        bad,
        f"every (i, k-i) cell equals C(n+k,k) C(n,k)/(k+1) for n <= {n_max}",
    )


def check_catalan_run_identity(zorder: int) -> CheckResult:
    k_max = max(zorder, 10)
    bad = [
        (k, i)
        for k in range(k_max + 1)
        for i in range(k + 1)
        if srs.catalan_run_identity(k, i) != srs.catalan_number(k)
    ]
    return _result(
        "catalan-run-identity",
        bad,
        f"run-product subset sums equal C_k for k <= {k_max}, all i",
    )


def check_f_vector(zorder: int) -> CheckResult:
    n_max = min(zorder, 8)
    bad = []
    reference: dict[tuple, dict] = {}
    for rs in valid_rulesets():
        label = classify(rs)
        for n in range(n_max + 1):
            table = face_table(rs, n)
            dims = table.by_dimension()
            for k in range(n + 1):
                if dims.get(k, 0) != dimension_face_count(n, k):
                    bad.append((rs.letters, n, k, "dimension-count"))
            # refined counts agree within a class once oriented: arrow
            # reversal transposes the table
            if label.simion and rs.thth != NEST:
                normalized = dict(table.transpose().counts)
            else:
                normalized = dict(table.counts)
            key = (label.value if not label.simion else "simion", n)
            if key in reference:
                if reference[key] != normalized:
                    bad.append((rs.letters, n, "class-table"))
            else:
                reference[key] = normalized
    return _result(
        "f-vector-universality",
        bad,
        f"all 34 codes share the per-dimension counts and per-class refined tables, n <= {n_max}",
    )


def check_dual_symmetry(zorder: int) -> CheckResult:
    n_max = min(zorder, 8)
    bad = []
    for rs in valid_rulesets():
        for n in range(n_max + 1):
            table = face_table(rs, n)
            if face_table(rs.dual(), n) != table.transpose():
                bad.append((rs.letters, n, "dual"))
            if face_table(rs.reflected_dual(), n) != table:
                bad.append((rs.letters, n, "reflected-dual"))
            sat = face_table(rs, n, "saturated")
            if face_table(rs.dual(), n, "saturated") != sat.transpose():
                bad.append((rs.letters, n, "dual-saturated"))
    return _result(
        "dual-symmetry",
        bad,
        f"tables transpose under arrow reversal and are fixed by the reflected dual, n <= {n_max}",
    )


def check_excess_formula(zorder: int) -> CheckResult:
    n_max = min(max(zorder, 5), 8)
    bad = []
    for rs in valid_rulesets():
        for n in range(1, n_max + 1):
            for arrow, degree in _excess_degrees(rs.code, n):
                if degree != excess_degree_formula(rs, n, arrow):
                    bad.append((rs.letters, n, arrow))
    return _result(
        "excess-degree-formula",
        bad,
        f"brute-force excess degrees equal the closed form for all valid codes, n <= {n_max}",
    )


def check_matching_ensembles(zorder: int) -> CheckResult:
    bad = []
    seen: set = set()
    for rs in valid_rulesets():
        for a, b in itertools.product((1, 2, 3), repeat=2):
            for positions in itertools.combinations(range(1, a + b + 1), a):
                tails = positions
                heads = tuple(x for x in range(1, a + b + 1) if x not in positions)
                pattern = tuple("T" if x in positions else "H" for x in range(1, a + b + 1))
                family = _restriction_by_pattern(rs.code, pattern)  # edge masks
                if (a, b, family) in seen:
                    continue
                seen.add((a, b, family))
                if not me_axioms(BipartiteEnsemble(a, b, _edge_family(b, family))).passed:
                    bad.append((rs.letters, tails, heads, "axioms"))
                    continue
                trees = _compatible_trees(a, b, family)
                if _phi(a, b, trees) != family:
                    bad.append((rs.letters, tails, heads, "phi-roundtrip"))
                for t1, t2 in itertools.combinations_with_replacement(trees, 2):
                    if _alternating_cycle(a, b, t1, t2):
                        bad.append((rs.letters, tails, heads, "postnikov"))
    return _result(
        "matching-ensembles",
        bad,
        "every restriction with |I|,|J| <= 3 passes the ensemble axioms, "
        "the tree correspondence round-trips, and facet pairs are compatible",
    )


CHECKS: dict[str, Callable[[int], CheckResult]] = {
    "catalan-quadratic": check_catalan_quadratic,
    "delannoy-routes": check_delannoy_routes,
    "backward-only-coefficients": check_backward_only_closed_form,
    "backward-only-vs-enumeration": check_backward_only_enumeration,
    "transfer-roundtrip": check_transfer_roundtrip,
    "prefix-refined-backward": check_prefix_refined,
    "forward-saturated-delannoy": check_forward_saturated_delannoy,
    "forest-node-polynomials": check_forest_polynomials,
    "simion-saturated-series": check_simion_saturated,
    "simion-facet-formula": check_simion_facets,
    "revlex-saturated-series": check_revlex_saturated,
    "revlex-facet-formula": check_revlex_facets,
    "node-enriched-egf": check_node_enriched_egf,
    "delannoy-egf-routes": check_delannoy_egf_routes,
    "lex-refined-cells": check_lex_refined,
    "catalan-run-identity": check_catalan_run_identity,
    "f-vector-universality": check_f_vector,
    "dual-symmetry": check_dual_symmetry,
    "excess-degree-formula": check_excess_formula,
    "matching-ensembles": check_matching_ensembles,
}


def run_checks(
    names: Iterable[str] | None = None, zorder: int = 5
) -> list[CheckResult]:
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    return [CHECKS[name](zorder) for name in selected]
