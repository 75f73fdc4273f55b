"""Output checks for the benchmark workloads.

Each checker takes a workload's op list and the ``(rc, text)`` outputs a
child produced for it, and returns the indices of the ops whose output is
wrong together with the number of values it compared.  The expected values
come from the paper's closed forms and counts, never from re-running the
computation that produced the output.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial

from rootflags import ALIASES, ClassLabel, RuleSet, classify, dimension_face_count
from rootflags.rules import NEST
from rootflags.series import (
    backward_only_coefficient,
    catalan_number,
    lex_refined_count,
    revlex_facet_count,
    simion_facet_count,
)

#: The paper's census: codes that triangulate the boundary, and those that do not.
VALID_CODES, INVALID_CODES = 34, 30


def is_valid(code: int) -> bool:
    return classify(RuleSet.from_code(code)) is not ClassLabel.INVALID


# ---------------------------------------------------------------------------
# verify-all


def check_verify(ops: list, outputs: list) -> tuple[set[int], int]:
    """Verdict equals the classification (from n = 5, where the class labels
    decide the axioms; below that only valid codes are known to pass), every
    failing report carries a witness, and the totals are 34 pass, 30 fail."""
    bad, compared, passes = set(), 0, 0
    for index, (op, (rc, text)) in enumerate(zip(ops, outputs)):
        _, code, n = op
        try:
            payload = json.loads(text)
            passed = payload["verdict"] == "pass"
            reports = payload["reports"]
            ok = (
                payload["code"]["code"] == code
                and rc == (0 if passed else 1)
                and passed == all(r["verdict"] == "pass" for r in reports)
                and all(bool(r["witnesses"]) == (r["verdict"] == "fail") for r in reports)
                and (passed == is_valid(code) if n >= 5 else passed or not is_valid(code))
            )
        except (ValueError, KeyError, TypeError):
            ok, passed = False, False
        compared += 1
        passes += passed
        if not ok:
            bad.add(index)
    if len(outputs) == len(ops) == 64 and ops[0][2] >= 5:
        compared += 1
        if (passes, len(ops) - passes) != (VALID_CODES, INVALID_CODES):
            bad.update(range(len(ops)))
    return bad, compared


# ---------------------------------------------------------------------------
# face-tables


def saturated_dimension_count(n: int, k: int) -> int:
    """k-arrow saturated faces of any valid code at size n >= 1, k >= 1.

    A k-arrow face covers m + 1 of the n + 1 nodes, and by uniformity the
    faces on a fixed node set are those of the complex at size m, so
    all_n(k) = sum_m C(n+1, m+1) sat_m(k); this inverts that sum.
    """
    return sum(
        (-1) ** (n - m) * comb(n + 1, m + 1) * dimension_face_count(m, k) for m in range(n + 1)
    )


def _expected_facets(rs: RuleSet, n: int) -> dict[tuple[int, int], int]:
    label = classify(rs)
    if label is ClassLabel.LEX:
        return {(i, n - i): lex_refined_count(n, n) for i in range(n + 1)}
    if label is ClassLabel.REVLEX:
        return {(k, n - k): revlex_facet_count(n, k) for k in range(n + 1)}
    if rs.thth == NEST:
        return {(i, n - i): simion_facet_count(n, i) for i in range(n + 1)}
    # arrow reversal transposes the table of the HTHT-nest orientation
    return {(n - i, i): simion_facet_count(n, i) for i in range(n + 1)}


def _face_table_ok(alias: str, n: int, selector: str, counts: dict) -> tuple[bool, int]:
    dims: dict[int, int] = {}
    for (i, j), c in counts.items():
        dims[i + j] = dims.get(i + j, 0) + c
    rs = ALIASES[alias]
    if selector == "all":
        expected_dims = {k: dimension_face_count(n, k) for k in range(n + 1)}
        ok = dims == expected_dims
        compared = len(expected_dims)
        if classify(rs) is ClassLabel.LEX:
            cells = {(i, k - i): lex_refined_count(n, k) for k in range(n + 1) for i in range(k + 1)}
            ok = ok and counts == cells
            compared += len(cells)
        return ok, compared
    if selector == "saturated":
        expected_dims = {k: saturated_dimension_count(n, k) for k in range(1, n + 1)}
        expected_dims = {k: c for k, c in expected_dims.items() if c}
        return dims == expected_dims, len(expected_dims)
    expected = _expected_facets(rs, n)
    return counts == expected, len(expected)


def check_faces(ops: list, outputs: list) -> tuple[set[int], int]:
    """All-face dimensions are C(n+k,k) C(n,k) and lex cells the lex closed
    form; saturated dimensions invert that sum; facets match the Simion,
    revlex and lex facet formulas.  Across the selectors of one alias, the
    facets are the top row of the saturated table, which never exceeds the
    all-face table."""
    bad, compared = set(), 0
    tables: dict[str, dict[str, tuple[int, dict]]] = {}
    for index, (op, (rc, text)) in enumerate(zip(ops, outputs)):
        _, alias, n, selector = op
        try:
            payload = json.loads(text)
            counts = {(i, j): c for i, j, c in payload["counts"]}
            ok, cells = _face_table_ok(alias, n, selector, counts)
            ok = ok and rc == 0 and payload["n"] == n and payload["selector"] == selector
        except (ValueError, KeyError, TypeError):
            ok, cells, counts = False, 0, {}
        compared += cells
        tables.setdefault(alias, {})[selector] = (index, counts)
        if not ok:
            bad.add(index)
    for alias, by_selector in tables.items():
        if len(by_selector) != 3:
            continue
        (first, full), (_, sat), (_, facets) = (by_selector[s] for s in ("all", "saturated", "facets"))
        n = ops[first][2]
        top = {key: c for key, c in sat.items() if sum(key) == n}
        compared += len(sat) + len(top)
        if top != facets or any(c > full.get(key, 0) for key, c in sat.items()):
            bad.update(index for index, _ in by_selector.values())
    return bad, compared


# ---------------------------------------------------------------------------
# series-suite


def parse_dump(text: str) -> tuple[list[str], dict[tuple[int, ...], Fraction]]:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    if header[-2:] != ["numerator", "denominator"] or len(rows) < 2:
        raise ValueError("not a series dump")
    arity = len(header) - 2
    coeffs = {}
    for row in rows[1:]:
        values = [int(v) for v in row]
        if len(values) != arity + 2 or values[-1] <= 0:
            raise ValueError(f"bad row {row}")
        coeffs[tuple(values[:arity])] = Fraction(values[-2], values[-1])
    return header[:arity], coeffs


def _delannoy_genfunc_coefficient(a: int, b: int, k: int) -> int:
    """[u^a v^b x^k] 1/(1 - x(u + v + uv)): k steps, a + b - k of them uv."""
    if not max(a, b) <= k <= a + b:
        return 0
    return factorial(k) // (factorial(k - a) * factorial(k - b) * factorial(a + b - k))


def dump_expectations(family: str, z: int, xy: int, uv: int, k: int):
    """(variables, {exponents: coefficient}) the dump must contain, or None
    for the families checked only for being a well-formed nonempty series."""
    if family == "catalan":
        return ["u"], {(m,): catalan_number(m) for m in range(z + 1)}
    if family == "backward-only":
        return ["y", "t"], {
            (j, n): backward_only_coefficient(n, j) for n in range(z + 1) for j in range(xy + 1)
        }
    if family == "backward-saturated":
        return ["y", "z"], {(n, n): catalan_number(n) for n in range(min(xy, z) + 1)}
    if family in ("simion-thth-nest", "simion-htht-nest", "revlex-saturated"):
        # top-degree coefficients (x = i, y = n - i, z = n) are the facet counts
        tops = {}
        for n in range(z + 1):
            for i in range(max(0, n - xy), min(n, xy) + 1):
                if family == "simion-thth-nest":
                    tops[(i, n - i, n)] = simion_facet_count(n, i)
                elif family == "simion-htht-nest":
                    tops[(n - i, i, n)] = simion_facet_count(n, i)
                else:
                    tops[(i, n - i, n)] = revlex_facet_count(n, i)
        return ["x", "y", "z"], tops
    if family == "delannoy-genfunc":
        return ["u", "v", "x"], {
            (a, b, m): _delannoy_genfunc_coefficient(a, b, m)
            for a in range(uv + 1) for b in range(uv + 1) for m in range(2 * uv + 1)
        }
    if family == "psi":
        return ["z"], {(m,): Fraction(1, factorial(m) * (m + k)) for m in range(z + 1)}
    if family in ("forest-poly", "mixed-forest-poly"):
        # C_k z^(k+1) (z+1)^(k-1); the mixed family at i = 0 is the same polynomial
        return ["z"], {
            (k + 1 + m,): catalan_number(k) * comb(k - 1, m) for m in range(k)
        }
    return None


def check_series(ops: list, outputs: list) -> tuple[set[int], int]:
    """Every registry check passes; dumped series carry the closed-form
    coefficients (Catalan numbers, facet counts on the top degree, ...)."""
    bad, compared = set(), 0
    for index, (op, (rc, text)) in enumerate(zip(ops, outputs)):
        try:
            if op[0] == "check":
                payload = json.loads(text)
                (result,) = payload["checks"]
                ok = rc == 0 and payload["verdict"] == "pass" and result["name"] == op[1] and result["pass"] is True
                compared += 1
            else:
                variables, coeffs = parse_dump(text)
                ok = rc == 0
                expected = dump_expectations(*op[1:])
                if expected is None:
                    compared += 1
                else:
                    want_vars, cells = expected
                    ok = ok and variables == want_vars and all(
                        coeffs.get(key, 0) == value for key, value in cells.items()
                    )
                    compared += len(cells)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            bad.add(index)
    return bad, compared


# ---------------------------------------------------------------------------
# match-queries


def check_match(ops: list, outputs: list) -> tuple[set[int], int]:
    """A valid code yields a unique matching of I onto J that agrees with
    the construction; an invalid code may be non-unique, and when unique its
    answer still maps I onto J."""
    bad, compared = set(), 0
    for index, (op, (rc, text)) in enumerate(zip(ops, outputs)):
        _, code, tails, heads = op
        try:
            payload = json.loads(text)
            if payload["unique"]:
                arrows = payload["matching"]
                ok = (
                    rc == 0
                    and sorted(t for t, _ in arrows) == tails
                    and sorted(h for _, h in arrows) == heads
                    and payload["built"] == (arrows if is_valid(code) else None)
                )
            else:
                ok = rc == 1 and not is_valid(code)
        except (ValueError, KeyError, TypeError):
            ok = False
        compared += 1
        if not ok:
            bad.add(index)
    return bad, compared


CHECKERS = {
    "verify-all": check_verify,
    "face-tables": check_faces,
    "series-suite": check_series,
    "match-queries": check_match,
}
