"""Command-line front end: classification, axiom verification, tables, series.

Exit codes: 0 success, 1 mathematical failure (with a printed witness),
2 usage or resource-cap errors, 141 when the reader of stdout has gone
(``rootflags ... | head``), the status a shell reports for SIGPIPE.  All
output is deterministic for a fixed invocation; JSON payloads carry a
schema version.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from math import gcd
from typing import Callable, Iterable, Sequence

from . import checks as checks_mod
from .axioms import MultiplicityError, support_matching, verify as verify_axioms
from .complexes import (
    ResourceLimitError,
    check_ambient_size,
    check_resource_cap,
    excess_signature,
    face_table,
)
from .matchings import construct_matching
from .rules import (
    ALIASES,
    RuleSet,
    TABLE_ROW_ORDER,
    alias_of,
    classify,
    orbit_census,
    orbits,
    valid_rulesets,
)
from .series import (
    Series,
    backward_only_series,
    backward_saturated_series,
    catalan_series,
    delannoy_egf,
    delannoy_genfunc,
    g_k,
    lex_mixed_forest_poly,
    node_enriched_egf,
    psi_series,
    refined_backward_series,
    revlex_saturated_series,
    simion_saturated_series,
)

SCHEMA = 1


class UsageError(Exception):
    pass


def _emit(
    fmt: str, payload: dict, text: Callable[[], Iterable[str]], csv_header=None, csv_rows=()
) -> None:
    """Print a command's output: the JSON ``payload`` with its schema version,
    the CSV header and rows, or the lines ``text()`` yields.  A command with
    no ``csv_header`` prints its text under ``--format csv``.  Only the form
    printed is rendered, so pass ``csv_rows`` as a generator or a list the
    payload already holds."""
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    elif fmt == "csv" and csv_header is not None:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        for line in text():
            print(line)


def _parse_ruleset(text: str) -> RuleSet:
    try:
        return RuleSet.parse(text)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"cannot parse rule code {text!r}: {exc}") from None


#: Largest order or index that ``series dump`` and ``series check`` accept
#: without ``--force``.  At the cap every dump and ``series check`` finish in
#: seconds; the cost of most families grows steeply beyond it.
SERIES_ORDER_CAP = 16

#: Largest ``--n`` that ``excess`` accepts without ``--force``; the closed
#: form costs O(n^2) per code, and ``--all-orbits`` takes about a second at
#: the cap.
EXCESS_N_CAP = 100

#: Largest |I| that ``match`` accepts without ``--force``; the support
#: search grows about 4x for every 2 added to |I|.
MATCH_SIZE_CAP = 16


def _check_cap(args: argparse.Namespace, name: str, value: int, cap: int, what: str) -> None:
    if value > cap and not args.force:
        raise UsageError(f"{name} {value} exceeds the {what} {cap}; pass --force to lift it")


def _check_orders(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        # an index's lower bound is the family's own
        if value < 0 and flag != "index":
            raise UsageError(f"--{flag} must be >= 0, got {value}")
        _check_cap(args, f"--{flag}", value, SERIES_ORDER_CAP, "series order cap")


def _code_info(rs: RuleSet) -> dict:
    return {
        "code": rs.code,
        "letters": rs.letters,
        "class": classify(rs).value,
        "alias": alias_of(rs),
        "rules": rs.verbose(),
    }


def _emit_orbit_rows(fmt: str, n: int, payload: dict, keys: list[str], line: str) -> None:
    """Emit one row per orbit representative, in table order, with the
    columns ``keys`` and the text line ``line.format(**row)``; the signature
    is the excess signature at ``n``."""
    rows = []
    for name in TABLE_ROW_ORDER:
        rs = ALIASES[name]
        row = {"alias": name, "class": classify(rs).value, "letters": rs.letters, "hhtt": rs.hhtt,
               "tthh": rs.tthh, "signature": excess_signature(rs, n).runs()}
        rows.append({k: row[k] for k in keys})
    csv_rows = ([row[k] for k in keys] for row in rows)
    _emit(fmt, {**payload, "rows": rows}, lambda: (line.format(**row) for row in rows), keys, csv_rows)


def cmd_classify(args: argparse.Namespace) -> int:
    if bool(args.codes) + args.all + args.table4 != 1:
        raise UsageError("classify needs exactly one of: codes, --all, --table4")
    if args.table4:
        keys = ["alias", "class", "letters", "hhtt", "tthh", "signature"]
        line = "{alias:<13} {class:<9} {letters} hhtt={hhtt:<5} tthh={tthh:<5} {signature}"
        _emit_orbit_rows(args.format, 4, {}, keys, line)
        return 0

    infos = [_code_info(_parse_ruleset(code)) for code in (range(64) if args.all else args.codes)]
    payload: dict = {"codes": infos}
    if args.all:
        census = {label.value: sizes for label, sizes in orbit_census().items()}
        payload["valid"] = len(valid_rulesets())
        payload["invalid"] = 64 - payload["valid"]
        payload["orbits"] = [
            {
                "representative": orbit[0].letters,
                "class": classify(orbit[0]).value,
                "members": [rs.letters for rs in orbit],
            }
            for orbit in orbits()
        ]
        payload["census"] = census

    def text():
        for info in infos:
            alias = f" alias={info['alias']}" if info["alias"] else ""
            yield f"{info['code']:>2} {info['letters']} class={info['class']}{alias}"
        if args.all:
            sizes = ", ".join(
                f"{label}: {len(v)} orbit(s) {v}" for label, v in sorted(payload["census"].items())
            )
            yield (
                f"valid: {payload['valid']}  invalid: {payload['invalid']}  "
                f"orbits: {len(payload['orbits'])}  [{sizes}]"
            )

    rows = ([info["code"], info["letters"], info["class"], info["alias"] or ""] for info in infos)
    _emit(args.format, payload, text, ["code", "letters", "class", "alias"], rows)
    return 0


def _verify_one(code: int, n: int, all_witnesses: bool) -> dict:
    rs = RuleSet.from_code(code)
    reports = verify_axioms(rs, n, all_witnesses)
    return {
        "code": _code_info(rs),
        "n": n,
        "reports": [r.to_json_dict() for r in reports],
        "verdict": "pass" if all(r.passed for r in reports) else "fail",
    }


def cmd_verify(args: argparse.Namespace) -> int:
    check_resource_cap(args.n, args.force)
    if args.all == bool(args.code):
        raise UsageError("verify needs exactly one of: a code, --all")
    codes = range(64) if args.all else [_parse_ruleset(args.code).code]
    results = [_verify_one(code, args.n, args.all_witnesses) for code in codes]

    if args.all:
        # the class labels predict the verdicts only from n = 5 upward; below
        # that the tool reports per-n verdicts without a claim
        mismatched = [
            r
            for r in results
            if (r["verdict"] == "pass") != (r["code"]["class"] != "invalid")
        ]
        applicable = args.n >= 5
        payload = {
            "n": args.n,
            "results": results,
            "passes": sum(r["verdict"] == "pass" for r in results),
            "failures": sum(r["verdict"] == "fail" for r in results),
            "matches_classification": (not mismatched) if applicable else None,
        }

        def text():
            for r in results:
                yield f"{r['code']['letters']} class={r['code']['class']:<9} {r['verdict']}"
            verdict_note = (
                f"matches classification: {not mismatched}"
                if applicable
                else "classification applies from n=5 up"
            )
            yield f"pass: {payload['passes']}  fail: {payload['failures']}  {verdict_note}"

        _emit(args.format, payload, text)
        return 0 if not (applicable and mismatched) else 1

    result = results[0]

    def text():
        yield f"code {result['code']['letters']} class={result['code']['class']} n={result['n']}"
        for report in result["reports"]:
            yield f"  {report['axiom']}: {report['verdict']}"
            for witness in report["witnesses"]:
                yield f"    witness: {json.dumps(witness, sort_keys=True)}"

    _emit(args.format, result, text)
    return 0 if result["verdict"] == "pass" else 1


def cmd_faces(args: argparse.Namespace) -> int:
    rs = _parse_ruleset(args.code)
    table = face_table(rs, args.n, args.selector, force=args.force)
    if args.refined or args.selector != "all":
        payload = table.to_json_dict()

        def text():
            yield f"n={table.n} selector={table.selector} total={table.total()}"
            for i, j, c in payload["counts"]:
                yield f"  forward={i} backward={j}: {c}"

        _emit(args.format, payload, text, ["i", "j", "count"], payload["counts"])
        return 0
    dims = table.by_dimension()
    rows = [[k, dims[k]] for k in sorted(dims)]

    def text():
        yield f"n={table.n} total={table.total()}"
        for k, count in rows:
            yield f"  {k} arrows: {count}"

    payload = {"n": table.n, "selector": table.selector, "by_dimension": rows}
    _emit(args.format, payload, text, ["arrows", "count"], rows)
    return 0


def cmd_excess(args: argparse.Namespace) -> int:
    _check_cap(args, "--n", args.n, EXCESS_N_CAP, "excess size cap")
    check_ambient_size(args.n)
    if args.n < 1:  # V_0 has no arrow, so its signature is empty
        raise UsageError("--n must be >= 1 for excess")
    if args.all_orbits == bool(args.code):
        raise UsageError("excess needs exactly one of: --code, --all-orbits")
    if args.all_orbits:
        line = "{alias:<13} {class:<9} {signature}"
        _emit_orbit_rows(args.format, args.n, {"n": args.n}, ["alias", "class", "signature"], line)
        return 0
    rs = _parse_ruleset(args.code)
    signature = excess_signature(rs, args.n)
    payload = {
        "code": _code_info(rs),
        "n": args.n,
        "signature": signature.runs(),
        "degrees": list(signature.degrees),
    }
    _emit(args.format, payload, lambda: [payload["signature"]])
    return 0


def _arrows(pairs: list[list[int]]) -> str:
    return " ".join(f"{tail}->{head}" for tail, head in pairs)


def cmd_match(args: argparse.Namespace) -> int:
    rs = _parse_ruleset(args.rules)
    tails = [int(x) for x in args.tails.replace(",", " ").split()]
    heads = [int(x) for x in args.heads.replace(",", " ").split()]
    if not tails or not heads:
        raise UsageError("--tails and --heads must each list at least one node")
    _check_cap(args, "|I| =", len(tails), MATCH_SIZE_CAP, "match size cap")
    valid = classify(rs).value != "invalid"
    try:
        brute = support_matching(rs, tails, heads)
    except MultiplicityError as exc:
        payload = {
            "code": _code_info(rs),
            "tails": list(exc.tails),
            "heads": list(exc.heads),
            "unique": False,
            "count": exc.count,
            "matchings": [[[a.tail, a.head] for a in sorted(m)] for m in exc.matchings],
        }

        def text():
            yield f"not unique: {exc.count} matchings found"
            for pairs in payload["matchings"]:
                yield f"  {_arrows(pairs)}"

        _emit(args.format, payload, text)
        return 1
    agrees = construct_matching(rs, tails, heads) == brute if valid else None
    payload = {
        "code": _code_info(rs),
        "tails": sorted(tails),
        "heads": sorted(heads),
        "matching": [[a.tail, a.head] for a in sorted(brute)],
        "unique": True,
        "agrees_with_construction": agrees,
    }

    def text():
        note = "construction agrees: %s" % agrees if valid else "invalid code, brute force only"
        yield f"{_arrows(payload['matching'])}  (unique: yes, {note})"

    _emit(args.format, payload, text)
    return 0 if agrees in (True, None) else 1


_DUMPABLE = {
    "catalan": lambda a: catalan_series(a.zorder),
    "backward-only": lambda a: backward_only_series(a.xyorder, a.zorder),
    "backward-saturated": lambda a: backward_saturated_series(a.xyorder, a.zorder),
    "refined-backward": lambda a: refined_backward_series(a.index, a.xyorder, a.zorder),
    "simion-thth-nest": lambda a: simion_saturated_series("THTH", a.xyorder, a.xyorder, a.zorder),
    "simion-htht-nest": lambda a: simion_saturated_series("HTHT", a.xyorder, a.xyorder, a.zorder),
    "revlex-saturated": lambda a: revlex_saturated_series(a.xyorder, a.xyorder, a.zorder),
    "node-egf": lambda a: node_enriched_egf(a.uvorder, a.uvorder),
    "delannoy-egf": lambda a: delannoy_egf(a.uvorder, a.uvorder),
    "delannoy-genfunc": lambda a: delannoy_genfunc(a.uvorder, a.uvorder, 2 * a.uvorder),
    "psi": lambda a: psi_series(a.index, a.zorder),
    "forest-poly": lambda a: g_k(a.index),
    "mixed-forest-poly": lambda a: lex_mixed_forest_poly(a.index, 0),
}


def cmd_series_dump(args: argparse.Namespace) -> int:
    builder = _DUMPABLE.get(args.which)
    if builder is None:
        raise UsageError(f"unknown series {args.which!r}; known: {sorted(_DUMPABLE)}")
    _check_orders(args, "zorder", "xyorder", "uvorder", "index")
    series: Series = builder(args)
    header = list(series.ring.variables) + ["numerator", "denominator"]
    unpack, den = series.ring.packing.unpack, series.den
    # each coefficient n/den in lowest terms, with no Fraction per term; the
    # exponents are distinct, so the rows sort by them alone
    rows = sorted(unpack(k) + (n // g, den // g)
                  for k, n in series.terms.items() for g in (gcd(n, den),))
    _emit("csv", {}, lambda: (), header, rows)
    return 0


def cmd_series_check(args: argparse.Namespace) -> int:
    _check_orders(args, "zorder")
    try:
        found = checks_mod.run_checks(args.names or sorted(checks_mod.CHECKS), args.zorder)
    except KeyError as exc:  # an unknown name; run_checks refuses it before running any
        raise UsageError(exc.args[0]) from None
    results = [r.to_json_dict() for r in found]
    ok = all(r["pass"] for r in results)

    def text():
        for r in results:
            yield f"{'PASS' if r['pass'] else 'FAIL'} {r['name']}: {r['detail']}"
        yield f"verdict: {'pass' if ok else 'fail'} ({len(results)} checks)"

    payload = {"zorder": args.zorder, "checks": results, "verdict": "pass" if ok else "fail"}
    _emit(args.format, payload, text)
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="rootflags",
        description=(
            "Uniform flag triangulations of the root polytope boundary: "
            "classify rule codes, verify the support/linkage axioms, dump "
            "face tables and check exact series identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("classify", help="class labels, orbits and the census table")
    p.add_argument("codes", nargs="*", help="rule codes (integer, letters, alias, or WORD:choice list)")
    p.add_argument("--all", action="store_true", help="classify all 64 codes and print the orbit census")
    p.add_argument("--table4", action="store_true", help="the 15 orbit rows with excess signatures at n=4")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the permissibility, support and linkage checks")
    p.add_argument("code", nargs="?", help="rule code")
    p.add_argument("--all", action="store_true", help="verify all 64 codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--force", action="store_true", help="override the resource cap")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("faces", help="face counts by forward/backward arrows")
    p.add_argument("--code", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--selector", choices=("all", "saturated", "facets"), default="all")
    p.add_argument("--refined", action="store_true", help="full (i, j) table instead of per-dimension totals")
    p.add_argument("--force", action="store_true", help="override the resource cap")
    add_format(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("facets", help="facet counts (n-arrow faces)")
    p.add_argument("--code", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_faces, selector="facets", refined=True)

    p = sub.add_parser("excess", help="excess-degree signatures")
    p.add_argument("--code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-orbits", action="store_true", help="signatures of the 15 orbit representatives")
    p.add_argument("--force", action="store_true", help="override the excess size cap")
    add_format(p)
    p.set_defaults(func=cmd_excess)

    p = sub.add_parser("match", help="construct the unique support matching")
    p.add_argument("--rules", required=True)
    p.add_argument("--tails", required=True)
    p.add_argument("--heads", required=True)
    p.add_argument("--force", action="store_true", help="override the match size cap")
    add_format(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("series", help="series utilities")
    series_sub = p.add_subparsers(dest="series_command", required=True)

    d = series_sub.add_parser("dump", help="emit series coefficients as CSV")
    d.add_argument("--which", required=True)
    d.add_argument("--zorder", type=int, default=8)
    d.add_argument("--xyorder", type=int, default=8)
    d.add_argument("--uvorder", type=int, default=6)
    d.add_argument("--index", type=int, default=1, help="i or k for the indexed families")
    d.add_argument("--force", action="store_true", help="override the series order cap")
    d.set_defaults(func=cmd_series_dump)

    def add_series_check(p: argparse.ArgumentParser) -> None:
        which = p.add_mutually_exclusive_group()
        which.add_argument("--names", nargs="+", help="subset of checks to run")
        which.add_argument("--all", action="store_true", help="run every check (default)")
        p.add_argument("--zorder", type=int, default=5)
        p.add_argument("--force", action="store_true", help="override the series order cap")
        add_format(p)
        p.set_defaults(func=cmd_series_check)

    add_series_check(series_sub.add_parser("check", help="run oracle-vs-closed-form comparisons"))
    add_series_check(sub.add_parser("series-check", help="alias for 'series check'"))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
