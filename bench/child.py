"""One cold benchmark child: read a job on stdin, run its ops, print one JSON line.

A job is ``{"mode": "cli" | "layers", "traced": bool, "run": str, "ops": [...]}``.
Each op is an abstract request such as ``["verify", code, n]``:

- ``cli`` mode runs it the way a user's invocation does, through
  ``rootflags.cli.main`` with stdout captured;
- ``layers`` mode calls each layer's public functions directly and, when
  the job is traced, records a span around every call.

Match requests go through the library in both modes (the calls the
``match`` command makes), because building the argument parser alone costs
more than a typical request.

Set-up ends when the first op is about to run: the child reports that
moment on the monotonic clock and the parent subtracts its spawn time.

The child times the reference loop of ``bench/speed.py`` once set up, after
any op that ends at least ``REF_EVERY_S`` after the last reading, and after
the last op.  Each op records the index of the reading before it; the
reading after it is the next one.  The parent rescales the op's time by
the two.

Run by ``bench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import sys
import time
import traceback

from rootflags import (
    ALIASES,
    ClassLabel,
    MultiplicityError,
    RuleSet,
    check_linkage_axiom,
    check_permissible,
    check_support_axiom,
    classify,
    construct_matching,
    face_table,
    support_matching,
)
from rootflags import checks, cli, series
from rootflags.complexes import adjacency
from speed import reference

#: Least op time between two readings of the reference loop.
REF_EVERY_S = 0.05

#: The ``series dump`` families, built from the public series functions with
#: the meaning ``rootflags series dump`` gives its order flags.
DUMPS = {
    "catalan": lambda z, xy, uv, k: series.catalan_series(z),
    "backward-only": lambda z, xy, uv, k: series.backward_only_series(xy, z),
    "backward-saturated": lambda z, xy, uv, k: series.backward_saturated_series(xy, z),
    "refined-backward": lambda z, xy, uv, k: series.refined_backward_series(k, xy, z),
    "simion-thth-nest": lambda z, xy, uv, k: series.simion_saturated_series("THTH", xy, xy, z),
    "simion-htht-nest": lambda z, xy, uv, k: series.simion_saturated_series("HTHT", xy, xy, z),
    "revlex-saturated": lambda z, xy, uv, k: series.revlex_saturated_series(xy, xy, z),
    "node-egf": lambda z, xy, uv, k: series.node_enriched_egf(uv, uv),
    "delannoy-egf": lambda z, xy, uv, k: series.delannoy_egf(uv, uv),
    "delannoy-genfunc": lambda z, xy, uv, k: series.delannoy_genfunc(uv, uv, 2 * uv),
    "psi": lambda z, xy, uv, k: series.psi_series(k, z),
    "forest-poly": lambda z, xy, uv, k: series.g_k(k),
    "mixed-forest-poly": lambda z, xy, uv, k: series.lex_mixed_forest_poly(k, 0),
}


def argv_of(op: list) -> list[str]:
    """The ``rootflags`` command line a user would type for an op."""
    kind, *args = op
    if kind == "verify":
        code, n = args
        return ["verify", str(code), "--n", str(n), "--format", "json"]
    if kind == "faces":
        alias, n, selector = args
        return ["faces", "--code", alias, "--n", str(n), "--refined",
                "--selector", selector, "--format", "json"]
    if kind == "check":
        name, zorder = args
        return ["series", "check", "--names", name, "--zorder", str(zorder), "--format", "json"]
    if kind == "dump":
        family, z, xy, uv, k = args
        return ["series", "dump", "--which", family, "--zorder", str(z), "--xyorder", str(xy),
                "--uvorder", str(uv), "--index", str(k)]
    raise ValueError(f"no command line for op {op!r}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue()


def csv_text(s: series.Series) -> str:
    """The CSV that ``rootflags series dump`` prints for a series."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(s.ring.variables) + ["numerator", "denominator"])
    for exps, coeff in s.items():
        writer.writerow(list(exps) + [coeff.numerator, coeff.denominator])
    return out.getvalue()


def _pairs(matching) -> list[list[int]]:
    return sorted([a.tail, a.head] for a in matching)


def match(span, code: int, tails: list[int], heads: list[int]):
    rs = RuleSet.from_code(code)
    with span("axioms.support_matching"):
        try:
            found = support_matching(rs, tails, heads)
        except MultiplicityError as exc:
            return 1, {"unique": False, "count": exc.count}
    built = None
    if classify(rs) is not ClassLabel.INVALID:
        with span("matchings.construct"):
            built = construct_matching(rs, tails, heads)
    return 0, {"unique": True, "matching": _pairs(found),
               "built": None if built is None else _pairs(built)}


def layer_verify(span, code: int, n: int):
    rs = RuleSet.from_code(code)
    with span("complexes.adjacency"):
        adjacency(rs, n)
    with span("axioms.permissible"):
        reports = [check_permissible(rs, n)]
    with span("axioms.support"):
        reports.append(check_support_axiom(rs, n))
    with span("axioms.linkage"):
        reports.append(check_linkage_axiom(rs, n))
    passed = all(r.passed for r in reports)
    return (0 if passed else 1), {
        "code": {"code": code},
        "n": n,
        "reports": [r.to_json_dict() for r in reports],
        "verdict": "pass" if passed else "fail",
    }


def layer_faces(span, alias: str, n: int, selector: str):
    # The workload asks for "all" first, so that call walks the complex and
    # the other two selectors of the same alias read the cached tables.
    rs = ALIASES[alias]
    if selector == "all":
        with span("complexes.adjacency"):
            adjacency(rs, n)
        with span("complexes.face_table"):
            table = face_table(rs, n, selector)
    elif selector == "facets":
        with span("cli.render"):
            return run_cli(argv_of(["faces", alias, n, selector]))
    else:
        with span("complexes.cached_table"):
            table = face_table(rs, n, selector)
    return 0, table.to_json_dict()


def layer_check(span, name: str, zorder: int):
    with span(f"checks.{name}"):
        result = checks.CHECKS[name](zorder)
    return (0 if result.passed else 1), {
        "checks": [result.to_json_dict()],
        "verdict": "pass" if result.passed else "fail",
    }


def layer_dump(span, family: str, z: int, xy: int, uv: int, k: int):
    with span(f"series.dump.{family}"):
        s = DUMPS[family](z, xy, uv, k)
    return 0, csv_text(s)


LAYERS = {"verify": layer_verify, "faces": layer_faces, "check": layer_check,
          "dump": layer_dump, "match": match}


class Tracer:
    """Spans ``[name, start, end, parent index, run id]``, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.run]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` also counts the parent's image that the child shared
    before ``exec``, so it grows with the parent; ``VmHWM`` does not.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_NO_SPAN = contextlib.nullcontext()


def no_span(name: str):
    return _NO_SPAN


def main() -> None:
    cli.build_parser()  # part of set-up, as in every CLI invocation
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job["traced"] else None
    span = tracer.span if tracer else no_span
    layered = job["mode"] == "layers"
    results = []
    ready = time.monotonic()
    refs = [reference()]
    last_ref = time.perf_counter()
    for index, op in enumerate(job["ops"]):
        if tracer:
            tracer.run = f"{job['run']}:{index}"
        start = time.perf_counter()
        try:
            with span(f"op.{op[0]}"):
                if layered or op[0] == "match":
                    rc, out = LAYERS[op[0]](span, *op[1:])
                else:
                    rc, out = run_cli(argv_of(op))
        except Exception:  # a failing op is counted by the parent; keep going
            rc, out = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        results.append([elapsed, rc, out if isinstance(out, str) else json.dumps(out), len(refs) - 1])
        if index == len(job["ops"]) - 1 or time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference())
            last_ref = time.perf_counter()
    done = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "done": done,
        "refs": refs,
        "rss_kb": peak_rss_kb(),
        "ops": results,
        "spans": tracer.spans if tracer else [],
    }))


if __name__ == "__main__":
    main()
