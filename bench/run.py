"""Benchmark of the rootflags CLI and library; see bench/README.md.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Every repetition of a workload runs in a fresh child interpreter
(``bench/child.py``), one child at a time, so each pays the cold cost a CLI
user pays.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A full record of the run (and, when traced, every span with
its self time) is written under ``.bench_out/``.

Every reported time is rescaled to a fixed reference speed (``bench/speed.py``):
a time measured next to a reading ``r`` of the reference loop counts as
``t * REF_S / r``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: A run that is still going after this many seconds kills its child.
HARD_LIMIT_S = 150
#: Ladder for the tail percentile: the highest one with at least ten samples
#: beyond it at the run's minimum sample count.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

SCALES = {
    "full": {
        "verify_n": 5, "faces_n": 7, "check_zorder": 5, "dump_orders": (12, 12, 8, 4),
        "rounds": 5, "max_k": 6, "max_node": 14, "min_children": 3, "setup_probes": 5,
    },
    "smoke": {
        "verify_n": 4, "faces_n": 4, "check_zorder": 2, "dump_orders": (5, 5, 3, 2),
        "rounds": 1, "max_k": 4, "max_node": 10, "min_children": 1, "setup_probes": 1,
    },
}

WORKLOADS = ("verify-all", "face-tables", "series-suite", "match-queries")
#: Layer pass that the traced run makes for each workload.
GROUP_OF = dict(zip(WORKLOADS, ("verify", "faces", "series", "match")))


def workload_ops(workload: str, seed: int, scale: dict) -> list[list]:
    """The op list of one repetition; the same seed gives the same ops."""
    from rootflags import TABLE_ROW_ORDER
    from rootflags.checks import CHECKS
    from child import DUMPS

    if workload == "verify-all":
        return [["verify", code, scale["verify_n"]] for code in range(64)]
    if workload == "face-tables":
        return [
            ["faces", alias, scale["faces_n"], selector]
            for alias in TABLE_ROW_ORDER
            for selector in ("all", "saturated", "facets")
        ]
    if workload == "series-suite":
        return [["check", name, scale["check_zorder"]] for name in CHECKS] + [
            ["dump", family, *scale["dump_orders"]] for family in DUMPS
        ]
    # Every (code, |I|) pair appears equally often, so a seed changes only
    # the node sets and the order, not how much work the requests hold.
    rng = random.Random(f"requests-{seed}")
    pairs = [(code, k) for code in range(64) for k in range(1, scale["max_k"] + 1)]
    ops = []
    for code, k in pairs * scale["rounds"]:
        nodes = rng.sample(range(1, scale["max_node"] + 1), 2 * k)
        ops.append(["match", code, sorted(nodes[:k]), sorted(nodes[k:])])
    rng.shuffle(ops)
    return ops


class Run:
    """Children spawned by one benchmark run, with their checked outputs."""

    def __init__(self, workload: str, seed: int, scale: dict):
        self.started = time.monotonic()
        self.scale = scale
        self.hash_seeds = random.Random(f"hash-{seed}")
        self.ops = {w: workload_ops(w, seed, scale) for w in WORKLOADS}
        self.workload = workload
        self.children: list[dict] = []
        self.attempted = self.failed = self.compared = 0

    def spawn(self, workload: str, mode: str = "cli", traced: bool = False, probe: bool = False) -> dict:
        from oracles import CHECKERS

        ops = [] if probe else self.ops[workload]
        job = {"mode": mode, "traced": traced, "run": GROUP_OF[workload], "ops": ops}
        hash_seed = self.hash_seeds.randrange(2**32)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        parent_ref = reference()
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=ROOT, env=env, text=True,
        )
        try:
            stdout, stderr = proc.communicate(json.dumps(job), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            stderr += f"\nchild killed after {timeout:.0f} s"
        child = {"workload": workload, "mode": mode, "traced": traced, "probe": probe,
                 "hash_seed": hash_seed, "returncode": proc.returncode}
        try:
            child.update(json.loads(stdout.splitlines()[-1]))
        except (IndexError, ValueError):
            child.update(ops=[], spans=[], refs=[], error=stderr[-4000:])
        child["setup_s"] = child["raw_setup_s"] = child["wall_s"] = child["raw_wall_s"] = None
        if "ready" in child:
            child["raw_setup_s"] = child["ready"] - spawned
            child["setup_s"] = child["raw_setup_s"] * REF_S / ((parent_ref + child["refs"][0]) / 2)
        if "done" in child:
            child["raw_wall_s"] = math.fsum(op[0] for op in child["ops"])
            child["wall_s"] = math.fsum(scaled_op_times(child))
        outputs = [(rc, text) for _, rc, text, _ in child["ops"]]
        bad, compared = CHECKERS[workload](ops, outputs) if ops else (set(), 0)
        failed = len(bad) + len(ops) - len(outputs)
        if ops and compared == 0:
            failed = len(ops)  # a check that compared nothing proves nothing
        child.update(attempted=len(ops), failed=failed, compared=compared)
        if failed:
            child["failures"] = [child["ops"][i] for i in sorted(bad)[:3]]
            print(f"{workload}: {failed} of {len(ops)} ops failed", file=sys.stderr)
        self.attempted += len(ops)
        self.failed += failed
        self.compared += compared
        self.children.append(child)
        return child

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def speed_factors(child: dict) -> list[float]:
    """For each op, ``REF_S`` over the mean of the reference readings taken
    just before and just after it."""
    refs = child["refs"]
    return [2 * REF_S / (refs[j] + refs[j + 1]) for *_, j in child["ops"]]


def scaled_op_times(child: dict) -> list[float]:
    """Each op's time at the reference speed."""
    return [op[0] * f for op, f in zip(child["ops"], speed_factors(child))]


def _median(values):
    return statistics.median(values) if values else math.nan


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(samples: int) -> float:
    return next((q for q in TAIL_LADDER if samples * (1 - q) >= 10), 0.5)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """The untraced run: set-up probes, then full children until the time is
    used (at least ``min_children``).  Returns metric values and details."""
    scale = run.scale
    for _ in range(scale["setup_probes"]):
        run.spawn(run.workload, probe=True)
    workers: list[dict] = []
    while True:
        workers.append(run.spawn(run.workload))
        typical = _median([c["raw_wall_s"] + c["raw_setup_s"] for c in workers if c["wall_s"] is not None])
        if len(workers) >= scale["min_children"] and not run.elapsed() + typical < seconds:
            break
    done = [c for c in workers if c["wall_s"] is not None]
    latencies = sorted(t for c in done for t in scaled_op_times(c))
    # The tail percentile is fixed per workload, so it does not move with
    # the number of children a run holds.
    q = tail_quantile(scale["min_children"] * len(run.ops[run.workload]))
    set_up = [c for c in run.children if c["setup_s"] is not None]
    values = {
        "wall_s": _median([c["wall_s"] for c in done]),
        "setup_s": _median([c["setup_s"] for c in set_up]),
        "peak_rss_mb": _median([c["rss_kb"] / 1024 for c in done]),
        "op_p50_ms": 1e3 * _median(latencies),
        "op_tail_ms": 1e3 * _nearest_rank(latencies, q) if latencies else math.nan,
    }
    details = {
        "workers": len(workers), "op_samples": len(latencies), "tail_quantile": q,
        "raw_wall_s": _median([c["raw_wall_s"] for c in done]),
        "raw_setup_s": _median([c["raw_setup_s"] for c in set_up]),
        "ref_s": _median([r for c in run.children for r in c["refs"]]),
    }
    return values, details


# ---------------------------------------------------------------------------
# Traced run


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _op_index(run_id: str) -> int:
    return int(run_id.rsplit(":", 1)[1])


def scaled_spans(child: dict) -> list[list]:
    """The child's spans with start and end multiplied by their op's speed
    factor, so that durations and self times are at the reference speed."""
    factors = speed_factors(child)
    return [[name, start * factors[_op_index(run_id)], end * factors[_op_index(run_id)], parent, run_id]
            for name, start, end, parent, run_id in child["spans"]]


def _by_size(spans: list[list], sizes: list[int], name: str) -> dict:
    """Latency of ``name`` spans in microseconds over the requests with
    |I| <= 3 and |I| >= 4, at the median and at the tail."""
    out = {}
    for label, keep in (("le3", lambda k: k <= 3), ("ge4", lambda k: k >= 4)):
        values = sorted(
            1e6 * (end - start)
            for span_name, start, end, _, run_id in spans
            if span_name == name and keep(sizes[_op_index(run_id)])
        )
        out[f"{name}_us.p50_{label}"] = statistics.median(values) if values else math.nan
        out[f"{name}_us.tail_{label}"] = (
            _nearest_rank(values, tail_quantile(len(values))) if values else math.nan
        )
    return out


def layer_metrics(group: str, child: dict, ops: list) -> dict:
    """Per-layer metrics of one traced layer pass."""
    from oracles import is_valid, parse_dump

    spans = scaled_spans(child)
    own = self_times(spans)
    total: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        total[name] = total.get(name, 0.0) + seconds
    texts = [text for _, _, text, _ in child["ops"]]
    if group == "verify":
        valid = {"axioms.valid_codes_s": 0.0, "axioms.invalid_codes_s": 0.0}
        for name, start, end, _, run_id in spans:
            if name == "op.verify":
                code = ops[_op_index(run_id)][1]
                valid["axioms.valid_codes_s" if is_valid(code) else "axioms.invalid_codes_s"] += end - start
        return {
            "complexes.adjacency_s": total["complexes.adjacency"],
            "axioms.permissible_s": total["axioms.permissible"],
            "axioms.support_s": total["axioms.support"],
            "axioms.linkage_s": total["axioms.linkage"],
            **valid,
        }
    if group == "faces":
        tables = [own[i] for i, s in enumerate(spans) if s[0] == "complexes.face_table"]
        renders = [own[i] for i, s in enumerate(spans) if s[0] == "cli.render"]
        faces = sum(
            sum(c for _, _, c in json.loads(text)["counts"])
            for op, text in zip(ops, texts) if op[3] == "all"
        )
        return {
            "complexes.adjacency_s": total["complexes.adjacency"],
            "complexes.face_table_s": sum(tables),
            "complexes.face_table_max_s": max(tables),
            "complexes.faces": faces,
            "complexes.faces_per_s": faces / sum(tables),
            "complexes.cached_table_s": total["complexes.cached_table"],
            "cli.render_s": statistics.median(renders),
        }
    if group == "series":
        dumps = {name: s for name, s in total.items() if name.startswith("series.dump.")}
        terms = sum(
            len(parse_dump(text)[1]) for op, text in zip(ops, texts) if op[0] == "dump"
        )
        return {
            **{f"{name}_s": s for name, s in total.items() if name.startswith("checks.")},
            **{f"{name}_s": s for name, s in dumps.items()},
            "series.terms": terms,
            "series.terms_per_s": terms / sum(dumps.values()),
        }
    sizes = [len(op[2]) for op in ops]
    return {
        **_by_size(spans, sizes, "axioms.support_matching"),
        **_by_size(spans, sizes, "matchings.construct"),
        "axioms.nonunique": sum(rc == 1 for _, rc, _, _ in child["ops"]),
    }


def _merge(per_pass: list[dict]) -> dict:
    """Median of each metric over several passes of one group."""
    return {key: _median([m[key] for m in per_pass]) for key in per_pass[0]}


def _add(into: dict, values: dict) -> None:
    """Merge one group's metrics; a layer timed in two groups adds up."""
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def trace(run: Run, seconds: float) -> tuple[dict, dict]:
    """One traced layer pass for every other workload, then untraced and
    traced layer passes of this workload in turn until the time is used.
    The per-layer metrics of a group are medians over its traced passes;
    ``trace.overhead_frac`` compares the workload's traced and untraced
    passes, which make the same calls."""
    metrics: dict[str, float] = {}
    for workload in WORKLOADS:
        if workload != run.workload:
            child = run.spawn(workload, mode="layers", traced=True)
            _add(metrics, layer_metrics(GROUP_OF[workload], child, run.ops[workload]))
    plain, traced = [], []
    while True:
        plain.append(run.spawn(run.workload, mode="layers"))
        traced.append(run.spawn(run.workload, mode="layers", traced=True))
        pair = plain[-1]["raw_wall_s"] + traced[-1]["raw_wall_s"]
        if not run.elapsed() + pair < seconds:
            break
    group, ops = GROUP_OF[run.workload], run.ops[run.workload]
    _add(metrics, _merge([layer_metrics(group, c, ops) for c in traced]))
    metrics["trace.overhead_frac"] = (
        _median([c["wall_s"] for c in traced]) / _median([c["wall_s"] for c in plain]) - 1
    )
    return metrics, {"traced_pairs": len(plain)}


# ---------------------------------------------------------------------------


def write_spans(path: Path, run: Run) -> None:
    records = []
    for child_index, child in enumerate(run.children):
        own_times = self_times(scaled_spans(child))
        for (name, start, end, parent, run_id), own in zip(child["spans"], own_times):
            records.append({"child": child_index, "name": name, "start": start, "end": end,
                            "parent": parent, "run": run_id, "self_s": own})
    path.write_text(json.dumps(records))


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rootflags" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no rootflags sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]

    run = Run(args.workload, args.seed, SCALES["smoke" if args.smoke else "full"])
    if args.trace:
        values, details = trace(run, args.seconds)
        section = "per_layer"
    else:
        values, details = measure(run, args.seconds)
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    correct = run.failed == 0 and run.compared > 0 and all(
        c["returncode"] == 0 for c in run.children
    )
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": run.scale, "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "fail_frac": run.failed / max(run.attempted, 1), "compared": run.compared,
        **details, "result": result,
        "children": [
            {k: c.get(k) for k in ("workload", "mode", "traced", "probe", "hash_seed", "returncode",
                                   "setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "rss_kb",
                                   "refs", "attempted", "failed",
                                   "compared", "failures", "error")}
            for c in run.children
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        write_spans(OUT / f"{stem}-spans.json", run)
    print(f"compared {run.compared} values over {run.attempted} ops, "
          f"{len(run.children)} children, {run.elapsed():.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
