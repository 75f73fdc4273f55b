"""Smoke test of the benchmark: every workload once at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest -q bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def assert_complete(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0  # fail_frac == 0
    names = [m["name"] for m in SPEC[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["value"] == metric["value"], f"{name} is NaN"


@pytest.mark.parametrize("workload", ["verify-all", "face-tables", "series-suite", "match-queries"])
def test_workload_end_to_end(workload):
    assert_complete(run_bench(workload, 0), "end_to_end")


def test_traced_run_reports_every_layer():
    result = run_bench("match-queries", 1)
    assert_complete(result, "per_layer")
    assert result["metrics"]["complexes.faces"]["value"] > 0
    assert result["metrics"]["series.terms"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"  # only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
