"""Snapshots of every command's text, CSV and JSON output.

Each invocation below runs with ``--format text``, ``csv`` and ``json``; the
snapshot holds its stdout, stderr and exit status, keyed by the command line.
Commands without a CSV form print their text form under ``--format csv``.
A snapshot changes only together with an intended change of the output;
regenerate it with ``PYTHONPATH=src python tests/test_cli_formats.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from rootflags.cli import main

SNAPSHOT = Path(__file__).parent / "golden" / "cli_formats.json"

INVOCATIONS = [
    "classify --table4",
    "classify --all",
    "classify LEX_NN 12 SIMION_C",
    "verify LEX_NN --n 4",
    "verify 12 --n 4",
    "verify 12 --n 5 --all-witnesses",
    "verify --all --n 4",
    "faces --code SIMION_C --n 5",
    "faces --code SIMION_C --n 5 --refined",
    "faces --code SIMION_C --n 5 --selector saturated",
    "facets --code REVLEX_NN --n 5",
    "excess --all-orbits --n 5",
    "excess --code LEX_NN --n 4",
    "match --rules LEX_NN --tails 2,4 --heads 1,5",
    "match --rules 12 --tails 1,3,5 --heads 2,4,6",
    "match --rules 4 --tails 2,3,5 --heads 1,4,6",
    "series check --zorder 3",
]

COMMAND_LINES = [f"{inv} --format {fmt}" for inv in INVOCATIONS for fmt in ("text", "csv", "json")]


def run(command_line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(command_line.split())
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


@cache
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("command_line", COMMAND_LINES)
def test_cli_output_in_every_format_matches_snapshot(command_line):
    assert run(command_line) == snapshot()[command_line]


if __name__ == "__main__":
    taken = {line: run(line) for line in COMMAND_LINES}
    SNAPSHOT.write_text(json.dumps(taken, indent=1, sort_keys=True) + "\n")
