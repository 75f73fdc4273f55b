"""Byte-for-byte snapshots of CLI output.

A snapshot changes only together with an intended change of the output;
regenerate it with the command line in its parametrisation, e.g.
``rootflags verify --all --n 5 --format json > tests/golden/verify_all_n5.json``.
"""

from pathlib import Path

import pytest

from rootflags.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "snapshot, argv",
    [
        ("verify_all_n5.json", ["verify", "--all", "--n", "5", "--format", "json"]),
        (
            "verify_all_n4_all_witnesses.json",
            ["verify", "--all", "--n", "4", "--all-witnesses", "--format", "json"],
        ),
    ],
)
def test_cli_output_matches_snapshot(capsys, snapshot, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / snapshot).read_text()
