"""Byte-for-byte snapshots of CLI output.

A snapshot changes only together with an intended change of the output;
regenerate it with the command line in its parametrisation, e.g.
``rootflags verify --all --n 5 --format json > tests/golden/verify_all_n5.json``.
A ``faces_n6_refined_<selector>.jsonl`` snapshot holds the outputs of
``rootflags faces --code A --n 6 --refined --selector <selector> --format json``
for the 15 aliases A of ``TABLE_ROW_ORDER``, one line each, in that order.
A ``series_dump_<family>_small.csv`` snapshot is the output of
``rootflags series dump --which <family> --zorder 6 --xyorder 6 --uvorder 4 --index 3``,
and a ``series_dump_<family>_bench.csv`` one that of
``rootflags series dump --which <family> --zorder 12 --xyorder 12 --uvorder 8 --index 4``
(the benchmark's orders); every ``series dump`` family has both.
"""

from pathlib import Path

import pytest

from rootflags.cli import _DUMPABLE, main
from rootflags.rules import TABLE_ROW_ORDER

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "snapshot, argv",
    [
        ("verify_all_n5.json", ["verify", "--all", "--n", "5", "--format", "json"]),
        (
            "verify_all_n4_all_witnesses.json",
            ["verify", "--all", "--n", "4", "--all-witnesses", "--format", "json"],
        ),
        ("series_check_z5.json", ["series", "check", "--zorder", "5", "--format", "json"]),
        ("verify_all_n7.json", ["verify", "--all", "--n", "7", "--format", "json"]),
        ("verify_all_n8.json", ["verify", "--all", "--n", "8", "--format", "json"]),
        ("verify_all_n10.json", ["verify", "--all", "--n", "10", "--format", "json"]),
        (
            "verify_all_n6_all_witnesses.json",
            ["verify", "--all", "--n", "6", "--all-witnesses", "--format", "json"],
        ),
        # the first circuit witnesses above n = 10
        pytest.param(
            "verify_all_n12.json",
            ["verify", "--all", "--n", "12", "--force", "--format", "json"],
            marks=pytest.mark.slow,
        ),
    ],
)
def test_cli_output_matches_snapshot(capsys, snapshot, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / snapshot).read_text()


@pytest.mark.parametrize(
    "snapshot, argv, status",
    [
        ("classify_table4.json", ["classify", "--table4", "--format", "json"], 0),
        ("excess_all_orbits_n4.json", ["excess", "--all-orbits", "--n", "4", "--format", "json"], 0),
        (
            "match_revlex_nn.json",
            ["match", "--rules", "REVLEX_NN", "--tails", "1,4", "--heads", "2,3", "--format", "json"],
            0,
        ),
        # an invalid code with two matchings, and one with none
        (
            "match_code12.json",
            ["match", "--rules", "12", "--tails", "1,3,5", "--heads", "2,4,6", "--format", "json"],
            1,
        ),
        (
            "match_code4.json",
            ["match", "--rules", "4", "--tails", "2,3,5", "--heads", "1,4,6", "--format", "json"],
            1,
        ),
        ("classify_all.json", ["classify", "--all", "--format", "json"], 0),
    ],
)
def test_cli_output_and_status_match_snapshot(capsys, snapshot, argv, status):
    assert main(argv) == status
    assert capsys.readouterr().out == (GOLDEN / snapshot).read_text()


@pytest.mark.parametrize("selector", ["all", "saturated", "facets"])
def test_refined_face_tables_match_snapshot(capsys, selector):
    out = []
    for alias in TABLE_ROW_ORDER:
        argv = ["faces", "--code", alias, "--n", "6", "--refined", "--selector", selector,
                "--format", "json"]
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / f"faces_n6_refined_{selector}.jsonl").read_text()


SMALL_ORDERS = ["--zorder", "6", "--xyorder", "6", "--uvorder", "4", "--index", "3"]
BENCH_ORDERS = ["--zorder", "12", "--xyorder", "12", "--uvorder", "8", "--index", "4"]
OLDEST_BENCH = ("refined-backward", "simion-thth-nest")


@pytest.mark.parametrize(
    "family, size, orders",
    [(family, "small", SMALL_ORDERS) for family in sorted(_DUMPABLE)]
    # the two oldest bench snapshots first, so every test keeps its id
    + [(family, "bench", BENCH_ORDERS)
       for family in [*OLDEST_BENCH, *sorted(set(_DUMPABLE) - set(OLDEST_BENCH))]],
)
def test_series_dump_matches_snapshot(capsys, family, size, orders):
    assert main(["series", "dump", "--which", family, *orders]) == 0
    # the csv module ends rows with \r\n; newline="" keeps them as written
    with open(GOLDEN / f"series_dump_{family}_{size}.csv", newline="") as snapshot:
        assert capsys.readouterr().out == snapshot.read()
