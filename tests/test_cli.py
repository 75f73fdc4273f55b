import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootflags import RuleSet, checks as checks_mod, support_matching
from rootflags.cli import EXCESS_N_CAP, MATCH_SIZE_CAP, SERIES_ORDER_CAP, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_single_codes(capsys):
    code, out, _ = run_cli(capsys, "classify", "LEX_NN", "0b111100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    classes = [c["class"] for c in payload["codes"]]
    assert classes == ["lex", "revlex"]


def test_classify_all_census(capsys):
    code, out, _ = run_cli(capsys, "classify", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] == 34
    assert payload["invalid"] == 30
    assert len(payload["orbits"]) == 15
    census = payload["census"]
    assert census["lex"] == [1, 1, 2]
    assert census["simion-b"] == [4, 4, 4, 4]


def test_classify_table4_row_count_and_determinism(capsys):
    code, first, _ = run_cli(capsys, "classify", "--table4", "--format", "csv")
    assert code == 0
    code, second, _ = run_cli(capsys, "classify", "--table4", "--format", "csv")
    assert first == second
    rows = [line for line in first.strip().splitlines() if line]
    assert len(rows) == 16  # header + 15 orbit rows
    assert "1^6 2^4 3^2 4^4 6^4" in first


def test_classify_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "not-a-code")
    assert code == 2
    assert "cannot parse" in err


def test_verify_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "verify", "LEX_NN", "--n", "4")
    assert code == 0
    assert "support: pass" in out

    bad = "THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:nest HHTT:cross"
    code, out, _ = run_cli(capsys, "verify", bad, "--n", "5", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    support = next(r for r in payload["reports"] if r["axiom"] == "support")
    assert support["verdict"] == "fail"
    assert support["witnesses"]


def test_verify_resource_cap(capsys):
    code, _, err = run_cli(capsys, "faces", "--code", "LEX_NN", "--n", "99")
    assert code == 2
    assert "resource cap" in err
    code, _, err = run_cli(capsys, "verify", "LEX_NN", "--n", "99")
    assert code == 2
    assert "resource cap" in err


def test_verify_force_lifts_the_resource_cap(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFLAGS_MAX_N", "3")
    code, _, err = run_cli(capsys, "verify", "LEX_NN", "--n", "4")
    assert code == 2
    assert "resource cap 3" in err
    code, out, err = run_cli(capsys, "verify", "LEX_NN", "--n", "4", "--force")
    assert code == 0 and err == ""
    assert out.count(": pass") == 3


def test_verify_all_small_n_makes_no_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passes"] == 64
    assert payload["matches_classification"] is None


def test_facets_n6_matches_closed_form(capsys):
    from rootflags.series import simion_facet_count

    code, out, _ = run_cli(capsys, "facets", "--code", "SIMION_C", "--n", "6", "--format", "json")
    assert code == 0
    cells = {(i, j): c for i, j, c in json.loads(out)["counts"]}
    assert all(cells[(i, 6 - i)] == simion_facet_count(6, i) for i in range(7))


def test_faces_refined_and_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "faces", "--code", "LEX_NN", "--n", "3", "--refined", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    cells = {(i, j): c for i, j, c in payload["counts"]}
    assert cells[(1, 1)] == 10  # C(5,2) C(3,2) / 3

    code, out, _ = run_cli(capsys, "faces", "--code", "LEX_NN", "--n", "3", "--format", "json")
    assert code == 0
    dims = dict(tuple(row) for row in json.loads(out)["by_dimension"])
    assert dims == {0: 1, 1: 12, 2: 30, 3: 20}


def test_facets_csv(capsys):
    code, out, _ = run_cli(capsys, "facets", "--code", "SIMION_C", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "i,j,count",
        "0,3,5",
        "1,2,5",
        "2,1,6",
        "3,0,4",
    ]


def test_excess_all_orbits(capsys):
    code, out, _ = run_cli(capsys, "excess", "--n", "4", "--all-orbits")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("LEX_NN")


def test_match_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "match", "--rules", "LEX_NN", "--tails", "2,4", "--heads", "1,5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matching"] == [[2, 1], [4, 5]]
    assert payload["agrees_with_construction"] is True


def test_match_multiplicity(capsys):
    bad = "THTH:nest HTHT:nonest THHT:cross HTTH:cross TTHH:nest HHTT:cross"
    code, out, _ = run_cli(
        capsys, "match", "--rules", bad, "--tails", "2,4,6", "--heads", "1,3,5",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["count"] == 2
    assert len(payload["matchings"]) == 2


def test_match_rejects_empty_tails_and_heads(capsys):
    for tails, heads in (("", ""), ("", "1"), ("2", "")):
        code, out, err = run_cli(capsys, "match", "--rules", "LEX_NN", "--tails", tails, "--heads", heads)
        assert code == 2
        assert out == ""
        assert "--tails and --heads" in err
    # the library keeps answering the empty pair with the empty matching
    assert support_matching(RuleSet.parse("LEX_NN"), [], []) == frozenset()


def test_series_dump_node_egf_at_uvorder_zero(capsys):
    code, out, err = run_cli(capsys, "series", "dump", "--which", "node-egf", "--uvorder", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["u,v,x,y,z,numerator,denominator", "0,0,0,0,0,1,1"]


def test_series_dump_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "dump", "--which", "catalan", "--zorder", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,numerator,denominator"
    assert lines[-1] == "4,14,1"


def test_series_dump_unknown(capsys):
    code, _, err = run_cli(capsys, "series", "dump", "--which", "nope")
    assert code == 2
    assert "unknown series" in err


def test_series_check_subset(capsys):
    code, out, _ = run_cli(
        capsys,
        "series-check",
        "--names",
        "catalan-quadratic",
        "backward-only-coefficients",
        "--zorder",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert [c["name"] for c in payload["checks"]] == [
        "catalan-quadratic",
        "backward-only-coefficients",
    ]


def test_series_check_excess_horizon_follows_zorder(capsys):
    code, out, _ = run_cli(
        capsys, "series", "check", "--names", "excess-degree-formula", "--zorder", "8"
    )
    assert code == 0
    assert out == (
        "PASS excess-degree-formula: brute-force excess degrees equal the closed form "
        "for all valid codes, n <= 8\nverdict: pass (1 checks)\n"
    )


def test_series_check_spellings_agree(capsys):
    argv = ("--names", "catalan-quadratic", "--zorder", "3", "--format", "json")
    first = run_cli(capsys, "series", "check", *argv)
    second = run_cli(capsys, "series-check", *argv)
    assert first[0] == 0
    assert first == second


def test_series_check_unknown_name(capsys):
    code, _, err = run_cli(capsys, "series-check", "--names", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_bad_value_inputs_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "match", "--rules", "LEX_NN", "--tails", "1,x", "--heads", "2,3")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "match", "--rules", "LEX_NN", "--tails", "1,2", "--heads", "2,3")
    assert code == 2 and "disjoint" in err
    code, _, err = run_cli(capsys, "faces", "--code", "LEX_NN", "--n", "-1")
    assert code == 2


def test_excess_rejects_negative_n(capsys):
    for argv in (("--code", "LEX_NN"), ("--all-orbits",)):
        code, out, err = run_cli(capsys, "excess", *argv, "--n", "-1")
        assert code == 2
        assert out == ""
        assert "ambient size must be >= 0, got -1" in err


def test_excess_rejects_n_zero(capsys):
    # V_0 has no arrow, so there is no signature to print
    for argv in (("--code", "SIMION_C"), ("--all-orbits",)):
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "excess", *argv, "--n", "0", "--format", fmt)
            assert code == 2
            assert out == ""
            assert err == "error: --n must be >= 1 for excess\n"


@pytest.mark.parametrize("argv", [("series", "check"), ("series-check",)])
def test_series_check_names_and_all_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--names", "catalan-quadratic", "--all", "--zorder", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --all: not allowed with argument --names" in err


def test_series_check_all_runs_every_check(capsys):
    code, out, _ = run_cli(capsys, "series", "check", "--all", "--zorder", "2", "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == sorted(checks_mod.CHECKS)


def test_resource_cap_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFLAGS_MAX_N", "abc")
    code, out, err = run_cli(capsys, "verify", "LEX_NN", "--n", "3")
    assert code == 2
    assert out == ""
    assert "ROOTFLAGS_MAX_N must be an integer, got 'abc'" in err


def test_resource_cap_env_must_not_be_negative(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFLAGS_MAX_N", "-3")
    for argv in (("verify", "LEX_NN"), ("faces", "--code", "LEX_NN")):
        code, out, err = run_cli(capsys, *argv, "--n", "3")
        assert code == 2
        assert out == ""
        assert "ROOTFLAGS_MAX_N must be >= 0, got '-3'" in err


@pytest.mark.parametrize(
    "argv",
    [("verify", "--all", "--n", "4"), ("series", "check"), ("series-check",)],
)
def test_jobs_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize("argv", [("series", "check"), ("series-check",)])
def test_series_check_rejects_negative_zorder(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--zorder", "-1")
    assert code == 2
    assert out == ""
    assert "error: --zorder must be >= 0, got -1" in err


def test_series_dump_rejects_negative_orders(capsys):
    for flag in ("--zorder", "--xyorder", "--uvorder"):
        code, out, err = run_cli(capsys, "series", "dump", "--which", "catalan", flag, "-1")
        assert code == 2
        assert out == ""
        assert f"error: {flag} must be >= 0, got -1" in err


def test_parser_is_built_once_and_calls_do_not_share_arguments(capsys):
    assert build_parser() is build_parser()
    # facets sets --refined on its own namespace; a later faces call must not see it
    code, _, _ = run_cli(capsys, "facets", "--code", "LEX_NN", "--n", "3", "--format", "json")
    assert code == 0
    code, out, _ = run_cli(capsys, "faces", "--code", "LEX_NN", "--n", "3", "--format", "json")
    assert code == 0
    assert "by_dimension" in json.loads(out)


@pytest.mark.parametrize("flag", ["--zorder", "--xyorder", "--uvorder", "--index"])
@pytest.mark.parametrize("value", [SERIES_ORDER_CAP + 1, 100000])
def test_series_dump_rejects_orders_above_the_cap(capsys, flag, value):
    code, out, err = run_cli(capsys, "series", "dump", "--which", "catalan", flag, str(value))
    assert code == 2
    assert out == ""
    assert (
        f"error: {flag} {value} exceeds the series order cap {SERIES_ORDER_CAP}; "
        "pass --force to lift it"
    ) in err


@pytest.mark.parametrize("argv", [("series", "check"), ("series-check",)])
@pytest.mark.parametrize("value", [SERIES_ORDER_CAP + 1, 100000])
def test_series_check_rejects_orders_above_the_cap(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--zorder", str(value))
    assert code == 2
    assert out == ""
    assert f"error: --zorder {value} exceeds the series order cap {SERIES_ORDER_CAP}" in err


def test_series_order_cap_is_inclusive_and_force_lifts_it(capsys):
    at_cap = str(SERIES_ORDER_CAP)
    above = str(SERIES_ORDER_CAP + 1)
    code, out, _ = run_cli(capsys, "series", "dump", "--which", "catalan", "--zorder", at_cap)
    assert code == 0 and len(out.splitlines()) == SERIES_ORDER_CAP + 2
    code, out, _ = run_cli(
        capsys, "series", "dump", "--which", "catalan", "--zorder", above, "--force"
    )
    assert code == 0 and len(out.splitlines()) == SERIES_ORDER_CAP + 3
    code, out, _ = run_cli(
        capsys, "series", "check", "--names", "catalan-quadratic", "--zorder", above,
        "--force", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["zorder"] == SERIES_ORDER_CAP + 1


def _match_argv(k):
    # I = 1..k onto J = k+1..2k: SIMION_C solves it in about 0.1 s at k = 17
    return (
        "match", "--rules", "SIMION_C",
        "--tails", ",".join(map(str, range(1, k + 1))),
        "--heads", ",".join(map(str, range(k + 1, 2 * k + 1))),
    )


@pytest.mark.parametrize("k", [MATCH_SIZE_CAP + 1, 25])
def test_match_rejects_more_tails_than_the_cap(capsys, k):
    code, out, err = run_cli(capsys, *_match_argv(k))
    assert code == 2
    assert out == ""
    assert (
        f"error: |I| = {k} exceeds the match size cap {MATCH_SIZE_CAP}; "
        "pass --force to lift it"
    ) in err


def test_match_size_cap_is_inclusive_and_force_lifts_it(capsys):
    for k, extra in ((MATCH_SIZE_CAP, ()), (MATCH_SIZE_CAP + 1, ("--force",))):
        code, out, _ = run_cli(capsys, *_match_argv(k), *extra, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matching"] == [[t, 2 * k + 1 - t] for t in range(1, k + 1)]
        assert payload["agrees_with_construction"] is True


@pytest.mark.parametrize("argv", [("--code", "LEX_NN"), ("--all-orbits",)])
@pytest.mark.parametrize("value", [EXCESS_N_CAP + 1, 100000])
def test_excess_rejects_n_above_the_cap(capsys, argv, value):
    code, out, err = run_cli(capsys, "excess", *argv, "--n", str(value))
    assert code == 2
    assert out == ""
    assert (
        f"error: --n {value} exceeds the excess size cap {EXCESS_N_CAP}; "
        "pass --force to lift it"
    ) in err


def test_excess_cap_is_inclusive_and_force_lifts_it(capsys):
    for n, extra in ((EXCESS_N_CAP, ()), (EXCESS_N_CAP + 1, ("--force",))):
        code, out, _ = run_cli(
            capsys, "excess", "--code", "LEX_NN", "--n", str(n), *extra, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == n and len(payload["degrees"]) == n * (n + 1)


@pytest.mark.parametrize("argv", [("5", "--table4"), ("5", "--all"), ("--all", "--table4")])
def test_classify_refuses_more_than_one_selection(capsys, argv):
    code, out, err = run_cli(capsys, "classify", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: classify needs exactly one of: codes, --all, --table4\n"


def test_verify_refuses_a_code_with_all(capsys):
    code, out, err = run_cli(capsys, "verify", "5", "--all", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: verify needs exactly one of: a code, --all\n"


def test_excess_refuses_a_code_with_all_orbits(capsys):
    code, out, err = run_cli(capsys, "excess", "--code", "LEX_NN", "--all-orbits", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: excess needs exactly one of: --code, --all-orbits\n"


@pytest.mark.parametrize("argv", [("series", "check"), ("series-check",)])
def test_series_check_names_needs_a_name(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--names"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --names: expected at least one argument" in err


def test_a_cold_cli_start_loads_neither_dataclasses_nor_inspect():
    # every CLI run is a fresh interpreter (here without site, so that only
    # the package's own imports count): importing the package and building
    # the parser must not pull in the reflective modules, which cost more
    # to load than a typical command takes
    script = "import sys, rootflags.cli; rootflags.cli.build_parser(); print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "rootflags.cli" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_a_closed_stdout_pipe_exits_141_without_a_traceback():
    # as in `rootflags ... | head`: the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rootflags.cli", "verify", "--all", "--n", "5"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
