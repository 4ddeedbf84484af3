"""CLI: commands, exit codes, and deterministic machine-readable output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from coadinv.cli import main


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


SL2_CATALOG = """
[algebra]
name = "sl2"
dim = 3
bracket [1,2] = 2*X2
bracket [1,3] = -2*X3
bracket [2,3] = X1
invariant "x1^2 + 4*x2*x3"

[algebra]
name = "abelian3"
dim = 3
invariant "x1"
"""


@pytest.fixture()
def small_catalog(tmp_path):
    path = tmp_path / "small.lie"
    path.write_text(SL2_CATALOG, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_single_algebra_passes(self, run):
        code, out, _ = run("check", "--algebra", "L_6,1")
        assert code == 0
        assert "L_6,1" in out and "PASS" in out

    def test_unknown_algebra(self, run):
        code, _, err = run("check", "--algebra", "NONE")
        assert code == 1
        assert "unknown algebra" in err

    def test_full_catalog_passes_with_expected_failures_reported(self, run):
        code, out, _ = run("check")
        assert code == 0
        assert "EXPECTED-FAIL" in out  # typo-flagged rows are reported, not hidden

    def test_corrupted_record_fails_with_exit_2(self, run, tmp_path):
        path = tmp_path / "bad.lie"
        path.write_text("""
[algebra]
name = "broken"
dim = 3
bracket [1,2] = X1
bracket [1,3] = X3
""", encoding="utf-8")
        code, out, _ = run("--catalog", str(path), "check")
        assert code == 2
        assert "VIOLATED" in out

    def test_missing_catalog_is_usage_error(self, run):
        code, _, err = run("--catalog", "/nonexistent/x.lie", "check")
        assert code == 1

    def test_expected_jacobi_failure_marker(self, run, tmp_path):
        path = tmp_path / "corrupt.lie"
        path.write_text("""
[algebra]
name = "corrupted"
dim = 3
bracket [1,2] = X1
bracket [1,3] = X3
note "expect-jacobi-fail: constant deliberately corrupted"
""", encoding="utf-8")
        code, out, _ = run("--catalog", str(path), "check")
        assert code == 0
        assert "VIOLATED" in out and "EXPECTED-FAIL" in out


class TestRank:
    def test_L81(self, run):
        code, out, _ = run("rank", "--algebra", "L_8,1")
        assert code == 0
        assert "dim=8 rank=6 N=2" in out

    def test_L51(self, run):
        code, out, _ = run("rank", "--algebra", "L_5,1")
        assert code == 0 and "N=1" in out

    def test_abelian_record(self, run, small_catalog):
        code, out, _ = run("--catalog", small_catalog, "rank", "--algebra", "abelian3")
        assert code == 0
        assert "rank=0 N=3" in out

    def test_set_override(self, run):
        code, out, _ = run("rank", "--algebra", "L_8,1", "--set", "p=5")
        assert code == 0 and "N=2" in out

    def test_constraint_violation_is_usage_error(self, run):
        code, _, err = run("rank", "--algebra", "L_8,1", "--set", "p=0")
        assert code == 1 and "nonzero" in err


class TestSearch:
    def test_L61_degree_two(self, run):
        code, out, _ = run("search", "--algebra", "L_6,1", "--degree", "2")
        assert code == 0
        assert "basis_size=2" in out

    def test_sl2_degree_one_empty(self, run, small_catalog):
        code, out, _ = run("--catalog", small_catalog, "search",
                           "--algebra", "sl2", "--degree", "1")
        assert code == 0
        assert "basis_size=0" in out

    def test_degree_zero_is_usage_error(self, run):
        code, _, err = run("search", "--algebra", "L_6,1", "--degree", "0")
        assert code == 1
        assert "degree" in err


class TestWeightsAndCombine:
    def test_L81_weight_ratio(self, run):
        code, out, _ = run(
            "weights", "--algebra", "L_8,1", "--ops", "8",
            "x4^2+x5^2+x6^2", "x1*x4+x2*x5+x3*x6", "x7")
        assert code == 0
        lines = [l for l in out.splitlines() if "weights" in l]
        assert "op8=-2" in lines[0]
        assert "op8=-1" in lines[1]
        assert "op8=-2" in lines[2]

    def test_weights_of_sum_on_abelian(self, run, small_catalog):
        code, out, _ = run("--catalog", small_catalog, "weights",
                           "--algebra", "abelian3", "x1+x2")
        assert code == 0
        assert "op1=0" in out and "op2=0" in out and "op3=0" in out

    def test_not_semi_invariant_reported(self, run):
        code, out, _ = run("weights", "--algebra", "L_8,1", "--ops", "8", "x4+x7")
        assert code == 0
        assert "not a semi-invariant" in out

    def test_combine_produces_two_products(self, run):
        code, out, _ = run(
            "combine", "--algebra", "L_8,1", "--ops", "8",
            "x4^2+x5^2+x6^2", "x1*x4+x2*x5+x3*x6", "x7")
        assert code == 0
        assert "zero-weight products (2)" in out

    def test_combine_rejects_non_semi_invariant(self, run):
        code, out, _ = run("combine", "--algebra", "L_8,1", "--ops", "8", "x4+x7")
        assert code == 2

    def test_weights_of_zero_is_usage_error(self, run):
        code, out, err = run("weights", "--algebra", "L_8,1", "0")
        assert code == 1
        assert out == ""
        assert err == "error: expression '0': must be nonzero\n"

    def test_combine_of_zero_is_usage_error(self, run):
        code, out, err = run("combine", "--algebra", "L_8,1", "x7", "0")
        assert code == 1
        assert out == ""
        assert err == "error: expression '0': must be nonzero\n"

    @pytest.mark.parametrize("command", ["weights", "combine"])
    @pytest.mark.parametrize("text", ["x1/0", "0^-1"])
    def test_division_by_zero_is_usage_error(self, run, command, text):
        code, out, err = run(command, "--algebra", "L_8,1", "x7", text)
        assert code == 1
        assert out == ""
        assert err == f"error: expression {text!r}: division by zero polynomial\n"

    @pytest.mark.parametrize("items", [["x7", "x7"], ["x7^3", "x7^3"]])
    def test_combine_drops_constant_products(self, run, items):
        code, out, _ = run("combine", "--algebra", "L_8,1", "--ops", "8", *items)
        assert code == 0
        assert out == "zero-weight products (0):\n"

    def test_combine_two_parameter_algebra(self, run):
        # L_8,7 at p=2, q=3: cubic has weight -2, x6 weight -2, x7 weight -3
        code, out, _ = run(
            "combine", "--algebra", "L_8,7", "--set", "p=2", "--set", "q=3",
            "--ops", "8", "x3*x4^2-x1*x4*x5-x2*x5^2", "x6", "x7")
        assert code == 0
        assert "zero-weight products (2)" in out


class TestHeisenberg:
    def test_L82_passes(self, run):
        code, out, _ = run("heisenberg", "--algebra", "L_8,2")
        assert code == 0
        assert "symbolic-pass" in out

    def test_L81_structure_error(self, run):
        code, _, err = run("heisenberg", "--algebra", "L_8,1")
        assert code == 2
        assert "structure error" in err

    def test_L72_structure_error(self, run):
        code, _, err = run("heisenberg", "--algebra", "L_7,2")
        assert code == 2


class TestOutputFormats:
    def test_jsonl_is_valid_and_deterministic(self, run):
        code1, out1, _ = run("--format", "jsonl", "--seed", "1", "check",
                             "--algebra", "L_8,1")
        code2, out2, _ = run("--format", "jsonl", "--seed", "1", "check",
                             "--algebra", "L_8,1")
        assert code1 == code2 == 0
        assert out1 == out2
        rec = json.loads(out1.strip())
        assert rec["algebra"] == "L_8,1" and rec["passed"] is True

    def test_text_and_jsonl_agree_on_facts(self, run):
        _, text_out, _ = run("check", "--algebra", "L_6,1")
        _, json_out, _ = run("--format", "jsonl", "check", "--algebra", "L_6,1")
        rec = json.loads(json_out.strip())
        assert f"N={rec['n_invariants']}" in text_out
        assert f"independence={rec['independence_rank']}" in text_out

    def test_rank_jsonl(self, run):
        _, out, _ = run("--format", "jsonl", "rank", "--algebra", "L_8,1")
        rec = json.loads(out.strip())
        assert rec == {"algebra": "L_8,1", "dim": 8, "rank": 6, "n_invariants": 2}


GOLDEN_CHECK = Path(__file__).parent / "data" / "check_seed1.jsonl"


def _without_numeric_residuals(lines):
    """Parsed jsonl records; numeric residuals are libm floats, so dropped."""
    out = []
    for line in lines:
        rec = json.loads(line)
        for chk in rec["checks"]:
            if chk["mode"] == "numeric":
                del chk["residual"]
        out.append(rec)
    return out


class TestGoldenOutput:
    def test_check_catalog_matches_golden_jsonl(self, run):
        code, out, _ = run("check", "--format", "jsonl", "--seed", "1")
        assert code == 0
        got = _without_numeric_residuals(out.splitlines())
        want = _without_numeric_residuals(
            GOLDEN_CHECK.read_text(encoding="utf-8").splitlines())
        assert len(got) == len(want) == 37
        for g, w in zip(got, want):
            assert g == w, w["algebra"]


GOLDEN_SEARCH = Path(__file__).parent / "data" / "search_deg4.jsonl"
GOLDEN_SEARCH_6 = Path(__file__).parent / "data" / "search_deg6.jsonl"


class TestGoldenSearch:
    def test_search_degree_four_matches_golden_jsonl(self, run):
        self._check(run, GOLDEN_SEARCH, "4")

    def test_search_degree_six_matches_golden_jsonl(self, run):
        # generated before the search was restricted to weight-0 monomials
        self._check(run, GOLDEN_SEARCH_6, "6")

    @staticmethod
    def _check(run, path, degree):
        want = path.read_text(encoding="utf-8").splitlines()
        assert len(want) == 37
        for line in want:
            name = json.loads(line)["algebra"]
            code, out, _ = run("search", "--algebra", name, "--degree", degree,
                               "--format", "jsonl")
            assert code == 0
            assert out.splitlines() == [line], name


GOLDEN_CLI = Path(__file__).parent / "data" / "cli_seed1.jsonl"


class TestGoldenCommands:
    def test_rank_heisenberg_weights_combine_match_golden(self, run):
        # rank and heisenberg on every record, the README weights and
        # combine examples and a two-parameter combine: argv, exit code and
        # jsonl stdout per line
        want = [json.loads(line) for line in
                GOLDEN_CLI.read_text(encoding="utf-8").splitlines()]
        assert len(want) == 77
        for case in want:
            code, out, _ = run(*case["argv"])
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


class TestUsage:
    def test_no_command(self, run):
        code, _, err = run()
        assert code == 1

    def test_bad_set_value(self, run):
        code, _, err = run("rank", "--algebra", "L_8,1", "--set", "p=abc")
        assert code == 1

    def test_bad_trials(self, run):
        code, _, err = run("--trials", "0", "check")
        assert code == 1

    def test_bad_ops(self, run):
        code, _, err = run("weights", "--algebra", "L_8,1", "--ops", "9", "x7")
        assert code == 1
