"""End-to-end CLI tests: output formats, exit-code contract, determinism."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import pytest

from lefttail import bounds, cli
from lefttail.bounds import METHODS, NotStated
from lefttail.cli import build_parser, main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lefttail", *args],
        capture_output=True,
        text=True,
    )


class TestBoundCommand:
    def test_finite_bound_line(self):
        proc = run_cli("bound", "--lambda", "2", "--n", "4", "--method", "theorem1")
        assert proc.returncode == 0
        assert proc.stdout == "0.3125,first-max-term,false\n"

    def test_limit_bound_line(self):
        proc = run_cli("bound", "--lambda", "2", "--method", "theorem1-limit")
        assert proc.returncode == 0
        assert proc.stdout == "0.406006,first-max-term,false\n"

    def test_clamped_flag(self):
        proc = run_cli("bound", "--lambda", "0", "--method", "theorem1-limit")
        assert proc.returncode == 0
        value, branch, clamped = proc.stdout.strip().split(",")
        assert value == "1.0"
        assert clamped == "true"

    def test_domain_error_exits_2(self):
        for lam, method in (("-1", "corollary1"), ("nan", "theorem1-limit")):
            proc = run_cli("bound", "--lambda", lam, "--method", method)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr != ""

    def test_missing_n_exits_2(self):
        for method in ("theorem1", "hoeffding", "bentkus", "bentkus-simple"):
            proc = run_cli("bound", "--lambda", "2", "--method", method)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr != ""

    def test_unknown_method_exits_2(self):
        proc = run_cli("bound", "--lambda", "2", "--method", "chernoff")
        assert proc.returncode == 2

    def test_precision_override(self):
        proc = run_cli("bound", "--lambda", "2", "--method", "theorem1-limit", "--precision", "9")
        assert proc.stdout.split(",")[0] == "0.40600585"

    def test_huge_precision_is_clamped(self):
        # past 1074 digits, the longest exact expansion of a double, every
        # digit is a 0 that is stripped; 10^9 digits would be a 1 GB string
        args = ("bound", "--lambda", "2", "--n", "4", "--method", "bentkus")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "lefttail", *args, "--precision", "1000000000"],
            capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
        )
        assert proc.returncode == 0
        assert proc.stdout == run_cli(*args, "--precision", "1074").stdout
        for x in (5e-324, 2.0**-1022, 0.1, 1.0 / 3.0, 1e300):
            assert float(cli.format_value(x, 1074)) == x
            tracemalloc.start()
            try:
                assert cli.format_value(x, 10**7) == cli.format_value(x, 1074)
                assert tracemalloc.get_traced_memory()[1] < 100_000
            finally:
                tracemalloc.stop()


class TestCompareCommand:
    def test_header_and_reference_row(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli(
            "compare", "--lambda-min", "0.5", "--lambda-max", "2", "--step", "0.5",
            "--n", "4", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "lambda,n,theorem1,theorem1_limit,hoeffding,bentkus,bentkus_simple,corollary1"
        row = dict(zip(lines[0].split(","), lines[4].split(",")))
        assert row["lambda"] == "2.0"
        assert row["n"] == "4"
        assert row["theorem1"] == "0.3125"
        assert row["theorem1_limit"] == "0.406006"
        assert row["hoeffding"] == "0.84375"
        assert row["bentkus"] == "0.849463"
        assert row["bentkus_simple"] == "1.0"
        assert row["corollary1"] == "0.505195"

    def test_hoeffding_empty_below_one(self, tmp_path):
        out = tmp_path / "table.csv"
        run_cli("compare", "--lambda-min", "0.5", "--lambda-max", "0.5", "--step", "0.1",
                "--n", "4", "--out", str(out))
        fields = out.read_text().split("\n")[1].split(",")
        assert fields[2] == "1.0"  # finite-n bound is vacuous
        assert fields[4] == ""  # hoeffding column empty

    def test_bound_columns_ordered(self, tmp_path):
        out = tmp_path / "table.csv"
        run_cli("compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0.25",
                "--n", "4", "--out", str(out))
        for line in out.read_text().strip().split("\n")[1:]:
            fields = line.split(",")
            assert float(fields[2]) <= float(fields[7]) + 1e-12

    def test_raw_flag_exceeds_one(self):
        proc = run_cli("compare", "--lambda-min", "0", "--lambda-max", "0", "--step", "1",
                       "--n", "4", "--raw")
        fields = proc.stdout.strip().split("\n")[1].split(",")
        assert float(fields[3]) > 1.0  # raw limit at mean 0 is e

    def test_invalid_range_exits_2(self):
        proc = run_cli("compare", "--lambda-min", "3", "--lambda-max", "2", "--step", "0.5", "--n", "4")
        assert proc.returncode == 2

    def test_unwritable_path_exits_2(self, tmp_path):
        proc = run_cli("compare", "--lambda-min", "0", "--lambda-max", "1", "--step", "0.5",
                       "--n", "4", "--out", str(tmp_path / "missing" / "t.csv"))
        assert proc.returncode == 2

    def test_rejected_arguments_write_nothing(self, tmp_path):
        out = tmp_path / "t.csv"
        base = ("compare", "--lambda-min", "0", "--lambda-max", "0", "--step", "1")
        for extra in (("--n", "0"), ("--n", "4", "--precision", "-1"), ("--n", "4", "--step", "nan")):
            for target in ((), ("--out", str(out))):
                proc = run_cli(*base, *extra, *target)
                assert proc.returncode == 2, extra
                assert proc.stdout == "" and proc.stderr.startswith("error: "), extra
                assert not out.exists()

    def test_errors_name_the_argument(self):
        base = ("compare", "--lambda-min", "0", "--lambda-max", "1000000", "--n", "1000000")
        for extra, name in ((("--step", "nan"), "--step"), (("--step", "1e-9"), "--step"),
                            (("--step", "1e-320"), "--step"), (("--step", "1", "--precision", "-1"), "--precision")):
            proc = run_cli(*base, *extra)
            assert proc.returncode == 2 and proc.stdout == "", extra
            assert proc.stderr.startswith("error: ") and name in proc.stderr, proc.stderr
        # a negative seed passes argparse's int type and is refused by the sampler's set-up
        spec = str(pathlib.Path(__file__).with_name("data") / "mc_spec.json")
        proc = run_cli("mc", "--spec", spec, "--trials", "20000", "--seed", "-1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"

    def test_row_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_COMPARE_ROWS", 5)
        argv = ["compare", "--lambda-min", "0", "--lambda-max", "1", "--n", "4", "--step"]
        assert main(argv + ["0.25"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert main(argv + ["0.2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "6 rows, over the budget of 5" in err

    def test_memory_does_not_grow_with_the_table(self):
        def peak(rows):
            argv = ["compare", "--lambda-min", "1", "--lambda-max", str(1 + (rows - 1) * 1e-3), "--step", "0.001", "--n", "100"]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # 6000 rows are about 0.5 MB of CSV
        assert peak(6000) < 1.25 * peak(600) + 16_000

    def test_whole_table_pinned(self):
        # covers the column order and both blank-cell rules
        base = ("compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0.25", "--n", "4")
        assert run_cli(*base).stdout == COMPARE_N4
        assert run_cli(*base, "--raw").stdout == COMPARE_N4_RAW


class TestMethodRegistry:
    def test_order(self):
        assert list(METHODS) == ["theorem1", "theorem1-limit", "hoeffding", "bentkus", "bentkus-simple", "corollary1"]

    def test_cli_reads_the_registry(self, capsys):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["bound"]._actions if a.dest == "method")
        assert list(method.choices) == list(METHODS)
        assert main(["compare", "--lambda-min", "0", "--lambda-max", "0", "--step", "1", "--n", "4"]) == 0
        header = capsys.readouterr().out.split("\n")[0].split(",")
        assert header[2:] == [name.replace("-", "_") for name in METHODS]

    @pytest.mark.parametrize("raw", [False, True])
    def test_blank_cells_are_exactly_the_not_stated_ones(self, raw, capsys):
        # the ranges hold means below 1 and each n's top mean, lambda = n
        blanks = set()
        for n, lo, hi, step in ((1, 0, 1, 0.125), (2, 0, 2, 0.125), (4, 0, 4, 0.25), (10**6, 999_997, 10**6, 0.5)):
            argv = ["compare", "--lambda-min", str(lo), "--lambda-max", str(hi), "--step", str(step), "--n", str(n)]
            assert main(argv + ["--raw"] * raw) == 0
            for line in capsys.readouterr().out.splitlines()[1:]:
                lam_text, _, *cells = line.split(",")
                lam = lo + step * round((float(lam_text) - lo) / step)
                for (tag, evaluate), cell in zip(METHODS.items(), cells):
                    try:
                        res = evaluate(lam, n)
                    except NotStated:
                        assert cell == "", (n, lam, tag)
                        blanks.add((tag, lam < 1, lam == n))
                    else:
                        assert cell == cli.format_value(res.raw if raw else res.value), (n, lam, tag)
        assert blanks == {("hoeffding", True, False), ("bentkus-simple", False, True)}

    def test_compare_exits_2_on_any_other_error(self, monkeypatch, capsys):
        # only NotStated leaves a cell blank; another ValueError is an error
        def broken(lam, n):
            raise ValueError("broken comparator")

        monkeypatch.setattr(bounds, "hoeffding_bound", broken)
        assert main(["compare", "--lambda-min", "1", "--lambda-max", "2", "--step", "1", "--n", "4"]) == 2
        assert capsys.readouterr() == ("", "error: broken comparator\n")


COMPARE_N4 = """\
lambda,n,theorem1,theorem1_limit,hoeffding,bentkus,bentkus_simple,corollary1
0.0,4,1.0,1.0,,1.0,1.0,1.0
0.25,4,1.0,1.0,,1.0,1.0,1.0
0.5,4,1.0,1.0,,1.0,1.0,1.0
0.75,4,1.0,1.0,,1.0,1.0,1.0
1.0,4,1.0,1.0,1.0,1.0,1.0,1.0
1.25,4,0.770255,0.778801,1.0,1.0,1.0,0.94956
1.5,4,0.578704,0.606531,1.0,1.0,1.0,0.769428
1.75,4,0.421875,0.477878,0.93866,1.0,1.0,0.623467
2.0,4,0.3125,0.406006,0.84375,0.849463,1.0,0.505195
2.25,4,0.225052,0.342547,0.73114,0.611754,1.0,0.409359
2.5,4,0.151611,0.287297,0.610352,0.412122,1.0,0.331703
2.75,4,0.09346,0.239729,0.489441,0.254051,1.0,0.268779
3.0,4,0.050781,0.199148,0.375,0.138038,1.0,0.217792
3.25,4,0.022659,0.16479,0.272156,0.061594,1.0,0.176476
3.5,4,0.00708,0.135888,0.18457,0.019246,1.0,0.142999
3.75,4,0.000931,0.111709,0.114441,0.00253,1.0,0.115872
4.0,4,0.0,0.091578,0.0625,0.0,,0.093891
"""

COMPARE_N4_RAW = """\
lambda,n,theorem1,theorem1_limit,hoeffding,bentkus,bentkus_simple,corollary1
0.0,4,1.0,2.718282,,2.718282,2.718282,2.718282
0.25,4,1.0,2.117,,2.659757,2.822667,2.202622
0.5,4,1.0,1.648721,,2.503925,2.826379,1.784784
0.75,4,1.0,1.284025,,2.278162,2.765593,1.446209
1.0,4,1.0,1.0,1.0,2.006857,2.666667,1.171862
1.25,4,0.770255,0.778801,1.029968,1.711411,2.548803,0.94956
1.5,4,0.578704,0.606531,1.004883,1.410241,2.426123,0.769428
1.75,4,0.421875,0.477878,0.93866,1.118778,2.309348,0.623467
2.0,4,0.3125,0.406006,0.84375,0.849463,2.207277,0.505195
2.25,4,0.225052,0.342547,0.73114,0.611754,2.128321,0.409359
2.5,4,0.151611,0.287297,0.610352,0.412122,2.082548,0.331703
2.75,4,0.09346,0.239729,0.489441,0.254051,2.085287,0.268779
3.0,4,0.050781,0.199148,0.375,0.138038,2.165365,0.217792
3.25,4,0.022659,0.16479,0.272156,0.061594,2.389049,0.176476
3.5,4,0.00708,0.135888,0.18457,0.019246,2.95506,0.142999
3.75,4,0.000931,0.111709,0.114441,0.00253,4.858517,0.115872
4.0,4,0.0,0.091578,0.0625,0.0,,0.093891
"""


class TestVerifyCommand:
    def test_tightness_two_lines(self):
        proc = run_cli("verify", "tightness", "--lambda", "2", "--n", "4")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            claim, passed, violation, points = line.split(",")
            assert claim.startswith("tightness-")
            assert passed == "true"
            assert float(violation) <= 1e-12
            assert points == "1"

    def test_tightness_at_large_n(self):
        proc = run_cli("verify", "tightness", "--lambda", "1", "--n", "10000")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert [line.split(",")[:2] for line in lines] == [
            ["tightness-first-max-term", "true"],
            ["tightness-second-max-term", "true"],
        ]

    def test_lemma4_passes(self):
        proc = run_cli("verify", "lemma4", "--n", "3", "--lambda", "2", "--resolution", "0.02")
        assert proc.returncode == 0
        claim, passed, violation, points = proc.stdout.strip().split(",")
        assert (claim, passed) == ("lemma4", "true")
        assert int(points) > 0

    def test_two_point_passes(self):
        proc = run_cli("verify", "two-point", "--n", "2", "--lambda", "1.5", "--resolution", "0.05")
        assert proc.returncode == 0
        assert proc.stdout.startswith("two-point,true,")

    def test_two_point_four_summands(self):
        proc = run_cli("verify", "two-point", "--n", "4", "--lambda", "2", "--resolution", "0.2")
        assert proc.returncode == 0
        assert proc.stdout == "two-point,true,0.000000e+00,124207\n"

    @pytest.mark.parametrize("target, search, resolution", [("lemma4", "maximize_bernoulli_tail", "0.1"),
                                                            ("two-point", "maximize_two_point", "0.5")])
    @pytest.mark.parametrize("excess, passed, code", [(1e-13, "true", 0), (1e-10, "false", 1)])
    def test_search_is_judged_by_closed_form_tol(self, target, search, resolution, excess, passed, code, monkeypatch,
                                                 capsys):
        # a search passes iff its maximum exceeds the bound by at most
        # CLOSED_FORM_TOL, the rule of tightness, the grid claims and mc
        from lefttail import oracles

        found = getattr(oracles, search)

        def over(n, lam, resolution):
            rep = found(n, lam, resolution)
            return dataclasses.replace(rep, max_value=rep.bound_value + excess)

        monkeypatch.setattr(oracles, search, over)
        assert main(["verify", target, "--n", "2", "--lambda", "1.5", "--resolution", resolution]) == code
        check, ok, violation, points = capsys.readouterr().out.strip().split(",")
        assert (check, ok) == (target, passed)
        assert float(violation) == pytest.approx(excess, rel=1e-3)

    def test_one_pass_rule_and_dispatch_from_the_parser(self):
        assert not hasattr(cli, "SLACK_TOL") and not hasattr(cli, "_HANDLERS")

    def test_non_finite_resolution_exits_2(self):
        for target, resolution in (("two-point", "inf"), ("two-point", "nan"), ("lemma4", "inf"), ("lemma4", "nan")):
            proc = run_cli("verify", target, "--n", "2", "--lambda", "1.5", "--resolution", resolution)
            assert proc.returncode == 2, (target, resolution)
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: resolution must be in ")

    def test_inequalities_seven_lines(self):
        proc = run_cli("verify", "inequalities", "--n-max", "50", "--lambda-step", "0.05")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 7
        assert all(line.split(",")[1] == "true" for line in lines)

    def test_inequalities_claim_without_points_fails(self):
        # at this step FG-order's mean grid (1, 2/sqrt(3)) is empty
        proc = run_cli("verify", "inequalities", "--n-max", "12", "--lambda-step", "0.7")
        assert proc.returncode == 1
        assert "FG-order,false,0.000000e+00,0" in proc.stdout.split("\n")
        assert sum(line.split(",")[1] == "false" for line in proc.stdout.strip().split("\n")) == 1

    def test_inequalities_bad_n_max_exits_2(self):
        for n_max in ("0", "-3"):
            proc = run_cli("verify", "inequalities", "--n-max", n_max)
            assert proc.returncode == 2 and proc.stdout == "", n_max
            assert proc.stderr.startswith("error: n must be a positive integer")

    def test_unknown_target_exits_2(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 2


class TestSolveRCommand:
    def test_constants_line(self):
        proc = run_cli("solve-r", "--tol", "1e-12", "--precision", "9")
        assert proc.returncode == 0
        a0, r, iterations, residual = proc.stdout.strip().split(",")
        assert abs(float(a0) - 0.158594) < 1e-6
        assert abs(float(r) - 0.841405) < 1e-6
        assert int(iterations) > 0
        assert float(residual) <= 1e-12

    def test_out_of_range_tolerance_exits_2(self):
        proc = run_cli("solve-r", "--tol", "0.5")
        assert proc.returncode == 2


class TestMcCommand:
    @pytest.fixture
    def tight_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"type": "two-point", "low": 0, "high": 1, "p": 0.5}] * 4))
        return str(path)

    def test_tight_case_passes(self, tight_spec):
        proc = run_cli("mc", "--spec", tight_spec, "--trials", "200000", "--seed", "42")
        assert proc.returncode == 0
        est, ci, bound, ok = proc.stdout.strip().split(",")
        assert abs(float(est) - 0.3125) <= float(ci)
        assert float(bound) == pytest.approx(0.3125, abs=1e-6)
        assert ok == "true"

    def test_seed_reproducibility_bytes(self, tight_spec):
        a = run_cli("mc", "--spec", tight_spec, "--trials", "50000", "--seed", "9")
        b = run_cli("mc", "--spec", tight_spec, "--trials", "50000", "--seed", "9")
        assert a.stdout == b.stdout

    # stdout bytes as the searchsorted inverse transform printed them: a
    # faster sampler must draw the same atoms
    PINNED = (
        (
            # a 20-summand mix like the benchmark's sweep workload
            [
                {"type": "discrete", "points": [0.0, 0.35, 0.45], "probs": [0.9569000000000001, 0.0286, 0.0145]},
                {"type": "two-point", "low": 0.0, "high": 0.25, "p": 0.0236},
                {"type": "discrete", "points": [0.0, 0.25, 0.65], "probs": [0.9068999999999999, 0.06, 0.0331]},
                {"type": "two-point", "low": 0.0, "high": 1.0, "p": 0.0434},
                {"type": "two-point", "low": 0.0, "high": 0.2, "p": 0.1032},
                {"type": "two-point", "low": 0.0, "high": 0.45, "p": 0.1004},
                {"type": "discrete", "points": [0.0, 0.25, 0.3], "probs": [0.9374, 0.047, 0.0156]},
                {"type": "discrete", "points": [0.0, 0.25, 1.0], "probs": [0.9199, 0.0525, 0.0276]},
                {"type": "discrete", "points": [0.0, 0.05, 0.7], "probs": [0.8934, 0.0576, 0.049]},
                {"type": "two-point", "low": 0.05, "high": 0.9, "p": 0.0791},
                {"type": "two-point", "low": 0.05, "high": 0.45, "p": 0.0294},
                {"type": "discrete", "points": [0.0, 0.45, 0.55], "probs": [0.9534, 0.0431, 0.0035]},
                {"type": "discrete", "points": [0.0, 0.1, 0.5], "probs": [0.9076, 0.0766, 0.0158]},
                {"type": "discrete", "points": [0.0, 0.35, 1.0], "probs": [0.9427, 0.0258, 0.0315]},
                {"type": "discrete", "points": [0.0, 0.05, 0.4], "probs": [0.9122, 0.0878, 0.0]},
                {"type": "two-point", "low": 0.05, "high": 0.9, "p": 0.0652},
                {"type": "uniform", "lo": 0.0, "hi": 0.25},
                {"type": "two-point", "low": 0.0, "high": 0.2, "p": 0.0978},
                {"type": "two-point", "low": 0.0, "high": 0.8, "p": 0.1165},
                {"type": "two-point", "low": 0.05, "high": 0.4, "p": 0.0291},
            ],
            ["--trials", "100000", "--seed", "2012"],
            "0.59592000000000001,0.00465531328956495,1.0,true\n",
        ),
        (
            # point masses, equal cuts, a cumsum below 1 and 40 atoms
            [
                {"type": "two-point", "low": 0.1, "high": 0.6, "p": 0.0},
                {"type": "two-point", "low": 0.0, "high": 0.3, "p": 1.0},
                {"type": "two-point", "low": 0.2, "high": 0.2, "p": 0.5},
                {"type": "discrete", "points": [0.05], "probs": [1.0]},
                {"type": "discrete", "points": [k / 40 for k in range(40)], "probs": [0.025] * 40},
                {"type": "discrete", "points": [k / 10 for k in range(10)], "probs": [0.1] * 10},
                {"type": "uniform", "lo": 0.0, "hi": 0.5},
            ],
            ["--trials", "50000", "--seed", "7"],
            "0.02232,0.00198189988849084,0.41433286333303426,true\n",
        ),
    )

    @pytest.mark.parametrize("spec, args, stdout", PINNED)
    def test_pinned_output_bytes(self, spec, args, stdout, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("mc", "--spec", str(path), *args, "--precision", "17")
        assert proc.returncode == 0
        assert proc.stdout == stdout

    def test_draw_budget(self, monkeypatch, capsys):
        # the spec has 4 summands, so 1000 trials are 4000 draws
        from lefttail import oracles

        monkeypatch.setattr(oracles, "MAX_GRID_POINTS", 4000)
        argv = ["mc", "--spec", str(pathlib.Path(__file__).with_name("data") / "mc_spec.json"), "--trials"]
        assert main(argv + ["1000"]) == 0
        assert capsys.readouterr().out == "0.473,0.047365,0.926859,true\n"
        assert main(argv + ["1001"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: 1001 trials of 4 summands are over the budget of 4000 draws\n"

    def test_mean_rounded_above_n_is_capped(self):
        # the probabilities sum to 1 + 1e-13, within the 1e-12 that Discrete
        # accepts, so the float mean is 1.0000000000001 at n = 1
        spec = pathlib.Path(__file__).with_name("data") / "mc_mean_overshoot.json"
        proc = run_cli("mc", "--spec", str(spec), "--trials", "1000")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.0,0.0,1.0,true\n", "")

    def test_malformed_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("mc", "--spec", str(bad), "--trials", "10000")
        assert proc.returncode == 2

    def test_mistyped_field_exits_2(self, tmp_path):
        mistyped = (
            {"type": "discrete", "points": 5, "probs": [1]},
            {"type": "two-point", "low": None, "high": 1, "p": 0.5},
            {"type": "uniform", "lo": "x", "hi": 1},
            {"type": "discrete", "points": ["a"], "probs": [1]},
            {"type": "two-point", "low": 0, "high": 1, "p": "0.5"},
            {"type": "two-point", "low": 0, "high": 1, "p": True},
            {"type": "uniform", "lo": 10**400, "hi": 1},
        )
        for entry in mistyped:
            spec = tmp_path / "mistyped.json"
            spec.write_text(json.dumps([entry]))
            proc = run_cli("mc", "--spec", str(spec), "--trials", "10000")
            assert proc.returncode == 2 and proc.stdout == "", entry
            assert proc.stderr.startswith("error: entry 0 "), proc.stderr

    def test_empty_spec_exits_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        proc = run_cli("mc", "--spec", str(empty), "--trials", "10000")
        assert proc.returncode == 2

    def test_missing_file_exits_2(self):
        proc = run_cli("mc", "--spec", "/nonexistent/spec.json", "--trials", "10000")
        assert proc.returncode == 2
