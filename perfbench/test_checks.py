"""Self-tests of the benchmark: its references and that every check can fail.

    python3 -m pytest -q perfbench/test_checks.py

The reference computations are pinned to known values, each check passes
on real program output, and each check rejects a perturbed copy of that
output.  A check that cannot fail would show nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import lefttail as lt  # noqa: E402
import lefttail.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cli_text(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert lefttail.cli.main(list(argv)) == 0
    return buf.getvalue()


# ------------------------------------------------------------ references


def test_known_values():
    assert checks.finite_n(2.0, 4) == Fraction(5, 16)
    assert abs(checks.finite_n(2.0, 3) - Fraction(7, 27)) < 1e-40
    assert checks.bernoulli_tail([Fraction(2, 3)] * 3) == Fraction(7, 27)
    assert abs(checks.decay_root() - 0.158594) < 5e-7
    assert abs(checks.decay_root() - checks.mp.exp(checks.decay_root() - 2)) < 1e-40
    poisson = 3 * math.exp(-2)
    assert abs(checks.limit_raw(2.0) - poisson) < 1e-15
    assert abs(checks.binomial_branch(2.0, 10**9) - poisson) < 1e-8
    assert abs(checks.crossover(10**9) - (math.e - 1)) < 1e-8
    assert checks.finite_n(1.0, 5) == 1 and checks.finite_n(5.0, 5) == 0


def test_exact_tails():
    assert checks.two_point_tail([(0.0, 1.0, 0.5)] * 2) == Fraction(3, 4)
    # 0.1 + 0.9 is 1 only within the program's tie tolerance
    assert checks.two_point_tail([(0.1, 0.1, 0.0), (0.9, 0.9, 0.0)]) == 1
    half = [(0, Fraction(1, 2)), (20, Fraction(1, 2))]
    assert checks.atoms_tail([half]) == 1
    assert checks.atoms_tail([half, half]) == Fraction(3, 4)
    assert checks.atoms_tail([half], uniform=(0.0, 1.0)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        checks.grid_units(0.123)


# ----------------------------------------------------- real output passes


@pytest.fixture(scope="module")
def outputs():
    mc_spec = workloads.mixed_spec(workloads.random.Random(3))
    triples = [(0.0, 0.25, 0.3), (0.05, 0.5, 0.2), (0.0, 1.0, 0.1)] * 3
    return {
        "simplex": lt.maximize_bernoulli_tail(3, 1.5, 0.02),
        "two-point": lt.maximize_two_point(2, 1.5, 0.1),
        "claims": lt.run_all_checks(30, 0.05),
        "mc": lt.monte_carlo_tail(lt.parse_dist_specs(mc_spec), 200_000, 7),
        "mc_spec": mc_spec,
        "tp_triples": triples,
        "tp": lt.two_point_tail([lt.TwoPoint(*t) for t in triples]),
        "bound": cli_text("bound", "--lambda", "2.5", "--n", "4", "--method", "theorem1", "--precision", "10"),
        "compare": cli_text("compare", "--lambda-min", "0", "--lambda-max", "5", "--step", "0.25", "--n", "5"),
        "solve-r": cli_text("solve-r", "--tol", "1e-12"),
        "tightness": cli_text("verify", "tightness", "--lambda", "2", "--n", "4"),
    }


def test_checks_pass_on_program_output(outputs):
    o = outputs
    assert checks.check_simplex(o["simplex"], 3, 1.5) == []
    assert checks.check_two_point(o["two-point"], 2, 1.5, 0.1) == []
    assert checks.check_claims(o["claims"], 0.05) == []
    assert checks.check_mc(o["mc"], o["mc_spec"], 200_000) == []
    assert checks.check_two_point_tail(o["tp"], o["tp_triples"]) == []
    assert checks.check_bound(o["bound"], "theorem1", 2.5, 4, 10) == []
    assert checks.check_compare(o["compare"], 5, 0.25, 21, False) == []
    assert checks.check_solve_r(o["solve-r"], 1e-12, 6) == []
    assert checks.check_tightness(o["tightness"], 4) == []


def test_cli_checks_pass_across_methods():
    for method, n in (("theorem1-limit", None), ("hoeffding", 1000), ("bentkus", 10**6), ("bentkus-simple", 4), ("corollary1", None)):
        argv = ["bound", "--lambda", "3.25", "--method", method] + ([] if n is None else ["--n", str(n)])
        assert checks.check_bound(cli_text(*argv), method, 3.25, n, 6) == []
    raw = cli_text("compare", "--lambda-min", "0", "--lambda-max", "30", "--step", "0.5", "--n", "1000000", "--raw")
    assert checks.check_compare(raw, 10**6, 0.5, 61, True) == []


# -------------------------------------------------- perturbed output fails


def test_search_checks_reject_perturbations(outputs):
    s = outputs["simplex"]
    assert checks.check_simplex(dataclasses.replace(s, max_value=s.max_value + 1e-6), 3, 1.5)
    q = (s.argmax.q[0] - 0.01,) + s.argmax.q[1:]
    assert checks.check_simplex(dataclasses.replace(s, argmax=dataclasses.replace(s.argmax, q=q, target_sum=sum(q))), 3, 1.5)
    t = outputs["two-point"]
    assert checks.check_two_point(dataclasses.replace(t, max_value=t.max_value + 1e-6), 2, 1.5, 0.1)
    assert checks.check_two_point(dataclasses.replace(t, max_value=t.max_value - 0.05), 2, 1.5, 0.1)
    far = (lt.TwoPoint(0.0, 1.0, 0.1),) * 2
    assert checks.check_two_point(dataclasses.replace(t, argmax=far), 2, 1.5, 0.1)


def test_sweep_checks_reject_perturbations(outputs):
    claims = outputs["claims"]
    failed = [dataclasses.replace(claims[0], passed=False)] + claims[1:]
    assert checks.check_claims(failed, 0.05)
    shifted = claims[:3] + [dataclasses.replace(claims[3], worst_violation=claims[3].worst_violation + 1e-6)] + claims[4:]
    assert checks.check_claims(shifted, 0.05)
    assert checks.check_claims(claims[:-1], 0.05)
    est, spec = outputs["mc"], outputs["mc_spec"]
    se = math.sqrt(est.estimate * (1 - est.estimate) / 200_000)
    assert checks.check_mc(dataclasses.replace(est, estimate=est.estimate + 6 * se), spec, 200_000)
    assert checks.check_mc(dataclasses.replace(est, ci_halfwidth=2 * est.ci_halfwidth), spec, 200_000)
    assert checks.check_two_point_tail(outputs["tp"] + 1e-9, outputs["tp_triples"])


def test_cli_checks_reject_perturbations(outputs):
    value, branch, clamped = outputs["bound"].strip().split(",")
    assert checks.check_bound(f"{float(value) + 1e-6:.10f},{branch},{clamped}", "theorem1", 2.5, 4, 10)
    assert checks.check_bound(f"{value},second-max-term,{clamped}", "theorem1", 2.5, 4, 10)
    assert checks.check_bound(f"{value},{branch},true", "theorem1", 2.5, 4, 10)
    lines = outputs["compare"].splitlines()
    swapped = [lines[0]] + [",".join(f[:2] + [f[7]] + f[3:7] + [f[2]]) for f in (ln.split(",") for ln in lines[1:])]
    assert checks.check_compare("\n".join(swapped), 5, 0.25, 21, False)
    filled = lines[:2] + [lines[2].replace(",,", ",1.0,", 1)] + lines[3:]
    assert checks.check_compare("\n".join(filled), 5, 0.25, 21, False)
    assert checks.check_compare("\n".join(lines[:-1]), 5, 0.25, 21, False)
    a0, r, its, res = outputs["solve-r"].strip().split(",")
    assert checks.check_solve_r(f"{float(a0) + 1e-5},{r},{its},{res}", 1e-12, 6)
    assert checks.check_solve_r(f"{a0},{r},{its},1e-3", 1e-12, 6)
    assert checks.check_tightness(outputs["tightness"].replace("true", "false", 1), 4)
    assert checks.check_tightness(outputs["tightness"].splitlines()[0], 4)


# ------------------------------------------------------ the harness itself


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        labels = [op.label for op in workloads.build(name, 5)[0]]
        assert labels == [op.label for op in workloads.build(name, 5)[0]]
        assert any([op.label for op in workloads.build(name, s)[0]] != labels for s in range(6, 12))


def test_tracer_reaches_every_module_that_bound_a_function():
    script = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, lefttail as lt, lefttail.cli
t = tracing.Tracer(); t.install()
lt.maximize_bernoulli_tail(3, 1.5, 0.05)
with contextlib.redirect_stdout(io.StringIO()):
    lefttail.cli.main(["bound", "--lambda", "2", "--n", "4", "--method", "theorem1"])
print(json.dumps({"patched": t.patched, "metrics": t.metrics(1, 0.0)}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(HERE), str(ROOT / "src")], capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert {"lefttail.cli.finite_n_bound", "lefttail.oracles.finite_n_bound", "lefttail.oracles.bernoulli_tail"} <= set(out["patched"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["bounds.calls"] == 2  # one from the search's bound, one from the CLI
    assert m["oracles.bernoulli_tail.calls"] > 0 and m["cli.main.bound.ms"] > 0
    assert m["oracles.maximize_bernoulli_tail.points"] > 0
