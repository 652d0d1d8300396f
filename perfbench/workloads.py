"""The benchmark's workloads: seeded inputs and one operation per call.

Each workload is a fixed list of operations, made once from the seed and
repeated in whole rounds.  The seed changes the inputs only where that
leaves the work of a round unchanged, so that runs with different seeds
measure the same thing: which of two mirror-image means each search uses,
the Monte Carlo Philox keys, and the CLI arguments and their order.  The
Monte Carlo and enumeration summands are fixed, because sampling and
masking cost depends on their probabilities.

The program is reached only through the public functions of the lefttail
package and the ``python -m lefttail`` command line.  Calls go through
attribute lookups on the package at call time so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import lefttail as lt
import lefttail.cli

WORKLOADS = ("search", "sweep", "cli")


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its output.

    ``inproc`` runs the same CLI call inside this process; the traced run
    uses it so that wrappers can see the program's layers.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    inproc: Callable[[], object] | None = None


def _check(name: str, *args) -> Callable[[object], list]:
    # checks imports mpmath; load it after set-up so set-up time covers the
    # program's imports and the inputs, not the benchmark's references.
    def run(out):
        return getattr(importlib.import_module("checks"), name)(out, *args)

    return run


# ------------------------------------------------------------------ search

#: (n, resolution, mirror pair).  A grid slice at mean lam has the same
#: size as at n - lam (q -> 1 - q), so either choice costs the same.
SIMPLEX = ((3, 0.002, (1.4, 1.6)), (4, 0.01, (1.7, 2.3)), (5, 0.02, (2.2, 2.8)), (6, 1 / 30, (2.5, 3.5)))
#: Two-point searches; (low, high, p) -> (1-high, 1-low, 1-p) mirrors the
#: mean the same way.  Every mean has an extremal point on the grid.
TWO_POINT = ((2, 0.05, (1.5,)), (3, 1 / 6, (4 / 3, 5 / 3)), (3, 0.125, (1.25, 1.75)))


def search_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, res, pair in SIMPLEX:
        lam = rng.choice(pair)
        ops.append(
            Op(
                f"simplex n={n} res={res} lam={lam}",
                lambda n=n, lam=lam, res=res: lt.maximize_bernoulli_tail(n, lam, res),
                _check("check_simplex", n, lam),
            )
        )
    for n, res, means in TWO_POINT:
        lam = rng.choice(means)
        ops.append(
            Op(
                f"two-point n={n} res={res} lam={lam}",
                lambda n=n, lam=lam, res=res: lt.maximize_two_point(n, lam, res),
                _check("check_two_point", n, lam, res),
            )
        )
    return ops


# ------------------------------------------------------------------- sweep

SWEEP_N_MAX = 300
SWEEP_STEP = 0.01
MC_TRIALS = 1_000_000
#: Monte Carlo summands per spec: 10 two-point, 9 discrete, 1 uniform.
MC_MIX = ("two-point",) * 10 + ("discrete",) * 9 + ("uniform",)
ENUM_SIZES = (20, 16)
#: Seed of the fixed summands; the run's own seed only keys the sampler.
SUMMANDS_SEED = 20121024


def _units(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 20


def mixed_spec(rng: random.Random) -> list[dict]:
    """Summands in the CLI's spec format; values are multiples of 1/20 so
    the exact tail is a finite convolution (plus one uniform)."""
    out = []
    for kind in MC_MIX:
        if kind == "two-point":
            out.append({"type": "two-point", "low": _units(rng, 0, 1), "high": _units(rng, 4, 20), "p": round(rng.uniform(0.02, 0.12), 4)})
        elif kind == "discrete":
            a = rng.randint(1, 10)
            p1, p2 = round(rng.uniform(0.02, 0.1), 4), round(rng.uniform(0.0, 0.05), 4)
            out.append({"type": "discrete", "points": [0.0, a / 20, _units(rng, a + 1, 20)], "probs": [1.0 - p1 - p2, p1, p2]})
        else:
            out.append({"type": "uniform", "lo": 0.0, "hi": _units(rng, 2, 8)})
    rng.shuffle(out)
    return out


def sweep_ops(seed: int) -> list[Op]:
    rng = random.Random(SUMMANDS_SEED)
    ops = [
        Op(
            f"run_all_checks n_max={SWEEP_N_MAX} step={SWEEP_STEP}",
            lambda: lt.run_all_checks(SWEEP_N_MAX, SWEEP_STEP),
            _check("check_claims", SWEEP_STEP),
        )
    ]
    for j in range(2):
        spec = mixed_spec(rng)
        specs = lt.parse_dist_specs(spec)
        key = seed * 10 + j
        ops.append(
            Op(
                f"monte_carlo_tail {len(specs)} summands x {MC_TRIALS} key={key}",
                lambda specs=specs, key=key: lt.monte_carlo_tail(specs, MC_TRIALS, key),
                _check("check_mc", spec, MC_TRIALS),
            )
        )
    for m in ENUM_SIZES:
        triples = [(_units(rng, 0, 1), _units(rng, 2, 20), round(rng.uniform(0.02, 0.3), 4)) for _ in range(m)]
        summands = [lt.TwoPoint(lo, hi, p) for lo, hi, p in triples]
        ops.append(
            Op(
                f"two_point_tail m={m}",
                lambda summands=summands: lt.two_point_tail(summands),
                _check("check_two_point_tail", triples),
            )
        )
    return ops


# --------------------------------------------------------------------- cli

METHODS = ("theorem1", "theorem1-limit", "hoeffding", "bentkus", "bentkus-simple", "corollary1")
N_CHOICES = (1, 2, 4, 10, 100, 1000, 10**6)
#: A run keeps going past --seconds until it has timed this many CLI
#: calls, so that op_p90_ms has ten samples beyond it.
CLI_MIN_OPS = 100


def _run_cli(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "lefttail", *argv], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _run_cli_inproc(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lefttail.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return buf.getvalue()


def _cli_op(label: str, argv: list[str], check) -> Op:
    return Op(label, lambda: _run_cli(argv), check, lambda: _run_cli_inproc(argv))


def _mean(rng: random.Random, lo: float, hi: float) -> float:
    """A mean on the 1/1000 grid in [lo, hi]."""
    return rng.randint(round(lo * 1000), round(hi * 1000)) / 1000


def cli_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for method in METHODS:
        n = None if method in ("theorem1-limit", "corollary1") else rng.choice(N_CHOICES)
        top = 40.0 if n is None else min(n, 40)
        if method == "bentkus-simple":
            top = min(top, n - 0.001)
        lam = _mean(rng, 1.0 if method == "hoeffding" else 0.0, top)
        precision = rng.choice((6, 10))
        argv = ["bound", "--lambda", repr(lam), "--method", method, "--precision", str(precision)]
        if n is not None:
            argv += ["--n", str(n)]
        ops.append(_cli_op(" ".join(argv), argv, _check("check_bound", method, lam, n, precision)))
    tol = rng.choice((1e-8, 1e-10, 1e-12))
    precision = rng.choice((6, 10))
    argv = ["solve-r", "--tol", repr(tol), "--precision", str(precision)]
    ops.append(_cli_op(" ".join(argv), argv, _check("check_solve_r", tol, precision)))
    for _ in range(2):
        n = rng.choice((2, 4, 10, 100, 1000))
        lam = _mean(rng, 1.0, min(n, 40))
        argv = ["verify", "tightness", "--lambda", repr(lam), "--n", str(n)]
        ops.append(_cli_op(" ".join(argv), argv, _check("check_tightness", n)))
    big_raw = rng.random() < 0.5
    small_n = rng.choice((5, 8))
    for n, top, step, raw in ((10**6, 30.0, 0.5, big_raw), (small_n, float(small_n), 0.25, not big_raw)):
        argv = ["compare", "--lambda-min", "0", "--lambda-max", repr(top), "--step", repr(step), "--n", str(n)]
        argv += ["--raw"] if raw else []
        rows = round(top / step) + 1
        ops.append(_cli_op(" ".join(argv), argv, _check("check_compare", n, step, rows, raw)))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> tuple[list[Op], int]:
    """The workload's operations and the fewest a run may time."""
    ops = {"search": search_ops, "sweep": sweep_ops, "cli": cli_ops}[workload](seed)
    return ops, CLI_MIN_OPS if workload == "cli" else 1
