"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime caps are asserted, not just reported.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from lefttail.bounds import (
    bentkus_bound,
    binomial_branch,
    exponential_bound,
    finite_n_bound,
    hoeffding_exponential,
    limit_bound,
    shifted_branch,
    solve_decay_rate,
)
from lefttail.extremal import extremal_for_branch, poisson_limit_gap, tail_at_most_one
from lefttail.inequalities import run_all_checks
from lefttail.oracles import (
    Discrete,
    TwoPoint,
    Uniform,
    maximize_bernoulli_tail,
    maximize_two_point,
    monte_carlo_tail,
    spec_mean,
)


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_01_decay_constants():
    with criterion("criterion 01 decay-rate fixed point"):
        solve_decay_rate(1e-12)  # warm-up
        t0 = time.perf_counter()
        c = solve_decay_rate(1e-12)
        elapsed = time.perf_counter() - t0
        assert abs(c.a0 - 0.158594) < 1e-6
        assert abs(c.r - 0.841405) < 1e-6
        assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"


def test_criterion_02_tightness_grid():
    with criterion("criterion 02 extremal tightness"):
        t0 = time.perf_counter()
        for n in range(2, 31):
            for tenth in range(10, 10 * n):  # means 1.0 through n - 0.1
                lam = tenth / 10.0
                first = tail_at_most_one(extremal_for_branch(lam, n, "first-max-term"))
                assert abs(binomial_branch(lam, n) - first) <= 1e-12, (lam, n)
                second = tail_at_most_one(extremal_for_branch(lam, n, "second-max-term"))
                assert abs(shifted_branch(lam, n) - second) <= 1e-12, (lam, n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"tightness grid took {elapsed:.1f} s"


def test_criterion_03_bernoulli_simplex_search():
    with criterion("criterion 03 Bernoulli simplex search"):
        t0 = time.perf_counter()
        resolution = 0.02
        for n in range(2, 6):
            k = 0
            while True:
                lam = (11 + 2 * k) / 10.0
                if lam > min(n, 4.9) + 1e-9:
                    break
                k += 1
                rep = maximize_bernoulli_tail(n, lam, resolution)
                assert rep.max_value <= finite_n_bound(lam, n).value + 1e-9, (n, lam)
                q = rep.argmax.q
                center = lam / n
                symmetric = all(abs(v - center) <= resolution + 1e-6 for v in q)
                boundary = any(v <= resolution + 1e-6 or v >= 1.0 - resolution - 1e-6 for v in q)
                assert symmetric or boundary, (n, lam, q)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"simplex search took {elapsed:.1f} s"


def test_criterion_04_two_point_search():
    with criterion("criterion 04 two-point search"):
        t0 = time.perf_counter()
        for n, resolution in ((2, 0.05), (3, 0.1)):
            for lam in (1.2, 1.5, 1.8):
                rep = maximize_two_point(n, lam, resolution)
                assert rep.max_value <= rep.bound_value + 1e-9, (n, lam, rep)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"two-point search took {elapsed:.1f} s"


def test_criterion_05_inequality_suite():
    with criterion("criterion 05 inequality grid suite"):
        t0 = time.perf_counter()
        results = run_all_checks(n_max=100, lambda_step=0.01)
        elapsed = time.perf_counter() - t0
        assert len(results) == 7
        for res in results:
            assert res.passed, res
            assert res.worst_violation <= 1e-12, res
        assert elapsed < 30.0, f"inequality suite took {elapsed:.1f} s"


def test_criterion_06_two_summand_identity():
    with criterion("criterion 06 two-summand branch identity"):
        for hundredth in range(100, 201):
            lam = hundredth / 100.0
            gap = shifted_branch(lam, 2) - binomial_branch(lam, 2)
            assert abs(gap - (lam - 2.0) ** 2 / 4.0) <= 1e-12, lam


def test_criterion_07_factor_e_ratio():
    with criterion("criterion 07 simplified-comparator factor e"):
        lam = math.e - 1.0
        while lam <= 20.0 + 1e-9:
            n = math.ceil(2.0 * lam)
            ratio = bentkus_bound(lam, n, simplified=True).raw / limit_bound(lam).raw
            assert ratio >= math.e - 1e-12, (lam, n, ratio)
            lam += 0.05


def test_criterion_08_poisson_limit():
    with criterion("criterion 08 Poisson limit convergence"):
        for lam in (0.5, 1.0, 2.0, 5.0):
            gaps = [poisson_limit_gap(lam, n) for n in (10, 100, 1000, 10_000)]
            assert gaps[0] > gaps[1] > gaps[2] > gaps[3], (lam, gaps)
            assert gaps[3] < 1e-3, (lam, gaps[3])


def test_criterion_09_monte_carlo():
    with criterion("criterion 09 Monte Carlo bound checks"):
        t0 = time.perf_counter()
        tight = [TwoPoint(0.0, 1.0, 0.5)] * 4
        res = monte_carlo_tail(tight, 1_000_000, seed=42)
        sigma = math.sqrt(0.3125 * (1.0 - 0.3125) / 1_000_000)
        assert abs(res.estimate - 0.3125) <= 3.0 * sigma, res

        rng = np.random.default_rng(20240809)
        for case in range(20):
            n = int(rng.integers(2, 11))
            specs = []
            for _ in range(n):
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    low, high = sorted(rng.uniform(size=2))
                    specs.append(TwoPoint(float(low), float(high), float(rng.uniform())))
                elif kind == 1:
                    lo, hi = sorted(rng.uniform(size=2))
                    specs.append(Uniform(float(lo), float(hi)))
                else:
                    k = int(rng.integers(2, 5))
                    specs.append(
                        Discrete(tuple(rng.uniform(size=k)), tuple(rng.dirichlet(np.ones(k))))
                    )
            mc = monte_carlo_tail(specs, 50_000, seed=7000 + case)
            bound = finite_n_bound(spec_mean(specs), n).value
            assert mc.estimate - mc.ci_halfwidth <= bound, (case, mc, bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"Monte Carlo took {elapsed:.1f} s"


def test_criterion_10_exponential_rate_improvement():
    with criterion("criterion 10 exponential-rate improvement"):
        for hundredth in range(0, 5001):
            lam = hundredth / 100.0
            assert (
                exponential_bound(lam).value
                <= hoeffding_exponential(lam) + 1e-12
            ), lam
