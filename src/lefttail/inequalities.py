"""Grid verification of the analytic facts behind the finite-n envelope.

The checks cover: growth of each branch in the summand count, the
crossover mean below which the shifted branch dominates, monotonicity of
the envelope in both arguments, and non-negativity of the scaled slope
that drives the branch-growth argument.  Each check sweeps a closed-form
inequality over a grid and reports the worst violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lefttail.bounds import _binomial_term, _envelope_values, _shifted_term

__all__ = [
    "CLAIMS",
    "CLOSED_FORM_TOL",
    "SLOPE_THRESHOLD",
    "GridCheckResult",
    "log_binomial_branch",
    "scaled_slope",
    "slope_quadratic",
    "slope_gradient",
    "crossover_threshold",
    "run_grid_check",
    "run_all_checks",
]

#: Mean above which the binomial branch is non-decreasing in the summand
#: count: 2/sqrt(3), where the slope quadratic's minimum (3*lam^2 - 4)/4
#: turns non-negative.
SLOPE_THRESHOLD = 2.0 / math.sqrt(3.0)

#: Tolerance for closed-form comparisons.
CLOSED_FORM_TOL = 1e-12

CLAIMS = (
    "F-mono-n",
    "G-mono-n",
    "FG-order",
    "H-mono-n",
    "H-mono-lambda",
    "u-nonneg",
    "crossover-consistency",
)


@dataclass(frozen=True)
class GridCheckResult:
    claim: str
    passed: bool
    worst_violation: float
    worst_point: dict
    points_checked: int


def log_binomial_branch(x: float, lam: float) -> float:
    """Log of the binomial branch in terms of the failure probability x.

    With x = 1 - lam/n (so n = lam/(1-x)) this equals
    lam*log(x)/(1-x) + log(1 + lam/x), the log of the first branch;
    increasing in x means increasing in n at fixed mean.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    if lam <= 0:
        raise ValueError(f"mean must be positive, got {lam}")
    return lam * math.log(x) / (1.0 - x) + math.log(1.0 + lam / x)


def scaled_slope(x: float, lam: float) -> float:
    """(1-x)^2/lam times the x-derivative of :func:`log_binomial_branch`.

    Equals log(x) + (1-x)/x - (1-x)^2/(x(x+lam)); zero at x = 1, and
    non-negative on (0, 1] whenever lam >= SLOPE_THRESHOLD.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0,1], got {x}")
    if lam <= 0:
        raise ValueError(f"mean must be positive, got {lam}")
    return math.log(x) + (1.0 - x) / x - (1.0 - x) ** 2 / (x * (x + lam))


def slope_quadratic(x: float, lam: float) -> float:
    """x^2 + (lam-2)x + lam^2 - lam, the sign-carrying factor of the slope
    gradient; its minimum over x is (3*lam^2 - 4)/4 at x = (2-lam)/2."""
    return x * x + (lam - 2.0) * x + lam * lam - lam


def slope_gradient(x: float, lam: float) -> float:
    """Closed-form x-derivative of :func:`scaled_slope`:
    (x-1) * slope_quadratic / (x^2 (x+lam)^2)."""
    return (x - 1.0) * slope_quadratic(x, lam) / (x * x * (x + lam) ** 2)


def crossover_threshold(n: int) -> float:
    """(n/(n-1))^n - n/(n-1): the mean below which the binomial branch is
    dominated by the shifted branch.  Tends to e - 1 as n grows."""
    if n < 2:
        raise ValueError(f"crossover threshold needs n >= 2, got {n}")
    ratio = n / (n - 1.0)
    return math.exp(n * math.log1p(1.0 / (n - 1.0))) - ratio


def _lam_grid(lo: float, hi: float, step: float, include_hi: bool = False) -> np.ndarray:
    count = math.floor((hi - lo) / step + 1e-9)
    grid = lo + step * np.arange(count + 1)
    if not include_hi:
        grid = grid[grid < hi - 1e-12]
    else:
        grid = grid[grid <= hi + 1e-12]
    return grid


def _worst(diffs: np.ndarray, points: list[dict]) -> tuple[float, dict]:
    idx = int(np.argmax(diffs))
    return float(diffs[idx]), points[idx]


def run_grid_check(claim: str, n_max: int = 100, lambda_step: float = 0.01) -> GridCheckResult:
    """Sweep one claim over its stated (mean, n) or (x, mean) domain.

    Returns the worst violation found (positive = inequality broken) and
    where it occurred; passes when the worst violation is within
    CLOSED_FORM_TOL.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    if n_max > 500:
        raise ValueError(f"n_max capped at 500, got {n_max}")
    if lambda_step < 1e-3:
        raise ValueError(f"lambda_step must be >= 1e-3, got {lambda_step}")

    worst = -math.inf
    worst_point: dict = {}
    checked = 0

    def consider(violation: float, point: dict) -> None:
        nonlocal worst, worst_point
        if violation > worst:
            worst = violation
            worst_point = point

    if claim == "F-mono-n":
        for n in range(2, n_max):
            lams = _lam_grid(SLOPE_THRESHOLD, float(n), lambda_step)
            if lams.size == 0:
                continue
            diff = _binomial_term(lams, n) - _binomial_term(lams, n + 1)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})

    elif claim == "G-mono-n":
        for n in range(2, n_max):
            lams = _lam_grid(0.0, float(n), lambda_step)
            diff = _shifted_term(lams, n) - _shifted_term(lams, n + 1)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})

    elif claim == "FG-order":
        for n in range(2, n_max + 1):
            lams = _lam_grid(1.0 + lambda_step, SLOPE_THRESHOLD, lambda_step, include_hi=False)
            if lams.size == 0:
                continue
            diff = _binomial_term(lams, n) - _shifted_term(lams, n)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})

    elif claim == "H-mono-n":
        for n in range(1, n_max):
            lams = _lam_grid(0.0, float(n), lambda_step, include_hi=True)
            diff = _envelope_values(lams, n) - _envelope_values(lams, n + 1)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})

    elif claim == "H-mono-lambda":
        for n in range(1, n_max + 1):
            lams = _lam_grid(0.0, float(n), lambda_step, include_hi=True)
            vals = _envelope_values(lams, n)
            diff = vals[1:] - vals[:-1]
            checked += lams.size - 1
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx + 1])})

    elif claim == "u-nonneg":
        xs = np.arange(1, 1001) / 1000.0
        lams = _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step, include_hi=True)
        for lam in lams:
            u = np.log(xs) + (1.0 - xs) / xs - (1.0 - xs) ** 2 / (xs * (xs + lam))
            checked += xs.size
            idx = int(np.argmin(u))
            consider(float(-u[idx]), {"lam": float(lam), "x": float(xs[idx])})

    elif claim == "crossover-consistency":
        for n in range(2, n_max + 1):
            lams = _lam_grid(1.0 + lambda_step, float(n), lambda_step)
            if lams.size == 0:
                continue
            gap = _shifted_term(lams, n) - _binomial_term(lams, n)
            threshold = crossover_threshold(n)
            lhs = gap >= -CLOSED_FORM_TOL
            rhs = (threshold - lams) >= -CLOSED_FORM_TOL
            mismatch = (lhs != rhs) & (np.abs(gap) > CLOSED_FORM_TOL)
            checked += lams.size
            if mismatch.any():
                bad = np.where(mismatch, np.abs(gap), -np.inf)
                idx = int(np.argmax(bad))
                consider(float(bad[idx]), {"n": n, "lam": float(lams[idx])})
            else:
                consider(0.0, {"n": n, "lam": float(lams[0])})

    if worst == -math.inf:
        worst = 0.0
    return GridCheckResult(
        claim=claim,
        passed=worst <= CLOSED_FORM_TOL,
        worst_violation=worst,
        worst_point=worst_point,
        points_checked=checked,
    )


def run_all_checks(n_max: int = 100, lambda_step: float = 0.01) -> list[GridCheckResult]:
    """Run every claim at the given grid settings, in CLAIMS order."""
    return [run_grid_check(claim, n_max, lambda_step) for claim in CLAIMS]
