"""Grid verification of the analytic facts behind the finite-n envelope.

The checks cover: growth of each branch in the summand count, the
crossover mean below which the shifted branch dominates, monotonicity of
the envelope in both arguments, and non-negativity of the scaled slope
that drives the branch-growth argument.  Each check sweeps a closed-form
inequality over a grid and reports the worst violation.

Every claim is written as a generator of rows, one per summand count or
block of means: an array of violations (a positive entry breaks the
claim) and a map from an entry to its grid point.  One reducer,
:func:`run_grid_check`, counts the points and keeps the worst violation
and where it was, the same way for every claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lefttail.bounds import _binomial_term, _check_mean, _check_n, _envelope_values, _shifted_term

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


def _check_slope_domain(x: float, lam: float) -> None:
    """Reject x outside (0, 1] and a mean that is not finite and positive."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0,1], got {x}")
    _check_mean(lam)
    if lam == 0:
        raise ValueError(f"mean must be positive, got {lam}")


def log_binomial_branch(x: float, lam: float) -> float:
    """Log of the binomial branch in terms of the failure probability x.

    With x = 1 - lam/n (so n = lam/(1-x)) this equals
    lam*log(x)/(1-x) + log(1 + lam/x), the log of the first branch;
    increasing in x means increasing in n at fixed mean.
    """
    _check_slope_domain(x, lam)
    if x == 1.0:
        raise ValueError("x must be in (0,1), got 1.0")
    return lam * math.log(x) / (1.0 - x) + math.log(1.0 + lam / x)


def scaled_slope(x: float, lam: float) -> float:
    """(1-x)^2/lam times the x-derivative of :func:`log_binomial_branch`.

    Equals log(x) + (1-x)/x - (1-x)^2/(x(x+lam)); zero at x = 1, and
    non-negative on (0, 1] whenever lam >= SLOPE_THRESHOLD.
    """
    _check_slope_domain(x, lam)
    return _slope_term(x, lam)


def _slope_term(x, lam: float):
    # scaled_slope unchecked, for a scalar or an array x (the u-nonneg grid)
    log = np.log if isinstance(x, np.ndarray) else math.log
    return log(x) + (1.0 - x) / x - (1.0 - x) ** 2 / (x * (x + lam))


def slope_quadratic(x: float, lam: float) -> float:
    """x^2 + (lam-2)x + lam^2 - lam, the sign-carrying factor of the slope
    gradient, for a finite x and a finite non-negative mean; its minimum
    over x is (3*lam^2 - 4)/4 at x = (2-lam)/2."""
    if not -math.inf < x < math.inf:
        raise ValueError(f"x must be finite, got {x}")
    _check_mean(lam)
    return x * x + (lam - 2.0) * x + lam * lam - lam


def slope_gradient(x: float, lam: float) -> float:
    """Closed-form x-derivative of :func:`scaled_slope`:
    (x-1) * slope_quadratic / (x^2 (x+lam)^2), on the same domain."""
    _check_slope_domain(x, lam)
    return (x - 1.0) * slope_quadratic(x, lam) / (x * x * (x + lam) ** 2)


def crossover_threshold(n: int) -> float:
    """(n/(n-1))^n - n/(n-1): the mean below which the binomial branch is
    dominated by the shifted branch.  Tends to e - 1 as n grows."""
    _check_n(n)
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


def _at(n: int, lams: np.ndarray):
    """Where entry i of a row at n was evaluated: n and the mean lams[i]."""
    return lambda i: {"n": n, "lam": float(lams[i])}


def _claim_rows(claim: str, n_max: int, lambda_step: float):
    """Yield one claim's rows ``(violations, point)``: a positive entry of
    ``violations`` breaks the claim, and ``point(i)`` says where entry i
    (a flat index) was evaluated.  A row may be empty."""
    mono_n = {
        "F-mono-n": (_binomial_term, SLOPE_THRESHOLD, 2, False),
        "G-mono-n": (_shifted_term, 0.0, 2, False),
        "H-mono-n": (_envelope_values, 0.0, 1, True),
    }
    if claim in mono_n:
        term, lo, n_lo, include_hi = mono_n[claim]
        # _lam_grid(lo, n, ...) is a prefix of _lam_grid(lo, n + 1, ...), so
        # the row at n + 1, evaluated once over its own grid, is carried on
        # as the next row at n.
        lams = _lam_grid(lo, float(n_lo), lambda_step, include_hi)
        row = term(lams, n_lo)
        for n in range(n_lo, n_max):
            next_lams = _lam_grid(lo, float(n + 1), lambda_step, include_hi)
            next_row = term(next_lams, n + 1)
            yield row - next_row[: lams.size], _at(n, lams)
            lams, row = next_lams, next_row

    elif claim == "FG-order":
        # the order is claimed on the same means (1, 2/sqrt(3)) at every n
        lams = _lam_grid(1.0 + lambda_step, SLOPE_THRESHOLD, lambda_step)
        for n in range(2, n_max + 1):
            yield _binomial_term(lams, n) - _shifted_term(lams, n), _at(n, lams)

    elif claim == "H-mono-lambda":
        for n in range(1, n_max + 1):
            lams = _lam_grid(0.0, float(n), lambda_step, include_hi=True)
            vals = _envelope_values(lams, n)
            yield vals[1:] - vals[:-1], _at(n, lams[1:])

    elif claim == "u-nonneg":
        xs = np.arange(1, 1001) / 1000.0
        lams = _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step, include_hi=True)
        # a block of 64 means at a time: one (64, 1000) array, about 0.5 MB
        for a in range(0, lams.size, 64):
            block = lams[a : a + 64]
            yield -_slope_term(xs, block[:, None]), (
                lambda k, block=block: {"lam": float(block[k // xs.size]), "x": float(xs[k % xs.size])}
            )

    else:  # crossover-consistency: the shifted branch dominates exactly up to the threshold
        for n in range(2, n_max + 1):
            lams = _lam_grid(1.0 + lambda_step, float(n), lambda_step)
            gap = _shifted_term(lams, n) - _binomial_term(lams, n)
            size = np.abs(gap)
            lhs = gap >= -CLOSED_FORM_TOL
            rhs = (crossover_threshold(n) - lams) >= -CLOSED_FORM_TOL
            yield np.where((lhs != rhs) & (size > CLOSED_FORM_TOL), size, 0.0), _at(n, lams)


def run_grid_check(claim: str, n_max: int = 100, lambda_step: float = 0.01) -> GridCheckResult:
    """Sweep one claim over its stated (mean, n) or (x, mean) domain.

    Returns the worst violation found (positive = inequality broken) and
    where it occurred; passes when at least one point was checked and the
    worst violation is within CLOSED_FORM_TOL.  The first non-empty row
    seeds the worst violation and only a strictly larger one replaces it;
    a claim without any grid point reports 0.0 at ``{}`` and fails.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    _check_n(n_max)
    if n_max > 500:
        raise ValueError(f"n_max capped at 500, got {n_max}")
    if not 1e-3 <= lambda_step < math.inf:
        raise ValueError(f"lambda_step must be finite and >= 1e-3, got {lambda_step}")

    worst, worst_point, checked = 0.0, {}, 0
    for violations, point in _claim_rows(claim, n_max, lambda_step):
        if violations.size:
            idx = int(np.argmax(violations))
            value = float(violations.flat[idx])
            if not checked or value > worst:
                worst, worst_point = value, point(idx)
            checked += violations.size
    return GridCheckResult(
        claim=claim,
        passed=checked > 0 and worst <= CLOSED_FORM_TOL,
        worst_violation=worst,
        worst_point=worst_point,
        points_checked=checked,
    )


def run_all_checks(n_max: int = 100, lambda_step: float = 0.01) -> list[GridCheckResult]:
    """Run every claim at the given grid settings, in CLAIMS order."""
    return [run_grid_check(claim, n_max, lambda_step) for claim in CLAIMS]
