"""Grid verification of the analytic facts behind the finite-n envelope.

The checks cover: growth of each branch in the summand count, the
crossover mean below which the shifted branch dominates, monotonicity of
the envelope in both arguments, and non-negativity of the scaled slope
that drives the branch-growth argument.  Each check sweeps a closed-form
inequality over a grid and reports the worst violation.

The six branch claims share the means k * step.  Each row generator runs
its kernel once per summand count, or block of means, for all its claims:
the envelope and both its branches for the five claims other than FG-order
and u-nonneg, the branch difference over (1, 2/sqrt(3)) for FG-order, the
scaled slope for u-nonneg.  One reducer keeps each claim's worst violation,
its point and its count of points, alike for every claim and entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lefttail.bounds import CLOSED_FORM_TOL, _binomial_term, _check_mean, _check_n, _envelope_values, _pow_one_minus, _shifted_term

__all__ = [
    "CLAIMS",
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
    # 0.0 - keeps the slope at x = 1 a +0.0
    return 0.0 - _negated_slope(x, lam, *_slope_parts(x))


def _slope_parts(x):
    # the scaled slope's parts without the mean: log(x) + (1-x)/x and (1-x)^2
    log = np.log if isinstance(x, np.ndarray) else math.log
    return log(x) + (1.0 - x) / x, (1.0 - x) ** 2


def _negated_slope(x, lam, head, square):
    # minus the scaled slope, square/(x(x+lam)) - head, for a float x and mean
    # or an array x against a column of means, as one array updated in place
    rows = x + lam
    rows *= x
    rows = np.divide(square, rows, out=rows) if isinstance(rows, np.ndarray) else square / rows
    rows -= head
    return rows


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
    return _pow_one_minus(-1.0 / (n - 1.0), n) - n / (n - 1.0)


def _lam_grid(lo: float, hi: float, step: float, include_hi: bool = False) -> np.ndarray:
    count = math.floor((hi - lo) / step + 1e-9)
    return _prefix(lo + step * np.arange(count + 1), hi, include_hi)


def _prefix(grid: np.ndarray, hi: float, include_hi: bool = False) -> np.ndarray:
    # the points of an increasing grid up to hi, within 1e-12; so a grid
    # _lam_grid(lo, hi, ...) is cut from a longer one: point i is lo + step*i at any count
    side, edge = ("right", hi + 1e-12) if include_hi else ("left", hi - 1e-12)
    return grid[: np.searchsorted(grid, edge, side)]


def _at(n: int, lams: np.ndarray):
    """Where entry i of a row at n was evaluated: n and the mean lams[i]."""
    return lambda i: {"n": n, "lam": float(lams[i])}


def _envelope_rows(n_max: int, lambda_step: float):
    """Five claims from one evaluation per n of the envelope and both its
    branch rows over [0, n]: H-mono-lambda; against the rows at n - 1,
    G-mono-n over [0, n - 1), F-mono-n over its means from 2/sqrt(3) on and
    H-mono-n over [0, n - 1]; crossover-consistency over (1, n)."""
    grid = _lam_grid(0.0, float(n_max), lambda_step, include_hi=True)
    for n in range(1, n_max + 1):
        lams = _prefix(grid, n, include_hi=True)
        env, binomial, shifted = _envelope_values(lams, n)
        yield "H-mono-lambda", env[1:] - env[:-1], _at(n, lams[1:])
        if n > 2:
            g_lams = _prefix(last_lams, n - 1)
            k, f = g_lams.size, np.searchsorted(g_lams, SLOPE_THRESHOLD)
            yield "G-mono-n", last_shifted[:k] - shifted[:k], _at(n - 1, g_lams)
            yield "F-mono-n", last_binomial[f:k] - binomial[f:k], _at(n - 1, g_lams[f:])
        if n > 1:
            yield "H-mono-n", last_env - env[: last_lams.size], _at(n - 1, last_lams)
            a, b = np.searchsorted(lams, (1.0 + 1e-12, n - 1e-12))
            diff = binomial[a:b] - shifted[a:b]
            # the shifted branch dominates exactly up to the threshold; the row
            # reuses diff's memory, so the loop keeps no row the reducer does not
            lhs = diff <= CLOSED_FORM_TOL
            rhs = (crossover_threshold(n) - lams[a:b]) >= -CLOSED_FORM_TOL
            size = np.abs(diff, out=diff)
            size[~((lhs != rhs) & (size > CLOSED_FORM_TOL))] = 0.0
            yield "crossover-consistency", size, _at(n, lams[a:b])
        last_lams, last_env, last_binomial, last_shifted = lams, env, binomial, shifted


def _order_rows(n_max: int, lambda_step: float):
    """FG-order: the branch difference at each n over the grid's means in
    (1, 2/sqrt(3)), those of crossover-consistency below the threshold."""
    lams = _lam_grid(0.0, SLOPE_THRESHOLD, lambda_step)
    lams = lams[np.searchsorted(lams, 1.0 + 1e-12) :]
    for n in range(2, n_max + 1):
        yield "FG-order", _binomial_term(lams, n) - _shifted_term(lams, n), _at(n, lams)


def _slope_rows(n_max: int, lambda_step: float):
    """u-nonneg, a block of 64 means at a time: one (64, 999) array, about
    0.5 MB, updated in place; the parts without the mean are made once.
    x = 1 is left out: the slope is exactly 0 there at every mean."""
    xs = np.arange(1, 1000) / 1000.0
    parts = _slope_parts(xs)
    lams = _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step, include_hi=True)
    for a in range(0, lams.size, 64):
        block = lams[a : a + 64]
        yield "u-nonneg", _negated_slope(xs, block[:, None], *parts), (
            lambda k, block=block: {"lam": float(block[k // xs.size]), "x": float(xs[k % xs.size])}
        )


#: Each claim's row generator, in the order results are reported.
_ROWS = {
    "F-mono-n": _envelope_rows,
    "G-mono-n": _envelope_rows,
    "FG-order": _order_rows,
    "H-mono-n": _envelope_rows,
    "H-mono-lambda": _envelope_rows,
    "u-nonneg": _slope_rows,
    "crossover-consistency": _envelope_rows,
}
CLAIMS = tuple(_ROWS)


def _reduce(claims: tuple[str, ...], rows) -> list[GridCheckResult]:
    """The result of each of ``claims`` from ``rows``, triples ``(claim,
    violations, point)``: a positive entry of ``violations`` breaks the
    claim, and ``point(i)`` says where entry i (a flat index) was evaluated.
    A claim's first non-empty row seeds its worst violation, only a strictly
    larger one replaces it, and it passes when it checked a point and the
    worst is within CLOSED_FORM_TOL; without points it reports 0.0 at {}."""
    found = {claim: (0.0, {}, 0) for claim in claims}
    for claim, violations, point in rows:
        if claim in found and violations.size:
            worst, worst_point, checked = found[claim]
            idx = int(np.argmax(violations))
            value = float(violations.flat[idx])
            if not checked or value > worst:
                worst, worst_point = value, point(idx)
            found[claim] = worst, worst_point, checked + violations.size
    return [GridCheckResult(c, k > 0 and w <= CLOSED_FORM_TOL, w, at, k) for c, (w, at, k) in found.items()]


def _check_settings(n_max: int, lambda_step: float) -> None:
    """Reject an n_max outside 1..500 and a lambda_step below 1e-3 or not finite."""
    _check_n(n_max)
    if n_max > 500:
        raise ValueError(f"n_max capped at 500, got {n_max}")
    if not 1e-3 <= lambda_step < math.inf:
        raise ValueError(f"lambda_step must be finite and >= 1e-3, got {lambda_step}")


def run_grid_check(claim: str, n_max: int = 100, lambda_step: float = 0.01) -> GridCheckResult:
    """Sweep one claim over its stated (mean, n) or (x, mean) domain: the
    worst violation found (positive = inequality broken) and where it was,
    by :func:`_reduce`'s rule.  A claim costs its row generator's whole
    pass: any of the five envelope claims alone evaluates all five."""
    if claim not in _ROWS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    _check_settings(n_max, lambda_step)
    return _reduce((claim,), _ROWS[claim](n_max, lambda_step))[0]


def run_all_checks(n_max: int = 100, lambda_step: float = 0.01) -> list[GridCheckResult]:
    """Every claim at the given grid settings, in CLAIMS order, with each
    row generator run once for all of its claims."""
    _check_settings(n_max, lambda_step)
    return _reduce(CLAIMS, (row for rows in dict.fromkeys(_ROWS.values()) for row in rows(n_max, lambda_step)))
