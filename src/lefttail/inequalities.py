"""Grid verification of the analytic facts behind the finite-n envelope.

The checks cover: growth of each branch in the summand count, the
crossover mean below which the shifted branch dominates, monotonicity of
the envelope in both arguments, and non-negativity of the scaled slope
that drives the branch-growth argument.  Each check sweeps a closed-form
inequality over a grid and reports the worst violation.

Every claim is written as a generator of rows, one per summand count or
block of means: an array of violations (a positive entry breaks the
claim) and a map from an entry to its grid point; G-mono-n, H-mono-n and
H-mono-lambda share one, which evaluates the envelope once per count.  One
reducer counts the points and keeps the worst violation and where it was,
the same way for every claim.
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

CLAIMS = (
    "F-mono-n",
    "G-mono-n",
    "FG-order",
    "H-mono-n",
    "H-mono-lambda",
    "u-nonneg",
    "crossover-consistency",
)
#: The claims whose rows come from one evaluation of the envelope per n.
ENVELOPE_CLAIMS = ("G-mono-n", "H-mono-n", "H-mono-lambda")


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
    grid = lo + step * np.arange(count + 1)
    return grid[grid <= hi + 1e-12] if include_hi else grid[grid < hi - 1e-12]


def _prefix(grid: np.ndarray, hi: float, include_hi: bool = False) -> np.ndarray:
    # _lam_grid(lo, hi, ...) cut from a longer one: point i is lo + step*i at any count
    side, edge = ("right", hi + 1e-12) if include_hi else ("left", hi - 1e-12)
    return grid[: np.searchsorted(grid, edge, side)]


def _at(n: int, lams: np.ndarray):
    """Where entry i of a row at n was evaluated: n and the mean lams[i]."""
    return lambda i: {"n": n, "lam": float(lams[i])}


def _envelope_rows(n_max: int, lambda_step: float):
    """Yield, for n = 1..n_max, the rows of ENVELOPE_CLAIMS that end at n,
    by claim, from one evaluation of the envelope and its shifted row over
    [0, n]; G-mono-n's grid [0, n - 1) is a prefix of the one at n - 1."""
    grid = _lam_grid(0.0, float(n_max), lambda_step, include_hi=True)
    for n in range(1, n_max + 1):
        lams = _prefix(grid, n, include_hi=True)
        env, shifted = _envelope_values(lams, n)
        rows = {"H-mono-lambda": (env[1:] - env[:-1], _at(n, lams[1:]))}
        if n > 1:
            rows["H-mono-n"] = (last_env - env[: last_lams.size], _at(n - 1, last_lams))
        if n > 2:
            g_lams = _prefix(last_lams, n - 1)
            rows["G-mono-n"] = (last_shifted[: g_lams.size] - shifted[: g_lams.size], _at(n - 1, g_lams))
        yield rows
        last_lams, last_env, last_shifted = lams, env, shifted


def _claim_rows(claim: str, n_max: int, lambda_step: float):
    """Yield the rows ``(violations, point)`` of one claim outside
    ENVELOPE_CLAIMS: a positive entry of ``violations`` breaks the claim,
    and ``point(i)`` says where entry i (a flat index) was evaluated.  A row
    may be empty.  Each grid at n is cut from the claim's grid at n_max."""
    if claim == "F-mono-n":
        # each row is evaluated once and compared with the row at n - 1
        grid = _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step)
        for n in range(2, n_max + 1):
            lams = _prefix(grid, float(n))
            row = _binomial_term(lams, n)
            if n > 2:
                yield last_row - row[: last_lams.size], _at(n - 1, last_lams)
            last_lams, last_row = lams, row

    elif claim == "FG-order":
        # the order is claimed on the same means (1, 2/sqrt(3)) at every n
        lams = _lam_grid(1.0 + lambda_step, SLOPE_THRESHOLD, lambda_step)
        for n in range(2, n_max + 1):
            yield _binomial_term(lams, n) - _shifted_term(lams, n), _at(n, lams)

    elif claim == "u-nonneg":
        # x = 1 is left out: the slope is exactly 0 there at every mean
        xs = np.arange(1, 1000) / 1000.0
        parts = _slope_parts(xs)
        lams = _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step, include_hi=True)
        # a block of 64 means at a time: one (64, 999) array, about 0.5 MB,
        # updated in place; the parts without the mean are made once
        for a in range(0, lams.size, 64):
            block = lams[a : a + 64]
            yield _negated_slope(xs, block[:, None], *parts), (
                lambda k, block=block: {"lam": float(block[k // xs.size]), "x": float(xs[k % xs.size])}
            )

    else:  # crossover-consistency: the shifted branch dominates exactly up to the threshold
        grid = _lam_grid(1.0 + lambda_step, float(n_max), lambda_step)
        for n in range(2, n_max + 1):
            lams = _prefix(grid, float(n))
            gap = _shifted_term(lams, n) - _binomial_term(lams, n)
            size = np.abs(gap)
            lhs = gap >= -CLOSED_FORM_TOL
            rhs = (crossover_threshold(n) - lams) >= -CLOSED_FORM_TOL
            yield np.where((lhs != rhs) & (size > CLOSED_FORM_TOL), size, 0.0), _at(n, lams)


def _reduce(claims: tuple[str, ...], rows) -> list[GridCheckResult]:
    """The result of each of ``claims`` from ``rows``, maps from claims to a
    row each.  A claim's first non-empty row seeds its worst violation, only
    a strictly larger one replaces it, and it passes when it checked a point
    and the worst is within CLOSED_FORM_TOL; without points it reports 0.0 at {}."""
    found = {claim: (0.0, {}, 0) for claim in claims}
    for row in rows:
        for claim, (violations, point) in row.items():
            if claim in found and violations.size:
                worst, worst_point, checked = found[claim]
                idx = int(np.argmax(violations))
                value = float(violations.flat[idx])
                if not checked or value > worst:
                    worst, worst_point = value, point(idx)
                found[claim] = worst, worst_point, checked + violations.size
    return [GridCheckResult(c, k > 0 and w <= CLOSED_FORM_TOL, w, at, k) for c, (w, at, k) in found.items()]


def run_grid_check(claim: str, n_max: int = 100, lambda_step: float = 0.01) -> GridCheckResult:
    """Sweep one claim over its stated (mean, n) or (x, mean) domain: the
    worst violation found (positive = inequality broken) and where it was,
    by :func:`_reduce`'s rule."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    _check_n(n_max)
    if n_max > 500:
        raise ValueError(f"n_max capped at 500, got {n_max}")
    if not 1e-3 <= lambda_step < math.inf:
        raise ValueError(f"lambda_step must be finite and >= 1e-3, got {lambda_step}")
    if claim in ENVELOPE_CLAIMS:
        return _reduce((claim,), _envelope_rows(n_max, lambda_step))[0]
    return _reduce((claim,), ({claim: row} for row in _claim_rows(claim, n_max, lambda_step)))[0]


def run_all_checks(n_max: int = 100, lambda_step: float = 0.01) -> list[GridCheckResult]:
    """Run every claim at the given grid settings, in CLAIMS order: each
    claim outside ENVELOPE_CLAIMS by :func:`run_grid_check`, whose first
    call checks the settings, then the envelope claims from one shared pass."""
    results = {claim: run_grid_check(claim, n_max, lambda_step) for claim in CLAIMS if claim not in ENVELOPE_CLAIMS}
    results.update(zip(ENVELOPE_CLAIMS, _reduce(ENVELOPE_CLAIMS, _envelope_rows(n_max, lambda_step))))
    return [results[claim] for claim in CLAIMS]
