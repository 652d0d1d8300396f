"""Closed-form bounds on P(S <= 1) for sums of independent [0,1]-valued variables.

Every bound is a function of the mean ``lam = E S`` and, for the finite-n
forms, the number of summands ``n``.  Bounds are probabilities, so raw
values above 1 are clamped to 1; the pre-clamp value is kept on the result
because ratio comparisons between bounds need it.

The two-branch finite-n bound is the envelope

    H_n(lam) = 1                                    for lam <= 1
             = max{binomial branch, shifted branch} for 1 < lam < n
             = 0                                    for lam = n

whose branches are attained exactly by a binomial and a shifted-binomial
sum (see :mod:`lefttail.extremal`).  Its n-free limit is
``max{1 + lam, e} * exp(-lam)``, and solving a scalar fixed point turns
that into the purely exponential form ``exp(1 - r*lam)``.

This module holds the only implementation of each formula.  The branch
terms and the envelope also take numpy arrays of means, which the grid
checks in :mod:`lefttail.inequalities` use; a float mean stays on
:mod:`math`, so scalar results do not depend on numpy's rounding.  numpy
is imported only where an array is evaluated (an array argument means it
is already loaded), so the scalar bounds and the command line's ``bound``
subcommand run without it.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CLOSED_FORM_TOL",
    "BoundResult",
    "DecayConstants",
    "NotStated",
    "binomial_branch",
    "shifted_branch",
    "finite_n_bound",
    "limit_bound",
    "hoeffding_bound",
    "hoeffding_exponential",
    "bentkus_bound",
    "solve_decay_rate",
    "exponential_bound",
]

#: Tolerance for closed-form comparisons: a branch against its extremal
#: tail, a grid claim's worst violation, a Monte Carlo interval's low end.
CLOSED_FORM_TOL = 1e-12


class NotStated(ValueError):
    """A valid query at which a comparator is not stated (a blank table cell)."""


def _check_mean(lam: float) -> None:
    """Reject a NaN, infinite or negative mean."""
    if not 0.0 <= lam < math.inf:  # also false for NaN
        raise ValueError(f"mean must be finite and non-negative, got {lam}")


def _integer(x, message: str) -> int:
    """``x`` as an int if it has ``__index__``, else ``ValueError(message)``."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(message) from None


def _check_n(n: int) -> None:
    """Reject a non-integer n (None included), one below 1 and one that a
    double cannot hold."""
    if _integer(n, f"n must be a positive integer, got {n}") < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"n must be at most {sys.float_info.max:g}, got {n}")


def _check_query(lam: float, n: int) -> None:
    """Reject an invalid mean, an invalid n and a mean above n."""
    _check_mean(lam)
    _check_n(n)
    if lam > n:
        raise ValueError(f"mean {lam} exceeds n={n}; a sum of n variables in [0,1] cannot have a larger mean")


def _check_shifted_domain(lam: float, n: int) -> None:
    """Reject n < 2 and a mean below 1, where the shifted branch is not stated."""
    if n < 2 or lam < 1.0:
        raise ValueError(f"shifted branch needs n >= 2 and 1 <= mean <= n, got mean {lam} at n={n}")


# Not a dataclass, for CLI start-up: tests/test_package.py says why.
class BoundResult(NamedTuple):
    """A bound value in [0, 1] plus bookkeeping.

    ``raw`` is the pre-clamp value; ``clamped`` is True when raw > 1.
    ``branch`` records which term of a two-term max won (ties report
    first-max-term) or the piecewise regime; bounds without a max use
    "not-applicable".
    """

    value: float
    branch: str
    clamped: bool
    raw: float


class DecayConstants(NamedTuple):
    """Fixed point a0 of a = exp(a - 2) and the decay rate r = 1 - a0."""

    a0: float
    r: float
    iterations: int
    residual: float


def _pow_one_minus(x, k: int):
    """(1 - x)^k evaluated as exp(k * log1p(-x)), for a float or an array x.

    k == 0 short-circuits to 1, avoiding 0**0.  A float takes the math
    path, where x == 1 short-circuits to 0, avoiding log(0); an array
    takes the same expression in numpy, where log1p(-1) = -inf gives
    exp(-inf) = 0.  Log-space keeps the value finite and accurate for k in
    the millions.
    """
    if k == 0:
        return 1.0
    if not isinstance(x, float):
        import numpy as np

        with np.errstate(divide="ignore"):
            return np.exp(k * np.log1p(-x))
    if x == 1.0:
        return 0.0
    return math.exp(k * math.log1p(-x))


def _binomial_term(lam, n: int):
    # P(X <= 1) for X ~ binomial(lam/n, n): the first branch, unchecked.
    x = lam / n
    return (1.0 + lam - x) * _pow_one_minus(x, n - 1)


def _shifted_term(lam, n: int):
    # P(V <= 1) for V ~ 1 + binomial((lam-1)/(n-1), n-1) without the
    # mean >= 1 floor; the inequality grid checks evaluate it on [0, n),
    # where it exceeds 1 and is not a bound.
    return _pow_one_minus((lam - 1.0) / (n - 1.0), n - 1)


def binomial_branch(lam: float, n: int) -> float:
    """First branch of the finite-n bound: (1 + lam - lam/n)(1 - lam/n)^(n-1).

    Equals P(X <= 1) for X ~ binomial(lam/n, n), i.e. the expansion
    (1 - lam/n)^n + lam (1 - lam/n)^(n-1).

    Requires 0 <= lam <= n.
    """
    _check_query(lam, n)
    return _binomial_term(lam, n)


def shifted_branch(lam: float, n: int) -> float:
    """Second branch of the finite-n bound: (1 - (lam-1)/(n-1))^(n-1).

    Equals P(V <= 1) for V ~ 1 + binomial((lam-1)/(n-1), n-1).

    Requires 1 <= lam <= n and n >= 2 (the n = 1 case has a degenerate
    denominator and is handled by the envelope directly).
    """
    _check_query(lam, n)
    _check_shifted_domain(lam, n)
    return _shifted_term(lam, n)


def finite_n_bound(lam: float, n: int) -> BoundResult:
    """Two-branch bound on P(S <= 1) for a sum of n variables with mean lam.

    Piecewise: 1 for lam <= 1, max of the two branches for 1 < lam < n,
    0 for lam = n.  Ties in the max report first-max-term.
    """
    _check_query(lam, n)
    if lam <= 1.0:
        return BoundResult(1.0, "piecewise-one", False, 1.0)
    if lam == n:
        return BoundResult(0.0, "piecewise-zero", False, 0.0)
    first = _binomial_term(lam, n)
    second = _shifted_term(lam, n)
    if first >= second:
        return BoundResult(first, "first-max-term", False, first)
    return BoundResult(second, "second-max-term", False, second)


def _envelope_values(lams: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The values of :func:`finite_n_bound` over an array of means in [0, n]:
    for n >= 2 the larger branch clamped to 1, as the shifted branch is at
    least 1 up to mean 1, both are 0 at mean n and below 1 in between.
    Means are capped at n, where a grid's last point may overshoot it.
    Returns the values and the binomial and shifted rows (None at n = 1)."""
    import numpy as np

    if n == 1:
        return np.ones_like(lams), None, None
    m = np.minimum(lams, n)
    binomial, shifted = _binomial_term(m, n), _shifted_term(m, n)
    return np.minimum(1.0, np.maximum(binomial, shifted)), binomial, shifted


def _poisson_term(lam: float) -> float:
    # P(X <= 1) for X ~ Poisson(lam), the large-n limit of the first branch; unchecked
    return (1.0 + lam) * math.exp(-lam)


def limit_bound(lam: float) -> BoundResult:
    """n-free envelope max{1 + lam, e} * exp(-lam), clamped to 1.

    The first max term is the Poisson tail (1 + lam) e^-lam, the second is
    e^(1 - lam); they cross at lam = e - 1 (tie reports first-max-term).
    """
    _check_mean(lam)
    if 1.0 + lam >= math.e:
        raw = _poisson_term(lam)
        branch = "first-max-term"
    else:
        raw = math.exp(1.0 - lam)
        branch = "second-max-term"
    return BoundResult(min(1.0, raw), branch, raw > 1.0, raw)


def hoeffding_bound(lam: float, n: int) -> BoundResult:
    """Classical comparator lam * (1 + (1-lam)/n)^(n-1), clamped to 1.

    Only stated for lam >= 1; smaller means raise NotStated, not extrapolate.
    """
    _check_query(lam, n)
    if lam < 1.0:
        raise NotStated(f"the Hoeffding comparator requires mean >= 1, got {lam}")
    raw = lam * _pow_one_minus((lam - 1.0) / n, n - 1)
    return BoundResult(min(1.0, raw), "not-applicable", raw > 1.0, raw)


def hoeffding_exponential(lam: float) -> float:
    """Exponential-rate form exp(1 - (1 - 1/e) * lam), clamped to 1.

    This is the strongest purely exponential bound derivable from the
    Hoeffding comparator; its rate 1 - 1/e = 0.6321... is beaten by the
    solved rate r = 0.8414... of :func:`exponential_bound`.
    """
    _check_mean(lam)
    return min(1.0, math.exp(1.0 - (1.0 - math.exp(-1.0)) * lam))


def bentkus_bound(lam: float, n: int, simplified: bool = False) -> BoundResult:
    """Bentkus-style comparator specialised to the P(S <= 1) event.

    Exact mode: e * (p^n + n(1-p) p^(n-1)) with p = 1 - lam/n, which equals
    e times the binomial branch.  Simplified mode: (e/p)(1 + lam) e^-lam,
    which needs p > 0, so lam = n raises NotStated.  Both clamp to 1.
    """
    _check_query(lam, n)
    if simplified:
        p = 1.0 - lam / n
        if p == 0.0:
            raise NotStated("simplified form needs mean < n (p = 0 at mean = n)")
        # not (e/p) * _poisson_term(lam), which moves a third of the values by an ulp
        raw = (math.e / p) * (1.0 + lam) * math.exp(-lam)
    else:
        raw = math.e * _binomial_term(lam, n)
    return BoundResult(min(1.0, raw), "not-applicable", raw > 1.0, raw)


def solve_decay_rate(tol: float = 1e-12) -> DecayConstants:
    """Solve a = exp(a - 2) by fixed-point iteration from a = 0.5.

    Stops when successive iterates differ by at most ``tol``, which every
    tolerance above 0 reaches: the float map a -> fl(exp(fl(a - 2))) is
    non-decreasing and sends 0.5 below 0.5, so the iterates fall, without
    going below the map's value at 0, until one is an exact fixed point
    (step 22) and the difference is 0.  Returns a0 = 0.158594... and
    r = 1 - a0 = 0.841405....
    """
    if not 0.0 < tol < 1e-3:
        raise ValueError(f"tolerance must be in (0, 1e-3), got {tol}")
    a, nxt, iterations = 0.5, math.exp(0.5 - 2.0), 1
    while abs(nxt - a) > tol:
        a, nxt, iterations = nxt, math.exp(nxt - 2.0), iterations + 1
    residual = abs(nxt - math.exp(nxt - 2.0))
    return DecayConstants(a0=nxt, r=1.0 - nxt, iterations=iterations, residual=residual)


_DECAY_RATE = solve_decay_rate(1e-12).r


def exponential_bound(lam: float) -> BoundResult:
    """Purely exponential bound exp(1 - r * lam), clamped to 1, where r is
    the decay rate :func:`solve_decay_rate` gives at tolerance 1e-12."""
    _check_mean(lam)
    raw = math.exp(1.0 - _DECAY_RATE * lam)
    return BoundResult(min(1.0, raw), "not-applicable", raw > 1.0, raw)


#: ``evaluate(lam, n)`` by method tag, in CLI and comparison-column order; n
#: is ignored where the bound does not take it.  Each entry looks its function
#: up in this module when called, so a replaced attribute sees registry calls.
METHODS = {
    "theorem1": lambda lam, n: finite_n_bound(lam, n),
    "theorem1-limit": lambda lam, n: limit_bound(lam),
    "hoeffding": lambda lam, n: hoeffding_bound(lam, n),
    "bentkus": lambda lam, n: bentkus_bound(lam, n),
    "bentkus-simple": lambda lam, n: bentkus_bound(lam, n, simplified=True),
    "corollary1": lambda lam, n: exponential_bound(lam),
}
