"""Extremal distributions attaining the two branches of the finite-n bound.

The binomial family binomial(lam/n, n) attains the first branch and the
shifted family 1 + binomial((lam-1)/(n-1), n-1) attains the second, both
with mean exactly lam.  As n grows the first branch converges to the
Poisson tail (1 + lam) e^-lam, which is why the n-free envelope cannot be
improved.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from lefttail.bounds import BoundQuery, _check_mean, _check_query, _check_shifted_domain, _poisson_term
from lefttail.bounds import binomial_branch, shifted_branch

__all__ = [
    "BinomialSpec",
    "TightnessReport",
    "binomial_pmf",
    "tail_at_most_one",
    "extremal_for_branch",
    "verify_tightness",
    "poisson_tail_at_most_one",
    "poisson_limit_gap",
]

# Largest trial count evaluated with exact integer binomial coefficients;
# C(60, 30) ~ 1.2e17 still fits a 64-bit integer comfortably.
_EXACT_TRIALS_MAX = 60


class _Binomial(NamedTuple):
    p: float
    trials: int
    shift: int = 0


class BinomialSpec(_Binomial):
    """A (possibly shifted) binomial: shift + binomial(p, trials).

    shift = 0 is the plain binomial family; shift = 1 starts the support
    at 1 and is the second extremal family.
    """

    __slots__ = ()

    def __new__(cls, p: float, trials: int, shift: int = 0) -> BinomialSpec:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"success probability must be in [0,1], got {p}")
        try:
            trials = operator.index(trials)
        except TypeError:
            raise ValueError(f"trial count must be an integer, got {trials}") from None
        if trials < 0:
            raise ValueError(f"trial count must be non-negative, got {trials}")
        if shift not in (0, 1):
            raise ValueError(f"shift must be 0 or 1, got {shift}")
        return super().__new__(cls, p, trials, shift)

    def mean(self) -> float:
        return self.shift + self.trials * self.p


class TightnessReport(NamedTuple):
    """Gap between a bound branch and the tail of its extremal distribution."""

    query: BoundQuery
    branch: str
    bound_value: float
    extremal_tail: float
    gap: float


def binomial_pmf(spec: BinomialSpec, k: int) -> float:
    """P(V = k) for V ~ shift + binomial(p, trials); 0 outside the support.

    Exact integer binomial coefficients up to 60 trials, log-gamma
    differences beyond that.  Degenerate p in {0, 1} short-circuits to a
    point mass so no 0 * log(0) is ever formed.
    """
    j = k - spec.shift
    m = spec.trials
    if j < 0 or j > m:
        return 0.0
    p = spec.p
    if p == 0.0:
        return 1.0 if j == 0 else 0.0
    if p == 1.0:
        return 1.0 if j == m else 0.0
    if m <= _EXACT_TRIALS_MAX:
        return math.comb(m, j) * p**j * (1.0 - p) ** (m - j)
    log_coeff = math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
    return math.exp(log_coeff + j * math.log(p) + (m - j) * math.log1p(-p))


def tail_at_most_one(spec: BinomialSpec) -> float:
    """P(V <= 1) = pmf(0) + pmf(1).

    For the shift-1 family the support starts at 1, so pmf(0) = 0 and only
    the k = 1 atom contributes.
    """
    return binomial_pmf(spec, 0) + binomial_pmf(spec, 1)


def extremal_for_branch(lam: float, n: int, branch: str) -> BinomialSpec:
    """The distribution attaining the given branch at mean lam with n summands.

    first-max-term  -> binomial(lam/n, n)             (needs 0 <= lam <= n)
    second-max-term -> 1 + binomial((lam-1)/(n-1), n-1) (needs 1 <= lam <= n, n >= 2)

    The returned spec has mean exactly lam.
    """
    _check_query(lam, n)
    if branch == "first-max-term":
        return BinomialSpec(p=lam / n, trials=n, shift=0)
    if branch == "second-max-term":
        _check_shifted_domain(lam, n)
        return BinomialSpec(p=(lam - 1.0) / (n - 1.0), trials=n - 1, shift=1)
    raise ValueError(f"unknown branch {branch!r}")


def verify_tightness(lam: float, n: int) -> list[TightnessReport]:
    """Compare each branch against the exact tail of its extremal distribution.

    The branch formulas and the pmf route are independent code paths, so a
    gap above ~1e-12 signals an implementation bug.  Requires 1 <= lam <= n;
    the second branch is skipped for n = 1.
    """
    query = BoundQuery(lam, n)
    if lam < 1.0:
        raise ValueError(f"tightness check needs mean >= 1, got {lam}")
    bound_first = binomial_branch(lam, n)
    tail_first = tail_at_most_one(extremal_for_branch(lam, n, "first-max-term"))
    reports = [
        TightnessReport(query, "first-max-term", bound_first, tail_first, abs(bound_first - tail_first))
    ]
    if n >= 2:
        bound_second = shifted_branch(lam, n)
        tail_second = tail_at_most_one(extremal_for_branch(lam, n, "second-max-term"))
        reports.append(
            TightnessReport(query, "second-max-term", bound_second, tail_second, abs(bound_second - tail_second))
        )
    return reports


def poisson_tail_at_most_one(lam: float) -> float:
    """P(X <= 1) = (1 + lam) e^-lam for X ~ Poisson(lam)."""
    _check_mean(lam)
    return _poisson_term(lam)


def poisson_limit_gap(lam: float, n: int) -> float:
    """|first branch at (lam, n) - Poisson tail|; shrinks like O(1/n)."""
    return abs(binomial_branch(lam, n) - poisson_tail_at_most_one(lam))
