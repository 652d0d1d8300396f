"""Extremal distributions attaining the two branches of the finite-n bound.

The binomial family binomial(lam/n, n) attains the first branch and the
shifted family 1 + binomial((lam-1)/(n-1), n-1) attains the second, both
with mean exactly lam.  As n grows the first branch converges to the
Poisson tail (1 + lam) e^-lam, which is why the n-free envelope cannot be
improved.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

from lefttail.bounds import _check_mean, _check_query, _check_shifted_domain, _integer, _poisson_term
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

# Not a dataclass, for CLI start-up: tests/test_package.py says why.
class BinomialSpec(namedtuple("BinomialSpec", "p trials shift", defaults=(0,))):
    """A (possibly shifted) binomial: shift + binomial(p, trials).

    shift = 0 is the plain binomial family; shift = 1 starts the support
    at 1 and is the second extremal family.
    """

    __slots__ = ()
    # _replace builds through _make, so both take __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, p: float, trials: int, shift: int = 0) -> BinomialSpec:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"success probability must be in [0,1], got {p}")
        trials = _integer(trials, f"trial count must be an integer, got {trials}")
        if not 0 <= trials <= sys.float_info.max:
            raise ValueError(f"trial count must be non-negative and at most {sys.float_info.max:g}, got {trials}")
        if shift not in (0, 1):
            raise ValueError(f"shift must be 0 or 1, got {shift}")
        return super().__new__(cls, p, trials, shift)

    def mean(self) -> float:
        return self.shift + self.trials * self.p


class TightnessReport(NamedTuple):
    """Gap between a bound branch and the tail of its extremal distribution."""

    branch: str
    bound_value: float
    extremal_tail: float
    gap: float


def binomial_pmf(spec: BinomialSpec, k: int) -> float:
    """P(V = k) for V ~ shift + binomial(p, trials); 0 outside the support,
    and a ValueError for a k that is not an integer.

    One route for every trial count m: the log of the exact integer
    coefficient C(m, j) plus j log p + (m - j) log1p(-p), exponentiated
    once.  The relative error is the rounding of those three log terms, a
    few ulps of their size: small for the k <= 1 atoms of
    :func:`tail_at_most_one`, 5.6e-12 at m = 10^5, k = m/2, p = 1/2.  It
    shares no code with the branch kernels of :mod:`lefttail.bounds`, so a
    gap between the two exposes a bug on either side.  Degenerate p in
    {0, 1} short-circuits to a point mass so no 0 * log(0) is ever formed.
    ``math.comb`` takes microseconds for k <= 1 at any m, but a general k
    at large m is slow: about 3 ms at m = 10^4, k = 5000, and 0.2 s at
    m = 10^5, k = 5 * 10^4.
    """
    j = _integer(k, f"outcome k must be an integer, got {k}") - spec.shift
    m = spec.trials
    if j < 0 or j > m:
        return 0.0
    p = spec.p
    if p == 0.0:
        return 1.0 if j == 0 else 0.0
    if p == 1.0:
        return 1.0 if j == m else 0.0
    return math.exp(math.log(math.comb(m, j)) + j * math.log(p) + (m - j) * math.log1p(-p))


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
    _check_query(lam, n)
    if lam < 1.0:
        raise ValueError(f"tightness check needs mean >= 1, got {lam}")
    reports = []
    for branch, formula in (("first-max-term", binomial_branch), ("second-max-term", shifted_branch))[: 1 + (n >= 2)]:
        bound = formula(lam, n)
        tail = tail_at_most_one(extremal_for_branch(lam, n, branch))
        reports.append(TightnessReport(branch, bound, tail, abs(bound - tail)))
    return reports


def poisson_tail_at_most_one(lam: float) -> float:
    """P(X <= 1) = (1 + lam) e^-lam for X ~ Poisson(lam)."""
    _check_mean(lam)
    return _poisson_term(lam)


def poisson_limit_gap(lam: float, n: int) -> float:
    """|first branch at (lam, n) - Poisson tail|; shrinks like O(1/n)."""
    return abs(binomial_branch(lam, n) - poisson_tail_at_most_one(lam))
