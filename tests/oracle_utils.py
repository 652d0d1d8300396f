"""Independent brute-force oracles used to derive expected test values.

Everything here enumerates outcomes directly, or counts them by a plain
dynamic programme (no shared code with the package), so agreement is
meaningful evidence of correctness.  The
exceptions are :func:`masked_envelope_values`, the envelope's earlier
piecewise kernel over the package's branch terms,
:func:`per_n_grid_check`, which keeps the grid checks' earlier loop
structure over the package's own kernels,
:func:`searchsorted_inverse_transform`, Monte Carlo's earlier sampler over
the package's spec types, and :func:`per_row_best_row`, the searches'
earlier exhaustive stage over the package's tail kernels, so that each can
be compared bit for bit with its replacement.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def enum_binomial_pmf(p: float, trials: int, k: int) -> float:
    """P(#successes = k) by enumerating all 2^trials outcome tuples."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=trials):
        if sum(outcome) != k:
            continue
        prob = 1.0
        for bit in outcome:
            prob *= p if bit else 1.0 - p
        total += prob
    return total


def enum_binomial_tail_at_most_one(p: float, trials: int, shift: int = 0) -> float:
    """P(shift + #successes <= 1) by outcome enumeration."""
    total = 0.0
    for k in range(trials + 1):
        if shift + k <= 1:
            total += enum_binomial_pmf(p, trials, k)
    return total


def enum_bernoulli_states(means) -> tuple[float, float]:
    """(P(sum = 0), P(sum = 1)) of independent Bernoullis by enumerating
    2^n outcomes; an empty list gives (1, 0)."""
    states = [0.0, 0.0]
    for outcome in itertools.product((0, 1), repeat=len(means)):
        if sum(outcome) > 1:
            continue
        prob = 1.0
        for bit, q in zip(outcome, means):
            prob *= q if bit else 1.0 - q
        states[sum(outcome)] += prob
    return states[0], states[1]


def enum_bernoulli_tail(means) -> float:
    """P(sum of independent Bernoullis <= 1) by enumerating 2^n outcomes."""
    p0, p1 = enum_bernoulli_states(means)
    return p0 + p1


def enum_two_point_tail(summands) -> float:
    """P(sum <= 1) for (low, high, prob_high) triples by enumeration.

    Accepts a tiny tolerance at the threshold, matching the package's
    tie convention.
    """
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(summands)):
        value = 0.0
        prob = 1.0
        for bit, (low, high, prob_high) in zip(pattern, summands):
            value += high if bit else low
            prob *= prob_high if bit else 1.0 - prob_high
        if value <= 1.0 + 1e-12:
            total += prob
    return total


def recursive_simplex_grid(n: int, lam: float, denom: int) -> np.ndarray:
    """Rows of the simplex search grid by depth-first recursion.

    The first n-1 coordinates are non-decreasing multiples of 1/denom and
    the last is the remainder lam - sum, kept when it lies in [0,1].  Rows
    come in lexicographic order of the prefix.  This is the search's
    earlier grid builder, kept as the reference for the vectorised one.
    """
    unit = 1.0 / denom
    m = n - 1
    lo_units = math.ceil((lam - 1.0) * denom - 1e-9)
    hi_units = math.floor(lam * denom + 1e-9)
    rows: list[tuple[float, ...]] = []

    def rec(depth: int, start: int, partial: int, prefix: list[float]) -> None:
        remaining = m - depth
        if remaining == 0:
            if lo_units <= partial <= hi_units:
                last = lam - partial * unit
                if -1e-9 <= last <= 1.0 + 1e-9:
                    rows.append(tuple(prefix) + (min(1.0, max(0.0, last)),))
            return
        for k in range(start, denom + 1):
            if partial + k * remaining > hi_units:
                break
            if partial + k + (remaining - 1) * denom < lo_units:
                continue
            prefix.append(k * unit)
            rec(depth + 1, k, partial + k, prefix)
            prefix.pop()

    rec(0, 0, 0, [])
    return np.asarray(rows, dtype=float)


def per_row_best_row(values: np.ndarray, lo: int, hi: int, size: int, tails) -> tuple:
    """``(count, best tail, best row as (index, total))`` of the exhaustive
    stage, with every row built in full: the non-decreasing index tuples into
    the sorted ``values`` whose value sums lie in ``[lo, hi]``, in
    lexicographic order, as ``size`` index columns and their sums, then
    ``tails(index, total)`` over all of them at once.  The first of equal
    tails wins.

    This is the searches' earlier stage, which ran the whole tail recurrence
    on every row, kept as the reference for the one that makes each tuple
    prefix's states once.
    """
    top = values[-1]
    index, total = [], np.zeros(1, dtype=values.dtype)
    for depth in range(size):
        rest = size - depth - 1
        lb = np.maximum(index[-1] if depth else 0, np.searchsorted(values, lo - total - rest * top, side="left"))
        ub = np.searchsorted(values, (hi - total) / (rest + 1), side="right")
        counts = np.maximum(ub - lb, 0)
        parent = np.repeat(np.arange(len(counts)), counts)
        # each parent's children rise from lb[parent] in the order of the rows
        child = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent] + lb[parent]
        index, total = [column[parent] for column in index] + [child], total[parent] + values[child]
    chunk = tails(index, total)
    i = int(np.argmax(chunk))
    return len(total), float(chunk[i]), ([column[i] for column in index], total[i])


def multiset_count(values, lo: int, hi: int, size: int) -> int:
    """Multisets of ``size`` items, item i worth the non-negative integer
    ``values[i]``, whose worths sum to within [lo, hi].

    A knapsack over the items that lets each be taken again: after item i,
    ``ways[k][s]`` counts the multisets of items up to i with k members and
    sum s.  Entries are Python integers, so the count cannot overflow.
    """
    hi = min(hi, size * max(values))
    ways = [np.zeros(hi + 1, dtype=object) for _ in range(size + 1)]
    ways[0][0] = 1
    for v in values:
        if v > hi:
            continue
        for k in range(1, size + 1):
            ways[k][v:] += ways[k - 1][: hi + 1 - v]
    return int(sum(ways[size][max(lo, 0) :]))


def masked_envelope_values(lams: np.ndarray, n: int) -> np.ndarray:
    """The finite-n envelope over an array of means by its piece rule: 1 up
    to mean 1, 0 from mean n on, and the larger branch in between.  This is
    the envelope kernel's earlier masked form, kept as its reference."""
    from lefttail.bounds import _binomial_term, _shifted_term

    out = np.ones_like(lams)
    if n == 1:
        return out
    out[lams >= n] = 0.0
    mid = (lams > 1.0) & (lams < n)
    if mid.any():
        sub = lams[mid]
        out[mid] = np.maximum(_binomial_term(sub, n), _shifted_term(sub, n))
    return out


def per_n_grid_check(claim: str, n_max: int, lambda_step: float) -> tuple[float, dict, int]:
    """``(worst_violation, worst_point, points_checked)`` of one grid claim,
    by the grid checks' earlier loops: one per claim, each reducing its own
    rows.

    F-mono-n, G-mono-n and H-mono-n evaluate both rows of every n afresh,
    u-nonneg goes one mean at a time, and FG-order builds its mean grid at
    every n.  This is the reference for the version that evaluates each row
    once, takes u-nonneg in blocks of means and reduces every claim's rows
    in one loop.  H-mono-n and H-mono-lambda evaluate the envelope by
    :func:`masked_envelope_values`.
    """
    from lefttail.bounds import _binomial_term, _shifted_term
    from lefttail.inequalities import (
        CLOSED_FORM_TOL,
        SLOPE_THRESHOLD,
        _lam_grid,
        _slope_term,
        crossover_threshold,
    )

    worst, worst_point, checked = -math.inf, {}, 0

    def consider(violation, point):
        nonlocal worst, worst_point
        if violation > worst:
            worst, worst_point = violation, point

    if claim == "u-nonneg":
        xs = np.arange(1, 1000) / 1000.0
        for lam in _lam_grid(SLOPE_THRESHOLD, float(n_max), lambda_step, include_hi=True):
            u = _slope_term(xs, lam)
            checked += xs.size
            idx = int(np.argmin(u))
            consider(float(-u[idx]), {"lam": float(lam), "x": float(xs[idx])})
    elif claim == "FG-order":
        for n in range(2, n_max + 1):
            lams = _lam_grid(1.0 + lambda_step, SLOPE_THRESHOLD, lambda_step, include_hi=False)
            if lams.size == 0:
                continue
            diff = _binomial_term(lams, n) - _shifted_term(lams, n)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})
    elif claim == "H-mono-lambda":
        for n in range(1, n_max + 1):
            lams = _lam_grid(0.0, float(n), lambda_step, include_hi=True)
            vals = masked_envelope_values(lams, n)
            diff = vals[1:] - vals[:-1]
            checked += lams.size - 1
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx + 1])})
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
    else:
        term, lo, n_lo, include_hi = {
            "F-mono-n": (_binomial_term, SLOPE_THRESHOLD, 2, False),
            "G-mono-n": (_shifted_term, 0.0, 2, False),
            "H-mono-n": (masked_envelope_values, 0.0, 1, True),
        }[claim]
        for n in range(n_lo, n_max):
            lams = _lam_grid(lo, float(n), lambda_step, include_hi)
            if lams.size == 0:
                continue
            diff = term(lams, n) - term(lams, n + 1)
            checked += lams.size
            idx = int(np.argmax(diff))
            consider(float(diff[idx]), {"n": n, "lam": float(lams[idx])})
    return (0.0 if worst == -math.inf else worst), worst_point, checked


def searchsorted_inverse_transform(spec, u: np.ndarray) -> np.ndarray:
    """Samples of a ``TwoPoint``, ``Uniform`` or ``Discrete`` spec at the
    uniforms ``u``: a ``Discrete`` takes atom ``min(searchsorted(cumsum(probs),
    u, "right"), K - 1)``.  This is Monte Carlo's earlier sampler, kept as
    the reference for the per-summand samplers."""
    from lefttail.oracles import Discrete, TwoPoint, Uniform

    if isinstance(spec, TwoPoint):
        return np.where(u < 1.0 - spec.prob_high, spec.low, spec.high)
    if isinstance(spec, Uniform):
        return spec.lo + u * (spec.hi - spec.lo)
    if isinstance(spec, Discrete):
        cum = np.cumsum(spec.probs)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(spec.points) - 1)
        return np.asarray(spec.points)[idx]
    raise TypeError(f"unsupported distribution spec {type(spec).__name__}")


def exact_simplex_volume_tail(n: int) -> Fraction:
    """P(U_1 + ... + U_n <= 1) for iid uniforms on [0,1]: 1/n!."""
    out = Fraction(1)
    for k in range(2, n + 1):
        out /= k
    return out


def central_difference(f, x: float, h: float) -> float:
    """Symmetric first-derivative estimate."""
    return (f(x + h) - f(x - h)) / (2.0 * h)
