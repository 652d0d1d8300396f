"""Brute-force and Monte Carlo oracles for the bound's reduction chain.

At desk scale these verify that, at fixed mean, the tail P(sum <= 1) over
{0,1}-Bernoulli sums never beats the finite-n bound (exhaustive simplex
search), that two-point sums never beat it either (discretised search over
per-summand (low, high, prob_high) triples), and that random mixed sums
respect the bound empirically (seeded Monte Carlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from lefttail.bounds import finite_n_bound

__all__ = [
    "SimplexPoint",
    "TwoPoint",
    "Uniform",
    "Discrete",
    "DistSpec",
    "McEstimate",
    "SearchReport",
    "SearchSpaceError",
    "bernoulli_tail",
    "maximize_bernoulli_tail",
    "two_point_tail",
    "two_point_mean",
    "maximize_two_point",
    "monte_carlo_tail",
    "spec_mean",
    "parse_dist_specs",
]

# Sums within this of the threshold count as <= 1, so grid-aligned reals
# that should hit the threshold exactly are not lost to float noise.
SUM_TOL = 1e-12

# Hard cap on exhaustive search sizes.
MAX_GRID_POINTS = 1_000_000_000


class SearchSpaceError(ValueError):
    """The requested exhaustive search exceeds the point budget."""


@dataclass(frozen=True)
class SimplexPoint:
    """A vector of Bernoulli means with a fixed sum."""

    q: tuple[float, ...]
    target_sum: float

    def __post_init__(self) -> None:
        if len(self.q) < 1:
            raise ValueError("need at least one mean")
        for v in self.q:
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"means must lie in [0,1], got {v}")
        if abs(sum(self.q) - self.target_sum) > 1e-9:
            raise ValueError(f"means sum to {sum(self.q)}, expected {self.target_sum}")


@dataclass(frozen=True)
class TwoPoint:
    """A variable taking ``high`` with probability ``prob_high``, else ``low``."""

    low: float
    high: float
    prob_high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(f"need 0 <= low <= high <= 1, got low={self.low}, high={self.high}")
        if not 0.0 <= self.prob_high <= 1.0:
            raise ValueError(f"prob_high must be in [0,1], got {self.prob_high}")

    def mean(self) -> float:
        return self.low + self.prob_high * (self.high - self.low)


@dataclass(frozen=True)
class Uniform:
    """Uniform on [lo, hi] within the unit interval."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got lo={self.lo}, hi={self.hi}")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Discrete:
    """Finite support in [0,1] with probabilities summing to 1."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) == 0 or len(self.points) != len(self.probs):
            raise ValueError("points and probs must be non-empty and of equal length")
        for x in self.points:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"support must lie in [0,1], got {x}")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, expected 1")

    def mean(self) -> float:
        return sum(x * p for x, p in zip(self.points, self.probs))


DistSpec = Union[TwoPoint, Uniform, Discrete]


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    ci_halfwidth: float


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive search against a bound.

    slack = bound_value - max_value; the search passes iff slack is not
    meaningfully negative.
    """

    max_value: float
    argmax: SimplexPoint | tuple[TwoPoint, ...]
    bound_value: float
    slack: float
    resolution: float
    points_evaluated: int


def bernoulli_tail(means: Sequence[float]) -> float:
    """P(sum of independent Bernoullis <= 1) for the given mean vector."""
    qs = [float(v) for v in means]
    if not qs:
        raise ValueError("need at least one mean")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"means must lie in [0,1], got {q}")
    return _tail_recurrence(qs)


def _tail_recurrence(columns):
    """P(sum <= 1) over Bernoulli means given one summand at a time.

    ``columns`` yields floats, or the columns of an (N, n) array of means
    for N tails at once.  The recurrence keeps P(sum = 0) and P(sum = 1)
    over the summands seen so far; it has no division, so means equal to
    1 are safe.
    """
    p0, p1 = 1.0, 0.0
    for q in columns:
        p1 = p1 * (1.0 - q) + p0 * q
        p0 = p0 * (1.0 - q)
    return p0 + p1


def _simplex_grid(n: int, lam: float, denom: int) -> np.ndarray:
    """Grid points on {q in [0,1]^n : sum q = lam}.

    The first n-1 coordinates run over non-decreasing multiples of
    1/denom (the tail is permutation-symmetric, so sorted prefixes cover
    every multiset); the last coordinate is the exact remainder, kept only
    when it lands in [0,1].  Sums are exact by construction.
    """
    unit = 1.0 / denom
    m = n - 1
    # remainder in [0,1] <=> prefix sum (in grid units) within [lam-1, lam]*denom
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
    if not rows:
        raise RuntimeError(f"empty simplex grid for n={n}, mean={lam}, resolution=1/{denom}")
    return np.asarray(rows, dtype=float)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float, int]:
    """Maximise f on [lo, hi] by golden-section, then compare the endpoints.

    The endpoint comparison matters because the tail along a pairwise mass
    transfer is a quadratic that can be convex, in which case the maximum
    sits at an end of the interval.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        evals += 1
    candidates = [((a + b) / 2.0, f((a + b) / 2.0)), (lo, f(lo)), (hi, f(hi))]
    evals += 3
    x_best, f_best = max(candidates, key=lambda t: t[1])
    return x_best, f_best, evals


def _refine_simplex(q0: Sequence[float], improve_tol: float = 1e-10) -> tuple[list[float], float, int]:
    """Coordinate-pair golden-section passes preserving the coordinate sum.

    Each step moves mass between one pair of coordinates; passes repeat
    until a full sweep improves the tail by less than ``improve_tol``.
    """
    q = [float(v) for v in q0]
    best = bernoulli_tail(q)
    evals = 1
    n = len(q)
    for _ in range(200):
        gained = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                t_lo = -min(1.0 - q[i], q[j])
                t_hi = min(q[i], 1.0 - q[j])
                if t_hi - t_lo < 1e-14:
                    continue
                qi, qj = q[i], q[j]

                def shifted(t: float) -> float:
                    trial = list(q)
                    trial[i] = min(1.0, max(0.0, qi - t))
                    trial[j] = min(1.0, max(0.0, qj + t))
                    return bernoulli_tail(trial)

                t_star, val, k = _golden_max(shifted, t_lo, t_hi)
                evals += k
                if val > best:
                    gained += val - best
                    best = val
                    q[i] = min(1.0, max(0.0, qi - t_star))
                    q[j] = min(1.0, max(0.0, qj + t_star))
        if gained < improve_tol:
            break
    return q, best, evals


def maximize_bernoulli_tail(n: int, lam: float, resolution: float) -> SearchReport:
    """Exhaustive grid + local refinement of the Bernoulli tail at fixed mean.

    Searches {q in [0,1]^n : sum q = lam} at the given grid resolution and
    compares the maximum against the finite-n bound.  The slack should
    never be meaningfully negative; the refined argmax is expected to be
    either (near-)symmetric or to pin some coordinate at 0 or 1.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"simplex search supports 2 <= n <= 6, got {n}")
    if not 0.0 <= lam <= n:
        raise ValueError(f"need 0 <= mean <= n, got mean={lam}, n={n}")
    if not 1e-3 <= resolution <= 0.1:
        raise ValueError(f"resolution must be in [1e-3, 0.1], got {resolution}")
    denom = round(1.0 / resolution)
    if math.comb(denom + n - 1, n - 1) > MAX_GRID_POINTS:
        raise SearchSpaceError(f"simplex grid would exceed {MAX_GRID_POINTS} points")
    rows = _simplex_grid(n, lam, denom)
    tails = _tail_recurrence(rows.T)
    best_idx = int(np.argmax(tails))
    q_best, max_value, extra = _refine_simplex(rows[best_idx])
    max_value = max(max_value, float(tails[best_idx]))
    # renormalise refinement round-off so the argmax sums to lam exactly
    drift = lam - sum(q_best)
    if abs(drift) > 0:
        k = max(range(len(q_best)), key=lambda i: min(q_best[i], 1.0 - q_best[i]))
        q_best[k] = min(1.0, max(0.0, q_best[k] + drift))
    bound = finite_n_bound(lam, n).value
    return SearchReport(
        max_value=max_value,
        argmax=SimplexPoint(tuple(q_best), lam),
        bound_value=bound,
        slack=bound - max_value,
        resolution=resolution,
        points_evaluated=len(rows) + extra,
    )


def two_point_tail(summands: Sequence[TwoPoint]) -> float:
    """Exact P(sum <= 1) for independent two-point variables, by enumeration.

    All 2^n value combinations are enumerated (in blocks, so n = 20 stays
    within memory); sums within SUM_TOL of 1 count as <= 1.
    """
    m = len(summands)
    if m == 0:
        raise ValueError("need at least one summand")
    if m > 20:
        raise SearchSpaceError(f"2^{m} enumeration exceeds the budget (max 20 summands)")
    lows = np.array([s.low for s in summands])
    highs = np.array([s.high for s in summands])
    phs = np.array([s.prob_high for s in summands])
    total = 0.0
    block = 1 << 16
    shifts = np.arange(m, dtype=np.int64)
    for start in range(0, 1 << m, block):
        idx = np.arange(start, min(start + block, 1 << m), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        values = np.where(bits == 1, highs, lows)
        probs = np.where(bits == 1, phs, 1.0 - phs).prod(axis=1)
        total += float(probs[values.sum(axis=1) <= 1.0 + SUM_TOL].sum())
    return total


def two_point_mean(summands: Sequence[TwoPoint]) -> float:
    """Mean of the sum: sum of low_i + prob_high_i * (high_i - low_i)."""
    return sum(s.mean() for s in summands)


def _two_point_options(denom: int) -> tuple[list[TwoPoint], np.ndarray, np.ndarray, np.ndarray]:
    """All grid summands (low <= high, prob on the same grid) plus their
    means and per-summand outcome (value, probability) pairs."""
    values = [i / denom for i in range(denom + 1)]
    options: list[TwoPoint] = []
    for i, low in enumerate(values):
        for high in values[i:]:
            for p in values:
                options.append(TwoPoint(low, high, p))
    means = np.array([o.mean() for o in options])
    out_vals = np.array([[o.low, o.high] for o in options])
    out_probs = np.array([[1.0 - o.prob_high, o.prob_high] for o in options])
    return options, means, out_vals, out_probs


def maximize_two_point(n: int, lam: float, resolution: float) -> SearchReport:
    """Discretised search over two-point summands at (approximately) fixed mean.

    Keeps grid specs whose mean is within ``resolution`` of lam and
    compares the maximal exact tail against the finite-n bound evaluated
    at lam - resolution: the bound is non-increasing in the mean, so that
    adjustment makes the comparison sound at grid precision.
    """
    if n not in (2, 3):
        raise ValueError(f"two-point search supports n in {{2, 3}}, got {n}")
    if not 0.0 <= lam <= n:
        raise ValueError(f"need 0 <= mean <= n, got mean={lam}, n={n}")
    if resolution < 0.05:
        raise ValueError(f"resolution must be >= 0.05, got {resolution}")
    denom = round(1.0 / resolution)
    options, means, out_vals, out_probs = _two_point_options(denom)
    m = len(options)
    if m**n > MAX_GRID_POINTS:
        raise SearchSpaceError(f"{m}^{n} two-point specs exceed the budget")
    window = resolution + 1e-12

    if n == 2:
        other_means, other_vals, other_probs = means, out_vals, out_probs
        index_of = np.arange(m)
    else:
        # pair table over the last two summands, flattened
        other_means = (means[:, None] + means[None, :]).reshape(-1)
        other_vals = (out_vals[:, None, :, None] + out_vals[None, :, None, :]).reshape(m * m, 4)
        other_probs = (out_probs[:, None, :, None] * out_probs[None, :, None, :]).reshape(m * m, 4)
        index_of = np.arange(m * m)

    order = np.argsort(other_means, kind="stable")
    sorted_means = other_means[order]
    sorted_vals = other_vals[order]
    sorted_probs = other_probs[order]
    sorted_index = index_of[order]

    best_val = -1.0
    best_combo: tuple[int, ...] | None = None
    points = 0
    for a in range(m):
        lo = np.searchsorted(sorted_means, lam - window - means[a], side="left")
        hi = np.searchsorted(sorted_means, lam + window - means[a], side="right")
        if lo >= hi:
            continue
        vals = sorted_vals[lo:hi]
        probs = sorted_probs[lo:hi]
        tails = np.zeros(hi - lo)
        for oa in range(2):
            pa = out_probs[a, oa]
            if pa == 0.0:
                continue
            threshold = 1.0 + SUM_TOL - out_vals[a, oa]
            tails += pa * (probs * (vals <= threshold)).sum(axis=1)
        points += hi - lo
        local = int(np.argmax(tails))
        if tails[local] > best_val:
            best_val = float(tails[local])
            rest = int(sorted_index[lo + local])
            best_combo = (a, rest) if n == 2 else (a, rest // m, rest % m)
    if best_combo is None:
        raise RuntimeError(f"no grid spec has mean within {resolution} of {lam}")
    argmax = tuple(options[i] for i in best_combo)
    bound = finite_n_bound(max(0.0, lam - resolution), n).value
    return SearchReport(
        max_value=best_val,
        argmax=argmax,
        bound_value=bound,
        slack=bound - best_val,
        resolution=resolution,
        points_evaluated=int(points),
    )


def _inverse_transform(spec: DistSpec, u: np.ndarray) -> np.ndarray:
    if isinstance(spec, TwoPoint):
        return np.where(u < 1.0 - spec.prob_high, spec.low, spec.high)
    if isinstance(spec, Uniform):
        return spec.lo + u * (spec.hi - spec.lo)
    if isinstance(spec, Discrete):
        cum = np.cumsum(spec.probs)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(spec.points) - 1)
        return np.asarray(spec.points)[idx]
    raise TypeError(f"unsupported distribution spec {type(spec).__name__}")


def spec_mean(specs: Sequence[DistSpec]) -> float:
    """Mean of the sum described by a spec sequence."""
    return sum(s.mean() for s in specs)


def monte_carlo_tail(specs: Sequence[DistSpec], trials: int, seed: int) -> McEstimate:
    """Seeded empirical estimate of P(sum <= 1) with a 3-sigma half-width.

    Sampling is inverse-transform on uniforms from a counter-based Philox
    generator keyed by ``seed``, so identical calls are bit-identical
    across runs and platforms.
    """
    if len(specs) == 0:
        raise ValueError("need at least one distribution spec")
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((trials, len(specs)))
    total = np.zeros(trials)
    for j, spec in enumerate(specs):
        total += _inverse_transform(spec, u[:, j])
    estimate = float(np.count_nonzero(total <= 1.0 + SUM_TOL)) / trials
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / trials)
    return McEstimate(estimate=estimate, ci_halfwidth=ci)


def parse_dist_specs(data: object) -> tuple[DistSpec, ...]:
    """Build distribution specs from decoded JSON.

    Schema: a non-empty list of objects, each one of
    {"type": "two-point", "low": x, "high": y, "p": z},
    {"type": "uniform", "lo": x, "hi": y},
    {"type": "discrete", "points": [...], "probs": [...]}.
    """
    if not isinstance(data, list) or not data:
        raise ValueError("spec file must be a non-empty JSON list")
    specs: list[DistSpec] = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"entry {i} is not an object")
        kind = item.get("type")
        try:
            if kind == "two-point":
                specs.append(TwoPoint(float(item["low"]), float(item["high"]), float(item["p"])))
            elif kind == "uniform":
                specs.append(Uniform(float(item["lo"]), float(item["hi"])))
            elif kind == "discrete":
                specs.append(
                    Discrete(tuple(float(x) for x in item["points"]), tuple(float(p) for p in item["probs"]))
                )
            else:
                raise ValueError(f"entry {i} has unknown type {kind!r}")
        except KeyError as exc:
            raise ValueError(f"entry {i} is missing field {exc}") from exc
    return tuple(specs)
