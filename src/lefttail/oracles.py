"""Brute-force and Monte Carlo oracles for the bound's reduction chain.

At desk scale these verify that, at fixed mean, the tail P(sum <= 1) over
{0,1}-Bernoulli sums never beats the finite-n bound (exhaustive simplex
search), that two-point sums never beat it either (discretised search over
per-summand (low, high, prob_high) triples), and that random mixed sums
respect the bound empirically (seeded Monte Carlo).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from lefttail.bounds import _check_query, finite_n_bound

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

# Hard cap on exhaustive search sizes: simplex grid points, or sorted
# combinations of two-point grid summands.
MAX_GRID_POINTS = 1_000_000_000

# Rows the exhaustive searches build and evaluate, and Monte Carlo trials
# drawn and summed, at a time.  Memory then does not grow with the grid or
# the trial count, and a chunk's arrays stay in cache: 2^13 to 2^14 rows
# ran fastest for the searches, 2^18 about 40% slower; Monte Carlo ran
# fastest at 2^12 to 2^13 rows, about 40% faster than a single draw.
CHUNK_ROWS = 1 << 13

# Candidate partial sums one step of the exact-tail convolution may hold:
# at about 80 bytes each in flight, a step peaks near 22 MB.
MAX_PARTIAL_SUMS = 1 << 18

# Passes of pair moves the simplex refinement makes at most.  Over n = 2..6
# at resolutions 0.1 to 0.02, no search needed more than 39.
MAX_PAIR_PASSES = 200


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
        if not abs(sum(self.q) - self.target_sum) <= 1e-9:  # also true for NaN
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
        for p in self.probs:
            if not 0.0 <= p <= 1.0:  # also false for NaN
                raise ValueError(f"probabilities must lie in [0,1], got {p}")
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
    meaningfully negative.  ``points_evaluated`` counts the simplex grid
    rows plus the pair moves evaluated, or the distinct sorted two-point
    combinations inside the mean window.
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
    p0, p1 = _tail_states(qs)
    return p0 + p1


def _tail_states(columns):
    """P(sum = 0) and P(sum = 1) over Bernoulli means given one summand at
    a time; their sum is the tail P(sum <= 1).

    ``columns`` yields floats, or the columns of an (N, n) array of means
    for N tails at once.  The recurrence has no division, so means equal
    to 1 are safe.
    """
    p0, p1 = 1.0, 0.0
    for q in columns:
        p1 = p1 * (1.0 - q) + p0 * q
        p0 = p0 * (1.0 - q)
    return p0, p1


def _expand(lb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, child)`` for every parent i and child in ``[lb[i], ub[i])``.

    Parents keep their order and each parent's children follow in
    increasing order, so expanding lexicographically sorted tuples by one
    more index keeps them sorted.
    """
    counts = np.maximum(ub - lb, 0)
    parent = np.repeat(np.arange(len(lb)), counts)
    starts = np.cumsum(counts) - counts
    child = np.arange(parent.size) + np.repeat(lb - starts, counts)
    return parent, child


def _sorted_tuples(values: np.ndarray, lo, hi, size: int):
    """Non-decreasing index tuples into the sorted array ``values`` whose
    value sums lie in ``[lo, hi]``, in lexicographic order.

    Yields chunks ``(index, total)`` of at most CHUNK_ROWS rows plus one
    parent's children: ``index`` is a list of ``size`` index columns and
    ``total`` holds the rows' value sums.

    The tuples grow one index at a time.  With ``rest`` indices still to
    come after the next one, each at least its value and at most
    ``values[-1]``, the next value v can complete a tuple in the window
    only if ``total + (rest + 1) v <= hi`` and ``total + v + rest
    values[-1] >= lo``; every depth keeps just that range.
    """
    top = values[-1]

    def grow(index: list, total: np.ndarray):
        depth = len(index)
        if depth == size:
            yield index, total
            return
        rest = size - depth - 1
        start = index[-1] if depth else 0
        lb = np.maximum(start, np.searchsorted(values, lo - total - rest * top, side="left"))
        ub = np.searchsorted(values, (hi - total) / (rest + 1), side="right")
        ends = np.cumsum(np.maximum(ub - lb, 0))
        cuts = np.searchsorted(ends, np.arange(CHUNK_ROWS, ends[-1], CHUNK_ROWS), side="right")
        for a, b in zip((0, *cuts), (*cuts, len(ends))):
            parent, child = _expand(lb[a:b], ub[a:b])
            if child.size:
                parent += a
                yield from grow([column[parent] for column in index] + [child], total[parent] + values[child])

    yield from grow([], np.zeros(1, dtype=values.dtype))


def _prefix_window(lam: float, denom: int) -> tuple[int, int]:
    """Sums, in grid units, of the first n-1 simplex coordinates that leave
    a last coordinate in [0, 1] (to within 1e-9/denom)."""
    return math.ceil((lam - 1.0) * denom - 1e-9), math.floor(lam * denom + 1e-9)


def _simplex_grid(n: int, lam: float, denom: int):
    """Grid points on {q in [0,1]^n : sum q = lam}, as chunks of n columns.

    The first n-1 coordinates run over non-decreasing multiples of
    1/denom (the tail is permutation-symmetric, so sorted prefixes cover
    every multiset); the last coordinate is the exact remainder, kept only
    when it lands in [0,1].  Sums are exact by construction.  Rows come in
    lexicographic order of the prefix.
    """
    unit = 1.0 / denom
    lo_units, hi_units = _prefix_window(lam, denom)
    for index, total in _sorted_tuples(np.arange(denom + 1), lo_units, hi_units, n - 1):
        last = lam - total * unit
        last = np.where(last > 0.0, last, 0.0)  # as max(0.0, last): -0.0 becomes 0.0
        yield [k * unit for k in index] + [np.where(last < 1.0, last, 1.0)]


def _simplex_size(n: int, lam: float, denom: int) -> int:
    """Exact number of rows :func:`_simplex_grid` yields, without building any.

    ``count[k][s]`` is the number of non-decreasing k-tuples from
    0..d with sum s.  Raising d by one adds the tuples with every entry
    at least 1 (shift a k-tuple from 0..d-1 up by one: sum + k) to those
    holding a 0 (a (k-1)-tuple from 0..d plus a 0).
    """
    lo_units, hi_units = _prefix_window(lam, denom)
    m = n - 1
    count = np.zeros((m + 1, hi_units + 1), dtype=np.int64)
    count[:, 0] = 1
    for _ in range(denom):
        for k in range(1, m + 1):
            row = count[k - 1].copy()
            row[k:] += count[k, : max(hi_units + 1 - k, 0)]
            count[k] = row
    return int(count[m, max(lo_units, 0) :].sum())


def _pair_moves(q: list[float]) -> int:
    """Raise the tail of ``q`` in place by exact moves along coordinate
    pairs; returns the number of pairs evaluated.

    Fix every coordinate but q_i and q_j, let s = q_i + q_j, and let r0, r1
    be P(rest = 0) and P(rest = 1) over the others.  The tail is then
    r0 + r1 (1 - s) + (r1 - r0) q_i q_j, so along the pair it is highest
    with s split equally when r1 > r0, and with the pair pushed apart to
    max(0, s - 1) and min(1, s) when r1 < r0.  Both keep the pair's float
    sum (s/2 and s - 1 are exact) and leave the larger coordinate the
    larger.  Coordinates within 1e-15 of each other, or of the bound they
    would be pushed to, count as there already, so that a sum that does not
    halve evenly cannot make the passes cycle in the last bit.  Passes
    repeat until one moves nothing, at most MAX_PAIR_PASSES times.
    """
    n = len(q)
    evaluated = 0
    for _ in range(MAX_PAIR_PASSES):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                r0, r1 = _tail_states(q[k] for k in range(n) if k != i and k != j)
                evaluated += 1
                a, b = (i, j) if q[i] <= q[j] else (j, i)
                s = q[a] + q[b]
                if r1 > r0 and q[b] - q[a] > 1e-15:
                    q[a] = q[b] = s / 2.0
                elif r1 < r0 and q[a] - max(0.0, s - 1.0) > 1e-15:
                    q[a], q[b] = max(0.0, s - 1.0), min(1.0, s)
                else:
                    continue
                moved = True
        if not moved:
            break
    return evaluated


def maximize_bernoulli_tail(n: int, lam: float, resolution: float) -> SearchReport:
    """Exhaustive grid search, then exact pair moves, of the Bernoulli tail
    at fixed mean.

    Searches {q in [0,1]^n : sum q = lam} at the given grid resolution,
    runs :func:`_pair_moves` from the best grid row and from the symmetric
    point (lam/n, ..., lam/n), and compares the maximum against the
    finite-n bound.  The second start reaches the binomial extremal where
    every grid row has two coordinates at 1, so that every row's tail and
    every pair's states are 0 and no move is made.  ``max_value`` is the
    tail of the returned argmax: the best of the two moved points and the
    grid row, which rounding can leave higher.  The slack should never be
    meaningfully negative; the argmax is expected to have its interior
    coordinates equal, with the others at 0 or 1.
    """
    _check_query(lam, n)
    if not 2 <= n <= 6:
        raise ValueError(f"simplex search supports 2 <= n <= 6, got {n}")
    if not 1e-3 <= resolution <= 0.1:
        raise ValueError(f"resolution must be in [1e-3, 0.1], got {resolution}")
    denom = round(1.0 / resolution)
    size = _simplex_size(n, lam, denom)
    if size > MAX_GRID_POINTS:
        raise SearchSpaceError(f"simplex grid has {size} points, over the budget of {MAX_GRID_POINTS}")
    best_tail, best_row = -1.0, None
    for columns in _simplex_grid(n, lam, denom):
        p0, p1 = _tail_states(columns)
        tails = p0 + p1
        i = int(np.argmax(tails))
        if tails[i] > best_tail:
            best_tail, best_row = float(tails[i]), [float(q[i]) for q in columns]
    moved, symmetric = list(best_row), [lam / n] * n
    moves = _pair_moves(moved) + _pair_moves(symmetric)
    # the first of equal tails wins: the grid row only where the moves left
    # it strictly lower, the symmetric start only where strictly higher
    candidates = ((bernoulli_tail(moved), moved), (best_tail, best_row), (bernoulli_tail(symmetric), symmetric))
    max_value, q = max(candidates, key=lambda c: c[0])
    bound = finite_n_bound(lam, n).value
    return SearchReport(
        max_value=max_value,
        argmax=SimplexPoint(tuple(q), lam),
        bound_value=bound,
        slack=bound - max_value,
        resolution=resolution,
        points_evaluated=size + moves,
    )


def two_point_tail(summands: Sequence[TwoPoint]) -> float:
    """Exact P(sum <= 1) for independent two-point variables, by the
    convolution of :func:`_atoms_tail`; sums within SUM_TOL of 1 count as <= 1."""
    if len(summands) == 0:
        raise ValueError("need at least one summand")
    return _atoms_tail([((s.low, s.high), (1.0 - s.prob_high, s.prob_high)) for s in summands])


def _atoms_tail(atoms: Sequence[tuple[Sequence[float], Sequence[float]]]) -> float:
    """Exact P(sum <= 1) for independent summands given as ``(values,
    probs)`` atom lists, with values in [0, 1].

    Convolves in one summand at a time.  Adding a non-negative value never
    lowers a float sum, so partial sums above 1 + SUM_TOL are dropped, and
    equal ones merged.  Over MAX_PARTIAL_SUMS candidate sums in one step,
    it raises SearchSpaceError.
    """
    sums, probs = np.zeros(1), np.ones(1)
    for values, weights in atoms:
        if sums.size * len(values) > MAX_PARTIAL_SUMS:
            raise SearchSpaceError(f"{sums.size * len(values)} partial sums exceed the budget of {MAX_PARTIAL_SUMS}")
        total = np.add.outer(sums, values).ravel()
        keep = total <= 1.0 + SUM_TOL
        sums, index = np.unique(total[keep], return_inverse=True)
        probs = np.bincount(index, weights=np.multiply.outer(probs, weights).ravel()[keep])
    return float(probs.sum())


def _two_point_options(denom: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct grid summands ``(low, high, prob_high)`` and their means,
    sorted by mean.

    A summand with ``low == high`` or ``prob_high`` in {0, 1} is a point
    mass; each grid value appears once as ``(v, v, 0)``.  The others have
    ``low < high`` and ``0 < prob_high < 1`` on the grid.
    """
    grid = np.arange(denom + 1) / denom
    i, j = np.triu_indices(denom + 1, 1)
    k = np.arange(1, denom)
    low = np.concatenate((np.repeat(grid[i], k.size), grid))
    high = np.concatenate((np.repeat(grid[j], k.size), grid))
    prob = np.concatenate((np.tile(grid[k], i.size), np.zeros(denom + 1)))
    means = low + prob * (high - low)
    order = np.argsort(means, kind="stable")
    return low[order], high[order], prob[order], means[order]


def _two_point_tails(summands: list) -> np.ndarray:
    """Exact P(sum <= 1) for rows of independent two-point summands.

    ``summands`` holds, for each summand, its two outcomes as ``(value,
    probability)`` arrays over the rows.  The outcomes of all summands but
    the first are combined into one list, which is thresholded against each
    outcome of the first; sums within SUM_TOL of 1 count as <= 1.
    """
    first, *others = summands
    rest = others[0]
    for outcomes in others[1:]:
        rest = [(v + w, p * q) for v, p in rest for w, q in outcomes]
    tails = 0.0
    for value, prob in first:
        threshold = 1.0 + SUM_TOL - value
        tails = tails + prob * sum(p * (v <= threshold) for v, p in rest)
    return tails


def maximize_two_point(n: int, lam: float, resolution: float) -> SearchReport:
    """Discretised search over two-point summands at (approximately) fixed mean.

    Keeps grid specs whose mean is within ``resolution`` of lam and
    compares the maximal exact tail against the finite-n bound evaluated
    at lam - resolution: the bound is non-increasing in the mean, so that
    adjustment makes the comparison sound at grid precision.  The tail is
    symmetric in its summands, so each multiset of distinct grid summands
    is evaluated once; ``points_evaluated`` counts these.
    """
    _check_query(lam, n)
    if n not in (2, 3):
        raise ValueError(f"two-point search supports n in {{2, 3}}, got {n}")
    if not 0.05 <= resolution <= 1.0:
        raise ValueError(f"resolution must be in [0.05, 1], got {resolution}")
    denom = round(1.0 / resolution)
    low, high, prob, means = _two_point_options(denom)
    if math.comb(len(means) + n - 1, n) > MAX_GRID_POINTS:
        raise SearchSpaceError(f"{len(means)} two-point specs give over {MAX_GRID_POINTS} combinations of {n}")
    stay = 1.0 - prob
    window = resolution + 1e-12

    best_val, best_combo, points = -1.0, None, 0
    for index, _ in _sorted_tuples(means, lam - window, lam + window, n):
        tails = _two_point_tails([((low[c], stay[c]), (high[c], prob[c])) for c in index])
        points += len(tails)
        i = int(np.argmax(tails))
        if tails[i] > best_val:
            best_val, best_combo = float(tails[i]), [c[i] for c in index]
    argmax = tuple(TwoPoint(float(low[k]), float(high[k]), float(prob[k])) for k in best_combo)
    bound = finite_n_bound(max(0.0, lam - resolution), n).value
    return SearchReport(
        max_value=best_val,
        argmax=argmax,
        bound_value=bound,
        slack=bound - best_val,
        resolution=resolution,
        points_evaluated=points,
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


two_point_mean = spec_mean


def monte_carlo_tail(specs: Sequence[DistSpec], trials: int, seed: int) -> McEstimate:
    """Seeded empirical estimate of P(sum <= 1) with a 3-sigma half-width.

    Sampling is inverse-transform on uniforms from a counter-based Philox
    generator keyed by ``seed``, so identical calls are bit-identical
    across runs and platforms.  Trials are drawn in chunks of
    ``CHUNK_ROWS`` rows, each summed in summand order as one draw of
    every row would be, so the estimate does not depend on the chunking.
    """
    if len(specs) == 0:
        raise ValueError("need at least one distribution spec")
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise ValueError(f"trials and seed must be integers, got {trials} and {seed}") from None
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    for start in range(0, trials, CHUNK_ROWS):
        # row chunks of one Philox stream are the rows of a single draw
        u = rng.random((min(CHUNK_ROWS, trials - start), len(specs)))
        total = np.zeros(len(u))
        for j, spec in enumerate(specs):
            total += _inverse_transform(spec, u[:, j])
        hits += int(np.count_nonzero(total <= 1.0 + SUM_TOL))
    estimate = float(hits) / trials
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
