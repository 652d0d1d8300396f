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
from typing import Callable, Sequence, Union

import numpy as np

from lefttail.bounds import _check_query, _integer, finite_n_bound

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
    "maximize_two_point",
    "monte_carlo_tail",
    "spec_mean",
    "parse_dist_specs",
]

# Sums within this of the threshold count as <= 1, so grid-aligned reals
# that should hit the threshold exactly are not lost to float noise.
SUM_TOL = 1e-12

# Hard cap on the rows an exhaustive search scans (simplex grid points, or
# sorted combinations of two-point grid summands), and on the draws, trials
# times summands, of one Monte Carlo call: about 26 s at 26 ns a draw.
MAX_GRID_POINTS = 1_000_000_000

# Rows the exhaustive searches build and evaluate, and Monte Carlo trials
# drawn and summed, at a time.  Memory then does not grow with the grid or
# the trial count, and a chunk's arrays stay in cache: the benchmark's four
# simplex searches took 20 ms at 2^13 rows, 23-24 ms at 2^12 and 2^14 and
# 39 ms at 2^17 (medians of 8 on a 2-core Xeon); Monte Carlo over 10^6 trials
# of 20 summands took 231-281 ms at 2^13 rows, against 622-738 ms in one draw.
CHUNK_ROWS = 1 << 13

# Candidate partial sums one step of the exact-tail convolution may hold:
# at about 80 bytes each in flight, a step peaks near 22 MB.
MAX_PARTIAL_SUMS = 1 << 18

# Passes of pair moves the simplex refinement makes at most.  Over n = 2..6
# at resolutions 0.1 to 0.02, no search needed more than 39.
MAX_PAIR_PASSES = 200

# Atoms up to which a finite law's Monte Carlo sampler counts the cuts at or
# below each uniform, one comparison per cut, rather than binary-searching
# them.  On columns of 8192 uniforms (2-core Xeon) counting took 3-5 ns a
# sample at 3 atoms and 16-24 ns at 32; the search took 16-19 ns at 3
# atoms, and at 32 atoms 47-55 ns with equal probabilities and 24 ns with
# halving ones, which it wins from 40 atoms on.  The count is held in
# uint8, so this must stay below 256.
COUNTED_ATOMS = 32


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

    ``lefttail verify`` passes iff max_value - bound_value <= CLOSED_FORM_TOL.
    ``points_evaluated`` counts the simplex grid rows (multisets where lam
    is on the grid) plus the pair moves evaluated, or the sorted two-point
    rows in the mean window's lowest resolution, counted before any is built.
    """

    max_value: float
    argmax: SimplexPoint | tuple[TwoPoint, ...]
    bound_value: float
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


def _tail_states(columns, p0=1.0, p1=0.0):
    """P(sum = 0) and P(sum = 1), whose sum is the tail P(sum <= 1), over
    Bernoulli means given one summand at a time after the states ``(p0,
    p1)`` of any summands before them.  ``columns`` yields floats, or the
    columns of an (N, n) array of means for N tails and states at once.
    The recurrence has no division, so means equal to 1 are safe.
    """
    for q in columns:
        stay = 1.0 - q
        p1 = p1 * stay + p0 * q
        p0 = p0 * stay
    return p0, p1


def _sorted_tuples(values: np.ndarray, lo, hi, size: int, state, step, implied: int = 0):
    """Non-decreasing index tuples into the sorted array ``values`` whose
    value sums lie in ``[lo, hi]``, in lexicographic order.

    Yields chunks ``(links, states, total)`` of at most CHUNK_ROWS rows plus
    one parent's children.  ``links`` holds one ``(parent, child)`` pair of
    arrays per depth, no index column: row g's last index is ``child[g]`` of
    the last pair, and its others are those of row ``parent[g]`` one depth
    up.  ``states`` and ``total``, the value sums, belong to the leaves'
    parents, one entry per parent, which row g reads at ``parent[g]``: no
    leaf gathers a state or sums its values.  Each node above the leaves
    makes its states once, by ``step(its parents' states, parent, child)``
    over the link from the depth above, from the root's ``state``.

    The tuples grow one index at a time.  With ``rest`` indices still to
    come after the next one, plus ``implied``, each at least its value and
    at most ``values[-1]``, the next value v can complete a tuple in the
    window only if ``total + (rest + 1 + implied) v <= hi`` and ``total + v
    + (rest + implied) values[-1] >= lo``; every depth keeps just that range.
    With ``implied`` 1, ``values`` are 0..top and the window one sum of size
    + 1 indices: each multiset once, its largest, ``hi - total``, implied.
    """
    top = values[-1]

    def grow(links: list, state, total: np.ndarray):
        depth = len(links)
        rest = size - depth - 1
        start = links[-1][1] if depth else 0
        lb = np.maximum(start, np.searchsorted(values, lo - total - (rest + implied) * top, side="left"))
        ub = np.searchsorted(values, (hi - total) / (rest + 1 + implied), side="right")
        counts = np.maximum(ub - lb, 0)
        ends = np.cumsum(counts)
        # row g of the depth has parent p with ends[p-1] <= g < ends[p] and
        # child g + shift[p]: parents keep their order and each one's
        # children rise from lb[p], so the tuples stay sorted
        shift = lb - ends + counts
        cuts = np.searchsorted(ends, np.arange(CHUNK_ROWS, ends[-1], CHUNK_ROWS), side="right")
        for a, b in zip((0, *cuts), (*cuts, len(ends))):
            parent = np.repeat(np.arange(a, b), counts[a:b])
            if parent.size:
                child = np.arange(ends[b - 1] - parent.size, ends[b - 1]) + shift[parent]
                if rest:
                    yield from grow([*links, (parent, child)], step(state, parent, child), total[parent] + values[child])
                else:
                    yield [*links, (parent, child)], state, total

    yield from grow([], state, np.zeros(1, dtype=values.dtype))


def _tuple_count(values: np.ndarray, lo: int, hi: int, size: int) -> int:
    """Rows :func:`_sorted_tuples` yields for sorted non-negative integer
    ``values``, counted without building any by Newton's identity for
    multisets: k z_k = sum_{j<=k} p_j * z_{k-j}, where z_k[s] counts k-tuples
    with value sum s and p_j[s] the values v with j v = s.  Convolving costs
    O(hi^2), so the mirror image v -> top - v is counted if its window is lower.
    Every k z_k is at most size * comb(len(values) + size - 1, size), so
    from 2**63 on it raises SearchSpaceError before int64 could wrap.
    Validated searches reach about 1.1e13 tuples, far inside int64.
    """
    if size * math.comb(len(values) + size - 1, size) >= 2**63:
        raise SearchSpaceError(f"{size}-tuples of {len(values)} values are too many to count in int64")
    top = int(values[-1])
    if size * top - lo < hi:
        values, lo, hi = top - values, size * top - hi, size * top - lo
    p = [np.bincount(j * values[j * values <= hi], minlength=hi + 1) for j in range(1, size + 1)]
    z = [np.ones(1, dtype=np.int64)]
    for k in range(1, size + 1):
        z.append(sum(np.convolve(p[j - 1], z[k - j])[: hi + 1] for j in range(1, k + 1)) // k)
    return int(z[size][max(lo, 0) :].sum())


def _unit_window(lo: float, hi: float, scale: int) -> tuple[int, int]:
    """The integers k with lo <= k / scale <= hi, to within 1e-9 / scale."""
    return math.ceil(lo * scale - 1e-9), math.floor(hi * scale + 1e-9)


def _best_row(values: np.ndarray, lo: int, hi: int, size: int, state, step, finish, implied: int = 0):
    """Both searches' exhaustive stage: counts the rows of :func:`_sorted_tuples`,
    the ``size + implied``-multisets in the window, refuses a count over
    MAX_GRID_POINTS before building any row or state, and scans the chunks
    grown from ``state`` by ``step``, scoring each by ``finish(its leaves'
    parents' states, the rows' parents, last indices, the parents'
    totals)``.  Returns ``(count, best tail, best row's index)``, the index
    without an implied last one; the first of equal tails wins.
    """
    count = _tuple_count(values, lo, hi, size + implied)
    if count > MAX_GRID_POINTS:
        raise SearchSpaceError(f"exhaustive search has {count} rows, over the budget of {MAX_GRID_POINTS}")
    best_tail, best_index = -1.0, None
    for links, states, total in _sorted_tuples(values, lo, hi, size, state, step, implied):
        chunk = finish(states, *links[-1], total)
        i = int(np.argmax(chunk))
        if chunk[i] > best_tail:
            # the row's index traced up the links at once: no chunk outlives its scan
            best_tail, best_index = float(chunk[i]), []
            for parent, child in reversed(links):
                best_index.insert(0, child[i])
                i = parent[i]
    return count, best_tail, best_index


def _simplex_point(index, total, lam: float, denom: int) -> list:
    """The point on {q in [0,1]^n : sum q = lam} of a row of :func:`_sorted_tuples`
    over 0..denom, or the columns of a chunk's points: the row's multiples of
    1/denom, then the exact remainder, clipped into [0,1] against rounding
    (the row's largest grid value where lam is on the grid; sorted rows
    cover every multiset, as the tail is symmetric).
    """
    unit = 1.0 / denom
    last = lam - total * unit
    last = np.where(last > 0.0, last, 0.0)  # as max(0.0, last): -0.0 becomes 0.0
    return [k * unit for k in index] + [np.where(last < 1.0, last, 1.0)]


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
    over sorted grid prefixes of n - 1 coordinates and the exact remainder
    (where lam is on the grid, the largest of the row's n grid values, so
    each multiset is scanned once), runs :func:`_pair_moves` from the best
    grid row and from the symmetric point (lam/n, ..., lam/n), and compares
    the maximum against the finite-n bound.  The second start reaches the
    binomial extremal where every grid row has two coordinates at 1, so
    that every row's tail and every pair's states are 0 and no move is
    made.  ``max_value`` is the tail of the returned argmax: the best of
    the two moved points and the grid row, which rounding can leave higher.
    It should exceed the bound by rounding at most; the argmax is expected
    to have its interior coordinates equal, with the others at 0 or 1.
    """
    _check_query(lam, n)
    if not 2 <= n <= 6:
        raise ValueError(f"simplex search supports 2 <= n <= 6, got {n}")
    if not 1e-3 <= resolution <= 0.1:
        raise ValueError(f"resolution must be in [1e-3, 0.1], got {resolution}")
    denom = round(1.0 / resolution)
    unit, (lo, hi) = 1.0 / denom, _unit_window(lam - 1.0, lam, denom)
    implied = int(hi - lo == denom)
    # a node's states take its last grid column, a leaf's tail its last column
    # and the exact remainder: the operations of _tail_states over the row's _simplex_point
    size, best_tail, index = _best_row(
        np.arange(denom + 1), hi if implied else lo, hi, n - 1, (np.ones(1), np.zeros(1)),
        lambda states, parent, child: _tail_states([child * unit], *(s[parent] for s in states)),
        lambda states, parent, child, total: np.add(*_tail_states([child * unit, *_simplex_point([], total[parent] + child, lam, denom)], *(s[parent] for s in states))),
        implied,
    )
    best_row = [float(q) for q in _simplex_point(index, sum(index), lam, denom)]
    moved, symmetric = list(best_row), [lam / n] * n
    moves = _pair_moves(moved) + _pair_moves(symmetric)
    # the first of equal tails wins: the grid row only where the moves left
    # it strictly lower, the symmetric start only where strictly higher
    candidates = ((bernoulli_tail(moved), moved), (best_tail, best_row), (bernoulli_tail(symmetric), symmetric))
    max_value, q = max(candidates, key=lambda c: c[0])
    return SearchReport(max_value, SimplexPoint(tuple(q), lam), finite_n_bound(lam, n).value, size + moves)


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
    """The distinct grid summands ``(low, high, prob_high)`` in units of
    1/denom and their means in units of 1/denom^2, stable-sorted by mean.

    A summand with ``low == high`` or ``prob_high`` in {0, 1} is a point
    mass; each grid value appears once as ``(v, v, 0)``.  The others have
    ``low < high`` and ``0 < prob_high < 1`` on the grid.
    """
    grid = np.arange(denom + 1)
    i, j = np.triu_indices(denom + 1, 1)
    k = np.arange(1, denom)
    low = np.concatenate((np.repeat(i, k.size), grid))
    high = np.concatenate((np.repeat(j, k.size), grid))
    prob = np.concatenate((np.tile(k, i.size), np.zeros(denom + 1, dtype=k.dtype)))
    means = denom * low + prob * (high - low)
    order = np.argsort(means, kind="stable")
    return low[order], high[order], prob[order], means[order]


def maximize_two_point(n: int, lam: float, resolution: float) -> SearchReport:
    """Discretised search over two-point summands at (approximately) fixed mean.

    Keeps grid specs whose mean is within ``resolution`` of lam and compares
    the maximal tail against the finite-n bound at lam - resolution, sound at
    grid precision as the bound is non-increasing in the mean.  A row is a
    multiset of distinct grid summands, as the tail is symmetric.  Moving
    1/denom of probability from high to low, or splitting a point mass v >= 1
    as (v - 1, v, (denom - 1)/denom), lowers a summand in law, which never
    lowers the tail, and the row's mean by 1 to denom units of 1/denom**2, to
    a row scanned earlier: the first row of highest tail lies in the window's
    lowest denom units from max(lo, 0), the only rows counted and scanned.
    Values, means and probabilities are integer grid units, so the window, the
    ``<= 1`` test and each tail, a numerator over denom**n, are exact, and
    ``max_value`` is the best, rounded once; n is at most 4.
    """
    _check_query(lam, n)
    if not 2 <= n <= 4:
        raise ValueError(f"two-point search supports 2 <= n <= 4, got {n}")
    if not 0.05 <= resolution <= 1.0:
        raise ValueError(f"resolution must be in [0.05, 1], got {resolution}")
    denom = round(1.0 / resolution)
    low, high, prob, means = _two_point_options(denom)
    lo, hi = _unit_window(lam - resolution, lam + resolution, denom * denom)
    stay = denom - prob

    def column(table, parent, c, r):
        # the rows' F(r) from their parents' rows r - low + 1 and r - high + 1, clipped onto row 0
        width = table.shape[1]
        at = parent + (r + 1) * width
        return stay[c] * table.take(at - low[c] * width, mode="clip") + prob[c] * table.take(at - high[c] * width, mode="clip")

    def step(table, parent, c):
        out = np.zeros((denom + 2, len(c)), dtype=int)
        for r in range(denom + 1):
            out[r + 1] = column(table, parent, c, r)
        return out

    # a node's state is a (denom + 2, nodes) table: row r + 1 holds F(r), the numerator of "prefix sum <= r"
    # over denom**depth, (1-p) F(r - low) + p F(r - high) of its parent's, row 0 the zero below every sum
    root = np.ones((denom + 2, 1), dtype=int)
    root[0] = 0
    size, best, index = _best_row(means, lo, min(hi, max(lo, 0) + denom - 1), n, root, step, lambda table, parent, c, _: column(table, parent, c, denom))
    argmax = tuple(TwoPoint(float(low[c] / denom), float(high[c] / denom), float(prob[c] / denom)) for c in index)
    return SearchReport(best / denom**n, argmax, finite_n_bound(max(0.0, lam - resolution), n).value, size)


def _sampler(spec: DistSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The inverse transform of ``spec``, as a function of a column of
    uniforms.

    A finite law takes the atom whose index counts its cuts
    ``cumsum(probs)[:-1]`` at or below u: the index
    ``min(searchsorted(cumsum(probs), u, "right"), K - 1)``, with no clip
    since the cuts leave out the last sum.  A ``TwoPoint`` is the law on
    (low, high) with cut ``1 - prob_high``.  The count reads a contiguous
    copy of the column once per cut.
    """
    if isinstance(spec, Uniform):
        lo, width = spec.lo, spec.hi - spec.lo
        return lambda u: lo + u * width
    if isinstance(spec, TwoPoint):
        points, cuts = (spec.low, spec.high), np.array([1.0 - spec.prob_high])
    elif isinstance(spec, Discrete):
        points, cuts = spec.points, np.cumsum(spec.probs)[:-1]
    else:
        raise TypeError(f"unsupported distribution spec {type(spec).__name__}")
    points = np.asarray(points, dtype=float)
    if len(points) > COUNTED_ATOMS:
        return lambda u: points.take(np.searchsorted(cuts, u, side="right"))

    def count(u: np.ndarray) -> np.ndarray:
        u = np.ascontiguousarray(u)
        index = np.zeros(len(u), dtype=np.uint8)
        for cut in cuts:
            index += u >= cut
        return points.take(index)

    return count


def spec_mean(specs: Sequence[DistSpec]) -> float:
    """Mean of the sum described by a spec sequence."""
    return sum(s.mean() for s in specs)


def monte_carlo_tail(specs: Sequence[DistSpec], trials: int, seed: int) -> McEstimate:
    """Seeded empirical estimate of P(sum <= 1) with a 3-sigma half-width.

    Sampling is inverse-transform on uniforms from a counter-based Philox
    generator keyed by ``seed``, so identical calls are bit-identical
    across runs and platforms.  Each summand's sampler is built once per
    call by :func:`_sampler`: a finite law precomputes its cuts and atoms
    and takes the atom whose index counts the cuts at or below u, by one
    comparison per cut up to COUNTED_ATOMS atoms and by binary search
    above, so the choice follows its support size.  Trials are drawn in
    chunks of ``CHUNK_ROWS`` rows, each summed in summand order as one
    draw of every row would be, so the estimate does not depend on the
    chunking.  Every chunk is drawn into one buffer, which has fewer rows
    above 128 summands, so that it holds at most ``CHUNK_ROWS * 128``
    uniforms (8 MB) whatever the summand count.  Over MAX_GRID_POINTS draws,
    trials times summands, it raises SearchSpaceError before any draw.
    """
    if len(specs) == 0:
        raise ValueError("need at least one distribution spec")
    message = f"trials and seed must be integers, got {trials} and {seed}"
    trials, seed = _integer(trials, message), _integer(seed, message)
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if trials * len(specs) > MAX_GRID_POINTS:
        raise SearchSpaceError(f"{trials} trials of {len(specs)} summands are over the budget of {MAX_GRID_POINTS} draws")
    samplers = [_sampler(spec) for spec in specs]
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    rows = min(CHUNK_ROWS, max(1, CHUNK_ROWS * 128 // len(specs)))
    buffer = np.empty((min(rows, trials), len(specs)))
    for start in range(0, trials, rows):
        # row chunks of one Philox stream are the rows of a single draw
        u = rng.random(out=buffer[: trials - start])
        total = np.zeros(len(u))
        for j, sample in enumerate(samplers):
            total += sample(u[:, j])
        hits += int(np.count_nonzero(total <= 1.0 + SUM_TOL))
    estimate = float(hits) / trials
    ci = 3.0 * math.sqrt(estimate * (1.0 - estimate) / trials)
    return McEstimate(estimate=estimate, ci_halfwidth=ci)


def _number(x: object) -> float:
    """A JSON number, an int or a float but not a bool, as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def parse_dist_specs(data: object) -> tuple[DistSpec, ...]:
    """Build distribution specs from decoded JSON.

    Schema: a non-empty list of objects, each one of
    {"type": "two-point", "low": x, "high": y, "p": z},
    {"type": "uniform", "lo": x, "hi": y},
    {"type": "discrete", "points": [...], "probs": [...]}, with JSON numbers.
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
                specs.append(TwoPoint(_number(item["low"]), _number(item["high"]), _number(item["p"])))
            elif kind == "uniform":
                specs.append(Uniform(_number(item["lo"]), _number(item["hi"])))
            elif kind == "discrete":
                specs.append(Discrete(tuple(map(_number, item["points"])), tuple(map(_number, item["probs"]))))
            else:
                raise ValueError(f"entry {i} has unknown type {kind!r}")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"entry {i} has a missing or malformed field: {exc}") from exc
    return tuple(specs)
