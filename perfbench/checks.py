"""Reference computations and output checks, independent of lefttail.

Nothing here imports the program.  Closed forms are re-derived in mpmath
at 50 digits, tails of finite distributions are enumerated with exact
fractions, and each check returns a list of human-readable problems (an
empty list means the output is correct).

Tolerances are the program's own stated ones: 1e-12 for closed forms and
exact tails, 1e-9 for search slack, and one unit in the last printed place
for CLI output.  A check stricter than that would call correct output
wrong.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50

CLOSED_FORM_TOL = 1e-12
SLACK_TOL = 1e-9
#: The program counts sums within this of 1 as <= 1.
SUM_TOL = Fraction(1, 10**12)
#: Grid units per 1.0 for the generated summand values (values are k/20).
UNITS = 20

E = mp.e
COMPARE_HEADER = "lambda,n,theorem1,theorem1_limit,hoeffding,bentkus,bentkus_simple,corollary1"


# ---------------------------------------------------------------- closed forms


def binomial_branch(lam, n: int):
    lam = mp.mpf(lam)
    return (1 + lam - lam / n) * (1 - lam / n) ** (n - 1)


def shifted_branch(lam, n: int):
    lam = mp.mpf(lam)
    return (1 - (lam - 1) / (n - 1)) ** (n - 1)


def finite_n(lam, n: int):
    """H_n(lam): 1 up to mean 1, 0 at mean n, else the larger branch."""
    lam = mp.mpf(lam)
    if lam <= 1:
        return mp.mpf(1)
    if lam == n:
        return mp.mpf(0)
    return max(binomial_branch(lam, n), shifted_branch(lam, n))


def limit_raw(lam):
    lam = mp.mpf(lam)
    return max(1 + lam, E) * mp.exp(-lam)


def hoeffding_raw(lam, n: int):
    lam = mp.mpf(lam)
    return lam * (1 + (1 - lam) / n) ** (n - 1)


def bentkus_raw(lam, n: int):
    p = 1 - mp.mpf(lam) / n
    return E * (p + mp.mpf(lam)) * p ** (n - 1)


def bentkus_simple_raw(lam, n: int):
    lam = mp.mpf(lam)
    return (E / (1 - lam / n)) * (1 + lam) * mp.exp(-lam)


@functools.cache
def decay_root():
    """Root a0 of a = exp(a - 2) in (0, 1); r = 1 - a0."""
    return mp.findroot(lambda a: a - mp.exp(a - 2), mp.mpf("0.16"))


def corollary_raw(lam):
    return mp.exp(1 - (1 - decay_root()) * mp.mpf(lam))


def crossover(n: int):
    ratio = mp.mpf(n) / (n - 1)
    return ratio**n - ratio


def scaled_slope(x, lam):
    x, lam = mp.mpf(x), mp.mpf(lam)
    return mp.log(x) + (1 - x) / x - (1 - x) ** 2 / (x * (x + lam))


# ------------------------------------------------------------ exact tails


def bernoulli_tail(means) -> Fraction:
    """P(sum of Bernoullis <= 1) by the two-state recurrence, exactly."""
    p0, p1 = Fraction(1), Fraction(0)
    for q in means:
        q = Fraction(q)
        p0, p1 = p0 * (1 - q), p1 * (1 - q) + p0 * q
    return p0 + p1


def two_point_tail(summands) -> Fraction:
    """P(sum <= 1) for (low, high, prob_high) triples by 2^n enumeration."""
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(summands)):
        value, prob = Fraction(0), Fraction(1)
        for bit, (low, high, ph) in zip(bits, summands):
            value += Fraction(high if bit else low)
            prob *= Fraction(ph) if bit else 1 - Fraction(ph)
        if value <= 1 + SUM_TOL:
            total += prob
    return total


def grid_units(x: float) -> int:
    """k for a value generated as k/UNITS; raises if x is not such a value."""
    k = round(x * UNITS)
    if k / UNITS != x:
        raise ValueError(f"{x} is not a multiple of 1/{UNITS}")
    return k


def atoms_tail(atoms, uniform=None) -> Fraction:
    """P(D + U <= 1) where D sums independent atom lists [(units, prob)].

    Partial sums are tracked in grid units and only up to 1, since values
    are non-negative.  ``uniform`` is an optional (lo, hi) summand,
    integrated exactly against the distribution of D.
    """
    dist = {0: Fraction(1)}
    for summand in atoms:
        nxt: dict[int, Fraction] = {}
        for d, pd in dist.items():
            for k, pk in summand:
                if d + k <= UNITS and pk:
                    nxt[d + k] = nxt.get(d + k, Fraction(0)) + pd * pk
        dist = nxt
    if uniform is None:
        return sum(dist.values(), Fraction(0))
    lo, hi = Fraction(uniform[0]), Fraction(uniform[1])
    total = Fraction(0)
    for d, pd in dist.items():
        room = 1 - Fraction(d, UNITS)
        total += pd * min(Fraction(1), max(Fraction(0), (room - lo) / (hi - lo)))
    return total


def discrete_atoms(points, probs):
    """Atoms of a discrete summand as the program samples it.

    Inverse-transform sampling gives the last point whatever the float
    cumulative sum leaves, so its probability is 1 minus the others.
    """
    ps = [Fraction(p) for p in probs[:-1]]
    return [(grid_units(x), p) for x, p in zip(points, ps + [1 - sum(ps, Fraction(0))])]


# ------------------------------------------------------------------ search


def check_simplex(report, n: int, lam: float) -> list[str]:
    """Simplex search: attains H_n(lam), argmax feasible, tail recomputed."""
    errs = []
    h = finite_n(lam, n)
    if abs(report.max_value - h) > SLACK_TOL:
        errs.append(f"simplex n={n} lam={lam}: max {report.max_value!r} vs H_n {mp.nstr(h, 17)}")
    q = report.argmax.q
    if len(q) != n or any(not 0.0 <= v <= 1.0 for v in q):
        errs.append(f"simplex n={n} lam={lam}: argmax {q} outside [0,1]^{n}")
    if abs(math.fsum(q) - lam) > SLACK_TOL:
        errs.append(f"simplex n={n} lam={lam}: argmax sums to {math.fsum(q)!r}")
    tail = bernoulli_tail(q)
    if abs(float(tail) - report.max_value) > CLOSED_FORM_TOL:
        errs.append(f"simplex n={n} lam={lam}: argmax tail {float(tail)!r} vs max {report.max_value!r}")
    return errs


def known_two_point(n: int, lam: float, res: float):
    """A grid point with mean lam whose tail the search must reach.

    The binomial and shifted-binomial extremals, as Bernoulli summands,
    whichever have success probabilities on the resolution grid.
    """
    denom = round(1.0 / res)

    def on_grid(p: float) -> bool:
        return 0.0 <= p <= 1.0 and abs(p * denom - round(p * denom)) < 1e-9

    def snap(p: float) -> float:
        return round(p * denom) / denom

    points = []
    if on_grid(lam / n):
        points.append([(0.0, 1.0, snap(lam / n))] * n)
    if n >= 2 and lam >= 1.0 and on_grid((lam - 1.0) / (n - 1)):
        points.append([(0.0, 1.0, 1.0)] + [(0.0, 1.0, snap((lam - 1.0) / (n - 1)))] * (n - 1))
    if not points:
        raise ValueError(f"no extremal grid point for n={n}, mean={lam}, resolution={res}")
    return points


def check_two_point(report, n: int, lam: float, res: float) -> list[str]:
    """Two-point search: below H_n(lam - res), exact argmax tail and mean,
    and at least as high as a known grid point."""
    errs = []
    tag = f"two-point n={n} lam={lam} res={res}"
    h = finite_n(max(0.0, lam - res), n)
    if report.max_value > h + SLACK_TOL:
        errs.append(f"{tag}: max {report.max_value!r} above H_n(lam-res) {mp.nstr(h, 17)}")
    summands = [(s.low, s.high, s.prob_high) for s in report.argmax]
    if len(summands) != n:
        errs.append(f"{tag}: argmax has {len(summands)} summands")
    tail = two_point_tail(summands)
    if abs(float(tail) - report.max_value) > CLOSED_FORM_TOL:
        errs.append(f"{tag}: argmax tail {float(tail)!r} vs max {report.max_value!r}")
    mean = sum(Fraction(lo) + Fraction(ph) * (Fraction(hi) - Fraction(lo)) for lo, hi, ph in summands)
    if abs(mean - Fraction(lam)) > Fraction(res) + SUM_TOL:
        errs.append(f"{tag}: argmax mean {float(mean)!r} outside the window")
    best_known = max(two_point_tail(p) for p in known_two_point(n, lam, res))
    if report.max_value < float(best_known) - CLOSED_FORM_TOL:
        errs.append(f"{tag}: max {report.max_value!r} below known grid point {float(best_known)!r}")
    return errs


# ------------------------------------------------------------------- sweep

CLAIMS = (
    "F-mono-n",
    "G-mono-n",
    "FG-order",
    "H-mono-n",
    "H-mono-lambda",
    "u-nonneg",
    "crossover-consistency",
)


def claim_violation(claim: str, point: dict, step: float):
    """A claim's violation at one grid point, in mpmath; positive means broken."""
    if claim == "u-nonneg":
        return -scaled_slope(point["x"], point["lam"])
    n, lam = point["n"], point["lam"]
    if claim == "F-mono-n":
        return binomial_branch(lam, n) - binomial_branch(lam, n + 1)
    if claim == "G-mono-n":
        return shifted_branch(lam, n) - shifted_branch(lam, n + 1)
    if claim == "FG-order":
        return binomial_branch(lam, n) - shifted_branch(lam, n)
    if claim == "H-mono-n":
        return finite_n(lam, n) - finite_n(lam, n + 1)
    if claim == "H-mono-lambda":
        return finite_n(lam, n) - finite_n(mp.mpf(lam) - mp.mpf(step), n)
    if claim == "crossover-consistency":
        gap = shifted_branch(lam, n) - binomial_branch(lam, n)
        agree = (gap >= -CLOSED_FORM_TOL) == (crossover(n) - lam >= -CLOSED_FORM_TOL)
        return mp.mpf(0) if agree or abs(gap) <= CLOSED_FORM_TOL else abs(gap)
    raise ValueError(f"unknown claim {claim!r}")


def check_claims(results, step: float) -> list[str]:
    """Every claim passes, and holds in mpmath at its reported worst point."""
    errs = []
    if [r.claim for r in results] != list(CLAIMS):
        errs.append(f"claims {[r.claim for r in results]} != {list(CLAIMS)}")
    for r in results:
        if not r.passed or r.worst_violation > CLOSED_FORM_TOL:
            errs.append(f"{r.claim}: failed with worst violation {r.worst_violation!r} at {r.worst_point}")
        if r.points_checked < 1:
            errs.append(f"{r.claim}: checked no points")
        if r.claim not in CLAIMS:
            continue
        v = claim_violation(r.claim, r.worst_point, step)
        if v > CLOSED_FORM_TOL:
            errs.append(f"{r.claim}: mpmath violation {mp.nstr(v, 6)} at {r.worst_point}")
        elif r.claim != "crossover-consistency" and abs(v - r.worst_violation) > CLOSED_FORM_TOL:
            errs.append(f"{r.claim}: reported {r.worst_violation!r} but mpmath gives {mp.nstr(v, 6)} at {r.worst_point}")
    return errs


def check_two_point_tail(value: float, summands) -> list[str]:
    """two_point_tail against an exact convolution in grid units."""
    atoms = [[(grid_units(lo), 1 - Fraction(ph)), (grid_units(hi), Fraction(ph))] for lo, hi, ph in summands]
    exact = atoms_tail(atoms)
    if abs(value - float(exact)) > CLOSED_FORM_TOL:
        return [f"two_point_tail m={len(summands)}: {value!r} vs exact {float(exact)!r}"]
    return []


def mc_exact(spec) -> tuple[Fraction, Fraction]:
    """Exact tail and exact mean of a spec in the CLI's JSON format.

    Two-point and discrete values must be multiples of 1/UNITS; at most one
    summand may be uniform.
    """
    atoms, uniform, mean = [], None, Fraction(0)
    for s in spec:
        if s["type"] == "two-point":
            lo, hi, ph = Fraction(s["low"]), Fraction(s["high"]), Fraction(s["p"])
            atoms.append([(grid_units(s["low"]), 1 - ph), (grid_units(s["high"]), ph)])
            mean += lo + ph * (hi - lo)
        elif s["type"] == "discrete":
            summand = discrete_atoms(s["points"], s["probs"])
            atoms.append(summand)
            mean += sum((Fraction(k, UNITS) * p for k, p in summand), Fraction(0))
        else:
            if uniform is not None:
                raise ValueError("at most one uniform summand")
            uniform = (s["lo"], s["hi"])
            mean += (Fraction(s["lo"]) + Fraction(s["hi"])) / 2
    return atoms_tail(atoms, uniform), mean


def check_mc(est, spec, trials: int) -> list[str]:
    """Estimate within 5 standard errors of the exact tail, its 3-sigma
    half-width as stated, and estimate - half-width at most H_n(mean)."""
    errs = []
    exact, mean = mc_exact(spec)
    p = float(exact)
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(est.estimate - p) > 5.0 * se:
        errs.append(f"mc: estimate {est.estimate!r} vs exact {p!r} ({(est.estimate - p) / se:+.2f} SE)")
    ci = 3.0 * math.sqrt(est.estimate * (1.0 - est.estimate) / trials)
    if abs(est.ci_halfwidth - ci) > CLOSED_FORM_TOL:
        errs.append(f"mc: half-width {est.ci_halfwidth!r}, expected {ci!r}")
    h = finite_n(mp.mpf(mean.numerator) / mean.denominator, len(spec))
    if est.estimate - est.ci_halfwidth > h + CLOSED_FORM_TOL:
        errs.append(f"mc: estimate {est.estimate!r} - ci above H_n(mean) {mp.nstr(h, 17)}")
    return errs


# --------------------------------------------------------------------- cli


def _close(printed: str, ref, precision: int) -> bool:
    return abs(mp.mpf(printed) - ref) <= mp.mpf(10) ** -precision


def bound_reference(method: str, lam: float, n: int | None):
    """(raw, branch) for one `bound` call; branch None where a tie makes
    either tag correct."""
    lam_m = mp.mpf(lam)
    if method == "theorem1":
        if lam <= 1.0:
            return mp.mpf(1), "piecewise-one"
        if lam == n:
            return mp.mpf(0), "piecewise-zero"
        f, g = binomial_branch(lam, n), shifted_branch(lam, n)
        tie = abs(f - g) <= CLOSED_FORM_TOL
        return max(f, g), None if tie else ("first-max-term" if f > g else "second-max-term")
    if method == "theorem1-limit":
        tie = abs(1 + lam_m - E) <= CLOSED_FORM_TOL
        return limit_raw(lam), None if tie else ("first-max-term" if 1 + lam_m > E else "second-max-term")
    raw = {
        "hoeffding": lambda: hoeffding_raw(lam, n),
        "bentkus": lambda: bentkus_raw(lam, n),
        "bentkus-simple": lambda: bentkus_simple_raw(lam, n),
        "corollary1": lambda: corollary_raw(lam),
    }[method]()
    return raw, "not-applicable"


def check_bound(text: str, method: str, lam: float, n: int | None, precision: int) -> list[str]:
    """`bound` prints value,branch,clamped; value matches mpmath."""
    tag = f"bound {method} lam={lam} n={n}"
    fields = text.strip().split(",")
    if len(fields) != 3:
        return [f"{tag}: malformed line {text!r}"]
    raw, branch = bound_reference(method, lam, n)
    errs = []
    if not _close(fields[0], min(mp.mpf(1), raw), precision):
        errs.append(f"{tag}: value {fields[0]} vs {mp.nstr(min(1, raw), 17)}")
    if branch is not None and fields[1] != branch:
        errs.append(f"{tag}: branch {fields[1]} vs {branch}")
    if abs(raw - 1) > CLOSED_FORM_TOL and fields[2] != ("true" if raw > 1 else "false"):
        errs.append(f"{tag}: clamped {fields[2]} with raw {mp.nstr(raw, 17)}")
    return errs


COMPARE_COLUMNS = ("theorem1", "theorem1_limit", "hoeffding", "bentkus", "bentkus_simple", "corollary1")
#: `compare` prints at the CLI's default precision.
COMPARE_PRECISION = 6


def compare_row_reference(lam: float, n: int, raw: bool) -> dict:
    """Expected value per compare column; None where the cell is empty."""
    refs = {
        "theorem1": finite_n(lam, n),
        "theorem1_limit": limit_raw(lam),
        "hoeffding": None if lam < 1.0 else hoeffding_raw(lam, n),
        "bentkus": bentkus_raw(lam, n),
        "bentkus_simple": None if lam == n else bentkus_simple_raw(lam, n),
        "corollary1": corollary_raw(lam),
    }
    if not raw:
        refs = {k: None if v is None else min(mp.mpf(1), v) for k, v in refs.items()}
    return refs


def check_compare(text: str, n: int, step: float, rows: int, raw: bool) -> list[str]:
    """A table from mean 0 in ``step``s: every cell matches mpmath, empties
    are where stated, and each row keeps the paper's ordering of the bounds."""
    precision = COMPARE_PRECISION
    tag = f"compare n={n} raw={raw}"
    lines = text.splitlines()
    if not lines or lines[0] != COMPARE_HEADER:
        return [f"{tag}: header {lines[:1]}"]
    if len(lines) - 1 != rows:
        return [f"{tag}: {len(lines) - 1} rows, expected {rows}"]
    errs = []
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 8:
            errs.append(f"{tag}: malformed row {line!r}")
            continue
        lam = min(k * step, float(n))
        if not _close(fields[0], lam, precision) or fields[1] != str(n):
            errs.append(f"{tag}: row {k} keys {fields[:2]} vs ({lam}, {n})")
            continue
        refs = compare_row_reference(lam, n, raw)
        cells = dict(zip(COMPARE_COLUMNS, fields[2:]))
        for col, ref in refs.items():
            if ref is None:
                if cells[col] != "":
                    errs.append(f"{tag}: lam={lam} {col} should be empty, got {cells[col]}")
            elif cells[col] == "" or not _close(cells[col], ref, precision):
                errs.append(f"{tag}: lam={lam} {col} {cells[col]!r} vs {mp.nstr(ref, 17)}")
        vals = {c: float(v) for c, v in cells.items() if v != ""}
        order = [("theorem1", "theorem1_limit"), ("theorem1_limit", "corollary1"), ("theorem1", "bentkus")]
        if lam >= 1.0:
            order.append(("theorem1", "hoeffding"))
        for lo, hi in order:
            if lo in vals and hi in vals and vals[lo] > vals[hi]:
                errs.append(f"{tag}: lam={lam} {lo} {vals[lo]} > {hi} {vals[hi]}")
    return errs


def check_solve_r(text: str, tol: float, precision: int) -> list[str]:
    """`solve-r` prints a0,r,iterations,residual; a0 is the mpmath root to
    within the iteration tolerance plus one printed unit."""
    fields = text.strip().split(",")
    if len(fields) != 4:
        return [f"solve-r: malformed line {text!r}"]
    a0 = decay_root()
    allowed = mp.mpf(10) ** -precision + mp.mpf(tol)
    errs = []
    if abs(mp.mpf(fields[0]) - a0) > allowed:
        errs.append(f"solve-r tol={tol}: a0 {fields[0]} vs {mp.nstr(a0, 17)}")
    if abs(mp.mpf(fields[1]) - (1 - a0)) > allowed:
        errs.append(f"solve-r tol={tol}: r {fields[1]} vs {mp.nstr(1 - a0, 17)}")
    if not fields[2].isdigit() or int(fields[2]) < 1:
        errs.append(f"solve-r tol={tol}: iterations {fields[2]!r}")
    if not 0.0 <= float(fields[3]) <= tol:
        errs.append(f"solve-r tol={tol}: residual {fields[3]} above tolerance")
    return errs


def check_tightness(text: str, n: int) -> list[str]:
    """`verify tightness` prints one true line per branch with gap <= 1e-12."""
    lines = text.strip().splitlines()
    branches = ["first-max-term", "second-max-term"][: 2 if n >= 2 else 1]
    if len(lines) != len(branches):
        return [f"verify tightness n={n}: {len(lines)} lines, expected {len(branches)}"]
    errs = []
    for line, branch in zip(lines, branches):
        fields = line.split(",")
        if fields[:2] != [f"tightness-{branch}", "true"] or fields[3:] != ["1"] or float(fields[2]) > CLOSED_FORM_TOL:
            errs.append(f"verify tightness n={n}: {line!r}")
    return errs
