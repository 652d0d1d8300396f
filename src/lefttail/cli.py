"""Command-line front end: single bounds, comparison CSVs, verification suites.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
domain error.  Output is locale-independent CSV ('.' decimals, LF lines).

``bound``, ``compare``, ``solve-r`` and ``verify tightness`` run on the
closed forms alone; the handlers that need the array modules (``verify
lemma4``, ``two-point`` and ``inequalities``, and ``mc``) import them when
they run and call through the module attribute, so the other subcommands
never load numpy and a replaced attribute (a tracing wrapper) sees every
call.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Sequence

from lefttail.bounds import CLOSED_FORM_TOL, METHODS, NotStated, _check_n, finite_n_bound, solve_decay_rate
from lefttail.extremal import verify_tightness

# Rows one compare table may have: about 15 s of work at the 15 us a row
# measured on a 2-core Xeon.
MAX_COMPARE_ROWS = 1_000_000


def format_value(x: float, precision: int = 6) -> str:
    """Fixed-point with trailing zeros stripped, keeping one decimal.

    A double's exact decimal expansion has at most 1074 digits after the
    point (5e-324 = 2^-1074), so a higher precision only pads zeros that
    are stripped anyway; it is clamped there.
    """
    s = f"{x:.{min(precision, 1074)}f}"
    if "." in s:
        s = s.rstrip("0")
        if s.endswith("."):
            s += "0"
    return s


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_bound(ns: argparse.Namespace) -> int:
    res = METHODS[ns.method](ns.lam, ns.n)
    print(f"{format_value(res.value, ns.precision)},{res.branch},{_bool(res.clamped)}")
    return 0


def _compare_lines(ns: argparse.Namespace):
    """The table's lines, header first, made one at a time; a bound that is
    not stated at a row's mean leaves its cell blank."""
    n = ns.n
    if not 0.0 < ns.step < math.inf:
        raise ValueError(f"--step must be positive and finite, got {ns.step}")
    if not 0.0 <= ns.lambda_min <= ns.lambda_max <= n:
        raise ValueError("need 0 <= lambda-min <= lambda-max <= n")
    _check_n(n)
    count = (ns.lambda_max - ns.lambda_min) / ns.step + 1e-9
    if count >= MAX_COMPARE_ROWS:
        rows = int(count) + 1 if count < math.inf else "more than 1e308"
        raise ValueError(f"--step {ns.step} gives {rows} rows, over the budget of {MAX_COMPARE_ROWS}")
    pick = (lambda r: r.raw) if ns.raw else (lambda r: r.value)
    yield ",".join(["lambda", "n", *(name.replace("-", "_") for name in METHODS)])
    for k in range(int(count) + 1):
        lam = ns.lambda_min + k * ns.step
        if lam > ns.lambda_max + 1e-12:
            break
        lam = min(lam, float(n))
        fields = [format_value(lam, ns.precision), str(n)]
        for evaluate in METHODS.values():
            try:
                fields.append(format_value(pick(evaluate(lam, n)), ns.precision))
            except NotStated:
                fields.append("")
        yield ",".join(fields)


def _cmd_compare(ns: argparse.Namespace) -> int:
    lines = _compare_lines(ns)
    # Making the header and the first row checks every argument (n and the
    # precision by evaluating and formatting a row), so a rejected one
    # leaves the output empty; the other rows are written as they are made
    # and memory does not grow with the table.
    head = list(itertools.islice(lines, 2))
    table = (line + "\n" for line in itertools.chain(head, lines))
    if ns.out in (None, "-"):
        sys.stdout.writelines(table)
    else:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(table)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    # one row (check, passed, violation, points) per line printed
    if ns.target == "tightness":
        rows = [(f"tightness-{r.branch}", r.gap <= CLOSED_FORM_TOL, r.gap, 1) for r in verify_tightness(ns.lam, ns.n)]
    elif ns.target == "inequalities":
        from lefttail import inequalities

        results = inequalities.run_all_checks(ns.n_max, ns.lambda_step)
        rows = [(r.claim, r.passed, r.worst_violation, r.points_checked) for r in results]
    else:
        from lefttail import oracles

        search = oracles.maximize_bernoulli_tail if ns.target == "lemma4" else oracles.maximize_two_point
        rep = search(ns.n, ns.lam, ns.resolution)
        excess = rep.max_value - rep.bound_value
        rows = [(ns.target, excess <= CLOSED_FORM_TOL, max(0.0, excess), rep.points_evaluated)]
    print("\n".join(f"{check},{_bool(passed)},{violation:.6e},{points}" for check, passed, violation, points in rows))
    return 0 if all(row[1] for row in rows) else 1


def _cmd_solve_r(ns: argparse.Namespace) -> int:
    constants = solve_decay_rate(ns.tol)
    print(
        f"{format_value(constants.a0, ns.precision)},{format_value(constants.r, ns.precision)},"
        f"{constants.iterations},{constants.residual:.6e}"
    )
    return 0


def _cmd_mc(ns: argparse.Namespace) -> int:
    import json

    from lefttail import oracles

    try:
        with open(ns.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read spec file {ns.spec}: {exc}") from exc
    specs = oracles.parse_dist_specs(data)
    result = oracles.monte_carlo_tail(specs, ns.trials, ns.seed)
    bound = finite_n_bound(min(oracles.spec_mean(specs), float(len(specs))), len(specs)).value  # a float mean may round above n
    ok = result.estimate - result.ci_halfwidth <= bound + CLOSED_FORM_TOL
    print(
        f"{format_value(result.estimate, ns.precision)},{format_value(result.ci_halfwidth, ns.precision)},"
        f"{format_value(bound, ns.precision)},{_bool(ok)}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefttail",
        description=(
            "Bounds on P(S <= 1) for sums of independent [0,1]-valued random "
            "variables: single evaluations, comparison tables, and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bound", help="evaluate one bound; prints value,branch,clamped")
    b.add_argument("--lambda", dest="lam", type=float, required=True, help="mean of the sum")
    b.add_argument("--n", type=int, help="number of summands (finite-n methods)")
    b.add_argument("--method", required=True, choices=list(METHODS))

    c = sub.add_parser("compare", help="CSV table of all bounds over a mean grid")
    c.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    c.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    c.add_argument("--step", type=float, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out", help="output path ('-' or omitted for stdout)")
    c.add_argument("--raw", action="store_true", help="emit pre-clamp values")

    v = sub.add_parser("verify", help="run a verification suite; one line per check")
    vsub = v.add_subparsers(dest="target", required=True)

    helps = {"lemma4": "exhaustive Bernoulli-mean simplex search", "two-point": "discretised two-point summand search"}
    for target, what in helps.items():
        search = vsub.add_parser(target, help=what)
        search.add_argument("--n", type=int, required=True)
        search.add_argument("--lambda", dest="lam", type=float, required=True)
        search.add_argument("--resolution", type=float, required=True)

    tight = vsub.add_parser("tightness", help="branch values vs extremal-distribution tails")
    tight.add_argument("--lambda", dest="lam", type=float, required=True)
    tight.add_argument("--n", type=int, required=True)

    ineq = vsub.add_parser("inequalities", help="closed-form inequality grid checks")
    ineq.add_argument("--n-max", dest="n_max", type=int, default=100)
    ineq.add_argument("--lambda-step", dest="lambda_step", type=float, default=0.01)

    s = sub.add_parser("solve-r", help="solve the decay-rate fixed point; prints a0,r,iterations,residual")
    s.add_argument("--tol", type=float, required=True)

    m = sub.add_parser("mc", help="seeded Monte Carlo check of the finite-n bound")
    m.add_argument("--spec", required=True, help="JSON file of distribution specs")
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--seed", type=int, default=0)
    for p in (b, c, s, m):  # the last argument of each
        p.add_argument("--precision", type=int, default=6)
    for p, handler in ((b, _cmd_bound), (c, _cmd_compare), (v, _cmd_verify), (s, _cmd_solve_r), (m, _cmd_mc)):
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if getattr(ns, "precision", 0) < 0:
            raise ValueError(f"--precision must be >= 0, got {ns.precision}")
        return ns.handler(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
