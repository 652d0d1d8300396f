"""Inequality checker tests: reparameterised forms, crossover, grid claims."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from oracle_utils import central_difference, masked_envelope_values, per_n_grid_check, slope_expression

from lefttail.bounds import (
    _binomial_term,
    _envelope_values,
    _shifted_term,
    binomial_branch,
    finite_n_bound,
    shifted_branch,
)
from lefttail import inequalities
from lefttail.cli import main
from lefttail.extremal import poisson_tail_at_most_one
from lefttail.inequalities import (
    CLAIMS,
    SLOPE_THRESHOLD,
    crossover_threshold,
    log_binomial_branch,
    run_all_checks,
    run_grid_check,
    scaled_slope,
    slope_gradient,
    slope_quadratic,
)


def envelope(lams, n):
    """The envelope's values alone, without the shifted row it hands back."""
    return _envelope_values(lams, n)[0]


class TestLogBinomialBranch:
    def test_matches_branch_at_half(self):
        # x = 0.5, mean 2 corresponds to n = 4
        val = log_binomial_branch(0.5, 2.0)
        assert val == pytest.approx(-4.0 * math.log(2.0) + math.log(5.0), rel=1e-14)
        assert math.exp(val) == pytest.approx(binomial_branch(2.0, 4), rel=1e-12)

    def test_matches_branch_below_unit_mean(self):
        # x = 0.5, mean 1 corresponds to n = 2: the branch value is 0.75
        assert math.exp(log_binomial_branch(0.5, 1.0)) == pytest.approx(
            binomial_branch(1.0, 2), rel=1e-12
        )

    def test_poisson_limit_as_x_to_one(self):
        for lam in (1.3, 2.0, 4.0):
            val = math.exp(log_binomial_branch(1.0 - 1e-6, lam))
            assert val == pytest.approx(poisson_tail_at_most_one(lam), rel=1e-5)

    def test_matches_branch_on_grid(self):
        for n in range(2, 51):
            for tenth in range(12, min(10 * n, 50), 4):
                lam = tenth / 10.0
                if lam >= n:
                    break
                x = 1.0 - lam / n
                assert math.exp(log_binomial_branch(x, lam)) == pytest.approx(
                    binomial_branch(lam, n), rel=1e-10
                )

    def test_domain_errors(self):
        for x, lam in [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf)]:
            with pytest.raises(ValueError):
                log_binomial_branch(x, lam)


class TestScaledSlope:
    def test_zero_at_one(self):
        # a +0.0, although the shared formula computes minus the slope
        for lam in (0.5, 1.0, SLOPE_THRESHOLD, 3.0):
            assert scaled_slope(1.0, lam) == 0.0
            assert math.copysign(1.0, scaled_slope(1.0, lam)) == 1.0

    def test_bits_of_the_one_expression(self):
        for lam in (0.5, 1.0, SLOPE_THRESHOLD, 3.0, 299.99):
            for x in (1e-6, 0.001, 0.25, 0.5, 0.999, 1.0 - 2**-40):
                assert scaled_slope(x, lam).hex() == slope_expression(x, lam).hex(), (x, lam)

    def test_positive_above_threshold(self):
        assert scaled_slope(0.5, SLOPE_THRESHOLD) == pytest.approx(0.0047, abs=5e-4)
        assert scaled_slope(0.5, SLOPE_THRESHOLD) > 0.0

    def test_nonnegative_on_grid(self):
        for lam in np.concatenate(([SLOPE_THRESHOLD], np.arange(1.16, 8.0, 0.05))):
            for x in np.arange(0.001, 1.0001, 0.001):
                assert scaled_slope(float(x), float(lam)) >= -1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scaled_slope(0.0, 1.0)
        with pytest.raises(ValueError):
            scaled_slope(0.5, 0.0)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError):
                scaled_slope(0.5, lam)
        for form, x, lam in [
            (slope_gradient, 0.5, math.nan),
            (slope_gradient, 0.0, 1.0),
            (slope_gradient, 1.5, 1.0),
            (slope_quadratic, math.nan, 1.0),
            (slope_quadratic, math.inf, 1.0),
            (slope_quadratic, 0.5, -1.0),
        ]:
            with pytest.raises(ValueError):
                form(x, lam)

    def test_gradient_matches_finite_difference(self):
        for lam in (1.2, SLOPE_THRESHOLD, 2.5, 5.0):
            for x in (0.1, 0.3, 0.55, 0.9):
                fd = central_difference(lambda t: scaled_slope(t, lam), x, 1e-6)
                assert slope_gradient(x, lam) == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestSlopeQuadratic:
    def test_vertex_values(self):
        for lam, expected in [(1.0, -0.25), (1.5, 0.6875), (2.0, 2.0)]:
            x = (2.0 - lam) / 2.0
            assert slope_quadratic(x, lam) == pytest.approx(expected, abs=1e-12)
            assert expected == pytest.approx((3.0 * lam**2 - 4.0) / 4.0, abs=1e-12)

    def test_simple_point(self):
        assert slope_quadratic(1.0, 1.0) == 0.0

    def test_nonnegative_at_threshold(self):
        for x in np.arange(0.0, 1.0001, 0.001):
            assert slope_quadratic(float(x), SLOPE_THRESHOLD) >= -1e-12

    def test_vertex_is_global_min(self):
        lam = 1.4
        vertex = (2.0 - lam) / 2.0
        for x in np.arange(-1.0, 2.0, 0.01):
            assert slope_quadratic(float(x), lam) >= slope_quadratic(vertex, lam) - 1e-12


class TestCrossoverThreshold:
    def test_small_counts(self):
        assert crossover_threshold(2) == pytest.approx(2.0, abs=1e-12)
        assert crossover_threshold(3) == pytest.approx(1.875, abs=1e-12)

    def test_large_count_limit(self):
        assert crossover_threshold(10**6) == pytest.approx(math.e - 1.0, abs=1e-5)

    def test_bits_of_the_log1p_form(self):
        # (n/(n-1))^n is _pow_one_minus at x = -1/(n-1): the float operations
        # of exp(n log1p(1/(n-1))), so every threshold keeps its bits
        for n in (*range(2, 2001), *(10**k for k in range(4, 16)), *(2**k + 1 for k in range(11, 50))):
            assert crossover_threshold(n) == math.exp(n * math.log1p(1.0 / (n - 1.0))) - n / (n - 1.0), n

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            crossover_threshold(1)

    def test_rejects_non_integer_n(self):
        for n in (4.5, 4.0, math.nan, None):
            with pytest.raises(ValueError):
                crossover_threshold(n)
        assert crossover_threshold(np.int64(3)) == crossover_threshold(3)

    def test_floor_above_slope_threshold(self):
        assert math.e - 1.5 > SLOPE_THRESHOLD
        for n in range(3, 201):
            assert crossover_threshold(n) >= math.e - 1.5

    def test_sign_consistency(self):
        for n in range(2, 101):
            threshold = crossover_threshold(n)
            for k in range(1, 10 * n):
                lam = 1.0 + k / 10.0
                if lam >= n:
                    break
                gap = shifted_branch(lam, n) - binomial_branch(lam, n)
                if abs(gap) <= 1e-12:
                    continue
                assert (gap >= 0.0) == (lam <= threshold + 1e-12), (n, lam, gap)


class TestKernels:
    """Each kernel gives an array of means the values it gives each mean alone.

    The two share every operation except exp and log1p, where numpy's
    vector loops and the C library may round differently in the last bit.
    On small n that stays within 1e-14; through exp the error scales with
    the size of the exponent, up to a relative 2e-12 among the subnormal
    tails at n = 300, so the wide sweep allows 1e-11.
    """

    @staticmethod
    def check(array_form, scalar_form, lams, n, rel, abs):
        expected = [scalar_form(float(lam), n) for lam in lams]
        assert array_form(lams, n).tolist() == pytest.approx(expected, rel=rel, abs=abs)

    def test_binomial_term(self):
        self.check(_binomial_term, binomial_branch, np.arange(0.0, 7.0, 0.13), 7, 1e-14, 1e-300)

    def test_shifted_term(self):
        self.check(_shifted_term, shifted_branch, np.arange(1.0, 6.0, 0.17), 6, 1e-14, 1e-300)

    def test_envelope(self):
        lams = np.arange(0.0, 5.0001, 0.11)
        self.check(envelope, lambda lam, n: finite_n_bound(lam, n).value, lams, 5, 1e-14, 1e-300)

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 10**6])
    def test_wide_sweep(self, n):
        lams = np.linspace(0.0, min(n, 800), 4001)
        self.check(_binomial_term, _binomial_term, lams, n, 1e-11, 1e-320)
        self.check(envelope, lambda lam, n: finite_n_bound(lam, n).value, lams, n, 1e-11, 1e-320)
        if n >= 2:
            self.check(_shifted_term, _shifted_term, lams, n, 1e-11, 1e-320)


# (2, 0.5) and (1, 0.5) leave F-mono-n and G-mono-n without a single row;
# (3, 0.001) gives u-nonneg a last block of 54 means; at (40, 0.2)
# FG-order has no grid points, at (40, 0.16) one and at (40, 0.155) one
# below 1.155; a step of 2 - 1e-12 puts a grid point exactly at
# 2 - 1e-12, the edge of the strict grid [0, 2), which leaves it out
GRID_SETTINGS = [
    (100, 0.01), (30, 0.02), (12, 0.7), (3, 0.001), (2, 0.5), (1, 0.5), (40, 0.16), (4, 2.0 - 1e-12), (40, 0.2), (40, 0.155)
]


class TestGridChecks:
    @pytest.mark.parametrize("claim", CLAIMS)
    def test_claim_passes_small_grid(self, claim):
        res = run_grid_check(claim, n_max=30, lambda_step=0.02)
        assert res.passed, res
        assert res.points_checked > 0

    def test_two_summand_identity_residual(self):
        # on the n = 2 slice the branch gap is exactly (lam-2)^2/4
        lams = np.linspace(1.0, 2.0, 101)
        gap = _shifted_term(lams, 2) - _binomial_term(lams, 2)
        assert np.max(np.abs(gap - (lams - 2.0) ** 2 / 4.0)) <= 1e-12

    def test_envelope_endpoint_values(self):
        assert envelope(np.array([1.0]), 4)[0] == 1.0
        assert envelope(np.array([2.0]), 4)[0] == pytest.approx(0.3125, abs=1e-12)
        assert envelope(np.array([4.0]), 4)[0] == 0.0

    def test_envelope_hands_back_its_shifted_row(self):
        # the shared pass takes the branch claims' rows from here: below n
        # they are the binomial and the shifted branch's bits at the same means
        lams = inequalities._lam_grid(0.0, 51.0, 0.017, include_hi=True)
        assert _envelope_values(lams, 1)[1:] == (None, None)
        for n in (2, 7, 51):
            inside = lams[lams < n]
            _, binomial, shifted = _envelope_values(lams[: inside.size + 1], n)
            assert np.array_equal(binomial[: inside.size].view(np.int64), _binomial_term(inside, n).view(np.int64))
            assert np.array_equal(shifted[: inside.size].view(np.int64), _shifted_term(inside, n).view(np.int64))

    def test_envelope_matches_masked_reference(self):
        for n in range(1, 61):
            for step in (0.01, 0.003, 0.017):
                lams = inequalities._lam_grid(0.0, float(n), step, include_hi=True)
                got, want = envelope(lams, n), masked_envelope_values(lams, n)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, step)

    def test_envelope_at_a_grid_point_past_n(self):
        # the reference comparison above covers this grid, whose last point
        # overshoots n; there the uncapped branches are NaN
        lams = inequalities._lam_grid(0.0, 51.0, 0.017, include_hi=True)
        assert lams[-1] > 51.0
        assert envelope(lams, 51)[-1] == 0.0

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_grid_check("no-such-claim")

    def test_u_nonneg_worst_point(self):
        # x = 1, where the slope is exactly 0 at every mean, is off the grid,
        # so the worst point is where the slope is smallest: at the threshold
        # mean, next to x = 1
        res = run_grid_check("u-nonneg", 300, 0.01)
        assert f"{res.worst_violation:.6e}" == "-3.588553e-08"
        assert res.worst_point == {"lam": SLOPE_THRESHOLD, "x": 0.999}
        assert res.worst_violation == pytest.approx(-scaled_slope(0.999, SLOPE_THRESHOLD), rel=1e-9)
        assert res.points_checked == 29_855_115 == 999 * inequalities._lam_grid(SLOPE_THRESHOLD, 300.0, 0.01, True).size

    def test_u_nonneg_point_of_each_entry(self):
        # a row is a block of 64 means by 999 values of x; entry k sits at the
        # block's mean k // 999 and at x = (k % 999 + 1) / 1000, and the
        # block has the bits of the slope's one-expression form
        step = 0.05
        rows = list(inequalities._ROWS["u-nonneg"](10, step))
        assert [(c, v.size) for c, v, _ in rows] == [("u-nonneg", 64 * 999), ("u-nonneg", 64 * 999), ("u-nonneg", 49 * 999)]
        xs = np.arange(1, 1000) / 1000.0
        lams = inequalities._lam_grid(SLOPE_THRESHOLD, 10.0, step, include_hi=True)
        for b, (_, violations, point) in enumerate(rows):
            block = lams[64 * b : 64 * (b + 1)]
            assert np.array_equal(violations, -slope_expression(xs, block[:, None]))
            for k in (0, 998, 999, 5 * 999 + 17, 48 * 999 + 500, violations.size - 1):
                where = point(k)
                assert where["x"] == (k % 999 + 1) / 1000
                assert where["lam"] == pytest.approx(SLOPE_THRESHOLD + step * (64 * b + k // 999), abs=1e-9)
                slope = scaled_slope(where["x"], where["lam"])
                assert violations.flat[k] == pytest.approx(-slope, rel=1e-9, abs=1e-300)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_grid_check("F-mono-n", n_max=1000)
        for step in (1e-5, math.nan, math.inf):
            with pytest.raises(ValueError):
                run_grid_check("F-mono-n", lambda_step=step)

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_rejects_n_max_that_is_not_a_positive_integer(self, claim):
        for n_max in (0, -5, 2.5, None):
            with pytest.raises(ValueError):
                run_grid_check(claim, n_max)

    def test_claim_without_points_fails(self):
        # at (12, 0.7) and (40, 0.2) FG-order has no grid point in
        # (1, 2/sqrt(3)); at n_max 1 neither do F-mono-n, G-mono-n and
        # crossover-consistency
        cases = [
            ("FG-order", 12, 0.7),
            ("FG-order", 40, 0.2),
            ("F-mono-n", 1, 0.01),
            ("G-mono-n", 1, 0.01),
            ("crossover-consistency", 1, 0.01),
        ]
        for claim, n_max, step in cases:
            res = run_grid_check(claim, n_max, step)
            assert (res.passed, res.worst_violation, res.worst_point, res.points_checked) == (False, 0.0, {}, 0)

    @pytest.mark.parametrize("n_max, step", GRID_SETTINGS)
    @pytest.mark.parametrize("claim", CLAIMS)
    def test_matches_per_n_loops(self, claim, n_max, step):
        res = run_grid_check(claim, n_max, step)
        worst, point, checked = per_n_grid_check(claim, n_max, step)
        assert res.worst_violation.hex() == worst.hex()
        assert (res.worst_point, res.points_checked) == (point, checked)

    @pytest.mark.parametrize("n_max, step", GRID_SETTINGS)
    def test_run_all_matches_per_n_loops(self, n_max, step):
        # the shared pass of the three envelope claims and every other
        # claim, against each claim's own earlier loop
        for res in run_all_checks(n_max, step):
            worst, point, checked = per_n_grid_check(res.claim, n_max, step)
            assert res.worst_violation.hex() == worst.hex(), res.claim
            assert (res.worst_point, res.points_checked) == (point, checked), res.claim

    def test_run_all_equals_each_claim_alone(self):
        assert run_all_checks(300, 0.01) == [run_grid_check(claim, 300, 0.01) for claim in CLAIMS]

    def test_run_all_validates_before_any_row(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a kernel ran before validation")

        for kernel in ("_binomial_term", "_shifted_term", "_envelope_values", "_negated_slope"):
            monkeypatch.setattr(inequalities, kernel, no_kernel)
        cases = [
            ((0, 0.01), "n must be a positive integer, got 0"),
            ((501, 0.01), "n_max capped at 500, got 501"),
            ((2.0, 0.01), "n must be a positive integer, got 2.0"),
            ((10, 5e-4), "lambda_step must be finite and >= 1e-3, got 0.0005"),
            ((10, math.nan), "lambda_step must be finite and >= 1e-3, got nan"),
            ((10, math.inf), "lambda_step must be finite and >= 1e-3, got inf"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as raised:
                run_all_checks(*args)
            assert str(raised.value) == message, args

    @pytest.mark.parametrize("violation, passed, code", [(1e-13, "true", 0), (1e-9, "false", 1)])
    def test_pass_rule_is_closed_form_tol(self, violation, passed, code, monkeypatch, capsys):
        # one row whose worst entry lies just above or below CLOSED_FORM_TOL
        # decides the claim, in the reducer and on its `verify` line; FG-order
        # has a generator of its own, which the faked one replaces whole
        def order_rows(n_max, lambda_step):
            yield "FG-order", np.array([-1.0, violation, 0.0]), lambda i: {"n": 2, "lam": 1.05 + i}

        monkeypatch.setitem(inequalities._ROWS, "FG-order", order_rows)
        res = run_grid_check("FG-order", 12, 0.05)
        assert (res.passed, res.worst_violation, res.worst_point, res.points_checked) == (
            passed == "true", violation, {"n": 2, "lam": 2.05}, 3
        )
        assert main(["verify", "inequalities", "--n-max", "12", "--lambda-step", "0.05"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[CLAIMS.index("FG-order")] == f"FG-order,{passed},{violation:.6e},3"
        assert [line.split(",")[1] for line in lines if not line.startswith("FG-order,")] == ["true"] * 6

    def test_u_nonneg_points_map_into_their_block(self):
        # entry k of a block of 64 means lies at the block's mean k // 999
        # and at x = (k % 999 + 1) / 1000; the worst point of a whole run is
        # a block's first mean, so the per-n comparison cannot see this map
        lams = inequalities._lam_grid(SLOPE_THRESHOLD, 3.0, 0.01, True)
        rows = list(inequalities._ROWS["u-nonneg"](3, 0.01))
        assert len(rows) == 3 and lams.size == 185
        for r, (_, violations, point) in enumerate(rows):
            for k in (0, 998, 999, violations.size - 1):
                assert point(k) == {"lam": float(lams[64 * r + k // 999]), "x": (k % 999 + 1) / 1000}, (r, k)

    @pytest.mark.parametrize("step", [0.001, 0.01, 0.02, 0.05, 0.155])
    def test_fg_order_grid_reaches_the_slope_threshold(self, step):
        # the order is claimed on (1, 2/sqrt(3)): at every n the grid runs
        # from the first multiple of the step above 1 to its last mean
        # within one step below the threshold
        rows = [row for row in inequalities._ROWS["FG-order"](4, step) if row[0] == "FG-order"]
        assert len(rows) == 3
        for _, violations, point in rows:
            first, last = point(0)["lam"], point(violations.size - 1)["lam"]
            assert first == step * (math.floor(1.0 / step + 1e-9) + 1), (step, first)
            assert SLOPE_THRESHOLD - step <= last < SLOPE_THRESHOLD, (step, last)

    def test_fg_order_evaluates_only_its_own_points(self, monkeypatch):
        # FG-order alone evaluates the branches at its own points below
        # 2/sqrt(3), not over crossover-consistency's whole (1, n)
        evaluated, kernel = [], inequalities._binomial_term
        monkeypatch.setattr(inequalities, "_binomial_term", lambda lams, n: evaluated.append(lams.size) or kernel(lams, n))
        res = run_grid_check("FG-order", 50, 0.01)
        assert sum(evaluated) == res.points_checked == 49 * 15

    def test_run_all_order_and_count(self):
        results = run_all_checks(n_max=10, lambda_step=0.05)
        assert tuple(r.claim for r in results) == CLAIMS
        assert all(r.passed for r in results)

    def test_run_all_evaluates_each_branch_once_per_n(self, monkeypatch):
        # the five envelope claims take both branches from one
        # _envelope_values call per n, and FG-order's branch difference
        # alone calls each branch once per n
        n_max, calls = 12, {"_binomial_term": [], "_shifted_term": [], "_envelope_values": []}
        for name, seen in calls.items():
            kernel = getattr(inequalities, name)
            monkeypatch.setattr(inequalities, name, lambda lams, n, kernel=kernel, seen=seen: seen.append(n) or kernel(lams, n))
        assert all(r.passed for r in run_all_checks(n_max, 0.05))
        assert calls["_envelope_values"] == [*range(1, n_max + 1)]
        assert calls["_binomial_term"] == calls["_shifted_term"] == [*range(2, n_max + 1)]

    @pytest.mark.parametrize("n_max, step", [(30, 0.02), (12, 0.7), (40, 0.155), (4, 2.0 - 1e-12)])
    def test_branch_claims_share_the_envelope_grid(self, n_max, step):
        # every point of the six branch claims' rows is a mean k * step of
        # the envelope's grid at n_max, bit for bit
        grid = set(inequalities._lam_grid(0.0, float(n_max), step, include_hi=True).tolist())
        branch_claims = [claim for claim in CLAIMS if claim != "u-nonneg"]
        seen = set()
        for rows in dict.fromkeys(inequalities._ROWS[claim] for claim in branch_claims):
            for claim, violations, point in rows(n_max, step):
                seen.add(claim)
                lams = {point(i)["lam"] for i in range(violations.size)}
                assert lams <= grid, (claim, sorted(lams - grid)[:3])
        assert seen == set(branch_claims)

    def test_run_all_peaks_at_the_costliest_claim(self):
        # the row generators run one after another and a finished one holds
        # no rows, so all seven claims at once take no more memory than the
        # costliest claim alone, give or take a row of the grid at n_max
        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = max(peak(lambda: run_grid_check(claim, 300, 0.01)) for claim in CLAIMS)
        row = 8 * inequalities._lam_grid(0.0, 300.0, 0.01, include_hi=True).size
        assert peak(lambda: run_all_checks(300, 0.01)) <= alone + row

    def test_rows_without_points_are_skipped(self):
        # a step above 1 leaves H-mono-lambda no pair of means at n = 1;
        # n = 2..5 give 1, 2, 2 and 3 differences
        res = run_grid_check("H-mono-lambda", n_max=5, lambda_step=1.5)
        assert res.passed
        assert res.points_checked == 8
        assert res.worst_point["n"] >= 2
