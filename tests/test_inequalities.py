"""Inequality checker tests: reparameterised forms, crossover, grid claims."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracle_utils import central_difference, masked_envelope_values, per_n_grid_check

from lefttail.bounds import (
    _binomial_term,
    _envelope_values,
    _shifted_term,
    binomial_branch,
    finite_n_bound,
    shifted_branch,
)
from lefttail import inequalities
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
        for lam in (0.5, 1.0, SLOPE_THRESHOLD, 3.0):
            assert scaled_slope(1.0, lam) == 0.0

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
        self.check(_envelope_values, lambda lam, n: finite_n_bound(lam, n).value, lams, 5, 1e-14, 1e-300)

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 10**6])
    def test_wide_sweep(self, n):
        lams = np.linspace(0.0, min(n, 800), 4001)
        self.check(_binomial_term, _binomial_term, lams, n, 1e-11, 1e-320)
        self.check(_envelope_values, lambda lam, n: finite_n_bound(lam, n).value, lams, n, 1e-11, 1e-320)
        if n >= 2:
            self.check(_shifted_term, _shifted_term, lams, n, 1e-11, 1e-320)


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
        assert _envelope_values(np.array([1.0]), 4)[0] == 1.0
        assert _envelope_values(np.array([2.0]), 4)[0] == pytest.approx(0.3125, abs=1e-12)
        assert _envelope_values(np.array([4.0]), 4)[0] == 0.0

    def test_envelope_matches_masked_reference(self):
        for n in range(1, 61):
            for step in (0.01, 0.003, 0.017):
                lams = inequalities._lam_grid(0.0, float(n), step, include_hi=True)
                got, want = _envelope_values(lams, n), masked_envelope_values(lams, n)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, step)

    def test_envelope_at_a_grid_point_past_n(self):
        # the reference comparison above covers this grid, whose last point
        # overshoots n; there the uncapped branches are NaN
        lams = inequalities._lam_grid(0.0, 51.0, 0.017, include_hi=True)
        assert lams[-1] > 51.0
        assert _envelope_values(lams, 51)[-1] == 0.0

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_grid_check("no-such-claim")

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
        # at (12, 0.7) and (40, 0.16) FG-order has no grid point; at n_max 1
        # neither do F-mono-n and G-mono-n
        cases = [("FG-order", 12, 0.7), ("FG-order", 40, 0.16), ("F-mono-n", 1, 0.01), ("G-mono-n", 1, 0.01)]
        for claim, n_max, step in cases:
            res = run_grid_check(claim, n_max, step)
            assert (res.passed, res.worst_violation, res.worst_point, res.points_checked) == (False, 0.0, {}, 0)

    # (2, 0.5) and (1, 0.5) leave F-mono-n and G-mono-n without a single row;
    # (3, 0.001) gives u-nonneg a last block of 54 means; at (40, 0.16)
    # FG-order has no grid points
    @pytest.mark.parametrize(
        "n_max, step", [(100, 0.01), (30, 0.02), (12, 0.7), (3, 0.001), (2, 0.5), (1, 0.5), (40, 0.16)]
    )
    @pytest.mark.parametrize("claim", CLAIMS)
    def test_matches_per_n_loops(self, claim, n_max, step):
        res = run_grid_check(claim, n_max, step)
        worst, point, checked = per_n_grid_check(claim, n_max, step)
        assert res.worst_violation.hex() == worst.hex()
        assert (res.worst_point, res.points_checked) == (point, checked)

    def test_run_all_order_and_count(self):
        results = run_all_checks(n_max=10, lambda_step=0.05)
        assert tuple(r.claim for r in results) == CLAIMS
        assert all(r.passed for r in results)

    def test_run_all_calls_the_module_attribute(self, monkeypatch):
        # the traced benchmark times each claim by replacing this attribute
        calls = []
        original = inequalities.run_grid_check

        def recorder(claim, *args, **kwargs):
            calls.append(claim)
            return original(claim, *args, **kwargs)

        monkeypatch.setattr(inequalities, "run_grid_check", recorder)
        results = inequalities.run_all_checks(n_max=5, lambda_step=0.1)
        assert tuple(calls) == CLAIMS
        assert tuple(r.claim for r in results) == CLAIMS

    def test_rows_without_points_are_skipped(self):
        # a step above 1 leaves H-mono-lambda no pair of means at n = 1;
        # n = 2..5 give 1, 2, 2 and 3 differences
        res = run_grid_check("H-mono-lambda", n_max=5, lambda_step=1.5)
        assert res.passed
        assert res.points_checked == 8
        assert res.worst_point["n"] >= 2
