"""Bound formula tests: frozen oracle values, domain errors, ordering invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracle_utils import enum_binomial_tail_at_most_one

from lefttail.bounds import (
    BoundQuery,
    bentkus_bound,
    binomial_branch,
    exponential_bound,
    finite_n_bound,
    hoeffding_bound,
    hoeffding_exponential,
    limit_bound,
    shifted_branch,
    solve_decay_rate,
)

E = math.e


class TestBinomialBranch:
    def test_zero_mean_is_one(self):
        assert binomial_branch(0.0, 5) == 1.0

    def test_full_mean_is_zero(self):
        assert binomial_branch(4.0, 4) == 0.0

    def test_matches_binomial_tail_oracle(self):
        # binomial(0.5, 4): P(0) + P(1) = 1/16 + 4/16 = 0.3125
        oracle = enum_binomial_tail_at_most_one(0.5, 4)
        assert oracle == pytest.approx(0.3125, abs=1e-15)
        assert binomial_branch(2.0, 4) == pytest.approx(0.3125, abs=1e-12)

    def test_two_summands_enumeration(self):
        # (0.25)^2 + 1.5 * 0.25 = 0.4375
        oracle = enum_binomial_tail_at_most_one(0.75, 2)
        assert oracle == pytest.approx(0.4375, abs=1e-15)
        assert binomial_branch(1.5, 2) == pytest.approx(0.4375, abs=1e-12)

    @pytest.mark.parametrize("lam,n", [(-0.1, 4), (4.1, 4), (1.0, 0), (math.nan, 4), (math.inf, 4), (2.0, 4.5)])
    def test_domain_errors(self, lam, n):
        with pytest.raises(ValueError):
            binomial_branch(lam, n)


class TestShiftedBranch:
    def test_mean_one_is_one(self):
        assert shifted_branch(1.0, 7) == 1.0

    def test_full_mean_is_zero(self):
        assert shifted_branch(4.0, 4) == 0.0

    def test_matches_shifted_binomial_oracle(self):
        # P(1 + binomial(1/3, 3) <= 1) = P(binomial(1/3, 3) = 0) = 8/27
        oracle = enum_binomial_tail_at_most_one(1.0 / 3.0, 3, shift=1)
        assert oracle == pytest.approx(8.0 / 27.0, abs=1e-15)
        assert shifted_branch(2.0, 4) == pytest.approx(8.0 / 27.0, abs=1e-12)

    @pytest.mark.parametrize("lam,n", [(0.5, 3), (3.5, 3), (1.0, 1), (math.nan, 3), (2.0, 3.5)])
    def test_domain_errors(self, lam, n):
        with pytest.raises(ValueError):
            shifted_branch(lam, n)


class TestFiniteNBound:
    def test_small_mean_regime(self):
        res = finite_n_bound(0.7, 3)
        assert res.value == 1.0
        assert res.branch == "piecewise-one"
        assert not res.clamped

    def test_first_branch_wins(self):
        res = finite_n_bound(2.0, 4)
        assert res.value == pytest.approx(0.3125, abs=1e-12)
        assert res.branch == "first-max-term"

    def test_second_branch_wins(self):
        # max{0.4375, 0.5} = 0.5
        res = finite_n_bound(1.5, 2)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.branch == "second-max-term"

    def test_full_mean_regime(self):
        res = finite_n_bound(4.0, 4)
        assert res.value == 0.0
        assert res.branch == "piecewise-zero"

    def test_single_summand(self):
        assert finite_n_bound(0.8, 1).value == 1.0
        assert finite_n_bound(1.0, 1).value == 1.0

    def test_raw_equals_value(self):
        res = finite_n_bound(2.3, 5)
        assert res.raw == res.value


class TestLimitBound:
    def test_zero_mean_clamps(self):
        res = limit_bound(0.0)
        assert res.value == 1.0
        assert res.clamped
        assert res.raw == pytest.approx(E, rel=1e-15)

    def test_crossover_tie_reports_first(self):
        res = limit_bound(E - 1.0)
        assert res.value == pytest.approx(math.exp(2.0 - E), rel=1e-12)
        assert res.value == pytest.approx(0.487589, abs=5e-7)
        assert res.branch == "first-max-term"

    def test_poisson_regime(self):
        res = limit_bound(2.0)
        assert res.value == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)
        assert res.branch == "first-max-term"
        assert not res.clamped

    def test_matches_large_n_branch(self):
        # n -> infinity limit of the first branch, in its winning regime
        for lam in (2.0, 3.5, 5.0):
            assert limit_bound(lam).raw == pytest.approx(binomial_branch(lam, 10**6), abs=1e-5)

    def test_negative_mean_rejected(self):
        for lam in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                limit_bound(lam)


class TestHoeffding:
    def test_mean_one(self):
        assert hoeffding_bound(1.0, 9).value == 1.0

    def test_direct_value(self):
        assert hoeffding_bound(2.0, 4).value == pytest.approx(2.0 * 0.75**3, rel=1e-12)

    def test_clamp_boundary(self):
        res = hoeffding_bound(2.0, 2)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert not res.clamped  # raw is exactly 1, not above it

    def test_small_mean_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0.5, 4)

    def test_exponential_form(self):
        assert hoeffding_exponential(0.0) == 1.0
        assert hoeffding_exponential(1.0 / (1.0 - math.exp(-1.0))) == pytest.approx(1.0, abs=1e-12)
        expected = math.exp(1.0 - 2.0 * (1.0 - math.exp(-1.0)))
        assert expected == pytest.approx(0.767788, abs=5e-7)
        assert hoeffding_exponential(2.0) == pytest.approx(expected, rel=1e-15)
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                hoeffding_exponential(lam)


class TestBentkus:
    def test_exact_is_e_times_binomial_tail(self):
        oracle = E * enum_binomial_tail_at_most_one(0.5, 4)
        res = bentkus_bound(2.0, 4, simplified=False)
        assert res.value == pytest.approx(oracle, rel=1e-12)
        assert res.value == pytest.approx(0.849463, abs=5e-7)

    def test_simplified_clamps(self):
        res = bentkus_bound(2.0, 4, simplified=True)
        assert res.raw == pytest.approx((E / 0.5) * 3.0 * math.exp(-2.0), rel=1e-12)
        assert res.raw == pytest.approx(2.207277, abs=5e-7)
        assert res.value == 1.0
        assert res.clamped

    def test_zero_mean_exact(self):
        res = bentkus_bound(0.0, 5, simplified=False)
        assert res.raw == pytest.approx(E, rel=1e-15)
        assert res.value == 1.0
        assert res.clamped

    def test_simplified_rejects_full_mean(self):
        with pytest.raises(ValueError):
            bentkus_bound(5.0, 5, simplified=True)
        # exact mode is fine there
        assert bentkus_bound(5.0, 5, simplified=False).value == 0.0


class TestDecayConstants:
    def test_matches_reported_constants(self):
        c = solve_decay_rate(1e-9)
        assert abs(c.a0 - 0.158594) < 1e-6
        assert abs(c.r - 0.841405) < 1e-6

    def test_fixed_point_residual(self):
        c = solve_decay_rate(1e-9)
        assert abs(c.a0 - math.exp(c.a0 - 2.0)) <= 1e-9

    def test_complement_identity(self):
        c = solve_decay_rate(1e-12)
        assert c.a0 + c.r == 1.0

    @pytest.mark.parametrize("tol", [0.0, -1e-6, 1e-3, 0.5])
    def test_tolerance_validation(self, tol):
        with pytest.raises(ValueError):
            solve_decay_rate(tol)


class TestExponentialBound:
    def test_zero_mean_clamps(self):
        res = exponential_bound(0.0)
        assert res.value == 1.0
        assert res.clamped
        assert res.raw == pytest.approx(E, rel=1e-15)

    def test_unit_exponent(self):
        c = solve_decay_rate(1e-12)
        assert exponential_bound(1.0 / c.r).value == pytest.approx(1.0, abs=1e-12)

    def test_direct_value(self):
        c = solve_decay_rate(1e-12)
        expected = math.exp(1.0 - 2.0 * c.r)
        assert exponential_bound(2.0).value == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.505195, abs=5e-7)

    def test_negative_mean_rejected(self):
        for lam in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                exponential_bound(lam)


class TestBoundQuery:
    def test_accepts_valid(self):
        BoundQuery(2.5, 4)
        BoundQuery(2.5, np.int64(4))
        assert finite_n_bound(2.0, np.int64(4)).value == finite_n_bound(2.0, 4).value

    @pytest.mark.parametrize("lam,n", [(-1.0, 3), (3.5, 3), (1.0, 0), (math.nan, 3), (math.inf, 3), (2.0, 4.5), (2.0, None), (0.5, None)])
    def test_rejects_invalid(self, lam, n):
        # every bound that takes n shares the query's validation
        for bound in (BoundQuery, finite_n_bound, hoeffding_bound, bentkus_bound):
            with pytest.raises(ValueError):
                bound(lam, n)


class TestOrderingInvariants:
    """The bound chain: finite-n <= limit <= exponential <= Hoeffding-exponential."""

    def test_finite_below_limit(self):
        limits = [limit_bound(k / 100.0).value for k in range(0, 20001)]
        for n in range(2, 201):
            for k in range(0, 100 * n + 1):
                lam = k / 100.0
                assert finite_n_bound(lam, n).value <= limits[k] + 1e-12

    def test_limit_below_exponential(self):
        for k in range(0, 3001):
            lam = k / 100.0
            assert limit_bound(lam).value <= exponential_bound(lam).value + 1e-12

    def test_exponential_below_hoeffding_exponential(self):
        for k in range(0, 3001):
            lam = k / 100.0
            assert exponential_bound(lam).value <= hoeffding_exponential(lam) + 1e-12

    def test_simplified_bentkus_factor_e(self):
        # raw ratio >= e for all means from the crossover up
        for k in range(0, 1000):
            lam = (E - 1.0) + k * 0.02
            n = math.ceil(2 * lam)
            if lam >= n:
                continue
            ratio = bentkus_bound(lam, n, simplified=True).raw / limit_bound(lam).raw
            assert ratio >= E - 1e-12


class TestTwoSummandIdentity:
    def test_branch_gap_is_quarter_square(self):
        for k in range(0, 101):
            lam = 1.0 + k / 100.0
            gap = shifted_branch(lam, 2) - binomial_branch(lam, 2)
            assert gap == pytest.approx((lam - 2.0) ** 2 / 4.0, abs=1e-12)


class TestMonotonicity:
    def test_non_increasing_in_mean(self):
        for n in (2, 3, 7, 40):
            prev = math.inf
            for k in range(0, 10 * n + 1):
                lam = k / 10.0
                val = finite_n_bound(lam, n).value
                assert val <= prev + 1e-12
                prev = val

    def test_non_decreasing_in_count(self):
        for n in range(1, 60):
            for k in range(0, 10 * n + 1):
                lam = k / 10.0
                assert finite_n_bound(lam, n).value <= finite_n_bound(lam, n + 1).value + 1e-12


class TestLogSpaceConsistency:
    def test_matches_direct_product(self):
        for n in range(2, 31):
            for k in range(0, 4 * n + 1):
                lam = k / 4.0
                if lam > n:
                    break
                x = lam / n
                direct = 1.0
                for _ in range(n - 1):
                    direct *= 1.0 - x
                direct *= 1.0 + lam - x
                assert binomial_branch(lam, n) == pytest.approx(direct, rel=1e-12, abs=1e-300)
