"""Extremal distribution tests: pmf oracles, tightness, Poisson limit."""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from oracle_utils import enum_binomial_pmf, enum_binomial_tail_at_most_one
from scipy import stats

from lefttail.bounds import (
    binomial_branch,
    exponential_bound,
    finite_n_bound,
    limit_bound,
    shifted_branch,
    solve_decay_rate,
)
from lefttail.extremal import (
    BinomialSpec,
    TightnessReport,
    binomial_pmf,
    extremal_for_branch,
    poisson_limit_gap,
    poisson_tail_at_most_one,
    tail_at_most_one,
    verify_tightness,
)

mpmath.mp.dps = 50

# The tightness grid: trial counts past the old exact-coefficient cut-off
# at 60, up to 10^6, by means from 1 to 30.
GRID_N = (61, 100, 300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6)
GRID_LAMBDA = (1.0, 1.3, 1.7, 2.5, 4.0, 7.0, 15.0, 30.0)


def mp_pmf(p, m, j):
    """P(binomial(p, m) = j) in mpmath at the float p given."""
    p = mpmath.mpf(p)
    return mpmath.binomial(m, j) * p**j * (1 - p) ** (m - j)


class TestBinomialPmf:
    def test_matches_enumeration(self):
        # 4 * (0.5)^4 = 0.25
        oracle = enum_binomial_pmf(0.5, 4, 1)
        assert oracle == pytest.approx(0.25, abs=1e-15)
        assert binomial_pmf(BinomialSpec(0.5, 4), 1) == pytest.approx(oracle, abs=1e-14)

    def test_outside_support(self):
        assert binomial_pmf(BinomialSpec(0.37, 4), 5) == 0.0
        assert binomial_pmf(BinomialSpec(0.37, 4, shift=1), 0) == 0.0
        assert binomial_pmf(BinomialSpec(0.37, 4), -1) == 0.0

    @pytest.mark.parametrize("p, k", [(0.0, math.nan), (0.5, math.inf), (0.0, 0.0), (1.0, 5.5), (0.5, 2.0)])
    def test_non_integer_k_rejected(self, p, k):
        # each once gave 0.0, 1.0 or a TypeError instead of naming the bad k
        with pytest.raises(ValueError, match=r"^outcome k must be an integer, got "):
            binomial_pmf(BinomialSpec(p, 10), k)

    def test_degenerate_point_masses(self):
        assert binomial_pmf(BinomialSpec(0.0, 3, shift=1), 1) == 1.0
        assert binomial_pmf(BinomialSpec(0.0, 3, shift=1), 2) == 0.0
        assert binomial_pmf(BinomialSpec(1.0, 3), 3) == 1.0
        assert binomial_pmf(BinomialSpec(1.0, 3), 2) == 0.0

    def test_random_specs_match_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            trials = int(rng.integers(1, 9))
            p = float(rng.uniform())
            k = int(rng.integers(0, trials + 1))
            spec = BinomialSpec(p, trials)
            assert binomial_pmf(spec, k) == pytest.approx(
                enum_binomial_pmf(p, trials, k), abs=1e-13
            )

    def test_matches_scipy_large_trials(self):
        # trial counts past the integer range of C(m, j) * p^j * (1-p)^(m-j)
        rng = np.random.default_rng(5)
        for _ in range(20):
            trials = int(rng.integers(61, 400))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(0, trials + 1))
            ours = binomial_pmf(BinomialSpec(p, trials), k)
            ref = float(stats.binom.pmf(k, trials, p))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_matches_mpmath_at_large_trials(self):
        # The route rounds each of its three log terms, so its relative
        # error is a few ulps of their magnitudes: at most 1e-12 while they
        # sum below about 2000, which covers every k <= 1 in use, and
        # 5.6e-12 at m = 10^5, k = m/2, p = 1/2, where they are near 7e4.
        eps = sys.float_info.epsilon
        for m in (100, 10**3, 10**4, 10**5):
            for k in (0, 1, 2, m // 2, m - 1):
                for p in (1.0 / m, 2.5 / m, 0.3, 0.5, 1.0 - 1.0 / m):
                    exact = mp_pmf(p, m, k)
                    if exact < 1e-290:  # below the normal range, no relative accuracy
                        continue
                    err = float(abs(binomial_pmf(BinomialSpec(p, m), k) - exact) / exact)
                    terms = abs(math.log(math.comb(m, k))) + abs(k * math.log(p)) + abs((m - k) * math.log1p(-p))
                    assert err <= max(1e-12, 2.0 * eps * (1.0 + terms)), (m, k, p, err)

    def test_pmf_sums_to_one(self):
        for p in [0.0, 0.05, 0.3, 0.5, 0.77, 1.0]:
            for trials in [0, 1, 5, 17, 60, 75, 123]:
                for shift in (0, 1):
                    spec = BinomialSpec(p, trials, shift)
                    total = sum(binomial_pmf(spec, k) for k in range(shift, shift + trials + 1))
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BinomialSpec(1.2, 4)
        with pytest.raises(ValueError):
            BinomialSpec(0.5, -1)
        with pytest.raises(ValueError):
            BinomialSpec(0.5, 4, shift=2)
        for trials in (4.5, 4.0, math.inf, math.nan, None):
            with pytest.raises(ValueError):
                BinomialSpec(0.5, trials)
        assert BinomialSpec(0.5, np.int64(4)) == BinomialSpec(0.5, 4)


class TestTailAtMostOne:
    def test_plain_family(self):
        assert tail_at_most_one(BinomialSpec(0.5, 4)) == pytest.approx(0.3125, abs=1e-14)

    def test_shifted_family(self):
        oracle = enum_binomial_tail_at_most_one(1.0 / 3.0, 3, shift=1)
        assert tail_at_most_one(BinomialSpec(1.0 / 3.0, 3, shift=1)) == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(8.0 / 27.0, abs=1e-14)

    def test_zero_probability_mass_at_zero(self):
        assert tail_at_most_one(BinomialSpec(0.0, 9)) == 1.0


class TestBinomialSpecTuple:
    def test_tuple_api(self):
        spec = BinomialSpec(0.25, np.int64(4))
        assert BinomialSpec._fields == ("p", "trials", "shift")
        assert spec == (0.25, 4, 0) and (0.25, 4, 0) == spec and hash(spec) == hash((0.25, 4, 0))
        assert type(spec.trials) is int
        p, trials, shift = spec
        assert (p, trials, shift) == (0.25, 4, 0) and spec.mean() == 1.0
        assert repr(spec) == "BinomialSpec(p=0.25, trials=4, shift=0)"
        assert repr(BinomialSpec(0.5, 3, shift=1)) == "BinomialSpec(p=0.5, trials=3, shift=1)"
        assert spec._replace(shift=1) == (0.25, 4, 1)
        assert not hasattr(spec, "__dict__")

    def test_replace_and_make_are_validated(self):
        with pytest.raises(ValueError, match=r"^success probability must be in \[0,1\], got 2.0$"):
            BinomialSpec(0.5, 4)._replace(p=2.0)
        with pytest.raises(ValueError, match="^trial count must be non-negative"):
            BinomialSpec._make((0.5, -3, 7))
        assert BinomialSpec._make((0.5, np.int64(3))) == (0.5, 3, 0)


class TestExtremalForBranch:
    def test_first_branch_spec(self):
        spec = extremal_for_branch(2.0, 4, "first-max-term")
        assert spec == BinomialSpec(0.5, 4, 0)

    def test_second_branch_spec(self):
        spec = extremal_for_branch(2.0, 4, "second-max-term")
        assert spec.trials == 3 and spec.shift == 1
        assert spec.p == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_degenerate_shift_case(self):
        spec = extremal_for_branch(1.0, 5, "second-max-term")
        assert spec == BinomialSpec(0.0, 4, 1)
        assert tail_at_most_one(spec) == 1.0

    def test_mean_matches_exactly(self):
        for lam, n in [(1.3, 3), (2.7, 5), (4.0, 9), (1.0, 2)]:
            for branch in ("first-max-term", "second-max-term"):
                assert extremal_for_branch(lam, n, branch).mean() == pytest.approx(lam, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            extremal_for_branch(5.0, 4, "first-max-term")
        with pytest.raises(ValueError):
            extremal_for_branch(0.5, 4, "second-max-term")
        with pytest.raises(ValueError):
            extremal_for_branch(1.5, 1, "second-max-term")
        with pytest.raises(ValueError):
            extremal_for_branch(1.5, 4, "no-such-branch")
        for branch in ("first-max-term", "second-max-term"):
            for lam, n in ((2.0, 4.5), (2.0, math.inf), (2.0, 4.0), (math.nan, 4), (math.inf, 4), (-1.0, 4), (4.5, 4)):
                with pytest.raises(ValueError):
                    extremal_for_branch(lam, n, branch)


class TestTightness:
    def test_gap_zero_at_reference_point(self):
        reports = verify_tightness(2.0, 4)
        assert len(reports) == 2
        for rep in reports:
            assert rep.gap <= 1e-12
        assert reports[0].bound_value == pytest.approx(0.3125, abs=1e-12)
        assert reports[1].bound_value == pytest.approx(8.0 / 27.0, abs=1e-12)

    def test_report_fields(self):
        assert TightnessReport._fields == ("branch", "bound_value", "extremal_tail", "gap")

    def test_mean_below_one_rejected(self):
        for lam, n in ((0.5, 4), (0.0, 1), (0.999, 10**6)):
            with pytest.raises(ValueError, match="^tightness check needs mean >= 1, got "):
                verify_tightness(lam, n)

    def test_degenerate_full_mean(self):
        for rep in verify_tightness(4.0, 4):
            assert rep.bound_value == 0.0
            assert rep.extremal_tail == 0.0
            assert rep.gap == 0.0

    def test_large_n_gaps(self):
        for n in GRID_N:
            for lam in GRID_LAMBDA:
                for rep in verify_tightness(lam, n):
                    assert rep.gap <= 1e-12, (lam, n, rep.branch, rep.gap)

    def test_first_branch_tail_matches_mpmath(self):
        for n in GRID_N:
            for lam in GRID_LAMBDA:
                spec = extremal_for_branch(lam, n, "first-max-term")
                exact = mp_pmf(spec.p, n, 0) + mp_pmf(spec.p, n, 1)
                assert abs(tail_at_most_one(spec) - float(exact)) <= 1e-15, (lam, n)

    def test_branch_tails_match_on_grid(self):
        for n in range(2, 16):
            for tenth in range(10, 10 * n + 1, 3):
                lam = tenth / 10.0
                first = extremal_for_branch(lam, n, "first-max-term")
                second = extremal_for_branch(lam, n, "second-max-term")
                assert tail_at_most_one(first) == pytest.approx(binomial_branch(lam, n), abs=1e-12)
                assert tail_at_most_one(second) == pytest.approx(shifted_branch(lam, n), abs=1e-12)


class TestPoisson:
    def test_tail_values(self):
        assert poisson_tail_at_most_one(0.0) == 1.0
        assert poisson_tail_at_most_one(2.0) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-15)

    def test_matches_limit_crossover(self):
        lam = math.e - 1.0
        assert poisson_tail_at_most_one(lam) == pytest.approx(limit_bound(lam).value, rel=1e-14)
        assert poisson_tail_at_most_one(lam) == pytest.approx(math.exp(2.0 - math.e), rel=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail_at_most_one(-0.2)

    def test_non_finite_mean_rejected(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError):
                poisson_tail_at_most_one(lam)

    def test_gap_decreases(self):
        gaps = [poisson_limit_gap(2.0, n) for n in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_gap_zero_at_zero_mean(self):
        assert poisson_limit_gap(0.0, 50) == 0.0

    def test_gap_scales_like_one_over_n(self):
        for lam in (0.5, 1.0, 2.0, 5.0):
            scaled = [poisson_limit_gap(lam, n) * n for n in (100, 1000, 10000, 100000)]
            # n * gap converges; it should never blow past its small-n level
            assert max(scaled) <= scaled[0] * 1.05 + 1e-12


def mp_scaled_gap(lam, n):
    """n (L - H_n) / L in mpmath, with L the n-free envelope and H_n the
    larger of the two branches (1 < lam < n)."""
    lam = mpmath.mpf(lam)
    first = (1 + lam - lam / n) * (1 - lam / n) ** (n - 1)
    second = (1 - (lam - 1) / (n - 1)) ** (n - 1)
    limit = max(1 + lam, mpmath.e) * mpmath.exp(-lam)
    return n * (limit - max(first, second)) / limit


class TestPoissonLimitOptimality:
    """The bound is optimal in the Poisson limit: H_n reaches the n-free
    envelope L at rate 1/n, and the exponential form touches L."""

    @staticmethod
    def one_over_n_constant(lam):
        # from expanding the log of the winning branch in 1/n
        if 1.0 + lam >= math.e:
            return lam**2 * (lam - 1.0) / (2.0 * (1.0 + lam))
        return (lam - 1.0) ** 2 / 2.0

    def test_gap_to_the_limit_has_its_one_over_n_constant(self):
        for lam in (1.2, 1.5, 2.0, 5.0):
            limit = limit_bound(lam).raw
            for n in (10**4, 10**5, 10**6):
                scaled = n * (limit - finite_n_bound(lam, n).value) / limit
                exact = mp_scaled_gap(lam, n)
                assert float(abs(scaled - exact) / exact) <= 1e-6, (lam, n, scaled)
            c = self.one_over_n_constant(lam)
            assert float(abs(mp_scaled_gap(lam, 10**6) - c)) <= 1e-4 * c, lam

    def test_exponential_form_is_tangent_to_the_limit(self):
        # exp(1 - r lam) meets (1 + lam) e^-lam with equal slope where
        # r (1 + lam) = lam, that is at lam* = r / a0
        rate = solve_decay_rate(1e-12)
        tangent = rate.r / rate.a0
        assert 5.3 < tangent < 5.31
        touch = exponential_bound(tangent).raw - limit_bound(tangent).raw
        assert 0.0 <= touch <= 1e-13, touch
        lams = np.linspace(tangent - 2.0, tangent + 2.0, 401)
        assert min(exponential_bound(lam).raw - limit_bound(lam).raw for lam in lams) >= 0.0
        # any larger rate crosses below the limit near lam*
        steeper = [math.exp(1.0 - (rate.r + 1e-9) * lam) - limit_bound(lam).raw for lam in lams]
        assert min(steeper) < 0.0
