"""Search and Monte Carlo oracle tests."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    enum_bernoulli_states,
    enum_bernoulli_tail,
    enum_two_point_tail,
    exact_simplex_volume_tail,
    recursive_simplex_grid,
)

from lefttail import oracles
from lefttail.bounds import finite_n_bound
from lefttail.oracles import (
    Discrete,
    McEstimate,
    SearchSpaceError,
    SimplexPoint,
    TwoPoint,
    Uniform,
    bernoulli_tail,
    maximize_bernoulli_tail,
    maximize_two_point,
    monte_carlo_tail,
    parse_dist_specs,
    spec_mean,
    two_point_mean,
    two_point_tail,
)


def near_symmetric(q, lam, tol):
    center = lam / len(q)
    return all(abs(v - center) <= tol for v in q)


def touches_boundary(q, tol):
    return any(v <= tol or v >= 1.0 - tol for v in q)


def traced_peak(call):
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBernoulliTail:
    def test_all_zero(self):
        assert bernoulli_tail([0.0, 0.0, 0.0]) == 1.0

    def test_half_half(self):
        # 1 - P(both hit) = 0.75
        assert bernoulli_tail([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
        assert enum_bernoulli_tail([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)

    def test_sure_hit_plus_half(self):
        assert bernoulli_tail([1.0, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernoulli_tail([])
        with pytest.raises(ValueError):
            bernoulli_tail([0.5, 1.2])

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(3)
        for n in range(1, 13):
            for _ in range(40):
                q = rng.uniform(size=n)
                assert bernoulli_tail(q) == pytest.approx(enum_bernoulli_tail(q), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
    def test_matches_enumeration_hypothesis(self, q):
        assert bernoulli_tail(q) == pytest.approx(enum_bernoulli_tail(q), abs=1e-12)


class TestSimplexPoint:
    def test_sum_invariant_enforced(self):
        SimplexPoint((0.5, 1.0), 1.5)
        with pytest.raises(ValueError):
            SimplexPoint((0.5, 0.9), 1.5)
        with pytest.raises(ValueError):
            SimplexPoint((), 0.0)
        with pytest.raises(ValueError):
            SimplexPoint((0.5,), math.nan)


class TestSimplexGrid:
    @pytest.mark.parametrize("n, resolution", [(2, 0.01), (3, 0.02), (4, 0.05), (5, 0.1), (6, 0.05)])
    def test_matches_recursive_reference(self, n, resolution, monkeypatch):
        # same float bits in the same order, in whole chunks and in chunks
        # smaller than one parent's children; the count needs no rows
        denom = round(1.0 / resolution)
        for lam in (0.0, 0.35, 1.0, 1.37, n - 1.37, n / 2, 2 / 3, n - 0.35, float(n)):
            ref = recursive_simplex_grid(n, lam, denom)
            assert oracles._simplex_size(n, lam, denom) == len(ref), lam
            for chunk in (oracles.CHUNK_ROWS, 7):
                monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
                got = np.concatenate([np.column_stack(c) for c in oracles._simplex_grid(n, lam, denom)])
                assert got.shape == ref.shape, (lam, chunk)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (lam, chunk)


class TestMaximizeBernoulliTail:
    def test_boundary_maximizer(self):
        rep = maximize_bernoulli_tail(2, 1.5, 0.01)
        assert rep.max_value == pytest.approx(0.5, abs=1e-9)
        assert rep.slack >= -1e-9
        assert sorted(rep.argmax.q) == pytest.approx([0.5, 1.0], abs=0.011)

    def test_symmetric_maximizer(self):
        rep = maximize_bernoulli_tail(3, 2.0, 0.02)
        assert rep.max_value == pytest.approx(7.0 / 27.0, abs=1e-6)
        # on the binomial branch the pair moves end on the binomial itself
        for n, lam, resolution in ((3, 2.0, 0.02), (6, 4.6, 0.02), (4, 2.3, 0.01)):
            assert finite_n_bound(lam, n).branch == "first-max-term"
            rep = maximize_bernoulli_tail(n, lam, resolution)
            assert max(rep.argmax.q) - min(rep.argmax.q) <= 1e-12, (n, lam)
            assert abs(rep.slack) <= 1e-14, (n, lam)

    def test_zero_plateau(self):
        # every grid row has two coordinates at 1, so every row's tail is 0
        # and no pair moves; the symmetric start reaches the binomial
        for n, lam, resolution in ((5, 4.75, 0.1), (5, 4.875, 0.1), (5, 4.875, 0.05), (6, 5.7, 0.1), (6, 5.85, 0.1), (6, 5.85, 0.05)):
            rep = maximize_bernoulli_tail(n, lam, resolution)
            assert abs(rep.max_value - finite_n_bound(lam, n).value) <= 1e-14, (n, lam, resolution)
            assert bernoulli_tail(rep.argmax.q) == rep.max_value

    def test_small_mean_vacuous(self):
        rep = maximize_bernoulli_tail(2, 0.5, 0.05)
        assert rep.max_value == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_value == 1.0

    def test_argmax_sum_matches_target(self):
        # max_value is the tail of the argmax it reports, bit for bit
        for n, lam, resolution in ((2, 1.5, 0.01), (3, 2.0, 0.02), (4, 2.3, 0.05), (4, 1.2, 0.1), (5, 1.9, 0.05), (6, 4.6, 0.1)):
            rep = maximize_bernoulli_tail(n, lam, resolution)
            assert bernoulli_tail(rep.argmax.q) == rep.max_value, (n, lam)
            assert abs(math.fsum(rep.argmax.q) - lam) <= 1e-12, (n, lam)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8), st.data())
    def test_pair_identity(self, q, data):
        # with r0, r1 = P(rest = 0), P(rest = 1) over the other coordinates,
        # the tail is r0 + r1 (1 - s) + (r1 - r0) q_i q_j, s = q_i + q_j
        i, j = data.draw(st.lists(st.integers(0, len(q) - 1), min_size=2, max_size=2, unique=True))
        r0, r1 = enum_bernoulli_states([v for k, v in enumerate(q) if k not in (i, j)])
        s = q[i] + q[j]
        assert abs(r0 + r1 * (1.0 - s) + (r1 - r0) * q[i] * q[j] - bernoulli_tail(q)) <= 1e-15

    def test_pair_moves_settle(self):
        # means whose n-th part is not a double would make equal splits
        # cycle in the last bit without the tie rule; no pass cap is reached
        for n in (3, 4, 5, 6):
            for k in range(1, 40):
                lam = k * n / 40
                rep = maximize_bernoulli_tail(n, lam, 0.1)
                pairs = rep.points_evaluated - oracles._simplex_size(n, lam, 10)
                assert pairs < oracles.MAX_PAIR_PASSES * n * (n - 1) // 2, (n, lam)

    def test_argmax_trichotomy_small_grid(self):
        for n in (2, 3, 4):
            lam = 1.3
            while lam < min(n, 3.0):
                rep = maximize_bernoulli_tail(n, lam, 0.05)
                assert rep.slack >= -1e-9, (n, lam)
                q = rep.argmax.q
                assert near_symmetric(q, lam, 0.05 + 1e-6) or touches_boundary(q, 0.05 + 1e-6), (n, lam, q)
                lam += 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_bernoulli_tail(7, 1.5, 0.05)
        with pytest.raises(ValueError):
            maximize_bernoulli_tail(3, 4.0, 0.05)
        with pytest.raises(ValueError):
            maximize_bernoulli_tail(3, 1.5, 0.5)
        with pytest.raises(SearchSpaceError):
            maximize_bernoulli_tail(6, 3.0, 0.001)
        for n, lam, resolution in ((4.0, 2.0, 0.05), (3, 1.5, math.nan), (3, 1.5, math.inf), (3, math.nan, 0.05)):
            with pytest.raises(ValueError):
                maximize_bernoulli_tail(n, lam, resolution)
        assert maximize_bernoulli_tail(np.int64(3), 1.5, 0.05).bound_value == finite_n_bound(1.5, 3).value

    def test_memory_does_not_grow_with_the_grid(self):
        # 2.72 M grid rows: about 109 MB as one array of five floats a row
        reports = []
        peak = traced_peak(lambda: reports.append(maximize_bernoulli_tail(5, 2.5, 0.01)))
        assert reports[0].points_evaluated > 2_720_000
        assert peak < 32e6

    def test_over_budget_rejected_before_allocating(self):
        for search, args in ((maximize_bernoulli_tail, (6, 3.0, 0.001)), (maximize_two_point, (3, 1.5, 0.05))):

            def call(search=search, args=args):
                with pytest.raises(SearchSpaceError):
                    search(*args)

            assert traced_peak(call) < 2e6, search.__name__

    def test_grid_stage_dominates_direct_enumeration(self):
        # unordered full product grid on the first n-1 coordinates, exact
        # remainder last: the search (grid + refinement) must do at least
        # as well, and stay under the bound
        import itertools

        resolution = 0.1
        values = [k / 10 for k in range(11)]
        for n, lam in ((3, 1.4), (3, 2.2), (4, 1.7)):
            direct = -1.0
            for prefix in itertools.product(values, repeat=n - 1):
                last = lam - sum(prefix)
                if -1e-12 <= last <= 1.0 + 1e-12:
                    q = list(prefix) + [min(1.0, max(0.0, last))]
                    direct = max(direct, bernoulli_tail(q))
            rep = maximize_bernoulli_tail(n, lam, resolution)
            assert rep.max_value >= direct - 1e-12, (n, lam)
            assert rep.max_value <= finite_n_bound(lam, n).value + 1e-9, (n, lam)


class TestTwoPointTail:
    def test_deterministic_over_threshold(self):
        assert two_point_tail([TwoPoint(0.6, 0.6, 0.5)] * 2) == 0.0

    def test_matches_bernoulli_tail(self):
        spec = [TwoPoint(0.0, 1.0, 0.5)] * 2
        assert two_point_tail(spec) == pytest.approx(0.75, abs=1e-15)
        assert two_point_tail(spec) == pytest.approx(bernoulli_tail([0.5, 0.5]), abs=1e-15)

    def test_single_summand_always_one(self):
        assert two_point_tail([TwoPoint(0.2, 0.9, 0.37)]) == 1.0

    def test_threshold_tie_counts(self):
        # sums hitting exactly 1 are in the event
        assert two_point_tail([TwoPoint(0.5, 0.5, 0.0), TwoPoint(0.5, 0.5, 0.0)]) == 1.0

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            summands = []
            for _ in range(n):
                low, high = sorted(rng.uniform(size=2))
                summands.append(TwoPoint(float(low), float(high), float(rng.uniform())))
            triples = [(s.low, s.high, s.prob_high) for s in summands]
            assert two_point_tail(summands) == pytest.approx(enum_two_point_tail(triples), abs=1e-12)

    def test_size_limit(self):
        # distinct powers of two: no two subsets share a sum, so partial sums
        # double with each summand until the budget stops them
        summands = [TwoPoint(0.0, 2.0 ** -(k + 2), 0.5) for k in range(30)]
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceError):
                two_point_tail(summands)
            assert tracemalloc.get_traced_memory()[1] < 64e6
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError):
            two_point_tail([])

    def test_many_bernoulli_summands(self):
        # far past 2^20 outcomes, but only the partial sums 0 and 1 survive
        for p in (0.01, 0.05, 0.3):
            assert two_point_tail([TwoPoint(0.0, 1.0, p)] * 40) == pytest.approx(bernoulli_tail([p] * 40), abs=1e-15)


class TestTwoPointMean:
    def test_deterministic_lows(self):
        spec = [TwoPoint(0.2, 0.2, 0.0), TwoPoint(0.3, 0.3, 1.0)]
        assert two_point_mean(spec) == pytest.approx(0.5, abs=1e-15)

    def test_linearity(self):
        assert two_point_mean([TwoPoint(0.0, 1.0, 0.5)] * 2) == pytest.approx(1.0, abs=1e-15)

    def test_mixed(self):
        assert two_point_mean([TwoPoint(0.2, 0.8, 0.25)]) == pytest.approx(0.35, abs=1e-15)


class TestMaximizeTwoPoint:
    def test_mid_mean(self):
        rep = maximize_two_point(2, 1.5, 0.05)
        assert rep.slack >= -1e-9
        # bound is the envelope at 1.45; grid max should reach it
        assert rep.bound_value == pytest.approx(0.55, abs=1e-12)
        assert rep.max_value <= 0.55 + 1e-12

    def test_degenerate_full_mean(self):
        rep = maximize_two_point(2, 2.0, 0.05)
        assert rep.slack >= -1e-9
        assert rep.max_value <= rep.bound_value + 1e-12

    def test_vacuous_regime(self):
        rep = maximize_two_point(3, 1.0, 0.1)
        assert rep.max_value == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_value == 1.0

    def test_argmax_mean_in_window(self):
        rep = maximize_two_point(2, 1.5, 0.05)
        assert abs(two_point_mean(rep.argmax) - 1.5) <= 0.05 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_two_point(4, 1.5, 0.1)
        with pytest.raises(ValueError):
            maximize_two_point(2, 1.5, 0.01)
        with pytest.raises(SearchSpaceError):
            maximize_two_point(3, 1.5, 0.05)
        for n, lam, resolution in ((2.0, 1.5, 0.1), (2, 1.5, math.inf), (2, 1.5, math.nan), (2, 1.5, 2.5), (2, 2.5, 0.1)):
            with pytest.raises(ValueError):
                maximize_two_point(n, lam, resolution)

    def test_distinct_options(self):
        # one point mass per grid value, then low < high with 0 < p < 1
        for denom, count in ((8, 261), (10, 506)):
            low, high, prob, means = oracles._two_point_options(denom)
            assert len(set(zip(low, high, prob))) == len(means) == count
            assert np.all(np.diff(means) >= 0.0)

    def test_matches_uncanonicalised_triple_loop(self, monkeypatch):
        # every ordered triple of the (low <= high, p) grid specs, point
        # masses written several ways included; the search visits each
        # multiset of distinct distributions once
        resolution = 0.25
        values = [k / 4 for k in range(5)]
        options = [(low, high, p) for low in values for high in values if high >= low for p in values]

        def canonical(option):
            low, high, p = option
            if low == high or p == 0.0:
                return (low, low, 0.0)
            return (high, high, 0.0) if p == 1.0 else option

        lam = 1.5
        means = [low + p * (high - low) for low, high, p in options]
        direct, multisets = -1.0, set()
        for a, b, c in itertools.product(range(len(options)), repeat=3):
            if abs(means[a] + means[b] + means[c] - lam) <= resolution + 1e-12:
                triple = (options[a], options[b], options[c])
                direct = max(direct, enum_two_point_tail(triple))
                multisets.add(tuple(sorted(map(canonical, triple))))
        rep = maximize_two_point(3, lam, resolution)
        assert abs(rep.max_value - direct) <= 1e-15
        assert rep.points_evaluated == len(multisets)
        assert two_point_tail(rep.argmax) == pytest.approx(rep.max_value, abs=1e-12)
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 7)
        assert maximize_two_point(3, lam, resolution) == rep

    def test_matches_direct_enumeration_coarse(self):
        # replay the whole search as a plain double loop at a coarse grid
        resolution = 0.2
        values = [k / 5 for k in range(6)]
        options = [
            TwoPoint(low, high, p)
            for low in values
            for high in values
            if high >= low
            for p in values
        ]
        for lam in (1.2, 1.6, 2.0):
            direct = -1.0
            for a in options:
                for b in options:
                    if abs(a.mean() + b.mean() - lam) <= resolution + 1e-12:
                        direct = max(direct, two_point_tail([a, b]))
            rep = maximize_two_point(2, lam, resolution)
            assert rep.max_value == pytest.approx(direct, abs=1e-12), lam


class TestDistSpecs:
    def test_two_point_validation(self):
        with pytest.raises(ValueError):
            TwoPoint(0.8, 0.2, 0.5)
        with pytest.raises(ValueError):
            TwoPoint(0.2, 1.2, 0.5)
        with pytest.raises(ValueError):
            TwoPoint(0.2, 0.8, 1.5)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(0.5, 0.2)
        assert Uniform(0.2, 0.8).mean() == pytest.approx(0.5)

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            Discrete((0.5,), (0.9,))
        with pytest.raises(ValueError):
            Discrete((1.5,), (1.0,))
        with pytest.raises(ValueError):
            Discrete((), ())
        with pytest.raises(ValueError):
            Discrete((0.0, 1.0), (math.nan, 0.5))
        with pytest.raises(ValueError):
            parse_dist_specs([{"type": "discrete", "points": [0.0, 1.0], "probs": [math.nan, 0.5]}])
        d = Discrete((0.0, 0.5, 1.0), (0.25, 0.5, 0.25))
        assert d.mean() == pytest.approx(0.5)

    def test_parse_round_trip(self):
        data = [
            {"type": "two-point", "low": 0.0, "high": 1.0, "p": 0.5},
            {"type": "uniform", "lo": 0.1, "hi": 0.9},
            {"type": "discrete", "points": [0.0, 1.0], "probs": [0.3, 0.7]},
        ]
        specs = parse_dist_specs(data)
        assert specs == (TwoPoint(0.0, 1.0, 0.5), Uniform(0.1, 0.9), Discrete((0.0, 1.0), (0.3, 0.7)))
        assert spec_mean(specs) == pytest.approx(0.5 + 0.5 + 0.7)

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_dist_specs([])
        with pytest.raises(ValueError):
            parse_dist_specs({"type": "uniform"})
        with pytest.raises(ValueError):
            parse_dist_specs([{"type": "triangular"}])
        with pytest.raises(ValueError):
            parse_dist_specs([{"type": "two-point", "low": 0.0}])


class TestMonteCarlo:
    def test_tight_case_within_ci(self):
        specs = [TwoPoint(0.0, 1.0, 0.5)] * 4
        res = monte_carlo_tail(specs, 100_000, seed=42)
        assert abs(res.estimate - 0.3125) <= res.ci_halfwidth

    def test_uniform_simplex_volume(self):
        exact = float(exact_simplex_volume_tail(3))
        res = monte_carlo_tail([Uniform(0.0, 1.0)] * 3, 200_000, seed=7)
        assert abs(res.estimate - exact) <= res.ci_halfwidth

    def test_point_mass(self):
        res = monte_carlo_tail([Discrete((0.0,), (1.0,))], 1000, seed=1)
        assert res == McEstimate(1.0, 0.0)

    def test_deterministic_given_seed(self):
        specs = [TwoPoint(0.0, 1.0, 0.5), Uniform(0.2, 0.9)]
        a = monte_carlo_tail(specs, 50_000, seed=123)
        b = monte_carlo_tail(specs, 50_000, seed=123)
        assert a == b
        c = monte_carlo_tail(specs, 50_000, seed=124)
        assert a != c

    def test_chunked_draws_match_a_single_draw(self, monkeypatch):
        specs = [TwoPoint(0.0, 0.6, 0.3), Uniform(0.1, 0.5), Discrete((0.0, 0.25, 0.9), (0.5, 0.3, 0.2))] * 3
        trials = 25_000
        monkeypatch.setattr(oracles, "CHUNK_ROWS", trials)
        single = monte_carlo_tail(specs, trials, seed=5)
        for rows in (1000, 4096, 8192, 3 * trials):
            monkeypatch.setattr(oracles, "CHUNK_ROWS", rows)
            assert monte_carlo_tail(specs, trials, seed=5) == single, rows

    def test_memory_does_not_grow_with_trials(self):
        # 400 k trials of 10 summands: 32 MB of uniforms as one draw
        specs = [TwoPoint(0.0, 0.6, 0.3), Uniform(0.1, 0.5)] * 5
        small = traced_peak(lambda: monte_carlo_tail(specs, 20_000, seed=3))
        large = traced_peak(lambda: monte_carlo_tail(specs, 400_000, seed=3))
        assert large < 1.25 * small + 64_000
        assert large < 4e6

    def test_matches_exact_tail(self):
        specs = [
            TwoPoint(0.0, 0.4, 0.3),
            TwoPoint(0.05, 0.7, 0.2),
            TwoPoint(0.1, 0.1, 0.0),
            Discrete((0.0, 0.1, 0.35, 0.9), (0.4, 0.3, 0.2, 0.1)),
            Discrete((0.05, 0.25), (0.6, 0.4)),
        ] * 2
        exact = oracles._atoms_tail(
            [((s.low, s.high), (1.0 - s.prob_high, s.prob_high)) if isinstance(s, TwoPoint) else (s.points, s.probs) for s in specs]
        )
        assert 0.05 < exact < 0.95
        trials = 200_000
        res = monte_carlo_tail(specs, trials, seed=11)
        assert abs(res.estimate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_tail([], 10_000, 0)
        with pytest.raises(ValueError):
            monte_carlo_tail([Uniform(0.0, 1.0)], 999, 0)
        for trials, seed in [(1500.5, 0), (math.nan, 0), (2000, 0.5)]:
            with pytest.raises(ValueError):
                monte_carlo_tail([Uniform(0.0, 1.0)], trials, seed)

    def test_estimate_respects_bound_on_random_mixes(self):
        rng = np.random.default_rng(2024)
        for case in range(20):
            n = int(rng.integers(2, 11))
            specs = []
            for _ in range(n):
                kind = rng.integers(0, 3)
                if kind == 0:
                    low, high = sorted(rng.uniform(size=2))
                    specs.append(TwoPoint(float(low), float(high), float(rng.uniform())))
                elif kind == 1:
                    lo, hi = sorted(rng.uniform(size=2))
                    specs.append(Uniform(float(lo), float(hi)))
                else:
                    k = int(rng.integers(2, 5))
                    probs = rng.dirichlet(np.ones(k))
                    specs.append(Discrete(tuple(rng.uniform(size=k)), tuple(probs)))
            res = monte_carlo_tail(specs, 20_000, seed=1000 + case)
            bound = finite_n_bound(spec_mean(specs), n).value
            assert res.estimate - res.ci_halfwidth <= bound, (case, res, bound)
