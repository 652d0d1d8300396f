"""Search and Monte Carlo oracle tests."""

from __future__ import annotations

import dataclasses
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
    multiset_count,
    per_row_best_row,
    recursive_simplex_grid,
    searchsorted_inverse_transform,
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
    two_point_tail,
)


def near_symmetric(q, lam, tol):
    center = lam / len(q)
    return all(abs(v - center) <= tol for v in q)


def touches_boundary(q, tol):
    return any(v <= tol or v >= 1.0 - tol for v in q)


def keep_index(state, child):
    """A tree step whose state is a node's index columns."""
    return (*state, child)


def traced_index(links, rows):
    """The index columns of ``rows`` of a chunk of ``_sorted_tuples``, traced
    up its links as the search traces its best row."""
    index = []
    for parent, child in reversed(links):
        index, rows = [child[rows], *index], parent[rows]
    return index


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

    def test_mean_outside_unit_interval_rejected(self):
        for q in ((1.5, 0.0), (-0.25, 1.75), (1.0 + 1e-9, 0.5 - 1e-9)):
            with pytest.raises(ValueError, match=r"^means must lie in \[0,1\]"):
                SimplexPoint(q, 1.5)


class TestSimplexGrid:
    @pytest.mark.parametrize("n, resolution", [(2, 0.01), (3, 0.02), (4, 0.05), (5, 0.1), (6, 0.05)])
    def test_matches_recursive_reference(self, n, resolution, monkeypatch):
        # the search's rows mapped to points, each row's index columns
        # carried as its state: same float bits in the same order, in whole
        # chunks and in chunks smaller than one parent's children; every
        # row's index traced up the links as the search traces its best row,
        # and mapped one at a time as the search maps it; the count needs no
        # rows
        denom = round(1.0 / resolution)
        values = np.arange(denom + 1)
        for lam in (0.0, 0.35, 1.0, 1.37, n - 1.37, n / 2, 2 / 3, n - 0.35, float(n)):
            ref = recursive_simplex_grid(n, lam, denom)
            window = oracles._unit_window(lam - 1.0, lam, denom)
            assert oracles._tuple_count(values, *window, n - 1) == len(ref), lam
            for chunk in (oracles.CHUNK_ROWS, 7):
                monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
                chunks = list(oracles._sorted_tuples(values, *window, n - 1, (), keep_index))
                got = np.concatenate([np.column_stack(oracles._simplex_point(c[1], c[2], lam, denom)) for c in chunks])
                assert got.shape == ref.shape, (lam, chunk)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (lam, chunk)
                start = 0
                for links, state, total in chunks:
                    assert len(links) == len(state) == n - 1, (lam, chunk)
                    for column, want in zip(traced_index(links, np.arange(len(total))), state, strict=True):
                        assert np.array_equal(column, want), (lam, chunk)
                    for i in (0, len(total) - 1):
                        row = [float(q) for q in oracles._simplex_point(traced_index(links, i), total[i], lam, denom)]
                        assert np.array_equal(np.array(row).view(np.int64), got[start + i].view(np.int64)), (lam, chunk)
                    start += len(total)


class TestBestRow:
    def test_first_of_equal_tails_wins(self, monkeypatch):
        # every chunk ties; the first row of the first chunk is kept
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 1)
        values = np.arange(4)
        count, tail, (index, total) = oracles._best_row(
            values, 2, 4, 2, (), keep_index, lambda state, total: np.zeros(len(total))
        )
        assert (count, tail, [int(c) for c in index], int(total)) == (6, 0.0, [0, 2], 2)
        # (0, 3), (1, 1), (1, 2), (1, 3), (2, 2) follow: the first strictly higher tail replaces it
        count, tail, (index, total) = oracles._best_row(
            values, 2, 4, 2, (), keep_index, lambda state, total: 1.0 * (state[0] >= 1)
        )
        assert (count, tail, [int(c) for c in index], int(total)) == (6, 1.0, [1, 1], 2)

    def test_budget_is_checked_before_any_row(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_GRID_POINTS", 5)

        def build(*_):
            raise AssertionError("a row or a state was built")

        with pytest.raises(SearchSpaceError, match="^exhaustive search has 6 rows, over the budget of 5$"):
            oracles._best_row(np.arange(4), 2, 4, 2, (), build, build)


def chunk_ids(value):
    return "chunks=" + "/".join(map(str, value)) if isinstance(value, tuple) else None


def seeded_simplex_cases(seed: int, per_n: int) -> list:
    """``per_n`` seeded ``(n, lam, resolution)`` at each n = 2..6."""
    rng = np.random.default_rng(seed)
    return [(n, float(np.round(rng.uniform(0.0, n), 2)), float(rng.choice([0.1, 0.05]))) for n in range(2, 7) for _ in range(per_n)]


# (n, lam, resolution, CHUNK_ROWS values): the benchmark's search workload at
# both means of each mirror pair, in whole chunks and (the simplex) in chunks
# smaller than one parent's children, then smaller searches down to one
# parent's children a chunk
WHOLE, ALL_CHUNKS = (oracles.CHUNK_ROWS,), (oracles.CHUNK_ROWS, 7, 1)
SIMPLEX_STAGES = [(3, 1.4, 0.002), (3, 1.6, 0.002), (4, 1.7, 0.01), (4, 2.3, 0.01)]
SIMPLEX_STAGES += [(5, 2.2, 0.02), (5, 2.8, 0.02), (6, 2.5, 1 / 30), (6, 3.5, 1 / 30)]
SIMPLEX_STAGES = [(*case, WHOLE + (7,)) for case in SIMPLEX_STAGES]
SIMPLEX_STAGES += [(*case, ALL_CHUNKS) for case in seeded_simplex_cases(1717, 6)]
TWO_POINT_STAGES = [(2, 1.5, 0.05), (3, 4 / 3, 1 / 6), (3, 5 / 3, 1 / 6), (3, 1.25, 0.125), (3, 1.75, 0.125)]
TWO_POINT_STAGES = [(*case, WHOLE) for case in TWO_POINT_STAGES]
TWO_POINT_STAGES += [(2, 0.3, 0.1, ALL_CHUNKS), (3, 1.5, 0.25, ALL_CHUNKS), (4, 2.6, 0.25, ALL_CHUNKS)]


class TestFoldedStage:
    """Each tree node's tail states are made once, yet every search keeps
    the per-row stage's count, best tail and best row bit for bit."""

    @pytest.mark.parametrize("n, lam, resolution, chunks", SIMPLEX_STAGES, ids=chunk_ids)
    def test_simplex_matches_per_row_stage(self, n, lam, resolution, chunks, monkeypatch):
        denom = round(1.0 / resolution)

        def tails(index, total):
            return np.add(*oracles._tail_states(oracles._simplex_point(index, total, lam, denom)))

        want_count, want_tail, (want_index, want_total) = per_row_best_row(
            np.arange(denom + 1), *oracles._unit_window(lam - 1.0, lam, denom), n - 1, tails
        )
        want_row = [float(q).hex() for q in oracles._simplex_point(want_index, want_total, lam, denom)]
        stages, best_row = [], oracles._best_row
        monkeypatch.setattr(oracles, "_best_row", lambda *args: stages.append(best_row(*args)) or stages[-1])
        for chunk in chunks:
            monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
            rep = maximize_bernoulli_tail(n, lam, resolution)
            count, tail, (index, total) = stages.pop()
            assert (count, tail.hex()) == (want_count, want_tail.hex()), chunk
            assert [int(c) for c in index] == [int(c) for c in want_index] and total == want_total, chunk
            assert [float(q).hex() for q in oracles._simplex_point(index, total, lam, denom)] == want_row, chunk
            assert rep.points_evaluated >= count and rep.max_value >= tail

    @pytest.mark.parametrize("n, lam, resolution, chunks", TWO_POINT_STAGES, ids=chunk_ids)
    def test_two_point_matches_per_row_stage(self, n, lam, resolution, chunks, monkeypatch):
        denom = round(1.0 / resolution)
        low, high, k, means = oracles._two_point_options(denom)
        prob = k / denom

        def tails(index, _):
            return oracles._two_point_tails([((low[c], 1.0 - prob[c]), (high[c], prob[c])) for c in index], denom)

        window = oracles._unit_window(lam - resolution, lam + resolution, denom * denom)
        count, tail, (index, _) = per_row_best_row(means, *window, n, tails)
        argmax = tuple(TwoPoint(float(low[c] / denom), float(high[c] / denom), float(prob[c])) for c in index)
        for chunk in chunks:
            monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
            rep = maximize_two_point(n, lam, resolution)
            assert (rep.max_value.hex(), rep.argmax, rep.points_evaluated) == (tail.hex(), argmax, count), chunk


class TestTupleCount:
    def test_matches_brute_force(self):
        # repeated values; windows from below 0 to past the largest sum
        rng = np.random.default_rng(3)
        arrays = [[0], [2, 2, 2], [0, 0, 1, 3, 3, 7], [1, 4, 4, 4, 9]]
        arrays += [sorted(rng.integers(0, 12, size=8).tolist()) for _ in range(4)]
        for values in arrays:
            for size in (1, 2, 3, 4):
                sums = [sum(combo) for combo in itertools.combinations_with_replacement(values, size)]
                top = max(sums)
                windows = (-5, 0), (-3, top // 2), (0, top), (top // 2, top + 9), (top // 3, top // 2), (top, 10 * top)
                for lo, hi in windows:
                    want = sum(lo <= total <= hi for total in sums)
                    assert oracles._tuple_count(np.array(values), lo, hi, size) == want, (values, size, lo, hi)

    @pytest.mark.parametrize("denom", [4, 5])
    def test_matches_two_point_rows(self, denom, monkeypatch):
        means = oracles._two_point_options(denom)[3]
        resolution = 1.0 / denom
        for n in (2, 3, 4):
            for lam in (0.0, 0.3, n / 2, n - 0.7, float(n)):
                lo, hi = oracles._unit_window(lam - resolution, lam + resolution, denom * denom)
                count = oracles._tuple_count(means, lo, hi, n)
                for chunk in (oracles.CHUNK_ROWS, 7):
                    monkeypatch.setattr(oracles, "CHUNK_ROWS", chunk)
                    rows = sum(len(c[-1]) for c in oracles._sorted_tuples(means, lo, hi, n, (), keep_index))
                    assert count == rows, (n, lam, chunk)

    def test_validated_extremes_do_not_overflow(self):
        # the largest budget checks of both searches, against Python integers
        simplex = (np.arange(1001), *oracles._unit_window(2.0, 3.0, 1000), 5)
        assert oracles._tuple_count(*simplex) == multiset_count(*simplex) == 4_644_753_514_773
        two_point = (oracles._two_point_options(20)[3], *oracles._unit_window(1.5 - 0.05, 1.5 + 0.05, 400), 3)
        assert oracles._tuple_count(*two_point) == multiset_count(*two_point) == 1_010_994_630


def test_search_report_fields():
    # a report holds what the search found, not the resolution it was given
    for rep in (maximize_bernoulli_tail(2, 1.5, 0.1), maximize_two_point(2, 1.5, 0.5)):
        names = tuple(field.name for field in dataclasses.fields(rep))
        assert names == ("max_value", "argmax", "bound_value", "points_evaluated")


class TestMaximizeBernoulliTail:
    def test_boundary_maximizer(self):
        rep = maximize_bernoulli_tail(2, 1.5, 0.01)
        assert rep.max_value == pytest.approx(0.5, abs=1e-9)
        assert rep.bound_value - rep.max_value >= -1e-9
        assert sorted(rep.argmax.q) == pytest.approx([0.5, 1.0], abs=0.011)

    def test_symmetric_maximizer(self):
        rep = maximize_bernoulli_tail(3, 2.0, 0.02)
        assert rep.max_value == pytest.approx(7.0 / 27.0, abs=1e-6)
        # on the binomial branch the pair moves end on the binomial itself
        for n, lam, resolution in ((3, 2.0, 0.02), (6, 4.6, 0.02), (4, 2.3, 0.01)):
            assert finite_n_bound(lam, n).branch == "first-max-term"
            rep = maximize_bernoulli_tail(n, lam, resolution)
            assert max(rep.argmax.q) - min(rep.argmax.q) <= 1e-12, (n, lam)
            assert abs(rep.bound_value - rep.max_value) <= 1e-14, (n, lam)

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
                grid = oracles._tuple_count(np.arange(11), *oracles._unit_window(lam - 1.0, lam, 10), n - 1)
                pairs = rep.points_evaluated - grid
                # at least one pass from each of the two starts
                assert n * (n - 1) <= pairs < oracles.MAX_PAIR_PASSES * n * (n - 1) // 2, (n, lam)

    def test_pair_moves_reach_a_fixed_point(self):
        # from seeded starts over a range of means, a second call on the
        # moved point changes no coordinate and evaluates one pass of pairs
        rng = np.random.default_rng(37)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                q = (rng.uniform(size=n) * rng.uniform(0.2, 1.0)).tolist()
                oracles._pair_moves(q)
                settled = list(q)
                assert oracles._pair_moves(q) == n * (n - 1) // 2, (n, settled)
                assert q == settled, (n, settled)

    def test_argmax_trichotomy_small_grid(self):
        for n in (2, 3, 4):
            lam = 1.3
            while lam < min(n, 3.0):
                rep = maximize_bernoulli_tail(n, lam, 0.05)
                assert rep.bound_value - rep.max_value >= -1e-9, (n, lam)
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
        assert spec_mean(spec) == pytest.approx(0.5, abs=1e-15)

    def test_linearity(self):
        assert spec_mean([TwoPoint(0.0, 1.0, 0.5)] * 2) == pytest.approx(1.0, abs=1e-15)

    def test_mixed(self):
        assert spec_mean([TwoPoint(0.2, 0.8, 0.25)]) == pytest.approx(0.35, abs=1e-15)


class TestMaximizeTwoPoint:
    def test_mid_mean(self):
        rep = maximize_two_point(2, 1.5, 0.05)
        assert rep.bound_value - rep.max_value >= -1e-9
        # bound is the envelope at 1.45; grid max should reach it
        assert rep.bound_value == pytest.approx(0.55, abs=1e-12)
        assert rep.max_value <= 0.55 + 1e-12

    def test_degenerate_full_mean(self):
        rep = maximize_two_point(2, 2.0, 0.05)
        assert rep.bound_value - rep.max_value >= -1e-9
        assert rep.max_value <= rep.bound_value + 1e-12

    def test_vacuous_regime(self):
        rep = maximize_two_point(3, 1.0, 0.1)
        assert rep.max_value == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_value == 1.0

    def test_argmax_mean_in_window(self):
        rep = maximize_two_point(2, 1.5, 0.05)
        assert abs(spec_mean(rep.argmax) - 1.5) <= 0.05 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_two_point(5, 1.5, 0.1)
        with pytest.raises(ValueError):
            maximize_two_point(2, 1.5, 0.01)
        with pytest.raises(SearchSpaceError):
            maximize_two_point(3, 1.5, 0.05)
        for n, lam, resolution in ((2.0, 1.5, 0.1), (2, 1.5, math.inf), (2, 1.5, math.nan), (2, 1.5, 2.5), (2, 2.5, 0.1)):
            with pytest.raises(ValueError):
                maximize_two_point(n, lam, resolution)

    @pytest.mark.parametrize("lam", [1.2, 1.6, 2.0, 2.8])
    def test_four_summands(self, lam):
        # points_evaluated against sorted 4-tuples of the distinct options
        # (one point mass per grid value, and low < high with 0 < p < 1)
        # whose means, in units of 1/25, sum to within 5 of 25 lam
        rep = maximize_two_point(4, lam, 0.2)
        assert rep.bound_value - rep.max_value >= 0.0
        assert two_point_tail(rep.argmax) == pytest.approx(rep.max_value, abs=1e-12)
        spread = [(a, b, k) for a in range(6) for b in range(a + 1, 6) for k in range(1, 5)]
        means = [5 * v for v in range(6)] + [5 * a + k * (b - a) for a, b, k in spread]
        target = round(25 * lam)
        want = sum(abs(sum(c) - target) <= 5 for c in itertools.combinations_with_replacement(means, 4))
        assert rep.points_evaluated == want

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
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0,1\], got nan$"):
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
        # a JSON integer is a number too
        assert parse_dist_specs([{"type": "uniform", "lo": 0, "hi": 1}]) == (Uniform(0.0, 1.0),)

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_dist_specs([])
        with pytest.raises(ValueError):
            parse_dist_specs({"type": "uniform"})
        with pytest.raises(ValueError):
            parse_dist_specs([{"type": "triangular"}])
        with pytest.raises(ValueError):
            parse_dist_specs([{"type": "two-point", "low": 0.0}])

    def test_parse_rejects_entries_that_are_not_objects(self):
        for data, bad in (([1], 0), ([1, 2], 0), ([{"type": "uniform", "lo": 0.0, "hi": 1.0}, "uniform"], 1)):
            with pytest.raises(ValueError, match=f"^entry {bad} is not an object$"):
                parse_dist_specs(data)

    def test_parse_rejects_mistyped_fields(self):
        for entry in (
            {"type": "discrete", "points": 5, "probs": [1]},
            {"type": "two-point", "low": None, "high": 1.0, "p": 0.5},
            {"type": "uniform", "lo": [0.1], "hi": 0.9},
            {"type": "uniform", "lo": "x", "hi": 1},
            {"type": "discrete", "points": ["a"], "probs": [1]},
            {"type": "two-point", "low": 0.0, "high": 1.0, "p": "0.5"},
            {"type": "two-point", "low": 0.0, "high": 1.0, "p": True},
            {"type": "uniform", "lo": 10**400, "hi": 1},  # a JSON integer past the float range
        ):
            with pytest.raises(ValueError, match="^entry 0 "):
                parse_dist_specs([entry])


def _equal_atoms(k: int) -> Discrete:
    return Discrete(tuple(np.linspace(0.0, 1.0, k)), (1.0 / k,) * k)


class TestSamplers:
    """Each summand's sampler against the earlier searchsorted inverse transform."""

    @pytest.mark.parametrize(
        "spec",
        [
            TwoPoint(0.2, 0.7, 0.3),
            TwoPoint(0.2, 0.7, 0.0),
            TwoPoint(0.2, 0.7, 1.0),
            TwoPoint(0.4, 0.4, 0.5),
            Discrete((0.3,), (1.0,)),
            Discrete((0.0, 0.25, 0.5, 0.75, 1.0), (0.5, 0.0, 0.0, 0.25, 0.25)),  # equal cuts
            Discrete(tuple(k / 10 for k in range(10)), (0.1,) * 10),  # cumsum ends below 1
            _equal_atoms(oracles.COUNTED_ATOMS),
            _equal_atoms(oracles.COUNTED_ATOMS + 1),
            Uniform(0.1, 0.6),
        ],
    )
    def test_matches_searchsorted_reference(self, spec):
        if isinstance(spec, TwoPoint):
            cuts = np.array([1.0 - spec.prob_high])
        elif isinstance(spec, Discrete):
            cuts = np.cumsum(spec.probs)
        else:
            cuts = np.array([spec.lo, spec.hi])
        u = np.concatenate(
            (
                cuts,
                np.nextafter(cuts, -np.inf),
                np.nextafter(cuts, np.inf),
                [0.0, np.nextafter(1.0, 0.0)],
                np.random.default_rng(0).random(1000),
            )
        )
        # monte_carlo_tail hands each sampler a strided column of its draw
        column = np.stack((u, u), axis=1)[:, 1]
        assert np.array_equal(oracles._sampler(spec)(column), searchsorted_inverse_transform(spec, u))


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

    def test_rejects_an_object_that_is_not_a_spec(self):
        for spec in (object(), (0.0, 1.0, 0.5), {"type": "uniform", "lo": 0.0, "hi": 1.0}):
            with pytest.raises(TypeError, match="^unsupported distribution spec "):
                monte_carlo_tail([Uniform(0.0, 0.5), spec], 1000, seed=0)

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

    def test_memory_does_not_grow_with_summands(self):
        # a chunk of 8192 rows of 500 summands would hold 33 MB of uniforms
        specs = [TwoPoint(0.0, 0.004, 0.3), Uniform(0.0, 0.002)] * 250
        assert traced_peak(lambda: monte_carlo_tail(specs, 20_000, seed=3)) < 10e6

    def test_chunked_draws_match_a_single_draw_at_many_summands(self, monkeypatch):
        specs = [TwoPoint(0.0, 0.05, 0.04), Uniform(0.0, 0.004), Discrete((0.0, 0.01, 0.05), (0.9, 0.05, 0.05))] * 167
        trials = 5000
        chunked = monte_carlo_tail(specs, trials, seed=8)
        # CHUNK_ROWS * 128 // 501 rows a chunk: every trial in one chunk
        monkeypatch.setattr(oracles, "CHUNK_ROWS", 4 * trials)
        single = monte_carlo_tail(specs, trials, seed=8)
        assert 0.05 < single.estimate < 0.95
        assert chunked == single

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

    def test_draw_budget(self, monkeypatch):
        # trials times summands over MAX_GRID_POINTS is refused before any
        # sampler is built; a call at the budget runs
        specs = [Uniform(0.0, 0.5)] * 3
        monkeypatch.setattr(oracles, "MAX_GRID_POINTS", 3000)
        assert 0.0 < monte_carlo_tail(specs, 1000, seed=0).estimate < 1.0

        def sampler(spec):
            raise AssertionError("a sampler was built")

        monkeypatch.setattr(oracles, "_sampler", sampler)
        for trials, message in ((1001, "1001 trials of 3 summands are over the budget of 3000 draws"),
                                (2**63, "9223372036854775808 trials of 3 summands are over the budget of 3000 draws")):
            with pytest.raises(SearchSpaceError, match=f"^{message}$"):
                monte_carlo_tail(specs, trials, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_tail([], 10_000, 0)
        with pytest.raises(ValueError):
            monte_carlo_tail([Uniform(0.0, 1.0)], 999, 0)
        for trials, seed in [(1500.5, 0), (math.nan, 0), (2000, 0.5)]:
            with pytest.raises(ValueError):
                monte_carlo_tail([Uniform(0.0, 1.0)], trials, seed)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            monte_carlo_tail([Uniform(0.0, 1.0)], 2000, -1)

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
