import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import confint_oracle, dp_oracle
from scipy import stats

from tsbreak.breaks import (
    BreakModel,
    BreaksError,
    FstatsPath,
    boundary,
    breakpoint_confint,
    chow_test,
    f_stats,
    mc_seed,
    optimal_breakpoints,
    sup_f_pvalue,
)
from tsbreak.periods import Period
from tsbreak.series import TimeSeries


def ts(values):
    return TimeSeries(Period(2000, 1), values)


def step_series(n=60, at=30, jump=5.0, sd=1.0, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=sd, size=n)
    y[at:] += jump
    return ts(y)


class TestChow:
    def test_matches_manual_computation(self):
        s = step_series()
        res = chow_test(s, BreakModel.LEVEL, 30)
        y = s.values
        rss = lambda v: float(np.sum((v - v.mean()) ** 2))
        f_manual = ((rss(y) - rss(y[:30]) - rss(y[30:])) / 1) / (
            (rss(y[:30]) + rss(y[30:])) / (60 - 2)
        )
        assert res.f_stat == pytest.approx(f_manual, rel=1e-12)
        assert res.df_num == 1
        assert res.df_den == 58
        assert res.p_value == pytest.approx(float(stats.f.sf(f_manual, 1, 58)), rel=1e-12)

    def test_trend_model_degrees_of_freedom(self):
        res = chow_test(step_series(), BreakModel.TREND, 30)
        assert res.df_num == 2
        assert res.df_den == 56

    def test_detects_obvious_break(self):
        res = chow_test(step_series(jump=10.0), BreakModel.LEVEL, 30)
        assert res.p_value < 1e-6

    def test_level_model_affine_invariance(self):
        s = step_series()
        moved = ts(3.0 + 2.0 * s.values)
        a = chow_test(s, BreakModel.LEVEL, 30).f_stat
        b = chow_test(moved, BreakModel.LEVEL, 30).f_stat
        assert a == pytest.approx(b, rel=1e-9)

    def test_split_too_close_to_edge(self):
        with pytest.raises(BreaksError, match="split"):
            chow_test(step_series(), BreakModel.TREND, 2)

    @pytest.mark.parametrize(
        "y,point",
        [
            (np.concatenate([np.zeros(10), np.ones(10)]), 10),
            # exact up to the rounding of the running sums
            (np.concatenate([np.full(20, 0.1), np.full(20, 0.7)]), 20),
        ],
        ids=["zeros_ones", "tenths"],
    )
    def test_degenerate_segments(self, y, point):
        with pytest.raises(BreaksError, match="degenerate"):
            chow_test(ts(y), BreakModel.LEVEL, point)


class TestFstatsPath:
    def test_values_match_chow_per_split(self):
        s = step_series(n=100, at=50)
        path = f_stats(s, BreakModel.LEVEL, 40, 60)
        for split, f in zip(path.candidates, path.f_values):
            assert f == pytest.approx(chow_test(s, BreakModel.LEVEL, split).f_stat)

    def test_sup_and_ave(self):
        s = step_series(n=100, at=50)
        path = f_stats(s, BreakModel.LEVEL, 40, 60)
        assert path.sup_f == pytest.approx(float(path.f_values.max()))
        assert path.ave_f == pytest.approx(float(path.f_values.mean()))

    def test_trimming_rule_enforced(self):
        s = step_series(n=100)
        with pytest.raises(BreaksError, match="90/10"):
            f_stats(s, BreakModel.LEVEL, 5, 60)

    def test_trimming_override(self):
        s = step_series(n=100)
        path = f_stats(s, BreakModel.LEVEL, 5, 60, trimming=0.05)
        assert path.from_index == 5

    def test_invalid_window(self):
        with pytest.raises(BreaksError, match="invalid"):
            f_stats(step_series(n=100), BreakModel.LEVEL, 60, 40)


@pytest.fixture(scope="module")
def path():
    return f_stats(step_series(n=100, at=50), BreakModel.LEVEL, 30, 70)


class TestBoundary:

    def test_sup_at_least_ave(self, path):
        sup = boundary(path, 0.05, "sup_f").critical_value
        ave = boundary(path, 0.05, "ave_f").critical_value
        assert sup >= ave

    def test_monotone_in_alpha(self, path):
        crits = [boundary(path, a, "sup_f").critical_value for a in (0.10, 0.05, 0.01)]
        assert crits[0] < crits[1] < crits[2]

    def test_deterministic_given_seed(self, path):
        a = boundary(path, 0.05, "sup_f", seed=7).critical_value
        b = boundary(path, 0.05, "sup_f", seed=7).critical_value
        assert a == b

    def test_unsupported_alpha(self, path):
        with pytest.raises(BreaksError, match="alpha"):
            boundary(path, 0.03)

    def test_bad_criterion(self, path):
        with pytest.raises(BreaksError, match="criterion"):
            boundary(path, 0.05, "max_f")

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("TSBREAK_SEED", "12345")
        assert mc_seed() == 12345
        monkeypatch.delenv("TSBREAK_SEED")
        assert mc_seed() == 20240101


class TestSupFPvalue:
    def test_obvious_break_small_p(self):
        path = f_stats(step_series(n=100, at=50, jump=8.0), BreakModel.LEVEL, 30, 70)
        res = sup_f_pvalue(path)
        assert res.p_value <= 0.01

    def test_null_series_large_p(self):
        path = f_stats(step_series(n=100, jump=0.0, seed=5), BreakModel.LEVEL, 30, 70)
        res = sup_f_pvalue(path)
        assert res.p_value > 0.05
        assert not res.clamped
        assert res.mc_se > 0.0

    def test_clamped_formatting(self):
        path = FstatsPath(100, 30, 70, np.full(41, 1e6), 0.10, 1)
        res = sup_f_pvalue(path)
        assert res.clamped
        assert str(res) == "< 0.0001"


def brute_force_partitions(y, model, h, m):
    """Exhaustive minimal-RSS search over all break placements."""
    n = len(y)
    X_full = (
        np.ones((n, 1))
        if model is BreakModel.LEVEL
        else np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
    )

    def seg_rss(i, j):  # 0-based, inclusive-exclusive
        X, v = X_full[i:j], y[i:j]
        beta = np.linalg.lstsq(X, v, rcond=None)[0]
        return float(np.sum((v - X @ beta) ** 2))

    best = None
    for brk in itertools.combinations(range(h, n - h + 1), m):
        bounds = (0,) + brk + (n,)
        if any(b2 - b1 < h for b1, b2 in zip(bounds, bounds[1:])):
            continue
        rss = sum(seg_rss(b1, b2) for b1, b2 in zip(bounds, bounds[1:]))
        cand = (rss, brk)
        if best is None or cand < best:
            best = cand
    return best


class TestOptimalBreakpoints:
    def test_recovers_single_clear_break(self):
        # h large enough that spurious short segments cannot chase noise.
        s = step_series(n=80, at=40, jump=8.0, sd=1.0)
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=8, m_max=3)
        assert bset.selected_m == 1
        assert bset.break_indices == (40,)

    def test_rss_table_non_increasing(self):
        # Monotonicity is only guaranteed when every optimal partition
        # keeps a segment long enough to split under the h constraint;
        # h=2 with m_max <= n/4 - 1 ensures that.
        s = step_series(n=50, at=25)
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=2, m_max=11)
        assert all(
            a >= b - 1e-9 for a, b in zip(bset.rss_table, bset.rss_table[1:])
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for trial in range(15):
            n = int(rng.integers(12, 26))
            h = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            if n < (m + 1) * h:
                continue
            model = BreakModel.LEVEL if trial % 2 else BreakModel.TREND
            if h < model.k + 1:
                h = model.k + 1
            y = rng.normal(size=n)
            ref = brute_force_partitions(y, model, h, m)
            if ref is None:
                continue
            bset = optimal_breakpoints(ts(y), model, h=h, m_max=m)
            assert bset.rss_table[m] == pytest.approx(ref[0], abs=1e-8)
            assert bset.breaks_by_m[m] == ref[1]

    def test_earliest_index_tie_break(self):
        # constant series: every partition has zero RSS; the smallest
        # lexicographic break vector must win
        bset = optimal_breakpoints(ts(np.zeros(12)), BreakModel.LEVEL, h=3, m_max=2)
        assert bset.breaks_by_m[1] == (3,)
        assert bset.breaks_by_m[2] == (3, 6)

    def test_tie_break_beyond_earliest_last_break(self):
        # (3, 7, 9), (4, 6, 9) and (4, 7, 9) all have RSS 7/3; taking the
        # earliest last break at every step would give (4, 6, 9).
        y = np.array([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0], dtype=float)
        bset = optimal_breakpoints(ts(y), BreakModel.LEVEL, h=2, m_max=3)
        assert bset.breaks_by_m[3] == (3, 7, 9)

    def test_bic_tie_prefers_fewer_breaks(self):
        bset = optimal_breakpoints(ts(np.zeros(12)), BreakModel.LEVEL, h=3, m_max=2)
        assert bset.selected_m == 0

    def test_bic_picks_zero_for_pure_noise(self):
        rng = np.random.default_rng(1)
        s = ts(rng.normal(size=60))
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=10)
        assert bset.selected_m == 0

    def test_h_too_small_for_model(self):
        with pytest.raises(BreaksError, match="h="):
            optimal_breakpoints(ts(np.zeros(20)), BreakModel.TREND, h=2)

    def test_series_too_short(self):
        with pytest.raises(BreaksError, match="shorter"):
            optimal_breakpoints(ts(np.zeros(8)), BreakModel.LEVEL, h=5)

    def test_m_max_out_of_range(self):
        with pytest.raises(BreaksError, match="m_max"):
            optimal_breakpoints(ts(np.zeros(20)), BreakModel.LEVEL, h=5, m_max=5)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize(
        "y,model,h,at",
        [
            (np.repeat([1.505, 1.884], [104, 72]), BreakModel.LEVEL, 8, 104),
            (np.repeat([2.2, 0.3], [123, 57]), BreakModel.LEVEL, 9, 123),
            (np.repeat([2.2, 0.3], [123, 57]), BreakModel.TREND, 9, 123),
        ],
        ids=["level_104", "level_123", "trend_123"],
    )
    def test_bic_ignores_rounding_residue(self, y, model, h, at, shift):
        # From the one true break on, every RSS is rounding residue; its log
        # must not buy further breaks.
        bset = optimal_breakpoints(ts(y + shift), model, h=h)
        assert bset.break_indices == (at,)


class TestDpBlocks:
    """The DP fills each layer a block of sample ends at a time.

    These series are long enough for every layer to span several blocks;
    the results must equal the per-end recursion's exactly.
    """

    @pytest.mark.parametrize("model", list(BreakModel))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_end_oracle(self, model, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 401))
        if seed % 2:  # values in {0, 1, 2}: partitions of exactly equal RSS
            y = rng.integers(0, 3, size=n).astype(float)
        else:
            y = rng.normal(size=n) + np.repeat(rng.normal(0.0, 3.0, 4), n // 4 + 1)[:n]
        h = int(rng.integers(model.k + 1, 16))
        m_max = min(4, n // h - 1)
        bset = optimal_breakpoints(ts(y), model, h=h, m_max=m_max)
        rss, breaks = dp_oracle(y, h, m_max, model is BreakModel.TREND)
        assert bset.rss_table == tuple(rss)
        assert bset.breaks_by_m == tuple(breaks)

    @pytest.mark.parametrize("model", list(BreakModel))
    def test_constant_series_ties_across_blocks(self, model):
        bset = optimal_breakpoints(ts(np.zeros(240)), model, h=12, m_max=4)
        assert bset.breaks_by_m == tuple(tuple(range(12, 12 * m + 1, 12)) for m in range(5))


class TestShiftInvariance:
    """Breaks, RSS and F paths of a + b*y follow from those of y.

    The shifts reach 1e8, where running sums of the raw data lose every digit
    of the segment spread; the scales keep the rounding of a + b*y itself
    (half an ulp of 1e8, about 7.5e-9) well below the tolerances.
    """

    SHIFT = st.floats(-1e8, 1e8)
    SCALE = st.floats(1.0, 10.0) | st.floats(-10.0, -1.0)

    @staticmethod
    def sample(seed):
        y = np.random.default_rng(seed).normal(size=60)
        y[30:] += 3.0
        return y

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**16), SHIFT, SCALE, st.sampled_from(BreakModel))
    def test_breakpoints(self, seed, a, b, model):
        y = self.sample(seed)
        ref = optimal_breakpoints(ts(y), model, h=6)
        moved = optimal_breakpoints(ts(a + b * y), model, h=6)
        assert moved.breaks_by_m == ref.breaks_by_m
        assert moved.selected_m == ref.selected_m
        assert moved.rss_table == pytest.approx(
            [b * b * r for r in ref.rss_table], rel=1e-6
        )

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**16), SHIFT, SCALE, st.sampled_from(BreakModel))
    def test_f_stats(self, seed, a, b, model):
        y = self.sample(seed)
        ref = f_stats(ts(y), model, 6, 54).f_values
        moved = f_stats(ts(a + b * y), model, 6, 54).f_values
        assert moved == pytest.approx(ref, rel=1e-7, abs=1e-7)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**16), SHIFT, SCALE, st.sampled_from(BreakModel))
    def test_intervals(self, seed, a, b, model):
        y = self.sample(seed)
        ref, moved = (
            breakpoint_confint(optimal_breakpoints(ts(v), model, h=6, m_max=1), ts(v))
            for v in (y, a + b * y)
        )
        assert moved.confidence_intervals == ref.confidence_intervals

    def test_three_regime_series_plus_1e8(self):
        # Breaks after 40 and 80, means 0, 3, -1, unit noise (seed 7).
        rng = np.random.default_rng(7)
        means = np.concatenate([np.zeros(40), np.full(40, 3.0), np.full(40, -1.0)])
        y = means + rng.standard_normal(120)
        ref = optimal_breakpoints(ts(y), BreakModel.LEVEL, h=6)
        moved = optimal_breakpoints(ts(y + 1e8), BreakModel.LEVEL, h=6)
        assert ref.break_indices == moved.break_indices == (40, 80)
        assert moved.rss_table == pytest.approx(ref.rss_table, rel=1e-6)


def test_dp_memory_is_linear_in_n():
    # An n x n float table at n = 1000 alone would take 8 MB.
    s = ts(np.random.default_rng(3).normal(size=1000))
    tracemalloc.start()
    try:
        optimal_breakpoints(s, BreakModel.LEVEL, h=250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dp_memory_is_linear_in_n_trend():
    # The trend model holds more temporaries per block of sample ends.
    s = ts(np.random.default_rng(3).normal(size=1000))
    tracemalloc.start()
    try:
        optimal_breakpoints(s, BreakModel.TREND, h=250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class TestConfidenceIntervals:
    def test_interval_brackets_break(self):
        s = step_series(n=80, at=40, jump=6.0, sd=1.0, seed=2)
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=10, m_max=1)
        bset = breakpoint_confint(bset, s)
        (lo, b, hi), = bset.confidence_intervals
        assert lo <= b <= hi
        assert b == bset.break_indices[0]
        assert 1 <= lo and hi <= 80

    def test_tighter_interval_for_bigger_jump(self):
        widths = []
        for jump in (3.0, 12.0):
            s = step_series(n=80, at=40, jump=jump, sd=1.0, seed=2)
            bset = breakpoint_confint(
                optimal_breakpoints(s, BreakModel.LEVEL, h=10, m_max=1), s
            )
            lo, _, hi = bset.confidence_intervals[0]
            widths.append(hi - lo)
        assert widths[1] < widths[0]

    def test_wider_at_higher_confidence(self):
        s = step_series(n=80, at=40, jump=4.0, sd=1.0, seed=2)
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=10, m_max=1)
        w = {}
        for alpha in (0.05, 0.10):
            lo, _, hi = breakpoint_confint(bset, s, alpha=alpha).confidence_intervals[0]
            w[alpha] = hi - lo
        assert w[0.05] >= w[0.10]

    T = np.arange(1.0, 41.0)

    @pytest.mark.parametrize(
        "y,model",
        [
            (np.repeat([0.0, 4.0], 20), BreakModel.LEVEL),
            # segment fits that are exact only up to rounding
            (np.repeat([0.1, 0.7], 20), BreakModel.LEVEL),
            (np.where(T <= 20, 0.3 * T + 1.0, 5.0 - 0.2 * T), BreakModel.TREND),
        ],
        ids=["zeros_then_fours", "tenths", "slope_change"],
    )
    def test_noiseless_break_collapses(self, y, model):
        bset = optimal_breakpoints(ts(y), model, h=5, m_max=1)
        bset = breakpoint_confint(bset, ts(y))
        assert bset.confidence_intervals == ((20, 20, 20),)

    def test_one_sided_zero_variance_rejected(self):
        y = np.concatenate([np.zeros(10), np.full(10, 4.0)])
        rng = np.random.default_rng(0)
        y[10:] += 0.01 * rng.normal(size=10)
        s = ts(y)
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=5, m_max=1)
        with pytest.raises(BreaksError, match="zero residual variance"):
            breakpoint_confint(bset, s)

    def test_no_breaks_selected(self):
        rng = np.random.default_rng(1)
        s = ts(rng.normal(size=40))
        bset = optimal_breakpoints(s, BreakModel.LEVEL, h=10, m_max=2)
        assert bset.selected_m == 0
        with pytest.raises(BreaksError, match="no breaks"):
            breakpoint_confint(bset, s)

    @pytest.mark.parametrize("model", list(BreakModel))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_form_oracle(self, model, seed):
        # Three regimes of 50 with shifts in level and, for the trend model, slope.
        rng = np.random.default_rng(seed)
        t = np.arange(150.0)
        y = rng.normal(size=150) + np.repeat(rng.normal(0.0, 3.0, 3), 50)
        if model is BreakModel.TREND:
            y += np.repeat(rng.normal(0.0, 0.05, 3), 50) * t
        s = ts(y)
        bset = breakpoint_confint(optimal_breakpoints(s, model, h=10, m_max=4), s)
        assert bset.selected_m > 0
        assert bset.confidence_intervals == confint_oracle(
            y, bset.break_indices, model is BreakModel.TREND
        )


def test_break_model_dimensions():
    assert BreakModel.LEVEL.k == 1
    assert BreakModel.TREND.k == 2
