import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adf_t_oracle, kpss_oracle
from tsbreak.periods import Period
from tsbreak.series import TimeSeries
from tsbreak.simulate import ProcessKind, ProcessSpec, generate
from tsbreak.unit_root import (
    TrendSpec,
    UnitRootError,
    adf_stat,
    adf_test,
    interpolate_df_pvalue,
    kpss_stat,
    kpss_test,
    long_run_variance,
)


def walk(T=200, seed=5):
    return generate(ProcessSpec(ProcessKind.RANDOM_WALK, T, seed=seed, y0=50.0))


def noise(T=200, seed=5):
    return generate(ProcessSpec(ProcessKind.WHITE_NOISE, T, seed=seed))


def shifted(series, a=0.0, b=1.0):
    return TimeSeries(series.start, a + b * series.values, series.label)


class TestAdfAgainstReference:
    """The regression layout must agree with the ADF regression written out."""

    @pytest.mark.parametrize("spec", list(TrendSpec))
    @pytest.mark.parametrize("lag", [0, 1, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_t_stat_matches_oracle(self, spec, lag, seed):
        s = walk(seed=seed)
        assert adf_stat(s, spec, lag) == pytest.approx(
            adf_t_oracle(s.values, spec, lag), abs=1e-8
        )


class TestAdfInvariances:
    @settings(deadline=None, max_examples=25)
    @given(st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
    def test_drift_specs_affine_invariant(self, b, a):
        s = walk(T=120)
        for spec in (TrendSpec.DRIFT, TrendSpec.DRIFT_TREND):
            base = adf_stat(s, spec, 2)
            moved = adf_stat(shifted(s, a, b), spec, 2)
            assert moved == pytest.approx(base, abs=1e-7)

    @settings(deadline=None, max_examples=25)
    @given(st.floats(0.1, 50.0))
    def test_none_spec_scale_invariant(self, b):
        s = walk(T=120)
        assert adf_stat(shifted(s, 0.0, b), TrendSpec.NONE, 1) == pytest.approx(
            adf_stat(s, TrendSpec.NONE, 1), abs=1e-7
        )

    def test_none_spec_offset_sensitive(self):
        s = walk(T=120)
        assert adf_stat(shifted(s, 500.0), TrendSpec.NONE, 0) != pytest.approx(
            adf_stat(s, TrendSpec.NONE, 0), abs=1e-3
        )


class TestAdfReport:
    def test_report_shape_and_common_sample(self):
        rep = adf_test(walk(), nlag=5)
        assert rep.T == 200
        assert rep.nlag == 5
        for spec in TrendSpec:
            assert tuple(c.lag for c in rep.cells[spec]) == (0, 1, 2, 3, 4)

    def test_decisions_flags(self):
        rep = adf_test(noise(), nlag=2)
        dec = rep.decisions(alpha=0.05)
        # white noise: every spec rejects the unit root overwhelmingly
        assert all(all(row) for row in dec.values())

    def test_nlag_must_be_positive(self):
        with pytest.raises(UnitRootError):
            adf_test(walk(), nlag=0)

    def test_too_short_series(self):
        with pytest.raises(UnitRootError, match="too short"):
            adf_test(TimeSeries(Period(2020, 1), np.arange(6.0)), nlag=3)

    def test_negative_lag(self):
        with pytest.raises(UnitRootError):
            adf_stat(walk(), TrendSpec.NONE, -1)


class TestDfInterpolation:
    def test_knot_value_exact(self):
        # drift spec, asymptotic row: -2.86 sits exactly on the 0.05 knot
        p, flag = interpolate_df_pvalue(-2.86, TrendSpec.DRIFT, 10_000)
        assert p == pytest.approx(0.05)
        assert flag is None

    def test_interior_linear(self):
        row = (-3.43, -3.12)  # drift asymptotic knots for 0.01 / 0.025
        stat = (row[0] + row[1]) / 2.0
        p, flag = interpolate_df_pvalue(stat, TrendSpec.DRIFT, 10_000)
        assert p == pytest.approx((0.01 + 0.025) / 2.0)
        assert flag is None

    def test_left_clamp(self):
        p, flag = interpolate_df_pvalue(-9.9, TrendSpec.DRIFT_TREND, 241)
        assert (p, flag) == (0.01, "<=")

    def test_right_clamp(self):
        p, flag = interpolate_df_pvalue(5.0, TrendSpec.NONE, 241)
        assert (p, flag) == (0.99, ">=")

    def test_row_selection_smallest_size_geq_T(self):
        # T=241 uses the 250-row; the 0.05 knot there is -2.88 for drift
        p, _ = interpolate_df_pvalue(-2.88, TrendSpec.DRIFT, 241)
        assert p == pytest.approx(0.05)

    def test_non_finite_stat(self):
        with pytest.raises(UnitRootError):
            interpolate_df_pvalue(float("nan"), TrendSpec.NONE, 100)

    def test_monotone_in_stat(self):
        stats = np.linspace(-4.0, 1.0, 60)
        ps = [interpolate_df_pvalue(s, TrendSpec.DRIFT, 241)[0] for s in stats]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


class TestLongRunVariance:
    def test_lag_zero_is_mean_square(self):
        e = np.array([1.0, -2.0, 3.0])
        assert long_run_variance(e, 0) == pytest.approx(np.mean(e**2))

    def test_bartlett_weights(self):
        e = np.array([1.0, 2.0, 3.0, 4.0])
        T = 4
        expected = np.mean(e**2)
        for j, w in ((1, 2 / 3), (2, 1 / 3)):
            expected += 2.0 / T * w * float(e[j:] @ e[:-j])
        assert long_run_variance(e, 2) == pytest.approx(expected)

    def test_floor_on_zero_residuals(self):
        assert long_run_variance(np.zeros(10), 2) > 0.0

    def test_lag_bound(self):
        with pytest.raises(UnitRootError):
            long_run_variance(np.zeros(5), 5)


class TestKpss:
    @pytest.mark.parametrize("spec", [TrendSpec.DRIFT, TrendSpec.DRIFT_TREND])
    def test_matches_reference_implementation(self, spec):
        s = walk(seed=9)
        ref = kpss_oracle(s.values, spec, 3)
        assert kpss_stat(s, spec, 3) == pytest.approx(ref, rel=1e-10)

    def test_none_spec_uses_raw_level(self):
        s = walk(seed=9)
        y = s.values
        T = len(y)
        S = np.cumsum(y)
        lrv = long_run_variance(y, 3)
        expected = float(S @ S) / (T**2 * lrv)
        assert kpss_stat(s, TrendSpec.NONE, 3) == pytest.approx(expected)

    @settings(deadline=None, max_examples=25)
    @given(st.floats(-200.0, 200.0))
    def test_drift_spec_invariant_to_constant(self, c):
        s = noise(T=150)
        assert kpss_stat(shifted(s, c), TrendSpec.DRIFT, 3) == pytest.approx(
            kpss_stat(s, TrendSpec.DRIFT, 3), rel=1e-8
        )

    @settings(deadline=None, max_examples=25)
    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_trend_spec_invariant_to_linear(self, a, b):
        s = noise(T=150)
        t = np.arange(150.0)
        moved = TimeSeries(s.start, s.values + a + b * t, s.label)
        assert kpss_stat(moved, TrendSpec.DRIFT_TREND, 3) == pytest.approx(
            kpss_stat(s, TrendSpec.DRIFT_TREND, 3), rel=1e-8
        )

    def test_report_with_rule_lag(self):
        rep = kpss_test(walk(T=241), lag="kpss_short")
        assert rep.lag == 3
        assert set(rep.cells) == set(TrendSpec)

    def test_report_with_fixed_lag(self):
        rep = kpss_test(walk(), lag=7)
        assert rep.lag == 7

    def test_unknown_rule(self):
        with pytest.raises(UnitRootError, match="unknown lag rule"):
            kpss_test(walk(), lag="nope")

    def test_negative_lag(self):
        with pytest.raises(UnitRootError):
            kpss_test(walk(), lag=-1)

    def test_too_short(self):
        with pytest.raises(UnitRootError, match="too short"):
            kpss_test(TimeSeries(Period(2020, 1), [1.0, 2.0]), lag=3)

    def test_pvalue_clamped_for_walk(self):
        # a long random walk rejects stationarity: p clamps at 0.01
        cell = kpss_test(walk(T=400, seed=3), lag=4).cells[TrendSpec.DRIFT]
        assert cell.p_value == pytest.approx(0.01)
        assert cell.p_boundary == "<="

    def test_pvalue_clamped_high_for_noise(self):
        cell = kpss_test(noise(T=400, seed=3), lag=4).cells[TrendSpec.DRIFT]
        assert cell.p_value == pytest.approx(0.10)
        assert cell.p_boundary == ">="
