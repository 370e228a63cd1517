"""End-to-end acceptance checks on the bundled fixture and seeded simulations.

Reference values for the bundled fixture are hard-coded below; tolerance
bands are part of the contract (exact p-value parity across implementations
is not a target — decision parity at the 5% level is).

KPSS values come in two kinds. ``KPSS_REFERENCE`` holds the hard-coded
reference statistics (2.45, 2.7, 0.452); all three are checked for decision
parity at the 5% level, and only the detrended 0.452 is also checked as a
statistic. ``KPSS_FIXTURE_STAT`` holds the fixture's own statistics at lag 3,
derived from ``oracles.kpss_oracle``, a direct partial-sum loop that shares no
code with ``tsbreak.unit_root``.
"""

import importlib.resources
import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import tsbreak
from tsbreak import (
    BreakModel,
    Period,
    ProcessKind,
    ProcessSpec,
    TimeSeries,
    TrendSpec,
    adf_stat,
    adf_test,
    boundary,
    breakpoint_confint,
    chow_test,
    df_tables,
    f_stats,
    generate,
    interpolate_df_pvalue,
    kpss_short,
    kpss_test,
    lags,
    load_csv,
    optimal_breakpoints,
)
from tsbreak.ols import DesignMatrix, fit

from oracles import kpss_oracle

FIXTURE = importlib.resources.files("tsbreak") / "data" / "trends_monthly.csv"

ADF_REFERENCE = {
    TrendSpec.NONE: (-2.09207, -1.11267, -0.45610, -0.17046, 0.00362),
    TrendSpec.DRIFT: (-4.23, -2.77, -1.96, -1.69, -1.54),
    TrendSpec.DRIFT_TREND: (-9.98, -6.87, -4.89, -4.25, -3.88),
}
ADF_REJECT_AT_5PCT = {
    TrendSpec.NONE: (True, False, False, False, False),
    TrendSpec.DRIFT: (True, False, False, False, False),
    TrendSpec.DRIFT_TREND: (True, True, True, True, True),
}
KPSS_REFERENCE = {
    TrendSpec.NONE: 2.45,
    TrendSpec.DRIFT: 2.7,
    TrendSpec.DRIFT_TREND: 0.452,
}
# The fixture's own KPSS statistics at lag 3, from kpss_oracle.
KPSS_FIXTURE_STAT = {
    TrendSpec.NONE: 10.7455,
    TrendSpec.DRIFT: 4.9944,
    TrendSpec.DRIFT_TREND: 0.4514,
}
KPSS_CRIT_5PCT = {
    TrendSpec.NONE: df_tables.KPSS_TABLE_NONE[1],
    TrendSpec.DRIFT: df_tables.KPSS_TABLE_DRIFT[1],
    TrendSpec.DRIFT_TREND: df_tables.KPSS_TABLE_DRIFT_TREND[1],
}


@pytest.fixture(scope="module")
def fixture_series():
    with importlib.resources.as_file(FIXTURE) as path:
        s = load_csv(path, label="trends")
    assert len(s) == 241
    assert s.start == Period(2004, 1)
    assert s.end == Period(2024, 1)
    return s


# --- 1. ADF golden test ------------------------------------------------------


class TestAdfGolden:
    def test_statistics_and_decisions(self, fixture_series):
        t0 = time.perf_counter()
        report = adf_test(fixture_series, nlag=5)
        elapsed = time.perf_counter() - t0
        for spec, expected in ADF_REFERENCE.items():
            cells = report.cells[spec]
            for lag, (cell, ref) in enumerate(zip(cells, expected)):
                tol = 0.01 if (spec is TrendSpec.NONE and lag == 0) else 0.02
                assert cell.stat == pytest.approx(ref, abs=tol), (
                    f"{spec.value} lag {lag}: {cell.stat:.5f} vs {ref}"
                )
        assert report.decisions(0.05) == ADF_REJECT_AT_5PCT
        assert elapsed < 1.0


# --- 2. KPSS golden test -----------------------------------------------------


class TestKpssGolden:
    # Only the detrended reference 0.452 is a property of this fixture. The
    # references 2.45 (none) and 2.7 (drift) are not: the demeaned statistic
    # is invariant to adding a constant to the series, and no plausible lag
    # (3, 4, 11, 14) gives 2.7 together with 0.452. The none statistic comes
    # near 2.45 (2.414) only if the whole series is shifted by about -30,
    # which moves the ADF none lag-0 statistic from -2.099 to -4.20 and makes
    # the 0-100 index negative. So the statistics are checked against the
    # oracle and the fixture's own values, and all three references against
    # the fixture's decision at the 5% level.
    @pytest.mark.parametrize("spec", list(KPSS_REFERENCE))
    def test_statistic_matches_reference(self, fixture_series, spec):
        cell = kpss_test(fixture_series, lag=3).cells[spec]
        oracle = kpss_oracle(fixture_series.values, spec, 3)
        assert cell.stat == pytest.approx(oracle, rel=1e-10)
        assert oracle == pytest.approx(KPSS_FIXTURE_STAT[spec], rel=1e-4)
        ref = KPSS_REFERENCE[spec]
        if spec is TrendSpec.DRIFT_TREND:
            assert cell.stat == pytest.approx(ref, rel=0.01), (
                f"{spec.value}: {cell.stat:.4f} vs {ref}"
            )
        crit = KPSS_CRIT_5PCT[spec]
        assert ref >= crit, f"{spec.value}: reference {ref} keeps stationarity"
        assert cell.p_value <= 0.05, (
            f"{spec.value}: {cell.stat:.4f} (p={cell.p_value}) keeps "
            f"stationarity, reference {ref} rejects it"
        )

    def test_pvalue_flags(self, fixture_series):
        cells = kpss_test(fixture_series, lag=3).cells
        assert cells[TrendSpec.DRIFT].p_boundary == "<="
        assert cells[TrendSpec.DRIFT].p_value == 0.01
        assert cells[TrendSpec.DRIFT_TREND].p_boundary == "<="
        assert cells[TrendSpec.DRIFT_TREND].p_value == 0.01

    def test_level_pvalue_near_reference(self, fixture_series):
        # The fixture's none statistic lies above the table's top critical
        # value, so the table rule clamps its p-value to 0.01.
        assert KPSS_FIXTURE_STAT[TrendSpec.NONE] > df_tables.KPSS_TABLE_NONE[-1]
        cell = kpss_test(fixture_series, lag=3).cells[TrendSpec.NONE]
        assert cell.p_value == 0.01
        assert cell.p_boundary == "<="


# --- 3. Lag-selection rules --------------------------------------------------


class TestLagRules:
    def test_values_at_t241(self):
        assert lags.schwert4(241) == 4
        assert lags.newey_west(241) == 4
        assert lags.kpss_short(241) == 3
        assert lags.schwert12(241) == 14

    def test_ordering_property_all_t(self):
        for T in range(1, 501):
            ks = lags.kpss_short(T)
            nw = lags.newey_west(T)
            s12 = lags.schwert12(T)
            s4 = lags.schwert4(T)
            assert ks <= nw <= s12, f"T={T}"
            assert abs(s4 - nw) <= 1, f"T={T}"


# --- 4. Endogenous break sweep -----------------------------------------------


class TestEndogenousSweep:
    def test_boundary_crossings(self, fixture_series):
        t0 = time.perf_counter()
        first = fixture_series.index_of(Period(2020, 1)) + 1  # 1-based split
        last = fixture_series.index_of(Period(2021, 12)) + 1
        assert (first, last) == (193, 216)
        path = f_stats(fixture_series, BreakModel.TREND, first, last)
        ave = boundary(path, 0.05, "ave_f").critical_value
        sup = boundary(path, 0.05, "sup_f").critical_value
        elapsed = time.perf_counter() - t0
        F = dict(zip(path.candidates, path.f_values))

        ave_cross = [c for c in path.candidates if F[c] > ave]
        september_2021 = 213
        assert ave_cross, "ave-F boundary never exceeded"
        assert abs(ave_cross[0] - september_2021) <= 1
        assert ave_cross == list(range(ave_cross[0], last + 1)), (
            "ave-F crossings are not a contiguous tail of the window"
        )

        sup_cross = [c for c in path.candidates if F[c] > sup]
        november_2021 = 215
        assert sup_cross, "sup-F boundary never exceeded"
        assert abs(sup_cross[0] - november_2021) <= 1
        assert sup_cross == list(range(sup_cross[0], last + 1))
        assert elapsed < 30.0


# --- 5. Breakpoints golden test ----------------------------------------------


class TestBreakpointsGolden:
    def test_selected_breaks_and_intervals(self, fixture_series):
        window = fixture_series.slice(Period(2020, 1), Period(2024, 1))
        assert len(window) == 49
        bset = optimal_breakpoints(window, BreakModel.LEVEL, h=5)
        assert bset.selected_m == 3
        assert bset.break_indices == (10, 24, 42)
        bset = breakpoint_confint(bset, window, alpha=0.05)
        expected = ((7, 12), (23, 25), (40, 47))
        for (lo, b, hi), (elo, ehi) in zip(bset.confidence_intervals, expected):
            assert abs(lo - elo) <= 1, f"break {b}: lower {lo} vs {elo}"
            assert abs(hi - ehi) <= 1, f"break {b}: upper {hi} vs {ehi}"


# --- 6. Dynamic program vs exhaustive enumeration ----------------------------


def _segment_rss(y, X, i, j):
    """RSS of the model on observations i..j inclusive (0-based)."""
    return fit(
        DesignMatrix(X[i : j + 1], tuple(f"x{c}" for c in range(X.shape[1]))),
        y[i : j + 1],
    ).rss


def _enumerate_best(y, model, h, m):
    n = len(y)
    if model is BreakModel.LEVEL:
        X = np.ones((n, 1))
    else:
        X = np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
    best = None
    for breaks in itertools.combinations(range(1, n), m):
        bounds = (0,) + breaks + (n,)
        if any(b - a < h for a, b in zip(bounds, bounds[1:])):
            continue
        rss = sum(
            _segment_rss(y, X, lo, hi - 1)
            for lo, hi in zip(bounds, bounds[1:])
        )
        if best is None or (rss, breaks) < best:
            best = (rss, breaks)
    return best


class TestDpOracle:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(20240101)
        done = 0
        while done < 100:
            n = int(rng.integers(8, 31))
            h = int(rng.integers(2, 6))
            m = int(rng.integers(0, 3))
            model = BreakModel.LEVEL if done % 2 else BreakModel.TREND
            h = max(h, model.k + 1)
            if n < (m + 1) * h:
                continue
            y = rng.normal(size=n)
            ref = _enumerate_best(y, model, h, m)
            if ref is None:
                continue
            s = TimeSeries(Period(2000, 1), y)
            bset = optimal_breakpoints(s, model, h=h, m_max=m)
            assert bset.rss_table[m] == pytest.approx(ref[0], abs=1e-8)
            assert bset.breaks_by_m[m] == ref[1]
            done += 1


# --- 7. Size and power on seeded simulations ---------------------------------


class TestSizeAndPower:
    REPS = 500

    def _adf_reject_rate(self, kind, **kw):
        hits = 0
        for seed in range(self.REPS):
            s = generate(ProcessSpec(kind, T=200, seed=seed, **kw))
            stat = adf_stat(s, TrendSpec.DRIFT, 0)
            p, _ = interpolate_df_pvalue(stat, TrendSpec.DRIFT, 200)
            hits += p <= 0.05
        return hits / self.REPS

    def test_adf_size_on_random_walks(self):
        assert self._adf_reject_rate(ProcessKind.RANDOM_WALK) <= 0.10

    def test_adf_power_on_ar1(self):
        assert self._adf_reject_rate(ProcessKind.AR1, phi=0.5) >= 0.50

    def test_kpss_size_on_white_noise(self):
        hits = 0
        lag = kpss_short(200)
        for seed in range(self.REPS):
            s = generate(ProcessSpec(ProcessKind.WHITE_NOISE, T=200, seed=seed))
            cell = kpss_test(s, lag=lag).cells[TrendSpec.DRIFT]
            hits += cell.p_value <= 0.05
        assert hits / self.REPS <= 0.12

    def test_chow_size_on_null_series(self):
        hits = 0
        for seed in range(self.REPS):
            s = generate(ProcessSpec(ProcessKind.WHITE_NOISE, T=100, seed=seed))
            hits += chow_test(s, BreakModel.LEVEL, 50).p_value < 0.05
        assert hits / self.REPS <= 0.08


# --- 8. CLI determinism ------------------------------------------------------


class TestCliDeterminism:
    def _run(self, args, seed=None):
        env = dict(os.environ)
        env.pop("TSBREAK_SEED", None)
        # The child imports the same tsbreak as this process, installed or not.
        src = os.path.dirname(os.path.dirname(tsbreak.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if seed is not None:
            env["TSBREAK_SEED"] = str(seed)
        out = subprocess.run(
            [sys.executable, "-m", "tsbreak.cli", *args],
            capture_output=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr.decode()
        return out.stdout

    @pytest.mark.parametrize(
        "args,seed",
        [
            (["adf", "--nlag", "5"], None),
            (["kpss", "--lag", "3"], None),
            (["fstats", "--from", "2020-01", "--to", "2021-12",
              "--alpha", "0.05"], 777),
            (["breakpoints", "--h", "5"], None),
            (["chow", "--point", "2020-10", "--model", "trend"], None),
        ],
    )
    def test_repeat_runs_byte_identical(self, args, seed):
        with importlib.resources.as_file(FIXTURE) as path:
            full = [args[0], "--input", str(path), *args[1:]]
            first = self._run(full, seed)
            second = self._run(full, seed)
        assert first == second
        assert first  # non-empty output
