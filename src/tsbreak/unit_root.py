"""Augmented Dickey-Fuller and KPSS tests across three deterministic specs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import df_tables, lags, ols
from .series import TimeSeries

LRV_FLOOR = 1e-300


class TrendSpec(enum.Enum):
    NONE = "none"
    DRIFT = "drift"
    DRIFT_TREND = "drift_trend"


_DF_TABLES = {
    TrendSpec.NONE: df_tables.DF_TABLE_NONE,
    TrendSpec.DRIFT: df_tables.DF_TABLE_DRIFT,
    TrendSpec.DRIFT_TREND: df_tables.DF_TABLE_DRIFT_TREND,
}

_KPSS_TABLES = {
    TrendSpec.NONE: df_tables.KPSS_TABLE_NONE,
    TrendSpec.DRIFT: df_tables.KPSS_TABLE_DRIFT,
    TrendSpec.DRIFT_TREND: df_tables.KPSS_TABLE_DRIFT_TREND,
}


class UnitRootError(ValueError):
    """Raised when a series is too short for the requested test."""


@dataclass(frozen=True)
class TestCell:
    lag: int
    stat: float
    p_value: float
    p_boundary: str | None  # "<=" / ">=" when the p-value was clamped


@dataclass(frozen=True)
class AdfReport:
    T: int
    nlag: int
    cells: dict[TrendSpec, tuple[TestCell, ...]]

    def decisions(self, alpha: float = 0.05) -> dict[TrendSpec, tuple[bool, ...]]:
        """Reject/fail flags per spec and lag at the given level."""
        return {
            spec: tuple(c.p_value <= alpha for c in row)
            for spec, row in self.cells.items()
        }


@dataclass(frozen=True)
class KpssReport:
    T: int
    lag: int
    cells: dict[TrendSpec, TestCell]


def _adf_regression(y: np.ndarray, spec: TrendSpec, lag: int):
    """Design and response of the ADF regression at the given lag.

    Regresses dy_t on y_{t-1}, dy_{t-1}..dy_{t-lag} and the deterministic
    terms of `spec`. The effective sample is t = lag+2 .. T for every spec,
    so statistics are comparable across specs and lags.
    """
    T = len(y)
    dy = np.diff(y)
    nobs = T - 1 - lag
    columns: dict[str, np.ndarray] = {}
    if spec is not TrendSpec.NONE:
        columns["intercept"] = np.ones(nobs)
    if spec is TrendSpec.DRIFT_TREND:
        columns["trend"] = np.arange(1.0, nobs + 1.0)
    columns["level_lag1"] = y[lag : T - 1]
    for j in range(1, lag + 1):
        columns[f"diff_lag{j}"] = dy[lag - j : T - 1 - j]
    response = dy[lag:]
    k = len(columns)
    if nobs <= k + 2:
        raise UnitRootError(
            f"series of length {T} too short for lag {lag} "
            f"({nobs} usable observations, {k} regressors)"
        )
    return ols.design(columns), response


def adf_stat(series: TimeSeries, spec: TrendSpec, lag: int) -> float:
    """t-ratio on the lagged level in the ADF regression."""
    if lag < 0:
        raise UnitRootError(f"lag must be non-negative, got {lag}")
    design, response = _adf_regression(series.values, spec, lag)
    fit = ols.fit(design, response)
    return float(fit.t_stats[design.labels.index("level_lag1")])


def interpolate_df_pvalue(
    stat: float, spec: TrendSpec, T: int
) -> tuple[float, str | None]:
    """p-value by linear interpolation in the Dickey-Fuller table.

    Uses the row for the smallest tabulated sample size >= T (asymptotic
    row beyond the table); clamps to [0.01, 0.99] with a boundary flag.
    """
    if not np.isfinite(stat):
        raise UnitRootError(f"non-finite ADF statistic {stat}")
    table = _DF_TABLES[spec]
    row_idx = next(
        i for i, size in enumerate(df_tables.DF_SIZES) if T <= size
    )
    row = table[row_idx]
    if stat <= row[0]:
        return 0.01, "<="
    if stat >= row[-1]:
        return 0.99, ">="
    return float(np.interp(stat, row, df_tables.DF_PROBS)), None


def adf_test(series: TimeSeries, nlag: int) -> AdfReport:
    """ADF statistics and p-values for lags 0..nlag-1 under all three specs."""
    if nlag < 1:
        raise UnitRootError(f"nlag must be at least 1, got {nlag}")
    T = len(series)
    cells = {}
    for spec in TrendSpec:
        row = []
        for lag in range(nlag):
            stat = adf_stat(series, spec, lag)
            p, flag = interpolate_df_pvalue(stat, spec, T)
            row.append(TestCell(lag, stat, p, flag))
        cells[spec] = tuple(row)
    return AdfReport(T, nlag, cells)


def long_run_variance(residuals, lag: int) -> float:
    """Bartlett-kernel long-run variance s^2(lag) of a residual vector."""
    e = np.asarray(residuals, dtype=float)
    T = len(e)
    if lag >= T:
        raise UnitRootError(f"lag {lag} must be below the sample size {T}")
    s2 = float(e @ e) / T
    for j in range(1, lag + 1):
        w = 1.0 - j / (lag + 1.0)
        s2 += 2.0 / T * w * float(e[j:] @ e[:-j])
    return max(s2, LRV_FLOOR)


def _kpss_residuals(y: np.ndarray, spec: TrendSpec) -> np.ndarray:
    if spec is TrendSpec.NONE:
        return y
    if spec is TrendSpec.DRIFT:
        return y - y.mean()
    T = len(y)
    design = ols.design(
        {"intercept": np.ones(T), "trend": np.arange(1.0, T + 1.0)}
    )
    return np.asarray(ols.fit(design, y).residuals)


def kpss_stat(series: TimeSeries, spec: TrendSpec, lag: int) -> float:
    """Partial-sum statistic T^-2 sum(S_t^2) / s^2(lag)."""
    y = series.values
    T = len(y)
    if T <= lag + 2:
        raise UnitRootError(
            f"series of length {T} too short for KPSS with lag {lag}"
        )
    e = _kpss_residuals(y, spec)
    S = np.cumsum(e)
    return float(S @ S) / (T**2 * long_run_variance(e, lag))


def _interpolate_kpss_pvalue(
    stat: float, spec: TrendSpec
) -> tuple[float, str | None]:
    crit = _KPSS_TABLES[spec]
    if stat <= crit[0]:
        return 0.10, ">="
    if stat >= crit[-1]:
        return 0.01, "<="
    # Critical values ascend while tail probabilities descend.
    return float(np.interp(stat, crit, df_tables.KPSS_PROBS)), None


def kpss_test(series: TimeSeries, lag: int | str = "kpss_short") -> KpssReport:
    """KPSS statistics for all three specs at a fixed or rule-selected lag."""
    if isinstance(lag, str):
        if lag not in lags.RULES:
            raise UnitRootError(
                f"unknown lag rule {lag!r}; choose from {sorted(lags.RULES)}"
            )
        lag = lags.RULES[lag](len(series))
    if lag < 0:
        raise UnitRootError(f"lag must be non-negative, got {lag}")
    cells = {}
    for spec in TrendSpec:
        stat = kpss_stat(series, spec, lag)
        p, flag = _interpolate_kpss_pvalue(stat, spec)
        cells[spec] = TestCell(lag, stat, p, flag)
    return KpssReport(len(series), lag, cells)
