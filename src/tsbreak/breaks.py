"""Structural-break analysis: Chow test, F-statistic sweep, breakpoints.

Break indices are 1-based throughout the public surface: a break at i
splits the sample into observations 1..i and i+1..n.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import fdtrc

from . import argmax_dist
from .series import TimeSeries

DEFAULT_TRIMMING = 0.10
DEFAULT_MC_SEED = 20240101
MC_GRID = 1000
MC_REPS = 10000
SUPPORTED_ALPHAS = (0.01, 0.05, 0.10)
# The breakpoint DP takes its sample ends in blocks of at most _BLOCK_CELLS
# (end, last break) cells, unless a block of _BLOCK_MIN_ROWS ends needs more.
_BLOCK_CELLS = 1 << 12
_BLOCK_MIN_ROWS = 8
_BLOCK_ROWS_MAX = math.isqrt(_BLOCK_CELLS)
_ABOVE_DIAGONAL = np.triu(np.ones((_BLOCK_ROWS_MAX, _BLOCK_ROWS_MAX), dtype=bool), 1)


class BreakModel(enum.Enum):
    LEVEL = "level"  # intercept only
    TREND = "trend"  # intercept plus linear time index

    @property
    def k(self) -> int:
        return 1 if self is BreakModel.LEVEL else 2


class BreaksError(ValueError):
    """Raised for invalid windows or bad parameters (input errors)."""


class DegenerateFitError(BreaksError, ArithmeticError):
    """A fit the statistic needs is exact or unidentified: a numerical failure."""


def mc_seed() -> int:
    """Monte Carlo seed; the TSBREAK_SEED environment variable overrides."""
    return int(os.environ.get("TSBREAK_SEED", DEFAULT_MC_SEED))


class _SegmentCost:
    """Level or trend fit on any run of observations, in O(1).

    Built once from prefix sums of y - ybar, t - tbar, (t - tbar)^2 and
    (t - tbar)(y - ybar). Centring keeps every running sum of the order of
    the series' spread, not of its level, so differences of them do not
    cancel far from zero (Chan, Golub & LeVeque 1983, Am. Stat. 37(3)).
    `tol` = n * eps * sum((y - ybar)^2) is their rounding floor and scales
    like every RSS under y -> a + b*y: an RSS at or below it is an exact fit.
    """

    def __init__(self, y: np.ndarray, model: BreakModel):
        def prefix(a: np.ndarray) -> np.ndarray:
            return np.concatenate(([0.0], np.cumsum(a)))

        yc = y - y.mean()
        tc = np.arange(len(y)) - (len(y) - 1) / 2.0
        self.trend = model is BreakModel.TREND
        self.sy, self.syy = prefix(yc), prefix(yc * yc)
        self.st, self.stt, self.sty = prefix(tc), prefix(tc * tc), prefix(tc * yc)
        self.tol = len(y) * np.finfo(float).eps * float(self.syy[-1])

    def rss(self, b, e):
        """RSS of 0-based observations b..e-1; b and e broadcast as arrays."""
        m = e - b
        sy = self.sy[e] - self.sy[b]
        rss = self.syy[e] - self.syy[b] - sy * sy / m
        if self.trend:
            st = self.st[e] - self.st[b]
            stt = self.stt[e] - self.stt[b] - st * st / m
            sty = self.sty[e] - self.sty[b] - st * sy / m
            rss = rss - sty * sty / stt
        return np.maximum(rss, 0.0)

    def line(self, b: int, e: int) -> tuple[float, float, float, float]:
        """Centred mean t, mean y, slope (0 if level) and var(t) of b..e-1."""
        m = e - b
        st, sy = self.st[e] - self.st[b], self.sy[e] - self.sy[b]
        stt = self.stt[e] - self.stt[b] - st * st / m
        slope = (self.sty[e] - self.sty[b] - st * sy / m) / stt if self.trend else 0.0
        return float(st / m), float(sy / m), float(slope), float(stt / m)


@dataclass(frozen=True)
class ChowResult:
    break_index: int  # last observation of the first segment, 1-based
    f_stat: float
    df_num: int
    df_den: int
    p_value: float


def _chow_f(cost: _SegmentCost, n: int, k: int, splits: np.ndarray) -> np.ndarray:
    """Pooled-vs-segmented F statistic at each 1-based split in `splits`.

    The pooled RSS is `cost.rss(0, n)` and the segmented RSS at split s is
    `cost.rss(0, s) + cost.rss(s, n)`: every split costs O(1) and no
    segment is refitted.
    """
    short = splits[(splits < k + 1) | (n - splits < k + 1)]
    if short.size:
        raise BreaksError(
            f"split at {short[0]} leaves a segment with fewer than {k + 1} "
            f"observations (n={n}, k={k})"
        )
    rss_seg = cost.rss(0, splits) + cost.rss(splits, n)
    if np.any(rss_seg <= cost.tol):
        raise DegenerateFitError(
            "degenerate segments: both sub-fits are exact (zero residual "
            "sum of squares), the F statistic is undefined"
        )
    df_den = n - 2 * k
    f = ((cost.rss(0, n) - rss_seg) / k) / (rss_seg / df_den)
    return np.maximum(f, 0.0)


def chow_test(series: TimeSeries, model: BreakModel, point: int) -> ChowResult:
    """Chow test at a researcher-chosen split point."""
    y = series.values
    n, k = len(y), model.k
    df_den = n - 2 * k
    f = float(_chow_f(_SegmentCost(y, model), n, k, np.array([point]))[0])
    return ChowResult(point, f, k, df_den, float(fdtrc(k, df_den, f)))


@dataclass(frozen=True)
class FstatsPath:
    """F statistic per candidate break index over a trimmed window.

    Deliberately silent about which candidate might be "the" break: an
    ex-post sweep cannot date a break, only summarize evidence that one
    exists somewhere in the window.
    """

    n: int
    from_index: int
    to_index: int
    f_values: np.ndarray
    trimming: float
    k: int

    @property
    def candidates(self) -> range:
        return range(self.from_index, self.to_index + 1)

    @property
    def sup_f(self) -> float:
        return float(self.f_values.max())

    @property
    def ave_f(self) -> float:
        return float(self.f_values.mean())


def f_stats(
    series: TimeSeries,
    model: BreakModel,
    from_index: int,
    to_index: int,
    trimming: float = DEFAULT_TRIMMING,
) -> FstatsPath:
    """Chow F at every candidate split in [from_index, to_index].

    All splits share one `_SegmentCost`, so the sweep is O(n) in total.
    """
    y = series.values
    n = len(y)
    if not 1 <= from_index <= to_index <= n - 1:
        raise BreaksError(
            f"candidate window [{from_index}, {to_index}] invalid for n={n}"
        )
    margin = math.ceil(trimming * n)
    if from_index < margin or to_index > n - margin:
        raise BreaksError(
            f"window [{from_index}, {to_index}] violates the "
            f"{100 * (1 - trimming):.0f}/{100 * trimming:.0f} rule: each "
            f"segment needs at least {margin} of the {n} observations "
            "(lower the trimming fraction explicitly to override)"
        )
    splits = np.arange(from_index, to_index + 1)
    values = _chow_f(_SegmentCost(y, model), n, model.k, splits)
    values.setflags(write=False)
    return FstatsPath(n, from_index, to_index, values, trimming, model.k)


# --- Monte Carlo null distribution of the F path functionals -----------------

_null_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _null_draws(
    lam1: float, lam2: float, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated (sup, ave) draws of the limiting F-path functionals.

    k times the Chow F at split fraction u converges, under the null, to
    ||B_k(u)||^2 / (u(1-u)) with B_k a k-dimensional Brownian bridge. The
    bridge is simulated on a 1000-point grid and the functionals are taken
    over the grid points inside [lam1, lam2]; draws are cached per
    (window, k, seed).
    """
    key = (round(lam1, 9), round(lam2, 9), k, seed)
    if key in _null_cache:
        return _null_cache[key]
    grid = np.arange(1, MC_GRID) / MC_GRID
    window = (grid >= lam1) & (grid <= lam2)
    if not window.any():
        raise BreaksError(
            f"candidate window [{lam1:.3f}, {lam2:.3f}] too narrow for the "
            f"{MC_GRID}-point simulation grid"
        )
    u = grid[window]
    scale = 1.0 / (u * (1.0 - u))
    rng = np.random.Generator(np.random.PCG64(seed))
    sups = np.empty(MC_REPS)
    aves = np.empty(MC_REPS)
    batch = 250
    done = 0
    while done < MC_REPS:
        b = min(batch, MC_REPS - done)
        z = rng.standard_normal((b, k, MC_GRID)) / math.sqrt(MC_GRID)
        w = np.cumsum(z, axis=2)
        bridge = w[:, :, :-1] - grid * w[:, :, -1:]
        q = np.sum(bridge[:, :, window] ** 2, axis=1) * scale
        sups[done : done + b] = q.max(axis=1)
        aves[done : done + b] = q.mean(axis=1)
        done += b
    for arr in (sups, aves):
        arr.setflags(write=False)
    _null_cache[key] = (sups, aves)
    return sups, aves


@dataclass(frozen=True)
class BoundarySpec:
    alpha: float
    criterion: str  # "sup_f" | "ave_f"
    critical_value: float
    seed: int


def boundary(
    path: FstatsPath,
    alpha: float = 0.05,
    criterion: str = "sup_f",
    seed: int | None = None,
) -> BoundarySpec:
    """Critical value of the sup-F or ave-F functional at level alpha."""
    if alpha not in SUPPORTED_ALPHAS:
        raise BreaksError(
            f"unsupported alpha {alpha}; choose from {SUPPORTED_ALPHAS}"
        )
    if criterion not in ("sup_f", "ave_f"):
        raise BreaksError(f"criterion must be sup_f or ave_f, got {criterion!r}")
    seed = mc_seed() if seed is None else seed
    sups, aves = _null_draws(
        path.from_index / path.n, path.to_index / path.n, path.k, seed
    )
    draws = sups if criterion == "sup_f" else aves
    crit = float(np.quantile(draws, 1.0 - alpha)) / path.k
    return BoundarySpec(alpha, criterion, crit, seed)


@dataclass(frozen=True)
class SupFPvalue:
    p_value: float
    mc_se: float
    clamped: bool  # true when sup_f exceeded every simulated draw

    def __str__(self) -> str:
        if self.clamped:
            return f"< {1.0 / MC_REPS:g}"
        return f"{self.p_value:.4f} (MC se {self.mc_se:.4f})"


def sup_f_pvalue(path: FstatsPath, seed: int | None = None) -> SupFPvalue:
    """Tail proportion of sup_f under the simulated null distribution."""
    seed = mc_seed() if seed is None else seed
    sups, _ = _null_draws(
        path.from_index / path.n, path.to_index / path.n, path.k, seed
    )
    tail = int(np.sum(sups >= path.k * path.sup_f))
    p = tail / len(sups)
    if tail == 0:
        return SupFPvalue(1.0 / len(sups), float("nan"), True)
    return SupFPvalue(p, math.sqrt(p * (1.0 - p) / len(sups)), False)


# --- Multiple breakpoints ----------------------------------------------------


@dataclass(frozen=True)
class BreakpointSet:
    model: BreakModel
    n: int
    h: int
    rss_table: tuple[float, ...]  # indexed by break count m = 0..m_max
    bic_table: tuple[float, ...]
    selected_m: int
    breaks_by_m: tuple[tuple[int, ...], ...]
    confidence_intervals: tuple[tuple[int, int, int], ...] | None = None

    @property
    def break_indices(self) -> tuple[int, ...]:
        return self.breaks_by_m[self.selected_m]


def _backtrack(back: np.ndarray, m: int, end: int) -> tuple[int, ...]:
    """Break vector of the best m-break partition of observations 0..end-1."""
    breaks = []
    for mm in range(m, 0, -1):
        end = int(back[mm, end])
        breaks.append(end)
    return tuple(reversed(breaks))


def _dp_layer(cost: _SegmentCost, best: np.ndarray, back: np.ndarray, m: int, h: int):
    """Fill best[m] and back[m] from layer m - 1, a block of sample ends at a time.

    A block of ends e and candidate last breaks b is one array of
    best[m - 1, b] + rss(b, e). Its first row has w candidates and each later
    row one more, so a block of r rows holds at most r * (w + _BLOCK_ROWS_MAX)
    cells. Cells with b > e - h are infeasible: they lie above the diagonal of
    the last r columns and are set to inf before the row minima are taken.
    """
    n = best.shape[1] - 1
    first = (m + 1) * h  # shortest sample that holds m + 1 segments
    e0 = first
    while e0 <= n:
        rows = max(_BLOCK_MIN_ROWS, _BLOCK_CELLS // (e0 + 1 - first + _BLOCK_ROWS_MAX))
        e = np.arange(e0, min(e0 + rows, n + 1))
        e0, ne = e0 + rows, len(e)
        b = np.arange(m * h, e[-1] - h + 1)
        cand = best[m - 1, b] + cost.rss(b, e[:, None])
        cand[:, -ne:][_ABOVE_DIAGONAL[:ne, :ne]] = np.inf
        at = np.arange(ne)
        i = cand.argmin(axis=1)
        low = cand[at, i]
        cand[at, i] = np.inf  # a second minimum equal to the first is a tie
        for r in np.flatnonzero(cand.min(axis=1) == low):
            # The earliest last break need not be lexicographically least.
            ties = np.append(b[i[r]], b[cand[r] == low[r]])
            i[r] = min(ties, key=lambda t: _backtrack(back, m - 1, t) + (t,)) - b[0]
        best[m, e], back[m, e] = low, b[i]


def optimal_breakpoints(
    series: TimeSeries,
    model: BreakModel,
    h: int,
    m_max: int | None = None,
) -> BreakpointSet:
    """Minimal-RSS partitions for each break count, selected by BIC.

    Exact dynamic program over the triangular segment-RSS array of Bai &
    Perron (2003), with every segment's RSS read from one `_SegmentCost`
    instead of a stored n x n table. Each break count's layer is filled a
    block of sample ends at a time, one bounded (ends x last breaks) array
    per block (`_dp_layer`), so memory is O(m_max * n). Among equal-RSS
    partitions the lexicographically smallest break vector wins, and BIC
    ties go to the smaller break count. BIC reads an RSS at or below the
    kernel's rounding floor `tol` as `tol`: past an exact fit, rounding
    residue buys no breaks.
    """
    y = series.values
    n = len(y)
    k = model.k
    if h < k + 1:
        raise BreaksError(f"h={h} too small for the {model.value} model (k={k})")
    if n < 2 * h:
        raise BreaksError(f"series of length {n} shorter than 2h={2 * h}")
    bound = n // h - 1
    if m_max is None:
        m_max = bound
    elif not 0 <= m_max <= bound:
        raise BreaksError(f"m_max={m_max} outside feasible range 0..{bound}")

    cost = _SegmentCost(y, model)
    # best[m, e]: least RSS of observations 0..e-1 cut by m breaks; back[m, e]:
    # the last of those breaks, 1-based, which is where the last segment starts.
    best = np.full((m_max + 1, n + 1), np.inf)
    back = np.zeros((m_max + 1, n + 1), dtype=np.intp)
    best[0, h:] = cost.rss(0, np.arange(h, n + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # masked infeasible cells
        for m in range(1, m_max + 1):
            _dp_layer(cost, best, back, m, h)

    rss_table = [float(r) for r in best[:, n]]
    breaks_by_m = [_backtrack(back, m, n) for m in range(m_max + 1)]
    bic_table = []
    log_n = math.log(n)
    for m, rss in enumerate(rss_table):
        npar = (m + 1) * k + m + 1  # per-segment slopes, break dates, variance
        safe_rss = max(rss, cost.tol, 1e-300)  # an exact fit's RSS is noise below tol
        bic_table.append(n * math.log(safe_rss / n) + npar * log_n)

    selected_m = min(range(m_max + 1), key=lambda m: (bic_table[m], m))
    return BreakpointSet(
        model,
        n,
        h,
        tuple(rss_table),
        tuple(bic_table),
        selected_m,
        tuple(breaks_by_m),
    )


def breakpoint_confint(
    bset: BreakpointSet,
    series: TimeSeries,
    alpha: float = 0.05,
) -> BreakpointSet:
    """Attach (lower, point, upper) intervals to the selected partition.

    Intervals come from the argmax limit law (Bai 1997) with segment-specific
    variances and moments from one `_SegmentCost`; quantiles bisect to 1e-8.
    """
    breaks = bset.break_indices
    if not breaks:
        raise BreaksError("no breaks selected; nothing to build intervals for")
    y = series.values
    n = bset.n
    if len(y) != n:
        raise BreaksError("series does not match the breakpoint set")
    cost = _SegmentCost(y, bset.model)
    bounds = (0,) + breaks + (n,)
    intervals = []
    for idx, b in enumerate(breaks):
        lo, hi = bounds[idx], bounds[idx + 2]
        t1, y1, s1, var1 = cost.line(lo, b)
        t2, y2, s2, var2 = cost.line(b, hi)
        # delta' Q_i delta: mean square of the gap between the lines on segment i.
        dq1 = (y2 + s2 * (t1 - t2) - y1) ** 2 + (s2 - s1) ** 2 * var1
        dq2 = (y2 - y1 - s1 * (t2 - t1)) ** 2 + (s2 - s1) ** 2 * var2
        rss1, rss2 = float(cost.rss(lo, b)), float(cost.rss(b, hi))
        if dq1 <= 0.0 or dq2 <= 0.0:
            raise DegenerateFitError(
                f"no parameter change across break #{b}; interval undefined"
            )
        if rss1 <= cost.tol and rss2 <= cost.tol:
            intervals.append((b, b, b))  # noiseless shift: exact break date
            continue
        if rss1 <= cost.tol or rss2 <= cost.tol:
            side = "before" if rss1 <= cost.tol else "after"
            raise DegenerateFitError(
                f"segment {side} break #{b} has zero residual variance; "
                "the interval is undefined"
            )
        sigma1, sigma2 = rss1 / (b - lo), rss2 / (hi - b)
        xi = dq2 / dq1
        phi = xi * sigma2 / sigma1
        scale = sigma1 / dq1  # observations per unit of limit time
        q_hi = argmax_dist.quantile(1.0 - alpha / 2.0, phi, xi)
        q_lo = argmax_dist.quantile(alpha / 2.0, phi, xi)
        lower = b - math.ceil(scale * q_hi)
        upper = b - math.floor(scale * q_lo)
        intervals.append((max(1, lower), b, min(n, upper)))
    return replace(bset, confidence_intervals=tuple(intervals))
