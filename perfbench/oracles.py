"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports tsbreak or reuses its code: designs are built afresh,
fits use np.linalg.lstsq/pinv, the KPSS statistic is a plain loop, the
segment RSS comes from prefix sums on centred data, and the Monte Carlo
boundaries come from this module's own Brownian-bridge simulation with its
own seed. Every check returns a list of error strings; empty means pass.
Oracle values are memoised on the exact input, so a cycle that repeats an
input is checked against the values computed the first time.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import fdtrc, ndtri

REL = 1e-7  # statistics recomputed by a different factorisation
MC_Z = 3.0  # width of the Monte Carlo error band, in standard errors
MC_REPS = 20_000  # the oracle's draws
PROGRAM_REPS = 10_000  # the draws behind the program's boundaries (its documented MC_REPS)
MC_GRID = 1_000  # grid the limiting functionals are taken on
MC_CHUNK = 100  # bridges simulated at a time, to keep the oracle's memory small
DP_BLOCK = 16  # end points j handled at a time by the oracle DP
ORACLE_SEED = 987_654_321  # differs from the program's default MC seed


_MEMO: dict = {}


def memo(fn):
    """Cache fn(y, *args) on the bytes of y and the other arguments."""

    def cached(y, *args):
        key = (fn.__name__, np.asarray(y, dtype=float).tobytes(), args)
        if key not in _MEMO:
            _MEMO[key] = fn(np.asarray(y, dtype=float), *args)
        return _MEMO[key]

    cached.__name__ = fn.__name__
    return cached


def close(a: float, b: float, rel: float = REL, absolute: float = 1e-9) -> bool:
    return abs(a - b) <= absolute + rel * max(abs(a), abs(b))


# --- lag rules: exact integer forms of the floors --------------------------


def _largest(ok) -> int:
    l = 0
    while ok(l + 1):
        l += 1
    return l


def lag_rules(T: int) -> dict[str, int]:
    """floor(c (T/100)^p) as the largest integer l with l^q <= c^q T^r/100^r."""
    return {
        "schwert4": _largest(lambda l: 100 * l**4 <= 4**4 * T),
        "schwert12": _largest(lambda l: 100 * l**4 <= 12**4 * T),
        "newey_west": _largest(lambda l: 10_000 * l**9 <= 4**9 * T * T),
        "kpss_short": _largest(lambda l: 169 * l * l <= 9 * T),
    }


def check_lags(T: int, got: dict) -> list[str]:
    want = lag_rules(T)
    return [f"lag rule {k} at T={T}: got {got.get(k)}, want {v}" for k, v in want.items() if got.get(k) != v]


# --- least squares ----------------------------------------------------------


def _rss(X: np.ndarray, y: np.ndarray) -> float:
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    return float(r @ r)


@memo
def adf_t(y: np.ndarray, spec: str, lag: int) -> float:
    """t-ratio on y_{t-1} in dy_t = [c] [+ b t] + rho y_{t-1} + sum g_j dy_{t-j}."""
    T = len(y)
    rows, resp = [], []
    for t in range(lag + 1, T):  # 0-based index of y_t
        row = []
        if spec != "none":
            row.append(1.0)
        if spec == "drift_trend":
            row.append(float(t - lag))
        row.append(y[t - 1])
        row.extend(y[t - j] - y[t - j - 1] for j in range(1, lag + 1))
        rows.append(row)
        resp.append(y[t] - y[t - 1])
    X, d = np.array(rows), np.array(resp)
    beta = np.linalg.lstsq(X, d, rcond=None)[0]
    r = d - X @ beta
    s2 = float(r @ r) / (len(d) - X.shape[1])
    pinv = np.linalg.pinv(X)
    col = 0 if spec == "none" else (1 if spec == "drift" else 2)
    return float(beta[col] / math.sqrt(s2 * float(pinv[col] @ pinv[col])))


def _flag_ok(p: float, flag: str | None, ends: dict[str, float]) -> bool:
    """A clamped p-value sits on its table end; an interpolated one between the ends."""
    if flag is not None:
        return p == ends.get(flag)
    return min(ends.values()) <= p <= max(ends.values())


def check_adf(y: np.ndarray, nlag: int, specs: dict[str, list[tuple[int, float, float, str | None]]]) -> list[str]:
    """specs: kind -> [(lag, stat, p, p_boundary)]."""
    errs = []
    for kind, rows in specs.items():
        if [r[0] for r in rows] != list(range(nlag)):
            errs.append(f"adf {kind}: lags {[r[0] for r in rows]}, want 0..{nlag - 1}")
            continue
        for lag, stat, p, flag in rows:
            want = adf_t(y, kind, lag)
            if not close(stat, want):
                errs.append(f"adf {kind} lag {lag}: t={stat!r}, lstsq gives {want!r}")
            if not _flag_ok(p, flag, {"<=": 0.01, ">=": 0.99}):
                errs.append(f"adf {kind} lag {lag}: p={p} with flag {flag!r}")
        by_stat = sorted(rows, key=lambda r: r[1])
        if any(a[2] > b[2] for a, b in zip(by_stat, by_stat[1:])):
            errs.append(f"adf {kind}: p-values not monotone in the statistic")
    return errs


@memo
def kpss_stat(y: np.ndarray, spec: str, lag: int) -> float:
    T = len(y)
    if spec == "none":
        e = [float(v) for v in y]
    elif spec == "drift":
        mean = sum(float(v) for v in y) / T
        e = [float(v) - mean for v in y]
    else:
        X = np.column_stack([np.ones(T), np.arange(1.0, T + 1.0)])
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        e = [float(v) for v in y - X @ beta]
    partial, total = 0.0, 0.0
    for v in e:
        partial += v
        total += partial * partial
    s2 = sum(v * v for v in e)
    for j in range(1, lag + 1):
        s2 += 2.0 * (1.0 - j / (lag + 1.0)) * sum(e[t] * e[t - j] for t in range(j, T))
    return total / (T * T * (s2 / T))


def check_kpss(y: np.ndarray, lag: int, cells: dict[str, tuple[float, float, str | None]]) -> list[str]:
    errs = []
    for kind, (stat, p, flag) in cells.items():
        want = kpss_stat(y, kind, lag)
        if not close(stat, want, rel=1e-9):
            errs.append(f"kpss {kind}: stat={stat!r}, partial-sum loop gives {want!r}")
        if not _flag_ok(p, flag, {"<=": 0.01, ">=": 0.10}):
            errs.append(f"kpss {kind}: p={p} with flag {flag!r}")
    return errs


def _regressors(model: str, n: int) -> np.ndarray:
    t = np.arange(1.0, n + 1.0)
    return t[:, None] ** 0 if model == "level" else np.stack([t**0, t], axis=1)


def chow_f(y: np.ndarray, model: str, split: int, pooled: float) -> float:
    """Chow F at a split, given the pooled fit's RSS."""
    X = _regressors(model, len(y))
    k = X.shape[1]
    seg = _rss(X[:split], y[:split]) + _rss(X[split:], y[split:])
    return max(((pooled - seg) / k) / (seg / (len(y) - 2 * k)), 0.0)


def check_chow(y, model, split, f, df_num, df_den, p) -> list[str]:
    errs = []
    k = 1 if model == "level" else 2
    want = f_path(y, model, split, split)[0]
    if not close(f, want):
        errs.append(f"chow {model} at {split}: F={f!r}, lstsq gives {want!r}")
    if (df_num, df_den) != (k, len(y) - 2 * k):
        errs.append(f"chow {model}: df ({df_num}, {df_den}), want ({k}, {len(y) - 2 * k})")
    pw = float(fdtrc(k, len(y) - 2 * k, f))
    if not close(p, pw, rel=1e-9, absolute=1e-15):
        errs.append(f"chow {model}: p={p!r}, fdtrc gives {pw!r}")
    return errs


@memo
def f_path(y: np.ndarray, model: str, lo: int, hi: int) -> list[float]:
    pooled = _rss(_regressors(model, len(y)), y)
    return [chow_f(y, model, split, pooled) for split in range(lo, hi + 1)]


def check_f_path(y, model, lo, hi, values) -> list[str]:
    if len(values) != hi - lo + 1:
        return [f"f path {model}: {len(values)} values for window [{lo}, {hi}]"]
    errs = []
    for split, f, want in zip(range(lo, hi + 1), values, f_path(y, model, lo, hi)):
        if not close(f, want):
            errs.append(f"f path {model} at {split}: F={f!r}, lstsq gives {want!r}")
    return errs[:3]


# --- Monte Carlo boundaries -------------------------------------------------


class BridgeOracle:
    """sup/ave of ||B_k(u)||^2 / (u(1-u)) over a window, on the benchmark's own draws."""

    def __init__(self):
        self._draws: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def draws(self, lo: int, hi: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        key = (lo, hi, n, k)
        if key not in self._draws:
            u = np.arange(1, MC_GRID) / MC_GRID
            inside = (u >= lo / n) & (u <= hi / n)
            weight = 1.0 / (u[inside] * (1.0 - u[inside]))
            rng = np.random.default_rng([ORACLE_SEED, k])
            sups, aves = [], []
            for start in range(0, MC_REPS, MC_CHUNK):
                c = min(MC_CHUNK, MC_REPS - start)
                walk = np.cumsum(rng.normal(0.0, MC_GRID**-0.5, (c, k, MC_GRID)), axis=2)
                bridge = walk[:, :, :-1][:, :, inside] - u[inside] * walk[:, :, -1:]
                q = (bridge**2).sum(axis=1) * weight
                sups.append(q.max(axis=1))
                aves.append(q.mean(axis=1))
            self._draws[key] = (np.sort(np.concatenate(sups)), np.sort(np.concatenate(aves)))
        return self._draws[key]

    def quantile_band(self, draws: np.ndarray, level: float, k: int) -> tuple[float, float]:
        """Quantile in F units and the half-width of its MC_Z order-statistic band."""
        r = len(draws)
        sd = math.sqrt(r * level * (1.0 - level))
        lo = max(0, int(math.floor(r * level - MC_Z * sd)))
        hi = min(r - 1, int(math.ceil(r * level + MC_Z * sd)))
        return float(np.quantile(draws, level)) / k, float(draws[hi] - draws[lo]) / (2 * k)

    def check(self, n, lo, hi, k, alpha, sup_f, sup_b, ave_b, p, clamped) -> list[str]:
        sups, aves = self.draws(lo, hi, n, k)
        errs = []
        for name, got, draws in (("sup", sup_b, sups), ("ave", ave_b, aves)):
            want, half = self.quantile_band(draws, 1.0 - alpha, k)
            # The program's quantile carries the same error scaled to its fewer draws.
            tol = half * math.sqrt(1.0 + MC_REPS / PROGRAM_REPS)
            if abs(got - want) > tol:
                errs.append(f"{name} boundary k={k} [{lo},{hi}]: {got!r}, oracle {want:.4f} +- {tol:.4f}")
        if not sup_b >= ave_b:
            errs.append(f"sup boundary {sup_b} below ave boundary {ave_b}")
        if sup_f > sup_b and not p <= alpha:
            errs.append(f"sup F {sup_f} exceeds the {alpha} boundary {sup_b} but p={p}")
        p_or = float(np.mean(sups >= k * sup_f))
        pp = max(p, p_or, 1.0 / PROGRAM_REPS)
        tol = MC_Z * math.sqrt(pp * (1.0 - pp) * (1.0 / MC_REPS + 1.0 / PROGRAM_REPS)) + 1.0 / PROGRAM_REPS
        if abs(p - p_or) > tol:
            errs.append(f"sup-F p-value {p!r} (clamped={clamped}), oracle {p_or:.4f} +- {tol:.4f}")
        return errs


# --- breakpoints ------------------------------------------------------------


class SegmentCost:
    """RSS of the level or trend regression on any segment, from prefix sums of centred data."""

    def __init__(self, y: np.ndarray, model: str):
        yc = np.asarray(y, dtype=float) - float(np.mean(y))
        self.model = model
        z = lambda a: np.concatenate([[0.0], np.cumsum(a)])  # noqa: E731
        self.py, self.pyy = z(yc), z(yc * yc)
        if model == "trend":
            t = np.arange(len(yc), dtype=float)
            tc = t - t.mean()
            self.pt, self.ptt, self.pty = z(tc), z(tc * tc), z(tc * yc)

    def __call__(self, b, j):
        """RSS of 0-based observations b..j inclusive (broadcasts)."""
        m = j - b + 1
        sy = self.py[j + 1] - self.py[b]
        syy = self.pyy[j + 1] - self.pyy[b] - sy * sy / m
        if self.model == "level":
            return np.maximum(syy, 0.0)
        st = self.pt[j + 1] - self.pt[b]
        stt = self.ptt[j + 1] - self.ptt[b] - st * st / m
        sty = self.pty[j + 1] - self.pty[b] - st * sy / m
        return np.maximum(syy - sty * sty / stt, 0.0)


@memo
def optimal_partitions(y: np.ndarray, model: str, h: int, m_max: int):
    """Exact DP, one break count at a time; ties go to the earliest last break.

    Returns the RSS by m, the breaks by m (1-based) and the segment cost.
    """
    n = len(y)
    cost = SegmentCost(y, model)
    idx = np.arange(n)
    best = np.full((m_max + 1, n), np.inf)
    back = np.zeros((m_max + 1, n), dtype=np.int64)
    ok = idx + 1 >= h
    best[0, ok] = cost(np.zeros(ok.sum(), dtype=np.int64), idx[ok])
    for m in range(1, m_max + 1):
        prev = np.concatenate([[np.inf], best[m - 1, :-1]])  # prev[b] = best[m-1][b-1]
        for j0 in range(0, n, DP_BLOCK):
            j = idx[j0 : j0 + DP_BLOCK]
            b = idx[:, None]
            valid = (b >= m * h) & (b <= j[None, :] - h + 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                seg = cost(np.minimum(b, j[None, :]), j[None, :])
            cand = np.where(valid, prev[:, None] + seg, np.inf)
            arg = np.argmin(cand, axis=0)
            best[m, j] = cand[arg, np.arange(len(j))]
            back[m, j] = arg
    rss, parts = [], []
    for m in range(m_max + 1):
        rss.append(float(best[m, n - 1]))
        brk, j = [], n - 1
        for mm in range(m, 0, -1):
            b = int(back[mm, j])
            brk.append(b)
            j = b - 1
        parts.append(tuple(sorted(brk)))
    return rss, parts, cost


def partition_rss(cost: SegmentCost, n: int, breaks) -> float:
    edges = [0, *breaks, n]
    return float(sum(cost(a, b - 1) for a, b in zip(edges, edges[1:])))


def bic(rss: list[float], n: int, k: int) -> list[float]:
    return [n * math.log(max(r, 1e-300) / n) + ((m + 1) * k + m + 1) * math.log(n) for m, r in enumerate(rss)]


def check_breakpoints(y, model, h, rss, selected_m, breaks, intervals) -> tuple[list[str], list[str], list[str]]:
    """rss: the program's RSS by break count; breaks: selected; intervals: [(lo, pt, hi)].

    Returns three lists of errors: the result's own consistency (table
    length, BIC argmin over its own RSS table, feasible breaks, intervals),
    its RSS table against the oracle DP, and its chosen count and breaks
    against the oracle's.
    """
    n = len(y)
    k = 1 if model == "level" else 2
    m_max = n // h - 1
    if len(rss) != m_max + 1:
        return [f"breakpoints: {len(rss)} RSS entries, want m = 0..{m_max}"], [], []
    own = []
    b_own = bic(rss, n, k)
    sel_own = min(range(m_max + 1), key=lambda m: (b_own[m], m))
    if selected_m != sel_own and not close(b_own[selected_m], b_own[sel_own], rel=1e-12):
        own.append(f"breakpoints: selected m={selected_m}, BIC argmin of its own RSS table m={sel_own}")
    breaks = tuple(breaks)
    edges = [0, *breaks, n]
    feasible = all(b - a >= h for a, b in zip(edges, edges[1:]))
    if len(breaks) != selected_m:
        own.append(f"breakpoints: {len(breaks)} breaks for selected m={selected_m}")
    elif not feasible:
        own.append(f"breakpoints: breaks {breaks} leave a segment shorter than h={h}")
    if len(intervals) != len(breaks):
        own.append(f"breakpoints: {len(intervals)} intervals for {len(breaks)} breaks")
    for (lo, pt, hi), b in zip(intervals, breaks):
        if not (1 <= lo <= pt <= hi <= n and pt == b):
            own.append(f"breakpoints: interval ({lo}, {pt}, {hi}) for break {b} outside 1 <= lower <= point <= upper <= {n}")

    want_rss, parts, cost = optimal_partitions(y, model, h, m_max)
    tol = 1e-8 * want_rss[0] + 1e-9
    rss_errs = [
        f"breakpoints m={m}: RSS {got!r}, oracle {want!r}"
        for m, (got, want) in enumerate(zip(rss, want_rss))
        if abs(got - want) > tol
    ]
    choice = []
    b_or = bic(want_rss, n, k)
    sel = min(range(m_max + 1), key=lambda m: (b_or[m], m))
    if selected_m != sel and not close(b_or[selected_m], b_or[sel], rel=1e-12):
        choice.append(f"breakpoints: selected m={selected_m}, oracle BIC argmin m={sel}")
    if len(breaks) == selected_m and feasible and breaks != parts[selected_m]:
        if partition_rss(cost, n, breaks) > want_rss[selected_m] + tol:
            choice.append(f"breakpoints: breaks {breaks}, oracle {parts[selected_m]}")
    return own, rss_errs, choice


def check_shift_invariance(ref, got) -> list[str]:
    """ref/got: (rss, selected_m, breaks) of a series and of a shifted copy."""
    errs = []
    if tuple(got[2]) != tuple(ref[2]) or got[1] != ref[1]:
        errs.append(f"shift changed the breaks: {tuple(ref[2])} -> {tuple(got[2])}")
    bad = [m for m, (a, b) in enumerate(zip(ref[0], got[0])) if not close(a, b, rel=1e-6)]
    if bad:
        errs.append(f"shift changed RSS for m={bad[:4]}: e.g. {ref[0][bad[0]]!r} -> {got[0][bad[0]]!r}")
    return errs


# --- simulation and aggregation ---------------------------------------------


def random_walk_drift(T: int, seed: int) -> np.ndarray:
    """Documented recipe at the CLI defaults (drift 0.5, sigma 1, y0 0):
    PCG64(seed) uniforms, ndtri, cumulative sum plus 0.5 t."""
    u = np.random.Generator(np.random.PCG64(seed)).random(T)
    return np.cumsum(ndtri(u)) + 0.5 * np.arange(1.0, T + 1.0)


def month_seq(start: str, count: int) -> list[str]:
    y, m = int(start[:4]), int(start[5:7])
    o = y * 12 + m - 1
    return [f"{(o + i) // 12:04d}-{(o + i) % 12 + 1:02d}" for i in range(count)]


class DocTopics:
    """A doc_id,period,topic_id,probability file read with the csv module."""

    def __init__(self, path: str):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        months = sorted({r[1] for r in rows})
        self.start = months[0]
        mindex = {p: i for i, p in enumerate(months)}
        docs = {}
        for r in rows:
            docs.setdefault(r[0], mindex[r[1]])
        dindex = {d: i for i, d in enumerate(docs)}
        self.doc_month = np.array(list(docs.values()))
        self.months = len(months)
        self.row_doc = np.array([dindex[r[0]] for r in rows])
        self.row_topic = np.array([r[2] for r in rows])
        self.row_prob = np.array([float(r[3]) for r in rows])

    def prevalence(self, topic: str) -> np.ndarray:
        sel = self.row_topic == topic
        per_doc = np.bincount(self.row_doc[sel], weights=self.row_prob[sel], minlength=len(self.doc_month))
        return np.bincount(self.doc_month, weights=per_doc, minlength=self.months) / np.bincount(
            self.doc_month, minlength=self.months
        )

    def check(self, topic: str, start: str, values) -> list[str]:
        want = self.prevalence(topic)
        errs = []
        if start != self.start or len(values) != len(want):
            errs.append(f"aggregate {topic}: {len(values)} periods from {start}, want {len(want)} from {self.start}")
        elif not np.allclose(values, want, rtol=1e-12, atol=1e-14):
            i = int(np.argmax(np.abs(np.asarray(values) - want)))
            errs.append(f"aggregate {topic}: period {i} mean {values[i]!r}, group mean {want[i]!r}")
        return errs
