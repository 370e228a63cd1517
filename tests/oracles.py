"""Reference implementations shared by the tests.

They share no code with tsbreak, except that `confint_oracle` reads the
argmax limit law's quantiles from `tsbreak.argmax_dist`, which
`tests/test_argmax_dist.py` checks on its own.
"""

import math

import numpy as np

from tsbreak import TrendSpec
from tsbreak.argmax_dist import quantile


def kpss_oracle(values, spec, lag):
    """KPSS statistic written out from its definition with plain loops.

    Residuals are the raw series (none), the demeaned series (drift) or the
    residuals of a closed-form OLS fit on (1, t) (drift+trend). The statistic
    is T^-2 * sum(S_t^2) / s^2(lag), where S_t are the residuals' partial sums
    and s^2(lag) is the Bartlett-weighted sum of residual autocovariances.
    """
    y = [float(v) for v in values]
    T = len(y)
    t = range(1, T + 1)
    y_bar = math.fsum(y) / T
    if spec is TrendSpec.NONE:
        e = y
    elif spec is TrendSpec.DRIFT:
        e = [v - y_bar for v in y]
    else:
        t_bar = (T + 1) / 2
        slope = math.fsum((i - t_bar) * (v - y_bar) for i, v in zip(t, y)) / (
            math.fsum((i - t_bar) ** 2 for i in t)
        )
        intercept = y_bar - slope * t_bar
        e = [v - intercept - slope * i for i, v in zip(t, y)]
    partial, sum_sq = 0.0, 0.0
    for v in e:
        partial += v
        sum_sq += partial * partial
    s2 = math.fsum(v * v for v in e) / T
    for j in range(1, lag + 1):
        weight = 1.0 - j / (lag + 1.0)
        s2 += 2.0 * weight * math.fsum(e[i] * e[i - j] for i in range(j, T)) / T
    return sum_sq / (T * T * s2)


def ols_oracle(X, y):
    """OLS from the normal equations, solved in extended precision.

    X'X and X'y are formed in np.longdouble and solved by Gauss-Jordan
    elimination with partial pivoting, so the result shares no code with
    the QR fit under test and carries about three more digits than float64.
    Returns float64 (coefficients, standard errors, t-ratios, rss).
    """
    X = np.asarray(X, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    n, k = X.shape
    # Augmented system [X'X | X'y | I]: reduces to [I | beta | (X'X)^-1].
    a = np.concatenate([X.T @ X, (X.T @ y)[:, None], np.eye(k, dtype=np.longdouble)], axis=1)
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        a[col] /= a[col, col]
        for row in range(k):
            if row != col:
                a[row] -= a[row, col] * a[col]
    beta = a[:, k]
    resid = y - X @ beta
    rss = resid @ resid
    se = np.sqrt(rss / (n - k) * np.diag(a[:, k + 1 :]))
    return tuple(np.asarray(v, dtype=float) for v in (beta, se, beta / se)) + (float(rss),)


def adf_t_oracle(values, spec, lag):
    """ADF t-ratio on y_{t-1} from its regression written out per observation.

    Regresses dy_t on y_{t-1}, dy_{t-1}..dy_{t-lag} and, by spec, a constant
    and a time index, over t = lag+1..T-1 (0-based), then reads the ratio
    from `ols_oracle`.
    """
    y = [float(v) for v in values]
    rows, response = [], []
    for t in range(lag + 1, len(y)):
        row = [y[t - 1]] + [y[t - j] - y[t - j - 1] for j in range(1, lag + 1)]
        if spec is not TrendSpec.NONE:
            row.append(1.0)
        if spec is TrendSpec.DRIFT_TREND:
            row.append(float(t))
        rows.append(row)
        response.append(y[t] - y[t - 1])
    return float(ols_oracle(rows, response)[2][0])


def confint_oracle(values, breaks, trend, alpha=0.05):
    """Break-date intervals of Bai (1997) in their matrix form.

    For each break, the coefficients of the two adjacent segments' fits on
    (1) or (1, t), t = 1..n, come from `ols_oracle`, and with delta their
    difference and Q_i = X_i'X_i / n_i written out explicitly, each segment
    contributes delta' Q_i delta and its residual variance rss_i / n_i.
    Returns ((lower, break, upper), ...) for the 1-based `breaks`.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    t = np.arange(1.0, n + 1.0)
    X = np.column_stack([np.ones(n), t]) if trend else np.ones((n, 1))
    bounds = (0, *breaks, n)
    intervals = []
    for lo, b, hi in zip(bounds, bounds[1:], bounds[2:]):
        X1, X2 = X[lo:b], X[b:hi]
        beta1, _, _, rss1 = ols_oracle(X1, y[lo:b])
        beta2, _, _, rss2 = ols_oracle(X2, y[b:hi])
        delta = beta2 - beta1
        dq1 = float(delta @ (X1.T @ X1 / (b - lo)) @ delta)
        dq2 = float(delta @ (X2.T @ X2 / (hi - b)) @ delta)
        sigma1, sigma2 = rss1 / (b - lo), rss2 / (hi - b)
        xi = dq2 / dq1
        phi = xi * sigma2 / sigma1
        scale = sigma1 / dq1
        lower = b - math.ceil(scale * quantile(1.0 - alpha / 2.0, phi, xi))
        upper = b - math.floor(scale * quantile(alpha / 2.0, phi, xi))
        intervals.append((max(1, lower), b, min(n, upper)))
    return tuple(intervals)


def dp_oracle(values, h, m_max, trend):
    """Bai-Perron minimal-RSS partitions, one minimum per (break count, end).

    Segment RSS comes from prefix sums of y - ybar and, for the trend model,
    of t - tbar, (t - tbar)^2 and (t - tbar)(y - ybar), in the same expression
    order as the package's kernel, so the two compare exactly. Each (m, end)
    keeps its whole break vector; among candidates of equal RSS the
    lexicographically smallest vector wins. Returns (rss by m, breaks by m),
    breaks 1-based, for m = 0..m_max.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)

    def prefix(a):
        return np.concatenate(([0.0], np.cumsum(a)))

    yc = y - y.mean()
    tc = np.arange(n) - (n - 1) / 2.0
    sy, syy = prefix(yc), prefix(yc * yc)
    st, stt, sty = prefix(tc), prefix(tc * tc), prefix(tc * yc)

    def rss(b, e):
        m = e - b
        s_y = sy[e] - sy[b]
        r = syy[e] - syy[b] - s_y * s_y / m
        if trend:
            s_t = st[e] - st[b]
            s_tt = stt[e] - stt[b] - s_t * s_t / m
            s_ty = sty[e] - sty[b] - s_t * s_y / m
            r = r - s_ty * s_ty / s_tt
        return np.maximum(r, 0.0)

    best = np.full((m_max + 1, n + 1), np.inf)
    best[0, h:] = rss(0, np.arange(h, n + 1))
    paths = [[()] * (n + 1)]
    for m in range(1, m_max + 1):
        paths.append([None] * (n + 1))
        for e in range((m + 1) * h, n + 1):
            b = np.arange(m * h, e - h + 1)
            cand = best[m - 1, b] + rss(b, e)
            best[m, e] = cand.min()
            ties = b[cand == best[m, e]].tolist()
            paths[m][e] = min(paths[m - 1][c] + (c,) for c in ties)
    return [float(r) for r in best[:, n]], [paths[m][n] for m in range(m_max + 1)]
