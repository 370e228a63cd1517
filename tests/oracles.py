"""Reference implementations shared by the tests; no code shared with tsbreak."""

import math

from tsbreak import TrendSpec


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
