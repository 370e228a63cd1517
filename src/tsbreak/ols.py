"""Ordinary least squares via QR decomposition.

This module fits the ADF test regressions and the KPSS detrending. The
level and trend segment fits behind the Chow test, the F sweep, the
breakpoints and their intervals live in `breaks._SegmentCost` instead.
Normal equations are deliberately avoided: the near-unit-root regressions
behind the ADF test are ill-conditioned enough that the orthogonal
decomposition matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-10


class OlsError(ValueError, ArithmeticError):
    """Raised for rank-deficient or dimensionally inconsistent problems.

    Also an ArithmeticError: a fit that cannot be computed is a numerical
    failure, whatever the caller passed in.
    """


@dataclass(frozen=True)
class DesignMatrix:
    X: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise OlsError("design matrix must be two-dimensional")
        n, k = X.shape
        if not (n >= k >= 1):
            raise OlsError(f"need n >= k >= 1, got n={n}, k={k}")
        if not np.all(np.isfinite(X)):
            raise OlsError("design matrix contains non-finite entries")
        if len(self.labels) != k:
            raise OlsError(f"{k} columns but {len(self.labels)} labels")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    df: int
    standard_errors: np.ndarray
    t_stats: np.ndarray

    @property
    def sigma2(self) -> float:
        return self.rss / self.df if self.df > 0 else float("nan")


def fit(design: DesignMatrix, y) -> OlsFit:
    """Least-squares fit of y on the design columns.

    Rank is checked on the R diagonal of the QR decomposition with relative
    tolerance 1e-10; the first dependent column is named in the error.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise OlsError(
            f"response length {y.shape} does not match {design.n} rows"
        )
    if not np.all(np.isfinite(y)):
        raise OlsError("response contains non-finite entries")

    X = design.X
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    threshold = RANK_RTOL * diag.max() if diag.max() > 0 else 0.0
    small = np.flatnonzero(diag <= threshold)
    if diag.max() == 0.0 or small.size:
        col = int(small[0]) if small.size else 0
        raise OlsError(
            f"design matrix is rank deficient: column {design.labels[col]!r} "
            "is linearly dependent on the preceding columns"
        )

    beta = np.linalg.solve(R, Q.T @ y)
    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    df = design.n - design.k
    # (X'X)^-1 = R^-1 R^-T, so its diagonal comes from the rows of R^-1.
    Rinv = np.linalg.solve(R, np.eye(design.k))
    xtx_inv_diag = np.sum(Rinv * Rinv, axis=1)
    sigma2 = rss / df if df > 0 else float("nan")
    se = np.sqrt(sigma2 * xtx_inv_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = beta / se
    for arr in (beta, residuals, se, t_stats):
        arr.setflags(write=False)
    return OlsFit(beta, residuals, rss, df, se, t_stats)


def design(columns: dict[str, np.ndarray]) -> DesignMatrix:
    """Build a DesignMatrix from an ordered name -> column mapping."""
    labels = tuple(columns)
    X = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    return DesignMatrix(X, labels)
