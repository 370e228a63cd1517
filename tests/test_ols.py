import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ols_oracle
from tsbreak.ols import DesignMatrix, OlsError, design, fit


def _line_design(n):
    return design({"intercept": np.ones(n), "x": np.arange(float(n))})


class TestExactFit:
    def test_recovers_line_coefficients(self):
        d = _line_design(10)
        y = 2.0 + 3.0 * np.arange(10.0)
        f = fit(d, y)
        np.testing.assert_allclose(f.coefficients, [2.0, 3.0], atol=1e-12)
        assert f.rss == pytest.approx(0.0, abs=1e-20)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        d = design({"intercept": np.ones(30), "x": rng.normal(size=30), "z": rng.normal(size=30)})
        y = rng.normal(size=30)
        f = fit(d, y)
        np.testing.assert_allclose(d.X.T @ f.residuals, np.zeros(3), atol=1e-9)

    def test_df_and_sigma2(self):
        rng = np.random.default_rng(8)
        d = _line_design(25)
        y = rng.normal(size=25)
        f = fit(d, y)
        assert f.df == 23
        assert f.sigma2 == pytest.approx(f.rss / 23)


class TestAgainstReferenceImplementation:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = rng.normal(size=40)
        ours = fit(DesignMatrix(X, ("c", "a", "b")), y)
        coefficients, standard_errors, t_stats, rss = ols_oracle(X, y)
        np.testing.assert_allclose(ours.coefficients, coefficients, rtol=1e-10)
        np.testing.assert_allclose(ours.standard_errors, standard_errors, rtol=1e-10)
        np.testing.assert_allclose(ours.t_stats, t_stats, rtol=1e-10)
        assert ours.rss == pytest.approx(rss, rel=1e-12)


class TestErrors:
    def test_rank_deficiency_names_column(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(OlsError, match="'dup'"):
            fit(DesignMatrix(X, ("intercept", "dup")), np.zeros(10))

    def test_all_zero_design(self):
        with pytest.raises(OlsError, match="rank deficient"):
            fit(DesignMatrix(np.zeros((5, 1)), ("z",)), np.zeros(5))

    def test_length_mismatch(self):
        with pytest.raises(OlsError, match="length"):
            fit(_line_design(10), np.zeros(9))

    def test_non_finite_response(self):
        y = np.zeros(10)
        y[3] = np.nan
        with pytest.raises(OlsError, match="non-finite"):
            fit(_line_design(10), y)

    def test_non_finite_design(self):
        X = np.ones((5, 1))
        X[2, 0] = np.inf
        with pytest.raises(OlsError):
            DesignMatrix(X, ("c",))

    def test_more_columns_than_rows(self):
        with pytest.raises(OlsError):
            DesignMatrix(np.ones((2, 3)), ("a", "b", "c"))

    def test_label_count_mismatch(self):
        with pytest.raises(OlsError, match="labels"):
            DesignMatrix(np.ones((5, 2)), ("only-one",))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_rss_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = rng.normal(size=n)
    f = fit(DesignMatrix(X, ("c", "a", "b")), y)
    beta_ref = np.linalg.lstsq(X, y, rcond=None)[0]
    rss_ref = float(np.sum((y - X @ beta_ref) ** 2))
    assert f.rss == pytest.approx(rss_ref, rel=1e-8, abs=1e-10)


def test_outputs_are_readonly():
    f = fit(_line_design(10), np.arange(10.0))
    with pytest.raises(ValueError):
        f.coefficients[0] = 99.0
