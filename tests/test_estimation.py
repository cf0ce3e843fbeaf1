"""Parameter estimation tests: MLE conventions, annualization, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk.estimation import (
    EstimationError,
    MarketParams,
    estimate_params,
)
from gbmrisk.market_data import ReturnMatrix

from conftest import make_params


def returns_of(array) -> ReturnMatrix:
    array = np.asarray(array, dtype=np.float64)
    tickers = tuple(f"T{i}" for i in range(array.shape[1]))
    return ReturnMatrix(tickers=tickers, returns=array)


class TestEstimateParams:
    def test_constant_returns_hand_oracle(self):
        # identical daily returns: zero variance, mu = daily_mean * 252
        params = estimate_params(returns_of([[0.001], [0.001], [0.001]]))
        assert params.sigma[0] == 0.0
        assert params.cov[0, 0] == 0.0
        assert params.mu[0] == pytest.approx(0.252, abs=1e-15)

    def test_two_point_hand_oracle(self):
        # daily returns a, b: mean (a+b)/2, population var ((a-b)/2)^2
        a, b = 0.09531017980432486, -0.10536051565782628
        params = estimate_params(returns_of([[a], [b]]))
        daily_mean = (a + b) / 2.0
        daily_var = ((a - daily_mean) ** 2 + (b - daily_mean) ** 2) / 2.0
        assert params.cov[0, 0] == pytest.approx(daily_var * 252, rel=1e-14)
        assert params.sigma[0] == pytest.approx((daily_var * 252) ** 0.5,
                                                rel=1e-14)
        assert params.mu[0] == pytest.approx(
            daily_mean * 252 + daily_var * 252 / 2.0, rel=1e-14
        )

    def test_population_denominator_matches_numpy(self, rng):
        r = rng.normal(0.0005, 0.01, size=(97, 3))
        params = estimate_params(returns_of(r), trading_days=252)
        expected = np.cov(r, rowvar=False, ddof=0) * 252
        assert np.allclose(params.cov, expected, rtol=0, atol=1e-15)

    def test_drift_convention_identity(self, rng):
        # mu - sigma^2/2 must equal the annualized mean log-return exactly,
        # so simulated log-drift reproduces the historical mean.
        r = rng.normal(0.001, 0.02, size=(60, 2))
        params = estimate_params(returns_of(r))
        annual_mean = r.mean(axis=0) * 252
        assert np.allclose(params.mu - np.diag(params.cov) / 2.0, annual_mean,
                           rtol=0, atol=1e-12)

    def test_trading_days_scaling(self, rng):
        r = rng.normal(0.0, 0.01, size=(50, 2))
        p252 = estimate_params(returns_of(r), trading_days=252)
        p365 = estimate_params(returns_of(r), trading_days=365)
        assert np.allclose(p365.cov, p252.cov / 252 * 365, rtol=1e-12)

    def test_requires_two_observations(self):
        with pytest.raises(EstimationError):
            estimate_params(returns_of([[0.01, 0.02]]))

    def test_rejects_bad_trading_days(self):
        with pytest.raises(EstimationError):
            estimate_params(returns_of([[0.01], [0.02]]), trading_days=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=200),
           k=st.integers(min_value=1, max_value=4))
    def test_cov_psd_and_symmetric(self, seed, n, k):
        rng = np.random.default_rng(seed)
        params = estimate_params(returns_of(rng.normal(0, 0.02, size=(n, k))))
        assert np.array_equal(params.cov, params.cov.T)
        eigvals = np.linalg.eigvalsh(params.cov)
        assert eigvals.min() >= -1e-10

    def test_recovers_generator_sigma(self):
        # one year of synthetic daily data: sigma-hat should land within a
        # few percent of the generator's sigma (variance estimator noise
        # is ~ sigma^2 * sqrt(2/n))
        rng = np.random.default_rng(7)
        sigma_annual = 0.3
        r = rng.normal(0.0, sigma_annual / np.sqrt(252), size=(5040, 1))
        params = estimate_params(returns_of(r))
        assert params.sigma[0] == pytest.approx(sigma_annual, rel=0.1)


class TestMarketParamsInvariants:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(EstimationError):
            MarketParams(
                tickers=("A", "B"),
                mu=np.zeros(2),
                sigma=np.array([1.0, 1.0]),
                cov=np.array([[1.0, 0.5], [0.2, 1.0]]),
                trading_days=252,
            )

    def test_rejects_inconsistent_diagonal(self):
        with pytest.raises(EstimationError):
            MarketParams(
                tickers=("A",),
                mu=np.zeros(1),
                sigma=np.array([2.0]),
                cov=np.array([[1.0]]),
                trading_days=252,
            )

    def test_rejects_negative_sigma(self):
        with pytest.raises(EstimationError):
            MarketParams(
                tickers=("A",),
                mu=np.zeros(1),
                sigma=np.array([-1.0]),
                cov=np.array([[1.0]]),
                trading_days=252,
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(EstimationError):
            MarketParams(
                tickers=("A", "B"),
                mu=np.zeros(3),
                sigma=np.ones(2),
                cov=np.eye(2),
                trading_days=252,
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(EstimationError):
            make_params(("A",), [np.nan], [[1.0]])
