"""Risk metric tests: quantiles, loss probability, analytic VaR, backtest."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk.optimizer import WeightVector
from gbmrisk.risk import (
    DEFAULT_PERCENTILES,
    RiskError,
    build_report,
    chance_of_loss,
    quantile,
    rolling_var_backtest,
)
from gbmrisk.simulation import SimConfig, simulate

from conftest import make_params
from oracles import analytic_var_single_asset, rolling_var_thresholds

Z_05 = -1.6448536269514722  # 5% standard normal quantile


class TestQuantile:
    def test_hand_oracle_interpolation(self):
        # n=4 sorted {10,20,30,40}: h = 0.05*3 = 0.15 -> 10 + 0.15*10
        values = np.array([40.0, 10.0, 30.0, 20.0])
        assert quantile(values, 0.05) == pytest.approx(11.5, abs=1e-12)

    def test_edges_hit_min_and_max(self):
        values = np.array([3.0, 1.0, 2.0])
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 3.0

    def test_median_of_even_sample(self):
        assert quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.5

    def test_single_value(self):
        assert quantile(np.array([7.0]), 0.3) == 7.0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=300),
           alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_numpy_linear_method(self, seed, n, alpha):
        values = np.random.default_rng(seed).normal(0.0, 10.0, size=n)
        ours = quantile(values, alpha)
        theirs = float(np.quantile(values, alpha, method="linear"))
        assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(RiskError):
            quantile(np.array([]), 0.5)
        with pytest.raises(RiskError):
            quantile(np.array([1.0, np.nan]), 0.5)
        with pytest.raises(RiskError):
            quantile(np.array([1.0]), 1.5)


class TestChanceOfLoss:
    def test_strict_inequality(self):
        values = np.array([99.0, 100.0, 101.0, 100.0])
        assert chance_of_loss(values, 100.0) == 0.25

    def test_all_equal_is_zero(self):
        assert chance_of_loss(np.full(10, 100.0), 100.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(RiskError):
            chance_of_loss(np.array([]), 100.0)


class TestAnalyticVar:
    def test_benchmark_constants(self):
        # S0=100, mu=0.05, sigma=0.2, T=1, alpha=0.05
        expected = 100.0 * math.exp(0.05 - 0.02 + 0.2 * Z_05)
        got = analytic_var_single_asset(100.0, 0.05, 0.2, 1.0, 0.05)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(74.16, abs=0.01)

    def test_zero_diffusion_is_deterministic(self):
        assert analytic_var_single_asset(50.0, 0.1, 0.0, 2.0, 0.05) == (
            pytest.approx(50.0 * math.exp(0.2), rel=1e-15)
        )
        assert analytic_var_single_asset(50.0, 0.1, 0.3, 0.0, 0.05) == 50.0

    def test_alpha_edges(self):
        assert analytic_var_single_asset(100.0, 0.05, 0.2, 1.0, 0.0) == 0.0
        assert analytic_var_single_asset(100.0, 0.05, 0.2, 1.0, -1.0) == 0.0
        assert analytic_var_single_asset(100.0, 0.05, 0.2, 1.0, 1.0) == math.inf

    def test_median_is_geometric_drift(self):
        # alpha = 0.5: z = 0, quantile = s0 exp((mu - sigma^2/2) T)
        got = analytic_var_single_asset(100.0, 0.08, 0.2, 1.0, 0.5)
        assert got == pytest.approx(100.0 * math.exp(0.06), rel=1e-12)

    def test_monotone_in_alpha(self):
        levels = [0.01, 0.05, 0.25, 0.5, 0.75, 0.99]
        vars_ = [analytic_var_single_asset(100.0, 0.05, 0.2, 1.0, a)
                 for a in levels]
        assert vars_ == sorted(vars_)

    def test_input_validation(self):
        with pytest.raises(RiskError):
            analytic_var_single_asset(-1.0, 0.05, 0.2, 1.0, 0.05)
        with pytest.raises(RiskError):
            analytic_var_single_asset(100.0, 0.05, -0.2, 1.0, 0.05)
        with pytest.raises(RiskError):
            analytic_var_single_asset(100.0, 0.05, 0.2, -1.0, 0.05)


class TestRollingBacktest:
    def test_hand_case_window_two(self):
        # values -> returns ln2, ln2, ln(1/4): first test at t=3 uses
        # returns {ln2, ln2}: m=ln2, s=0, threshold = 4 * 2 = 8; realized 1
        values = np.array([1.0, 2.0, 4.0, 1.0])
        result = rolling_var_backtest(values, alpha=0.05, window=2)
        assert result.n_tests == 1
        assert result.thresholds[0] == pytest.approx(8.0, rel=1e-12)
        assert result.n_violations == 1
        assert result.violation_rate == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(300, 1_600), st.sampled_from([2, 20, 100, 252]),
           st.floats(0.001, 0.1), st.integers(0, 2**32 - 1))
    def test_thresholds_match_the_loop_bitwise(self, days, window, vol,
                                               seed):
        # every window's mean and std at once give the bits of the loop
        # that takes one window at a time
        rng = np.random.default_rng(seed)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, vol, days)))
        for alpha in (0.01, 0.05):
            result = rolling_var_backtest(values, alpha=alpha, window=window)
            assert np.array_equal(
                result.thresholds,
                rolling_var_thresholds(values, alpha, window))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(300, 1_600), st.sampled_from([2, 20, 100, 252]),
           st.floats(0.001, 0.1), st.integers(0, 2**32 - 1))
    def test_rolling_statistics_match_each_window_bitwise(self, days, window,
                                                          vol, seed):
        # means[k] and stds[k] are the statistics of returns[k:k + window],
        # the window that forecasts values[window + k + 1]
        rng = np.random.default_rng(seed)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, vol, days)))
        result = rolling_var_backtest(values, window=window)
        returns = np.log(values[1:] / values[:-1])
        assert result.means.shape == result.stds.shape == (result.n_tests,)
        for k in range(result.n_tests):
            trailing = returns[k:k + window]
            assert result.means[k] == trailing.mean()
            assert result.stds[k] == trailing.std()

    def test_no_violation_when_value_rises(self):
        values = np.array([1.0, 2.0, 4.0, 64.0])
        result = rolling_var_backtest(values, alpha=0.05, window=2)
        assert result.n_violations == 0

    def test_forecast_ignores_future(self):
        # changing data after the tested step must not change its threshold
        rng = np.random.default_rng(3)
        base = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=40)))
        altered = base.copy()
        altered[-1] *= 5.0
        t0 = rolling_var_backtest(base, window=10).thresholds
        t1 = rolling_var_backtest(altered, window=10).thresholds
        assert np.array_equal(t0[:-1], t1[:-1])

    def test_requires_enough_data(self):
        with pytest.raises(RiskError):
            rolling_var_backtest(np.ones(10) * 100.0, window=10)
        with pytest.raises(RiskError):
            rolling_var_backtest(np.array([100.0, 101.0]), window=1)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(RiskError):
            rolling_var_backtest(np.array([1.0, -2.0, 3.0, 4.0]), window=2)

    def test_calibrated_on_gbm(self):
        # data generated by the model the forecaster assumes: violation
        # rate over 1,000 tests should sit near alpha = 5%
        rng = np.random.default_rng(2024)
        m, s = 0.0002, 0.012
        returns = rng.normal(m, s, size=1252)
        values = 100_000.0 * np.exp(np.concatenate([[0.0],
                                                    np.cumsum(returns)]))
        result = rolling_var_backtest(values, alpha=0.05, window=252)
        assert result.n_tests == 1000
        assert 0.03 <= result.violation_rate <= 0.07


class TestBuildReport:
    def make_result(self, alpha_paths=400):
        params = make_params(("A",), [0.05], [[0.04]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=alpha_paths, seed=9)
        return simulate(params, config)

    def test_fields_consistent(self):
        result = self.make_result()
        report = build_report(result, alpha=0.05)
        values = result.terminal_portfolio_values
        assert report.var_level == 0.05
        assert report.var_value == pytest.approx(quantile(values, 0.05))
        assert report.potential_loss == pytest.approx(
            result.config_echo.initial_value - report.var_value
        )
        assert report.chance_of_loss == chance_of_loss(values, 100_000.0)
        assert values.size == 400
        assert result.config_echo.seed == 9

    def test_percentiles_include_alpha(self):
        report = build_report(self.make_result(), alpha=0.03)
        levels = list(report.percentiles)
        assert levels == sorted(set(DEFAULT_PERCENTILES) | {0.03})
        assert 0.03 in report.percentiles

    def test_percentiles_monotone(self):
        report = build_report(self.make_result())
        values = list(report.percentiles.values())
        assert values == sorted(values)

    def test_alpha_validation(self):
        with pytest.raises(RiskError):
            build_report(self.make_result(), alpha=0.0)
