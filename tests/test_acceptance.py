"""Acceptance suite: ten go/no-go checks on the assembled engine.

Each test prints one PASS line with its measured numbers (visible under
pytest -s); pytest -v adds the per-test pass/fail verdict. Tolerances are
stated inline and are not to be loosened.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from gbmrisk.cli import RunConfig, main, run_pipeline
from gbmrisk.estimation import MarketParams
from gbmrisk.optimizer import (
    WeightVector,
    min_variance,
    portfolio_stats,
)
from gbmrisk.risk import quantile, rolling_var_backtest
from gbmrisk.simulation import CholeskyError, SimConfig, cholesky, simulate

from conftest import DATA_DIR, make_params, random_psd
from oracles import (
    analytic_var_single_asset,
    grid_oracle_min_variance,
    quad_form_double_sum,
)

N_BIG = 100_000


@pytest.fixture(scope="module")
def correlated_run():
    """One 100k-path simulation shared by the moment and correlation checks."""
    sigma = np.array([0.2, 0.3, 0.25])
    corr = np.array(
        [
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.4],
            [0.3, 0.4, 1.0],
        ]
    )
    cov = corr * np.outer(sigma, sigma)
    params = make_params(("A", "B", "C"), [0.08, 0.12, 0.1], cov)
    s0 = np.array([100.0, 50.0, 200.0])
    config = SimConfig(
        weights=WeightVector(params.tickers, np.full(3, 1.0 / 3.0)),
        n_paths=N_BIG,
        seed=2718,
        initial_prices=s0,
    )
    return params, corr, s0, simulate(params, config)


def test_criterion_01_analytic_var_oracle():
    """Single-asset Monte Carlo VaR within 1% of the lognormal closed form,
    100,000 paths, under 5 seconds."""
    s0, mu, sigma, horizon, alpha = 100.0, 0.05, 0.2, 1.0, 0.05
    params = make_params(("X",), [mu], [[sigma**2]])
    start = time.perf_counter()
    config = SimConfig(
        weights=WeightVector(("X",), np.array([1.0])),
        n_paths=N_BIG,
        seed=42,
        initial_value=s0,
        initial_prices=np.array([s0]),
    )
    result = simulate(params, config)
    mc_var = quantile(result.terminal_portfolio_values, alpha)
    elapsed = time.perf_counter() - start
    exact = analytic_var_single_asset(s0, mu, sigma, horizon, alpha)
    rel_err = abs(mc_var - exact) / exact
    assert exact == pytest.approx(74.16, abs=0.01)
    assert rel_err < 0.01
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: MC VaR {mc_var:.4f} vs analytic {exact:.4f} "
        f"(rel err {rel_err:.5f}, {elapsed:.2f}s for {N_BIG} paths)"
    )


def test_criterion_02_moment_suite(correlated_run):
    """Terminal log-return mean/variance and E[S_T] within 3 standard
    errors of their closed forms at 100,000 paths."""
    params, _, s0, result = correlated_run
    n = result.terminal_asset_prices.shape[0]
    log_ret = np.log(result.terminal_asset_prices / s0)
    worst = 0.0
    for i in range(params.n_assets):
        var_i = params.cov[i, i]
        mean_target = params.mu[i] - var_i / 2.0
        sample = log_ret[:, i]
        se_mean = sample.std(ddof=1) / math.sqrt(n)
        z_mean = abs(sample.mean() - mean_target) / se_mean
        assert z_mean < 3.0

        sample_var = sample.var(ddof=1)
        se_var = sample_var * math.sqrt(2.0 / (n - 1))
        z_var = abs(sample_var - var_i) / se_var
        assert z_var < 3.0

        prices_i = result.terminal_asset_prices[:, i]
        se_price = prices_i.std(ddof=1) / math.sqrt(n)
        z_price = abs(prices_i.mean() - s0[i] * math.exp(params.mu[i])) / se_price
        assert z_price < 3.0
        worst = max(worst, z_mean, z_var, z_price)
    print(
        f"PASS criterion 2: all {3 * params.n_assets} moment checks within "
        f"3 standard errors (worst {worst:.2f})"
    )


def test_criterion_03_correlation_preserved(correlated_run):
    """Sample correlation of terminal log-returns within 0.05 of the input
    correlation, elementwise, at 100,000 paths."""
    _, corr, s0, result = correlated_run
    log_ret = np.log(result.terminal_asset_prices / s0)
    sample_corr = np.corrcoef(log_ret, rowvar=False)
    max_dev = float(np.max(np.abs(sample_corr - corr)))
    assert max_dev < 0.05
    print(f"PASS criterion 3: max correlation deviation {max_dev:.4f} < 0.05")


def test_criterion_04_cholesky_reconstruction_and_rejection():
    """LL' reconstructs 1,000 random PSD matrices (N <= 8) to 1e-10;
    indefinite matrices are rejected."""
    rng = np.random.default_rng(8128)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(1, n + 1))
        cov = random_psd(rng, n, rank=rank, scale=float(rng.uniform(0.01, 3)))
        # eigen-clip so the stored floating-point matrix is itself PSD
        # (rank-deficient products can round to eigenvalues ~ -1e-13)
        eigvals, eigvecs = np.linalg.eigh(cov)
        cov = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
        cov = (cov + cov.T) / 2.0
        l = cholesky(cov)
        worst = max(worst, float(np.max(np.abs(l @ l.T - cov))))
    assert worst < 1e-10

    rejected = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigs = rng.uniform(0.1, 2.0, size=n)
        eigs[int(rng.integers(0, n))] = -float(rng.uniform(0.01, 1.0))
        indefinite = (basis * eigs) @ basis.T
        indefinite = (indefinite + indefinite.T) / 2.0
        with pytest.raises(CholeskyError):
            cholesky(indefinite)
        rejected += 1
    assert rejected == 50
    print(
        f"PASS criterion 4: worst reconstruction error {worst:.3e} < 1e-10 "
        f"on 1000 PSD matrices; {rejected}/50 indefinite rejected"
    )


def test_criterion_05_optimizer_oracle_equivalence():
    """Solver variance never exceeds the 0.01-grid oracle by more than 1e-9
    on 20 random 3-asset problems; two-asset closed form to 1e-6."""
    rng = np.random.default_rng(1729)
    worst_gap = -math.inf
    for _ in range(20):
        cov = random_psd(rng, 3, scale=0.1) + 1e-4 * np.eye(3)
        params = make_params(("A", "B", "C"), np.zeros(3), cov)
        solver_var = min_variance(params).stats.variance
        grid_var = portfolio_stats(
            grid_oracle_min_variance(params, 0.01), params
        ).variance
        gap = solver_var - grid_var
        assert gap <= 1e-9
        worst_gap = max(worst_gap, gap)

    worst_weight_err = 0.0
    for _ in range(20):
        v1, v2 = rng.uniform(0.01, 0.5, size=2)
        params2 = make_params(("A", "B"), [0.0, 0.0],
                              [[v1, 0.0], [0.0, v2]])
        w1 = min_variance(params2).weights.w[0]
        closed_form = v2 / (v1 + v2)
        err = abs(w1 - closed_form)
        assert err < 1e-6
        worst_weight_err = max(worst_weight_err, err)
    print(
        f"PASS criterion 5: solver-grid gap at most {worst_gap:.3e} "
        f"(<= 1e-9); two-asset closed-form error at most "
        f"{worst_weight_err:.3e} (< 1e-6)"
    )


def test_criterion_06_double_sum_equivalence():
    """Matrix quadratic form equals the explicit double sum within 1e-12
    on 1,000 random weight/covariance draws."""
    rng = np.random.default_rng(6174)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        cov = random_psd(rng, n, scale=0.25)
        params = make_params([f"T{i}" for i in range(n)], np.zeros(n), cov)
        w = WeightVector(params.tickers, rng.dirichlet(np.ones(n)))
        matrix_form = float(w.w @ cov @ w.w)
        diff = abs(matrix_form - quad_form_double_sum(w, params))
        assert diff <= 1e-12
        worst = max(worst, diff)
    print(f"PASS criterion 6: max |matrix - double sum| = {worst:.3e} <= 1e-12")


def test_criterion_07_byte_identical_reports(tmp_path):
    """Same RunConfig gives byte-identical report files over three runs in
    one process."""
    base = [
        "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
        "--seed", "42",
    ]
    dirs = [tmp_path / name for name in ("first", "second", "third")]
    for out in dirs:
        assert main([*base, "--out-dir", str(out)]) == 0
    ref_report = (dirs[0] / "report.json").read_bytes()
    ref_csv = (dirs[0] / "percentiles.csv").read_bytes()
    assert (dirs[1] / "report.json").read_bytes() == ref_report
    assert (dirs[2] / "report.json").read_bytes() == ref_report
    assert (dirs[1] / "percentiles.csv").read_bytes() == ref_csv
    assert (dirs[2] / "percentiles.csv").read_bytes() == ref_csv
    print(
        f"PASS criterion 7: report.json and percentiles.csv byte-identical "
        f"across three runs ({len(ref_report)} bytes)"
    )


def test_criterion_08_fixture_risk_ordering():
    """High-volatility fixture reports strictly lower VaR value and strictly
    higher chance of loss than the low-volatility fixture at defaults."""
    crypto = run_pipeline(
        RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"))
    ).report
    equity = run_pipeline(
        RunConfig(price_csv=str(DATA_DIR / "equity_like.csv"))
    ).report
    assert crypto.var_value < equity.var_value
    assert crypto.chance_of_loss > equity.chance_of_loss
    print(
        f"PASS criterion 8: VaR {crypto.var_value:.2f} < "
        f"{equity.var_value:.2f}; chance of loss "
        f"{crypto.chance_of_loss:.4f} > {equity.chance_of_loss:.4f}"
    )


def test_criterion_09_backtest_calibration():
    """Rolling 5% VaR violation rate over 1,000 synthetic GBM periods lies
    in [0.03, 0.07]."""
    rng = np.random.default_rng(314159)
    daily_mean = (0.08 - 0.5 * 0.2**2) / 252
    daily_std = 0.2 / math.sqrt(252)
    returns = rng.normal(daily_mean, daily_std, size=1252)
    values = 100_000.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    result = rolling_var_backtest(values, alpha=0.05, window=252)
    assert result.n_tests == 1000
    assert 0.03 <= result.violation_rate <= 0.07
    print(
        f"PASS criterion 9: violation rate {result.violation_rate:.4f} "
        f"({result.n_violations}/{result.n_tests}) within [0.03, 0.07]"
    )


def test_criterion_10_end_to_end_runtime():
    """Default three-asset pipeline (10,000 paths, 252 steps) completes in
    under 10 seconds."""
    start = time.perf_counter()
    result = run_pipeline(
        RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"))
    )
    elapsed = time.perf_counter() - start
    assert result.simulation.terminal_portfolio_values.size == 10_000
    assert result.simulation.config_echo.n_steps == 252
    assert elapsed < 10.0
    print(f"PASS criterion 10: end-to-end pipeline in {elapsed:.2f}s < 10s")
