"""Simulation tests: factorization, shock correlation, path generation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from gbmrisk.optimizer import WeightVector
from gbmrisk.simulation import (
    CholeskyError,
    CholeskyFactor,
    SimConfig,
    SimulationError,
    cholesky,
    correlated_shocks,
    draw_standard_normals,
    repair_psd,
    simulate,
)

from conftest import make_params, random_psd

SQRT2 = 1.4142135623730951


def weights_for(params, values=None) -> WeightVector:
    n = params.n_assets
    w = np.full(n, 1.0 / n) if values is None else np.asarray(values)
    return WeightVector(params.tickers, w)


def cholesky_rowwise(cov: np.ndarray) -> np.ndarray:
    """Element-by-element Cholesky of a positive definite matrix (reference)."""
    n = cov.shape[0]
    l = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s = cov[i, j] - float(l[i, :j] @ l[j, :j])
            l[i, j] = math.sqrt(s) if i == j else s / l[j, j]
    return l


class TestCholesky:
    def test_matches_rowwise_reference(self):
        # up to 3 assets every entry sums at most two products in the same
        # order, so the factor is bitwise the reference's (the fixtures'
        # byte contract rests on that); beyond, matrix-vector sums may
        # round differently
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 10, 50):
            cov = random_psd(rng, n) + 1e-3 * np.eye(n)
            l = cholesky(cov).l
            if n <= 3:
                assert np.array_equal(l, cholesky_rowwise(cov))
            else:
                assert np.max(np.abs(l - cholesky_rowwise(cov))) <= 1e-12

    def test_hand_oracle_2x2(self):
        # [[4,2],[2,3]] = L L' with L = [[2,0],[1,sqrt(2)]]
        factor = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert factor.l[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert factor.l[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert factor.l[1, 1] == pytest.approx(SQRT2, rel=1e-15)
        assert factor.l[0, 1] == 0.0

    def test_identity_and_scalar(self):
        assert np.array_equal(cholesky(np.eye(3)).l, np.eye(3))
        assert cholesky(np.array([[9.0]])).l[0, 0] == 3.0

    def test_zero_matrix_is_psd(self):
        assert np.array_equal(cholesky(np.zeros((2, 2))).l, np.zeros((2, 2)))

    def test_rank_deficient_psd_accepted(self):
        # ones matrix has rank 1; factor is [[1,0],[1,0]]
        factor = cholesky(np.ones((2, 2)))
        assert np.allclose(factor.l @ factor.l.T, np.ones((2, 2)), atol=1e-15)

    def test_indefinite_rejected_with_pivot_index(self):
        with pytest.raises(CholeskyError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_zero_pivot_with_nonzero_column_rejected(self):
        # [[0,1],[1,1]] is indefinite though no diagonal pivot goes negative
        with pytest.raises(CholeskyError) as exc:
            cholesky(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert exc.value.pivot_index == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(SimulationError):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            rank = int(rng.integers(1, n + 1))
            cov = random_psd(rng, n, rank=rank)
            l = cholesky(cov).l
            assert np.max(np.abs(l @ l.T - cov)) < 1e-10

    def test_factor_validation(self):
        with pytest.raises(SimulationError):
            CholeskyFactor(np.array([[1.0, 0.5], [0.0, 1.0]]))  # upper junk
        with pytest.raises(SimulationError):
            CholeskyFactor(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # neg diag


class TestRepairPsd:
    def test_psd_input_gets_zero_jitter(self, rng):
        cov = random_psd(rng, 4)
        repaired, jitter = repair_psd(cov)
        assert jitter == 0.0
        assert np.array_equal(repaired, cov)

    def test_pivot_clamp_absorbs_near_zero_without_jitter(self):
        # eigenvalue -5e-13 sits inside the factorization's clamp band,
        # so no jitter is spent on it
        cov = np.diag([1.0, -5e-13])
        repaired, jitter = repair_psd(cov)
        assert jitter == 0.0
        cholesky(repaired)

    def test_ladder_escalates_to_sufficient_jitter(self):
        # eigenvalue -1.5e-10 defeats jitters 0 and 1e-12; 1e-10 suffices
        cov = np.diag([1.0, -1.5e-10])
        repaired, jitter = repair_psd(cov)
        assert jitter == 1e-10
        cholesky(repaired)

    def test_ladder_top_rung(self):
        # eigenvalue -5e-9 needs the 1e-8 rung
        cov = np.diag([1.0, -5e-9])
        _, jitter = repair_psd(cov)
        assert jitter == 1e-8

    def test_strongly_indefinite_raises(self):
        with pytest.raises(CholeskyError):
            repair_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestCorrelatedShocks:
    def test_shape_and_linearity(self):
        factor = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        shocks = correlated_shocks(factor, z)
        assert shocks.shape == (3, 2)
        # row z = e1 picks up L's first column transposed
        assert np.allclose(shocks[0], factor.l[:, 0], atol=1e-15)
        assert np.allclose(shocks[2], shocks[0] + shocks[1], atol=1e-15)

    def test_dimension_mismatch(self):
        factor = cholesky(np.eye(2))
        with pytest.raises(SimulationError):
            correlated_shocks(factor, np.zeros((5, 3)))

    def test_sample_covariance_approaches_target(self):
        target = np.array([[1.0, 0.6], [0.6, 1.5]])
        factor = cholesky(target)
        z = np.random.default_rng(11).standard_normal((200_000, 2))
        shocks = correlated_shocks(factor, z)
        sample = np.cov(shocks, rowvar=False)
        assert np.max(np.abs(sample - target)) < 0.02


class TestDrawStandardNormals:
    def test_deterministic_per_key(self):
        a = draw_standard_normals(42, 0, 16)
        b = draw_standard_normals(42, 0, 16)
        assert np.array_equal(a, b)

    def test_streams_differ_by_path(self):
        a = draw_standard_normals(42, 0, 16)
        b = draw_standard_normals(42, 1, 16)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = draw_standard_normals(1, 0, 16)
        b = draw_standard_normals(2, 0, 16)
        assert not np.array_equal(a, b)

    def test_prefix_stability(self):
        # a longer draw starts with exactly the shorter draw
        long = draw_standard_normals(7, 3, 64)
        short = draw_standard_normals(7, 3, 16)
        assert np.array_equal(long[:16], short)

    def test_marginal_is_standard_normal(self):
        sample = np.concatenate(
            [draw_standard_normals(123, p, 1000) for p in range(20)]
        )
        result = scipy_stats.kstest(sample, "norm")
        assert result.pvalue > 0.01


class TestSimConfig:
    def test_defaults(self, three_asset_params):
        config = SimConfig(weights=weights_for(three_asset_params))
        assert config.n_paths == 10_000
        assert config.steps_per_year == 252
        assert config.n_steps == 252
        assert config.seed == 42
        assert config.initial_value == 100_000.0

    def test_n_steps_rounding(self, three_asset_params):
        w = weights_for(three_asset_params)
        assert SimConfig(weights=w, horizon_years=0.5).n_steps == 126
        assert SimConfig(weights=w, horizon_years=1 / 252).n_steps == 1
        # horizons shorter than one step still take one step
        assert SimConfig(weights=w, horizon_years=1e-4).n_steps == 1
        assert SimConfig(weights=w, horizon_years=2.0).n_steps == 504

    def test_validation(self, three_asset_params):
        w = weights_for(three_asset_params)
        with pytest.raises(SimulationError):
            SimConfig(weights=w, n_paths=0)
        with pytest.raises(SimulationError):
            SimConfig(weights=w, horizon_years=0.0)
        with pytest.raises(SimulationError):
            SimConfig(weights=w, initial_value=-1.0)
        with pytest.raises(SimulationError):
            SimConfig(weights=w, initial_prices=np.array([1.0, 2.0]))
        with pytest.raises(SimulationError):
            SimConfig(weights=w, initial_prices=np.array([1.0, 0.0, 2.0]))

    def test_seed_range(self, three_asset_params):
        # seeds key a uint64 stream: out-of-range values must not alias
        w = weights_for(three_asset_params)
        assert SimConfig(weights=w, seed=0).seed == 0
        assert SimConfig(weights=w, seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-1, 2**64, True, 7.0, "7"):
            with pytest.raises(SimulationError, match="seed"):
                SimConfig(weights=w, seed=bad)


class TestSimulate:
    def test_zero_volatility_is_deterministic_growth(self):
        params = make_params(("A",), [0.05], [[0.0]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=50, initial_value=1000.0)
        result = simulate(params, config)
        expected = 1000.0 * math.exp(0.05)
        assert np.allclose(result.terminal_portfolio_values, expected,
                           rtol=1e-12)

    @pytest.mark.parametrize("horizon", [1 / 365, 1.3])
    def test_zero_volatility_growth_spans_the_horizon(self, horizon):
        # horizons that are not whole steps still grow by exactly exp(mu T)
        params = make_params(("A",), [0.05], [[0.0]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=8, horizon_years=horizon,
                           initial_prices=np.array([40.0]))
        result = simulate(params, config)
        expected = 40.0 * math.exp(0.05 * horizon)
        assert np.allclose(result.terminal_asset_prices, expected,
                           rtol=1e-12, atol=0.0)

    def test_prices_positive_and_shapes(self, three_asset_params):
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=500)
        result = simulate(three_asset_params, config)
        assert result.terminal_asset_prices.shape == (500, 3)
        assert result.terminal_portfolio_values.shape == (500,)
        assert np.all(result.terminal_asset_prices > 0.0)
        assert result.jitter == 0.0

    def test_portfolio_accounting_is_buy_and_hold(self, three_asset_params):
        # manual recomputation: value = initial * sum_i w_i * S_T,i / S_0,i
        s0 = np.array([10.0, 20.0, 40.0])
        w = np.array([0.5, 0.25, 0.25])
        config = SimConfig(
            weights=weights_for(three_asset_params, w),
            n_paths=64, initial_prices=s0, initial_value=10_000.0,
        )
        result = simulate(three_asset_params, config)
        manual = 10_000.0 * (result.terminal_asset_prices / s0) @ w
        assert np.allclose(result.terminal_portfolio_values, manual,
                           rtol=1e-14)

    def test_worker_counts_agree_bitwise(self, three_asset_params):
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=9000, seed=7)
        serial = simulate(three_asset_params, config, workers=1)
        threaded = simulate(three_asset_params, config, workers=5)
        assert np.array_equal(serial.terminal_asset_prices,
                              threaded.terminal_asset_prices)
        assert np.array_equal(serial.terminal_portfolio_values,
                              threaded.terminal_portfolio_values)

    def test_seed_changes_output(self, three_asset_params):
        w = weights_for(three_asset_params)
        a = simulate(three_asset_params, SimConfig(weights=w, n_paths=100,
                                                   seed=1))
        b = simulate(three_asset_params, SimConfig(weights=w, n_paths=100,
                                                   seed=2))
        assert not np.array_equal(a.terminal_portfolio_values,
                                  b.terminal_portfolio_values)

    def test_path_prefix_stable_under_path_count(self, three_asset_params):
        # first 100 paths of a 5000-path run equal the 100-path run
        w = weights_for(three_asset_params)
        small = simulate(three_asset_params, SimConfig(weights=w, n_paths=100))
        large = simulate(three_asset_params, SimConfig(weights=w, n_paths=5000))
        assert np.array_equal(large.terminal_asset_prices[:100],
                              small.terminal_asset_prices)

    def test_recorded_paths_consistent(self, three_asset_params):
        s0 = np.array([5.0, 6.0, 7.0])
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=16, record_paths=True, initial_prices=s0)
        result = simulate(three_asset_params, config)
        assert result.paths.shape == (16, 253, 3)
        assert np.array_equal(result.paths[:, 0, :], np.tile(s0, (16, 1)))
        assert np.array_equal(result.paths[:, -1, :],
                              result.terminal_asset_prices)
        assert np.all(result.paths > 0.0)

    def test_streams_match_reference_across_chunks(self, three_asset_params):
        # paths on both sides of the 4096-path chunk boundary, at the top
        # seed, follow the per-path reference stream for (seed, path)
        seed = 2**64 - 1
        s0 = np.array([5.0, 6.0, 7.0])
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=4100, seed=seed, record_paths=True,
                           initial_prices=s0)
        result = simulate(three_asset_params, config)
        l = cholesky(three_asset_params.cov).l
        dt = config.dt
        sigma = three_asset_params.sigma
        drift = (three_asset_params.mu - sigma**2 / 2.0) * dt
        for p in (0, 4095, 4096, 4099):
            z = draw_standard_normals(seed, p, 252 * 3).reshape(252, 3)
            log_path = np.cumsum(drift + math.sqrt(dt) * (z @ l.T), axis=0)
            assert np.allclose(result.paths[p, 1:], s0 * np.exp(log_path),
                               rtol=1e-12, atol=0.0)

    def test_ticker_mismatch_rejected(self, three_asset_params):
        bad = WeightVector(("X", "Y", "Z"), np.array([0.4, 0.3, 0.3]))
        with pytest.raises(SimulationError):
            simulate(three_asset_params, SimConfig(weights=bad, n_paths=10))

    def test_terminal_log_return_distribution(self):
        # single asset: ln(S_T/S_0) must be N((mu - sigma^2/2) T, sigma^2 T)
        mu, sigma, horizon = 0.07, 0.25, 1.0
        params = make_params(("A",), [mu], [[sigma**2]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=4000, seed=31,
                           horizon_years=horizon)
        result = simulate(params, config)
        log_ret = np.log(result.terminal_asset_prices[:, 0])
        ks = scipy_stats.kstest(
            log_ret, "norm",
            args=((mu - sigma**2 / 2) * horizon, sigma * math.sqrt(horizon)),
        )
        assert ks.pvalue > 0.01

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n=st.integers(min_value=1, max_value=4))
    def test_positivity_property(self, seed, n):
        rng = np.random.default_rng(seed)
        cov = random_psd(rng, n, scale=1.0)
        params = make_params([f"T{i}" for i in range(n)],
                             rng.uniform(-0.5, 0.5, size=n), cov)
        w = WeightVector(params.tickers, rng.dirichlet(np.ones(n)))
        result = simulate(params, SimConfig(weights=w, n_paths=50, seed=seed))
        assert np.all(result.terminal_asset_prices > 0.0)
        assert np.all(result.terminal_portfolio_values > 0.0)

    def test_correlation_preserved(self, three_asset_params):
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=50_000, seed=3)
        result = simulate(three_asset_params, config)
        log_ret = np.log(result.terminal_asset_prices)
        sample_corr = np.corrcoef(log_ret, rowvar=False)
        sigma = three_asset_params.sigma
        target_corr = three_asset_params.cov / np.outer(sigma, sigma)
        assert np.max(np.abs(sample_corr - target_corr)) < 0.05
