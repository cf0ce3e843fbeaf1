"""Portfolio optimization tests: projections, solver oracles, frontier."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk.estimation import estimate_params
from gbmrisk.market_data import load_prices, log_returns
from gbmrisk.optimizer import (
    OptimizerError,
    WeightVector,
    efficient_frontier,
    grid_oracle_min_variance,
    max_sharpe,
    min_variance,
    portfolio_stats,
    project_hyperplane,
    project_simplex,
    quad_form_double_sum,
    simplex_lattice,
)

from conftest import DATA_DIR, make_params, random_psd


def wv(tickers, values) -> WeightVector:
    return WeightVector(tuple(tickers), np.asarray(values, dtype=np.float64))


class TestWeightVector:
    def test_accepts_simplex_point(self):
        v = wv(["A", "B"], [0.25, 0.75])
        assert v.as_dict() == {"A": 0.25, "B": 0.75}

    def test_clamps_tiny_negatives_to_zero(self):
        v = wv(["A", "B"], [1.0 + 1e-13, -1e-13])
        assert v.w[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(OptimizerError):
            wv(["A", "B"], [1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(OptimizerError):
            wv(["A", "B"], [0.6, 0.6])

    def test_rejects_length_mismatch(self):
        with pytest.raises(OptimizerError):
            wv(["A"], [0.5, 0.5])


class TestProjectSimplex:
    def test_interior_point_untouched(self):
        p = project_simplex(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(p, [0.2, 0.3, 0.5], atol=1e-15)

    def test_hand_case_dominating_coordinate(self):
        # [2, 0]: shift 2 down by tau=1, second coordinate clips at 0
        p = project_simplex(np.array([2.0, 0.0]))
        assert np.allclose(p, [1.0, 0.0], atol=1e-15)

    def test_hand_case_uniform_shift(self):
        # [0.3, 0.3]: tau = -0.2, both rise to 0.5
        p = project_simplex(np.array([0.3, 0.3]))
        assert np.allclose(p, [0.5, 0.5], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=12))
    def test_output_on_simplex(self, seed, n):
        v = np.random.default_rng(seed).normal(0.0, 5.0, size=n)
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=8))
    def test_projection_is_nearest_simplex_point(self, seed, n):
        # no random simplex point may be closer than the projection
        rng = np.random.default_rng(seed)
        v = rng.normal(0.0, 3.0, size=n)
        p = project_simplex(v)
        for _ in range(20):
            other = rng.dirichlet(np.ones(n))
            assert (np.sum((p - v) ** 2)
                    <= np.sum((other - v) ** 2) + 1e-12)

    def test_idempotent(self, rng):
        w = rng.dirichlet(np.ones(5))
        assert np.allclose(project_simplex(w), w, atol=1e-12)


def bisect_hyperplane(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Projection onto {y >= 0, e.y = 1} with tau found by bisection."""

    def g(tau: float) -> float:
        return float(e @ np.maximum(v - tau * e, 0.0))

    lo, hi = -1.0, 1.0
    while g(lo) < 1.0:
        lo *= 2.0
    while g(hi) > 1.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi) * e, 0.0)


class TestProjectHyperplane:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=12))
    def test_matches_bisection_oracle(self, seed, n):
        # mixed-sign e, some entries exactly zero, at least one positive
        rng = np.random.default_rng(seed)
        e = rng.uniform(-1.0, 1.0, size=n)
        e[rng.random(n) < 0.15] = 0.0
        e[rng.integers(n)] = rng.uniform(0.05, 1.0)
        v = rng.normal(0.0, 3.0, size=n)
        y = project_hyperplane(v, e)
        assert np.all(y >= 0.0)
        assert abs(float(e @ y) - 1.0) <= 1e-12
        assert np.max(np.abs(y - bisect_hyperplane(v, e))) <= 1e-12

    def test_fixed_point_on_the_set(self):
        e = np.array([0.5, -0.25, 0.0])
        y = np.array([3.0, 2.0, 1.0])  # e.y = 1.5 - 0.5 = 1
        assert np.allclose(project_hyperplane(y, e), y, atol=1e-15)


class TestPortfolioStats:
    def test_two_asset_hand_values(self):
        # w = (0.5, 0.5), mu = (0.1, 0.2), var1 = 0.04, var2 = 0.09,
        # cov12 = 0.0 -> R = 0.15, var = 0.0325
        params = make_params(("A", "B"), [0.1, 0.2],
                             [[0.04, 0.0], [0.0, 0.09]])
        stats = portfolio_stats(wv(["A", "B"], [0.5, 0.5]), params)
        assert stats.expected_return == pytest.approx(0.15, abs=1e-15)
        assert stats.variance == pytest.approx(0.0325, abs=1e-15)
        assert stats.volatility == pytest.approx(math.sqrt(0.0325), rel=1e-15)
        assert stats.sharpe == pytest.approx(0.15 / math.sqrt(0.0325),
                                             rel=1e-12)

    def test_sharpe_uses_risk_free(self):
        params = make_params(("A",), [0.10], [[0.04]])
        stats = portfolio_stats(wv(["A"], [1.0]), params, risk_free=0.02)
        assert stats.sharpe == pytest.approx(0.08 / 0.2, rel=1e-12)

    def test_zero_volatility_marks_sharpe_nan(self):
        params = make_params(("A",), [0.05], [[0.0]])
        stats = portfolio_stats(wv(["A"], [1.0]), params)
        assert stats.volatility == 0.0
        assert math.isnan(stats.sharpe)

    def test_ticker_mismatch_rejected(self, three_asset_params):
        with pytest.raises(OptimizerError):
            portfolio_stats(wv(["X", "Y", "Z"], [0.4, 0.3, 0.3]),
                            three_asset_params)


class TestDoubleSum:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=6))
    def test_matches_matrix_form(self, seed, n):
        rng = np.random.default_rng(seed)
        cov = random_psd(rng, n)
        params = make_params([f"T{i}" for i in range(n)], np.zeros(n), cov)
        w = wv(params.tickers, rng.dirichlet(np.ones(n)))
        matrix_form = float(w.w @ cov @ w.w)
        assert quad_form_double_sum(w, params) == pytest.approx(
            matrix_form, abs=1e-12
        )


class TestMinVariance:
    def test_two_asset_closed_form(self):
        # uncorrelated two-asset MVP: w1 = var2 / (var1 + var2)
        params = make_params(("A", "B"), [0.1, 0.1],
                             [[0.09, 0.0], [0.0, 0.04]])
        out = min_variance(params)
        assert out.weights.w[0] == pytest.approx(0.04 / 0.13, abs=1e-6)
        assert out.weights.w[1] == pytest.approx(0.09 / 0.13, abs=1e-6)

    def test_diagonal_closed_form_three_assets(self):
        # diagonal covariance MVP: w_i proportional to 1/var_i
        variances = np.array([0.04, 0.09, 0.0625])
        params = make_params(("A", "B", "C"), np.zeros(3), np.diag(variances))
        expected = (1.0 / variances) / np.sum(1.0 / variances)
        out = min_variance(params)
        assert np.allclose(out.weights.w, expected, atol=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cov = random_psd(rng, 3, scale=0.1) + 1e-4 * np.eye(3)
            params = make_params(("A", "B", "C"), np.zeros(3), cov)
            solver_var = min_variance(params).stats.variance
            grid_var = portfolio_stats(
                grid_oracle_min_variance(params, 0.01), params
            ).variance
            # the lattice point can only sit at or above the optimum
            assert solver_var <= grid_var + 1e-9

    def test_degenerate_zero_covariance(self):
        params = make_params(("A", "B"), [0.0, 0.0], np.zeros((2, 2)))
        out = min_variance(params)
        assert out.stats.variance == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=6))
    def test_no_vertex_beats_solution(self, seed, n):
        # necessary optimality: every single-asset portfolio has >= variance
        rng = np.random.default_rng(seed)
        cov = random_psd(rng, n, scale=0.2)
        params = make_params([f"T{i}" for i in range(n)], np.zeros(n), cov)
        best = min_variance(params).stats.variance
        for i in range(n):
            assert best <= cov[i, i] + 1e-9


class TestMaxSharpe:
    def test_prefers_dominating_asset(self):
        # same volatility, higher drift, uncorrelated: B dominates
        params = make_params(("A", "B"), [0.05, 0.15],
                             [[0.04, 0.0], [0.0, 0.04]])
        out = max_sharpe(params)
        assert out.weights.w[1] > out.weights.w[0]
        assert out.warning is None

    def test_matches_sharpe_grid_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            cov = random_psd(rng, 3, scale=0.1) + 1e-3 * np.eye(3)
            mu = rng.uniform(0.02, 0.2, size=3)
            params = make_params(("A", "B", "C"), mu, cov)
            out = max_sharpe(params)
            grid = simplex_lattice(3, 0.01)
            rets = grid @ mu
            vols = np.sqrt(np.einsum("ij,jk,ik->i", grid, cov, grid))
            grid_best = np.max(rets[vols > 0] / vols[vols > 0])
            assert out.stats.sharpe >= grid_best - 1e-6

    def test_single_asset(self):
        params = make_params(("A",), [0.1], [[0.04]])
        out = max_sharpe(params)
        assert out.weights.w.tolist() == [1.0]

    def test_warns_when_no_asset_beats_risk_free(self):
        params = make_params(("A", "B"), [0.01, 0.02],
                             [[0.04, 0.0], [0.0, 0.04]])
        out = max_sharpe(params, risk_free=0.05)
        assert out.warning is not None

    def test_negative_excess_asset_enters_as_hedge(self):
        # sigma 0.2 each, correlation -0.9: the tangency portfolio is
        # proportional to inv(Cov) e = (0.091, 0.080) / (0.04 * 0.19)
        cov = 0.04 * np.array([[1.0, -0.9], [-0.9, 1.0]])
        params = make_params(("A", "B"), [0.1, -0.01], cov)
        out = max_sharpe(params)
        assert out.weights.w[1] > 0.4
        assert out.weights.w[1] == pytest.approx(0.080 / 0.171, abs=1e-6)
        assert out.warning is None

    def test_no_asset_beats_risk_free_returns_best_vertex(self):
        # excess (-0.5, -0.25, -0.9) over sigma (2, 1, 3): B and A tie at
        # -0.25 and the lower volatility B wins; no lattice point does better
        params = make_params(("A", "B", "C"), [-0.5, -0.25, -0.9],
                             np.diag([4.0, 1.0, 9.0]))
        out = max_sharpe(params)
        assert out.weights.w.tolist() == [0.0, 1.0, 0.0]
        assert out.warning is not None
        grid = simplex_lattice(3, 0.01)
        sharpes = (grid @ params.mu) / np.sqrt(
            np.einsum("ij,jk,ik->i", grid, params.cov, grid))
        assert out.stats.sharpe >= sharpes.max() - 1e-12

    def test_ten_assets_frank_wolfe_gap(self):
        # relative Frank-Wolfe gap of the convex form min y'Cov y over
        # {y >= 0, e.y = 1} at y = w / e.w: vertices are the unit vectors
        # over e_i for e_i > 0; the rays u_i/e_i + u_j/|e_j| (e_i > 0 > e_j)
        # must not descend either
        rng = np.random.default_rng(10)
        cov = random_psd(rng, 10, scale=0.1) + 1e-3 * np.eye(10)
        e = rng.uniform(-0.05, 0.15, size=10)
        assert (e < 0).any()
        out = max_sharpe(make_params([f"T{i}" for i in range(10)], e, cov))
        assert out.warning is None
        y = out.weights.w / float(e @ out.weights.w)
        g = 2.0 * cov @ y
        obj = float(y @ cov @ y)
        pos, neg = e > 0, e < 0
        gap = (float(g @ y) - float((g[pos] / e[pos]).min())) / obj
        assert 0.0 <= gap <= 1e-4
        rays = g[pos][:, None] / e[pos][:, None] + g[neg][None, :] / -e[neg][None, :]
        assert rays.min() / obj >= -1e-4

    def test_zero_covariance_falls_back_with_warning(self):
        params = make_params(("A", "B"), [0.05, 0.1], np.zeros((2, 2)))
        out = max_sharpe(params)
        assert out.warning is not None
        assert abs(out.weights.w.sum() - 1.0) <= 1e-9


class TestConvergenceWarning:
    def test_max_iter_reported(self):
        # two strong factors over tiny idiosyncratic variances: even the
        # correlation matrix is ill-conditioned on the hyperplane e.y = 1,
        # so 10,000 fixed steps settle neither problem. mu = Cov 1/n makes
        # equal weights the (interior) tangency portfolio.
        rng = np.random.default_rng(3)
        n = 200
        b = np.column_stack((rng.uniform(0.5, 1.5, n), rng.normal(0.0, 1.0, n)))
        cov = 0.09 * b @ b.T + np.diag(rng.uniform(1e-5, 1e-4, n))
        params = make_params([f"T{i}" for i in range(n)],
                             cov @ np.full(n, 1.0 / n), cov)
        for out in (min_variance(params), max_sharpe(params)):
            assert out.warning == (
                "solver stopped at MAX_ITER=10000 before converging"
            )

    @pytest.mark.parametrize("fixture", ["crypto_like", "equity_like"])
    def test_fixtures_converge(self, fixture):
        series = load_prices(str(DATA_DIR / f"{fixture}.csv"))
        params = estimate_params(log_returns(series))
        assert min_variance(params).warning is None
        assert max_sharpe(params).warning is None


class TestEfficientFrontier:
    def test_targets_hit_and_variance_dominates_mvp(self, three_asset_params):
        points = efficient_frontier(three_asset_params, n_points=9)
        assert len(points) >= 5
        mvp_var = min_variance(three_asset_params).stats.variance
        for pt in points:
            assert pt.stats.expected_return == pytest.approx(
                pt.target_return, abs=1e-6
            )
            assert pt.stats.variance >= mvp_var - 1e-9

    def test_variance_monotone_above_mvp_return(self, three_asset_params):
        points = efficient_frontier(three_asset_params, n_points=11)
        mvp_ret = min_variance(three_asset_params).stats.expected_return
        upper = [p for p in points if p.target_return >= mvp_ret - 1e-12]
        variances = [p.stats.variance for p in upper]
        assert all(b >= a - 1e-9 for a, b in zip(variances, variances[1:]))

    def test_endpoints_span_mu_range(self, three_asset_params):
        points = efficient_frontier(three_asset_params, n_points=5)
        mu = three_asset_params.mu
        assert points[0].target_return == pytest.approx(mu.min(), abs=1e-12)
        assert points[-1].target_return == pytest.approx(mu.max(), abs=1e-9)

    def test_rejects_too_few_points(self, three_asset_params):
        with pytest.raises(OptimizerError):
            efficient_frontier(three_asset_params, n_points=1)


class TestGridOracle:
    def test_lattice_counts_and_sums(self):
        grid = simplex_lattice(3, 0.5)
        # compositions of 2 into 3 parts: C(4,2) = 6
        assert grid.shape == (6, 3)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    def test_lattice_resolution_must_divide_one(self):
        with pytest.raises(OptimizerError):
            simplex_lattice(3, 0.3)

    def test_oracle_guard_on_asset_count(self):
        params = make_params([f"T{i}" for i in range(5)], np.zeros(5),
                             np.eye(5))
        with pytest.raises(OptimizerError):
            grid_oracle_min_variance(params, 0.01)

    def test_oracle_finds_exact_lattice_optimum(self):
        # with the optimum on the lattice the oracle must land exactly there
        params = make_params(("A", "B"), [0.0, 0.0],
                             [[0.04, 0.0], [0.0, 0.04]])
        oracle = grid_oracle_min_variance(params, 0.5)
        assert np.allclose(oracle.w, [0.5, 0.5], atol=1e-12)
