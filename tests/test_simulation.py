"""Simulation tests: factorization, per-path streams, path generation."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from gbmrisk import forking, simulation
from gbmrisk.optimizer import WeightVector
from gbmrisk.simulation import (
    CholeskyError,
    SimConfig,
    SimulationError,
    cholesky,
    repair_psd,
    simulate,
)

from conftest import (assert_no_children, make_params, random_psd,
                      random_universe)
from oracles import draw_standard_normals, rebuilt_paths

SQRT2 = 1.4142135623730951

# A default simulate in a fresh interpreter whose affinity mask is the one
# CPU argv[2], set before numpy loads OpenBLAS; argv[1] is the package's
# directory. Reads pickled (params, config) and writes the terminal prices.
ONE_CPU_SIMULATE = """
import os, pickle, sys
os.sched_setaffinity(0, {int(sys.argv[2])})
sys.path.insert(0, sys.argv[1])
from gbmrisk.simulation import simulate
params, config = pickle.load(sys.stdin.buffer)
sys.stdout.buffer.write(simulate(params, config).terminal_asset_prices.tobytes())
"""


def weights_for(params, values=None) -> WeightVector:
    n = params.n_assets
    w = np.full(n, 1.0 / n) if values is None else np.asarray(values)
    return WeightVector(params.tickers, w)


def wide_inputs(n: int, **config):
    """random_universe(n) and a SimConfig of equal weights on it."""
    params = random_universe(n)
    return params, SimConfig(weights=weights_for(params), **config)


class RangeFailed(Exception):
    """Raised inside a simulated range; carries the raising process's pid."""


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
            l = cholesky(cov)
            if n <= 3:
                assert np.array_equal(l, cholesky_rowwise(cov))
            else:
                assert np.max(np.abs(l - cholesky_rowwise(cov))) <= 1e-12

    def test_hand_oracle_2x2(self):
        # [[4,2],[2,3]] = L L' with L = [[2,0],[1,sqrt(2)]]
        factor = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert factor[0, 0] == pytest.approx(2.0, abs=1e-15)
        assert factor[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert factor[1, 1] == pytest.approx(SQRT2, rel=1e-15)
        assert factor[0, 1] == 0.0

    def test_identity_and_scalar(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))
        assert cholesky(np.array([[9.0]]))[0, 0] == 3.0

    def test_zero_matrix_is_psd(self):
        assert np.array_equal(cholesky(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rank_deficient_psd_accepted(self):
        # ones matrix has rank 1; factor is [[1,0],[1,0]]
        factor = cholesky(np.ones((2, 2)))
        assert np.allclose(factor @ factor.T, np.ones((2, 2)), atol=1e-15)

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
            l = cholesky(cov)
            assert np.max(np.abs(l @ l.T - cov)) < 1e-10


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

    @pytest.mark.parametrize("field, bad", [
        ("n_paths", 10.5), ("n_paths", "5"), ("n_paths", True),
        ("steps_per_year", 2.5), ("horizon_years", math.inf),
        ("horizon_years", math.nan), ("initial_value", math.inf),
        ("initial_value", "100"),
        *(pytest.param(field, 10**400, id=f"{field}-10**400")
          for field in ("initial_value", "horizon_years")),
        # each factor keeps its rule, but n_steps breaks the count rule, or
        # the product overflows to inf
        ("horizon_years", 1e300), ("horizon_years", 1e307),
    ])
    def test_bad_type_or_non_finite_rejected(self, three_asset_params,
                                              field, bad):
        w = weights_for(three_asset_params)
        with pytest.raises(SimulationError, match=field):
            SimConfig(weights=w, **{field: bad})

    def test_seed_range(self, three_asset_params):
        # seeds key a uint64 stream: out-of-range values must not alias
        w = weights_for(three_asset_params)
        assert SimConfig(weights=w, seed=0).seed == 0
        assert SimConfig(weights=w, seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-1, 2**64, True, 7.0, "7"):
            with pytest.raises(SimulationError, match="seed"):
                SimConfig(weights=w, seed=bad)


class TestStepSlices:
    """The step slices a path's shock product is computed in."""

    @pytest.mark.parametrize("n_assets", [3, 62, 63, 100, 200, 300])
    @pytest.mark.parametrize("n_steps", [1, 2, 52, 251, 252, 504])
    def test_slices_cover_the_path_under_the_bound(self, n_steps, n_assets):
        slices = simulation._step_slices(n_steps, n_assets)
        steps = [k for s in slices for k in range(n_steps)[s]]
        assert steps == list(range(n_steps))
        bound = simulation._BLAS_THREADED_MACS
        for s in slices:
            rows = s.stop - s.start
            assert rows * n_assets**2 <= bound
            assert rows >= 2 or n_steps == 1
        assert (len(slices) == 1) == (n_steps * n_assets**2 <= bound)


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
        forked = simulate(three_asset_params, config, workers=5)
        assert np.array_equal(serial.terminal_asset_prices,
                              forked.terminal_asset_prices)
        assert np.array_equal(serial.terminal_portfolio_values,
                              forked.terminal_portfolio_values)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2"])
    def test_bad_worker_count_rejected(self, three_asset_params, workers):
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=10)
        with pytest.raises(SimulationError, match="workers"):
            simulate(three_asset_params, config, workers=workers)

    def test_single_chunk_starts_no_pool(self, three_asset_params,
                                         monkeypatch):
        # workers are clamped to the chunk count, so one chunk runs serially
        def no_pool(*args, **kwargs):
            raise AssertionError("a single-chunk run forked")

        monkeypatch.setattr(forking, "run_forked", no_pool)
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=100)
        result = simulate(three_asset_params, config, workers=8)
        assert result.terminal_asset_prices.shape == (100, 3)

    @pytest.fixture(scope="class", params=[3, 50, 300])
    def chunk_reference(self, request):
        # 4,100 paths of 12 steps leave a partial last chunk at every chunk
        # size tried below; the reference is a serial run in 4,096-path
        # chunks, and every path rebuilt in one kernel call, of which only
        # the last step is kept; 300 assets take two step slices a path
        n = request.param
        params, config = wide_inputs(n, n_paths=4100, steps_per_year=12,
                                     seed=11)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_CHUNK_NORMALS", 4096 * config.n_steps * n)
            return (params, config, simulate(params, config, workers=1),
                    rebuilt_paths(params, config)[:, -1, :].copy())

    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("chunk", [1, 333, 1024, 4096])
    def test_chunk_and_worker_invariance(self, chunk_reference, chunk,
                                         workers, monkeypatch):
        # the unit is sized in normals; these sizes give `chunk` paths each
        params, config, reference, rebuilt_terminal = chunk_reference
        monkeypatch.setattr(simulation, "_CHUNK_NORMALS",
                            chunk * config.n_steps * params.n_assets)
        result = simulate(params, config, workers=workers)
        assert np.array_equal(result.terminal_asset_prices,
                              reference.terminal_asset_prices)
        # the rebuild depends on neither the chunk size nor the workers, so
        # the one rebuilt in the fixture checks every run's terminal prices
        assert np.array_equal(rebuilt_terminal, result.terminal_asset_prices)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 4])
    def test_one_asset_chunks_fold_like_cumsum(self, chunk, workers,
                                               monkeypatch):
        # one asset in one-path chunks folds a single column of 252 steps,
        # which numpy's add.reduce sums pairwise, not in step order; 9 paths
        # end a range in a one-path chunk at 4 paths a chunk too, and at
        # seed 0 a pairwise sum moves that path's price
        params = make_params(("A",), [0.07], [[0.3**2]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=9, seed=0)
        monkeypatch.setattr(simulation, "_CHUNK_NORMALS",
                            chunk * config.n_steps)
        result = simulate(params, config, workers=workers)
        assert np.array_equal(rebuilt_paths(params, config)[:, -1, :],
                              result.terminal_asset_prices)

    def test_path_wider_than_a_unit_is_its_own_chunk(self, three_asset_params,
                                                     monkeypatch):
        # a path drawing more normals than a unit holds still makes a chunk
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=5)
        reference = simulate(three_asset_params, config, workers=1)
        monkeypatch.setattr(simulation, "_CHUNK_NORMALS", 1)
        result = simulate(three_asset_params, config, workers=2)
        assert np.array_equal(result.terminal_asset_prices,
                              reference.terminal_asset_prices)

    @pytest.fixture(scope="class")
    def wide_run(self):
        # 100 paths x 200 assets x 252 steps: the benchmark's wide universe
        return wide_inputs(200, n_paths=100)

    @pytest.fixture
    def pools(self, monkeypatch):
        # the process count of every forked run simulate starts, in order
        started = []
        real = forking.run_forked

        def spy(produce, parts, processes, consume, local=None):
            started.append(processes + (local is not None))
            real(produce, parts, processes, consume, local)

        monkeypatch.setattr(forking, "run_forked", spy)
        return started

    def test_few_wide_paths_split_across_workers(self, wide_run, pools):
        # a chunk is sized in normals, so 100 paths of 200 assets make
        # several chunks and two workers, this process and a forked one,
        # take them
        params, config = wide_run
        serial = simulate(params, config, workers=1)
        assert not pools
        forked = simulate(params, config, workers=2)
        assert pools == [2]
        assert np.array_equal(forked.terminal_asset_prices,
                              serial.terminal_asset_prices)
        assert np.array_equal(forked.terminal_portfolio_values,
                              serial.terminal_portfolio_values)

    @pytest.mark.parametrize("steps, n_assets", [
        (252, 62), (252, 63), (100, 100), (100, 101), (252, 300),
    ])
    def test_default_forks_past_the_blas_bound(self, steps, n_assets, pools,
                                               monkeypatch):
        # a path's shock product takes steps * n_assets**2 multiply-adds;
        # the first two pairs of cases straddle _BLAS_THREADED_MACS, past
        # which it is computed in step slices under it, so the default
        # forks at every shape up to 707 assets
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 2)
        params, config = wide_inputs(n_assets, n_paths=40,
                                     steps_per_year=steps)
        sliced = steps * n_assets**2 > simulation._BLAS_THREADED_MACS
        assert sliced == (n_assets in (63, 101, 300))
        serial = simulate(params, config, workers=1)
        default = simulate(params, config)
        assert pools == [2]
        assert np.array_equal(default.terminal_asset_prices,
                              serial.terminal_asset_prices)
        assert_no_children()

    @pytest.mark.skipif(simulation._available_cpus() < 2,
                        reason="needs a second CPU")
    def test_wide_bits_do_not_depend_on_the_cpu_count(self):
        # 300 assets x 252 steps is past _BLAS_THREADED_MACS, where BLAS
        # would thread one product per path; the inputs are built here, as
        # random_universe's covariance is itself a BLAS product whose bits
        # vary with the CPU count
        params, config = wide_inputs(300, n_paths=8)
        here = simulate(params, config).terminal_asset_prices
        package = os.path.dirname(os.path.dirname(simulation.__file__))
        cpu = min(os.sched_getaffinity(0))
        child = subprocess.run(
            [sys.executable, "-c", ONE_CPU_SIMULATE, package, str(cpu)],
            input=pickle.dumps((params, config)), stdout=subprocess.PIPE,
            check=True)
        assert child.stdout == here.tobytes()

    def test_chunk_memory_bounded_for_wide_runs(self, wide_run):
        # two chunk-sized float arrays stay near 12 MB whatever the shape;
        # 100 paths in one chunk would hold two 40 MB arrays
        params, config = wide_run
        tracemalloc.start()
        try:
            simulate(params, config, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_chunk_memory_bounded_at_the_default_shape(self,
                                                       three_asset_params):
        # each of two processes reuses two ~1.5 MB chunk arrays; a fresh
        # pair per chunk in flight would hold ~25 MB
        config = SimConfig(weights=weights_for(three_asset_params))
        tracemalloc.start()
        try:
            simulate(three_asset_params, config, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

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
                           n_paths=16, initial_prices=s0)
        result = simulate(three_asset_params, config)
        paths = rebuilt_paths(three_asset_params, config)
        assert paths.shape == (16, 253, 3)
        assert np.array_equal(paths[:, 0, :], np.tile(s0, (16, 1)))
        assert np.array_equal(paths[:, -1, :], result.terminal_asset_prices)
        assert np.all(paths > 0.0)

    def test_streams_match_reference_across_chunks(self, three_asset_params):
        # rebuilt paths on both sides of a 4,096-path boundary, at the top
        # seed, follow the reference stream for (seed, path)
        seed = 2**64 - 1
        s0 = np.array([5.0, 6.0, 7.0])
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=4100, seed=seed, initial_prices=s0)
        paths = rebuilt_paths(three_asset_params, config)
        l = cholesky(three_asset_params.cov)
        dt = config.dt
        sigma = three_asset_params.sigma
        drift = (three_asset_params.mu - sigma**2 / 2.0) * dt
        for p in (0, 4095, 4096, 4099):
            z = draw_standard_normals(seed, p, 252 * 3).reshape(252, 3)
            log_path = np.cumsum(drift + math.sqrt(dt) * (z @ l.T), axis=0)
            assert np.allclose(paths[p, 1:], s0 * np.exp(log_path),
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


class TestForkedSimulate:
    """The default run on two CPUs: this process works the first range and
    a forked process the second."""

    @pytest.fixture
    def forks(self, monkeypatch):
        # the pid of every process forked, as this process sees it
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 2)
        pids = []
        real = os.fork

        def spy():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @pytest.mark.parametrize("n_paths, n_assets", [(10_000, 3), (1_000, 10)])
    def test_forked_run_equals_serial_bitwise(self, n_paths, n_assets,
                                              forks):
        params, config = wide_inputs(n_assets, n_paths=n_paths, seed=5)
        serial = simulate(params, config, workers=1)
        assert not forks
        forked = simulate(params, config)
        assert len(forks) == 1
        assert np.array_equal(forked.terminal_asset_prices,
                              serial.terminal_asset_prices)
        assert np.array_equal(forked.terminal_portfolio_values,
                              serial.terminal_portfolio_values)
        assert_no_children()

    @pytest.mark.parametrize("in_child", [True, False])
    def test_range_error_surfaces_and_leaves_no_children(self, in_child,
                                                         forks, monkeypatch):
        # a forked range's error is re-raised here, from its traceback; one
        # raised in this process's range still reaps the forked one
        caller = os.getpid()
        real = simulation._path_normals

        def failing_normals(seed):
            fill = real(seed)

            def fill_or_fail(start, z):
                if (os.getpid() != caller) == in_child:
                    raise RangeFailed(os.getpid())
                fill(start, z)

            return fill_or_fail

        monkeypatch.setattr(simulation, "_path_normals", failing_normals)
        params, config = wide_inputs(3, n_paths=1_000)
        with pytest.raises(RangeFailed) as err:
            simulate(params, config)
        assert len(forks) == 1
        assert (err.value.args[0] != caller) == in_child
        if in_child:
            assert err.value.args[0] == forks[0]
            cause = str(err.value.__cause__)
            assert "Traceback" in cause and "RangeFailed" in cause
        assert_no_children()

    def test_forked_run_raises_no_warning(self, forks):
        # Python 3.12+ warns when it forks a process that runs threads
        params, config = wide_inputs(3, n_paths=2_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(params, config)
        assert len(forks) == 1
        assert_no_children()

    def test_no_fork_off_linux(self, forks, monkeypatch):
        # fork without exec is unsafe on other platforms (macOS among them)
        params, config = wide_inputs(3, n_paths=2_000)
        expected = simulate(params, config)
        assert len(forks) == 1

        def no_fork():
            raise AssertionError("forked off Linux")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(sys, "platform", "darwin")
        result = simulate(params, config)
        assert np.array_equal(result.terminal_asset_prices,
                              expected.terminal_asset_prices)
        assert np.array_equal(result.terminal_portfolio_values,
                              expected.terminal_portfolio_values)
