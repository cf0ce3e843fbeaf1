"""Simulation tests: factorization, per-path streams, path generation."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from gbmrisk import forking, paths_csv, simulation
from gbmrisk.optimizer import WeightVector
from gbmrisk.simulation import (
    CholeskyError,
    SimConfig,
    SimulationError,
    cholesky,
    repair_psd,
    simulate,
)

from conftest import make_params, random_psd, random_universe
from oracles import (analytic_var_single_asset, inv_cdf, normals, np_log,
                     rebuilt_paths, reference_paths_csv, word_uniform)

SQRT2 = 1.4142135623730951
# the top counter words of the step and the terminal normals
TOPS = (0, 2**63)

# A simulate in a fresh interpreter whose affinity mask is the one CPU
# argv[2], set before numpy loads OpenBLAS; argv[1] is the package's
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
    """simulation._normals, at the step and the terminal top words."""

    @staticmethod
    def draw(seed: int, start: int, stop: int, top: int) -> np.ndarray:
        return simulation._normals(seed, top, start, stop, 16)

    def test_deterministic_per_key(self):
        for top in TOPS:
            assert np.array_equal(self.draw(42, 0, 3, top),
                                  self.draw(42, 0, 3, top))

    def test_streams_differ_by_path(self):
        for top in TOPS:
            a, b = self.draw(42, 0, 2, top)
            assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        for top in TOPS:
            assert not np.array_equal(self.draw(1, 0, 3, top),
                                      self.draw(2, 0, 3, top))

    def test_prefix_stability(self):
        # a longer draw starts with exactly the shorter draw, and a path's
        # normals do not depend on the first path drawn
        for top in TOPS:
            long = self.draw(7, 3, 64, top)
            assert np.array_equal(long[:16], self.draw(7, 3, 19, top))
            assert np.array_equal(long[10:], self.draw(7, 13, 64, top))

    def test_marginal_is_standard_normal(self):
        for top in TOPS:
            sample = simulation._normals(123, top, 0, 20, 1000).ravel()
            assert scipy_stats.kstest(sample, "norm").pvalue > 0.01


class TestVectorDraw:
    """The draw, AS241 of the words of one Philox stream, bit for bit the
    per-path oracle of tests/oracles.py."""

    @pytest.mark.parametrize("blocks", [1, 2, 7, 50])
    @pytest.mark.parametrize("seed", [0, 42, 2**63, 2**64 - 1])
    def test_philox_words_match_numpy(self, seed, blocks, monkeypatch):
        # the words _normals draws for 6 paths of `blocks` blocks are each
        # path's own range of numpy's Philox, also where p * blocks passes
        # 2**64 and the counter's low word carries into the next
        drawn = []
        monkeypatch.setattr(simulation, "_inverse_normal",
                            lambda words: drawn.append(words) or words)
        for top in TOPS:
            for start in (0, 2**32 - 3, 2**64 // blocks - 3):
                drawn.clear()
                simulation._normals(seed, top, start, start + 6, 4 * blocks)
                for p, words in zip(range(start, start + 6),
                                    np.concatenate(drawn)):
                    own = np.random.Philox(
                        key=seed, counter=p * blocks + top * 2**192)
                    assert np.array_equal(words,
                                          own.random_raw(4 * blocks)), p

    @pytest.mark.parametrize("counter, key, expected", [
        ((0, 0, 0, 0), (0, 0),
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
          0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224,
          0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
        ((0x243F6A8885A308D3, 0x13198A2E03707344,
          0xA4093822299F31D0, 0x082EFA98EC4E6C89),
         (0x452821E638D01377, 0xBE5466CF34E90C6C),
         (0xA528F45403E61D95, 0x38C72DBD566E9788,
          0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
    ], ids=["zeros", "ones", "pi"])
    def test_philox_known_answers(self, counter, key, expected):
        # Random123's philox4x64-10 known-answer vectors (kat_vectors),
        # words least significant first. numpy increments its counter
        # before it draws, so its state holds the counter less one
        c = sum(w << 64 * i for i, w in enumerate(counter))
        k = sum(w << 64 * i for i, w in enumerate(key))
        words = np.random.Philox(key=k, counter=(c - 1) % 2**256)
        assert words.random_raw(4).tolist() == list(expected)

    @staticmethod
    def draw(words) -> np.ndarray:
        return simulation._inverse_normal(np.array(words, dtype=np.uint64))

    def test_transcription_is_the_standard_librarys(self):
        # with math.log, the oracle's AS241 is NormalDist().inv_cdf bit for
        # bit, on 400,000 of the draw's uniforms
        words = np.random.default_rng(5).integers(
            0, 2**64, 400_000, dtype=np.uint64, endpoint=False)
        normal = NormalDist()
        for w in words.tolist():
            u = word_uniform(w)
            assert inv_cdf(u) == normal.inv_cdf(u), w

    def test_draw_is_the_transcription(self):
        # bit for bit, when both take numpy's log in the tails. Against
        # NormalDist itself, whose tails take math.log, np.log's values
        # moved 7 of these 400,000 draws, all tail draws, each by at most
        # 2 ULP (numpy 2.4.6 on an AVX-512 CPU)
        words = np.random.default_rng(6).integers(
            0, 2**64, 400_000, dtype=np.uint64, endpoint=False)
        expected = [inv_cdf(word_uniform(w), np_log) for w in words.tolist()]
        assert np.array_equal(self.draw(words), expected)

    @staticmethod
    def around(q: float) -> list[int]:
        """The words whose u - 1/2 are the last at or below q and the first
        above it, with their 12 ignored low bits set."""
        k = int((q + 0.5) * 2.0**52)
        ks = [k for k in range(k - 2, k + 3)
              if word_uniform(k << 12) - 0.5 <= q
              < word_uniform((k + 1) << 12) - 0.5]
        assert len(ks) == 1
        return [ks[0] << 12 | 0xFFF, (ks[0] + 1) << 12]

    @staticmethod
    def branch(word: int) -> str:
        u = word_uniform(word)
        if abs(u - 0.5) <= 0.425:
            return "central"
        return "near" if math.sqrt(-np_log(min(u, 1.0 - u))) <= 5.0 else "far"

    def test_every_branch_on_hand_built_words(self):
        # the central edge |q| = 0.425 from either side; the near tail; the
        # far tail, r > 5, out to the extreme words, u = 2**-53 and
        # 1 - 2**-53; each followed by its complement, which has the other
        # sign of q and draws -z
        words = [0x8000000000000000, *self.around(0.425),
                 *(int(u * 2.0**64) for u in (0.05, 1e-6, 1e-10)),
                 0, 1 << 12, 12_345 << 12, int(1e-12 * 2.0**64)]
        words = [w for word in words for w in (word, 2**64 - 1 - word)]
        branches = [self.branch(w) for w in words]
        assert branches == (["central"] * 4 + ["near"] * 8 + ["far"] * 8)
        z = self.draw(words)
        assert np.array_equal(
            z, [inv_cdf(word_uniform(w), np_log) for w in words])
        assert np.array_equal(z[1::2], -z[::2])
        # no log in the central branch: NormalDist's own bits
        normal = NormalDist()
        assert [z[i] for i, b in enumerate(branches) if b == "central"] == [
            normal.inv_cdf(word_uniform(w))
            for w, b in zip(words, branches) if b == "central"]
        assert z[12] == -z[13] < -8.2

    @pytest.mark.parametrize("count", [*range(1, 11), 50, 200])
    def test_normals_match_the_per_path_stream(self, count):
        # 1,000 paths across 2**32 at a seed near the top of its range
        seed, start = 2**64 - 1 - count, 2**32 - 500
        for top in TOPS:
            z = simulation._normals(seed, top, start, start + 1000, count)
            expected = np.array([normals(seed, p, count, top)
                                 for p in range(start, start + 1000)])
            assert np.array_equal(z, expected), top

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("count", [3, 200])
    def test_pass_boundaries(self, count, delta):
        # a pass's worth of paths less one, exactly, and plus one
        n = simulation._DRAW_BLOCKS // -(-count // 4) + delta
        for top in TOPS:
            z = simulation._normals(9, top, 12_345, 12_345 + n, count)
            expected = np.array([normals(9, p, count, top)
                                 for p in range(12_345, 12_345 + n)])
            assert np.array_equal(z, expected), top

    @pytest.mark.parametrize("n_assets", [1, 3, 10, 30, 200])
    def test_simulate_matches_the_per_path_oracle(self, n_assets):
        # one draw at every width; 400 paths of 200 assets take two vector
        # passes
        params, config = wide_inputs(n_assets, n_paths=400, seed=2024)
        z = np.array([normals(2024, p, n_assets, 2**63)
                      for p in range(400)])
        log_t = simulation._path_kernel(params, config).log_terminal(z.T)
        expected = np.exp(log_t) * config.initial_prices
        assert np.array_equal(simulate(params, config).terminal_asset_prices,
                              expected)


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
    """The slices of a run's paths that the paths.csv writer rebuilds, a
    block of whole paths at a time, each path over all of its steps."""

    @pytest.mark.parametrize("n_assets", [3, 62, 63, 100, 200, 300])
    @pytest.mark.parametrize("n_steps", [1, 2, 52, 251, 252, 504])
    def test_slices_cover_the_path_under_the_bound(self, n_steps, n_assets):
        # a block is the most whole paths that fit _REBUILD_CELLS prices
        # in the writing process, _FORKED_CELLS in a formatting one, and
        # one path where a path holds more; 2 blocks + 1 path leave a
        # partial last block. The second block's rebuild covers every step
        # of its paths, equals their rows in a rebuild of the whole run and
        # ends at their terminal draw: cutting the run does not move a bit
        params = random_universe(n_assets)
        cells = (n_steps + 1) * n_assets
        shape = SimConfig(weights=weights_for(params), steps_per_year=n_steps)
        for bound in paths_csv._REBUILD_CELLS, paths_csv._FORKED_CELLS:
            block = paths_csv._block_paths(shape, n_assets, bound)
            assert block >= 1
            assert block * cells <= bound or block == 1
            assert (block + 1) * cells > bound
        config = SimConfig(weights=weights_for(params), n_paths=2 * block + 1,
                           steps_per_year=n_steps, seed=5)
        starts = range(0, config.n_paths, block)
        covered = [p for s in starts
                   for p in range(s, min(s + block, config.n_paths))]
        assert covered == list(range(config.n_paths))
        kernel = simulation._path_kernel(params, config)
        z_t = kernel.normals(0, config.n_paths)
        whole = kernel.log_paths(0, z_t, n_steps)
        second = kernel.log_paths(block, z_t[:, block:2 * block], n_steps)
        assert second.shape == (block, n_steps, n_assets)
        assert np.array_equal(second, whole[block:2 * block])
        log_t = kernel.terminal(0, config.n_paths)
        assert np.array_equal(second[:, -1], log_t[block:2 * block])


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
        other = simulate(three_asset_params, config, workers=5)
        assert np.array_equal(serial.terminal_asset_prices,
                              other.terminal_asset_prices)
        assert np.array_equal(serial.terminal_portfolio_values,
                              other.terminal_portfolio_values)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2"])
    def test_bad_worker_count_rejected(self, three_asset_params, workers):
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=10)
        with pytest.raises(SimulationError, match="workers"):
            simulate(three_asset_params, config, workers=workers)

    def test_single_chunk_starts_no_pool(self, three_asset_params,
                                         monkeypatch):
        # simulate runs in this process, whatever workers says
        def no_pool(*args, **kwargs):
            raise AssertionError("simulate forked")

        monkeypatch.setattr(forking, "run_forked", no_pool)
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=100)
        result = simulate(three_asset_params, config, workers=8)
        assert result.terminal_asset_prices.shape == (100, 3)

    @pytest.fixture(scope="class", params=[3, 50, 300])
    def chunk_reference(self, request):
        # 4,100 paths of 12 steps leave a partial last chunk at every chunk
        # size tried below; the reference is a serial run, its log(S_T/S_0)
        # from one kernel call, the first 64 paths rebuilt in one call, of
        # which only the last step is kept, and a cache of the terminal draw
        # taken a chunk at a time
        n = request.param
        params, config = wide_inputs(n, n_paths=4100, steps_per_year=12,
                                     seed=11)
        kernel = simulation._path_kernel(params, config)
        rebuilt = rebuilt_paths(params, replace(config, n_paths=64))
        return (params, config, simulate(params, config, workers=1), kernel,
                kernel.terminal(0, config.n_paths),
                rebuilt[:, -1, :].copy(), {})

    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("chunk", [1, 333, 1024, 4096])
    def test_chunk_and_worker_invariance(self, chunk_reference, chunk,
                                         workers):
        # workers is checked and otherwise ignored. The kernel's terminal
        # draw over chunks of paths, as the paths.csv writer takes them,
        # gives the run's bits, as a path's bits depend on (seed, p) alone;
        # and the first 64 rebuilt paths end at the run's first 64 prices
        (params, config, reference, kernel, log_t, rebuilt_terminal,
         chunked) = chunk_reference
        result = simulate(params, config, workers=workers)
        assert np.array_equal(result.terminal_asset_prices,
                              reference.terminal_asset_prices)
        if chunk not in chunked:
            n = config.n_paths
            chunked[chunk] = np.concatenate([
                kernel.terminal(s, min(s + chunk, n))
                for s in range(0, n, chunk)])
        assert np.array_equal(chunked[chunk], log_t)
        assert np.array_equal(rebuilt_terminal,
                              result.terminal_asset_prices[:64])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 4])
    def test_one_asset_chunks_fold_like_cumsum(self, chunk, workers, tmp_path,
                                               monkeypatch):
        # one asset's bridge, path by path from its own Philox streams and
        # with its walk folded one step at a time in step order, as
        # np.cumsum folds it, equals paths.csv written
        # in blocks of `chunk` paths on `workers` processes; 9 paths end in
        # a one-path block at 4 paths a block too
        mu, var = 0.07, 0.3**2
        params = make_params(("A",), [mu], [[var]])
        config = SimConfig(weights=WeightVector(("A",), np.array([1.0])),
                           n_paths=9, seed=0, initial_prices=np.array([50.0]))
        n, horizon, dt = config.n_steps, config.horizon_years, config.dt
        drift, l00 = mu - var / 2.0, math.sqrt(var)
        k = np.arange(1, n + 1)
        log = np.empty((9, n, 1))
        for p in range(9):
            scaled = normals(0, p, n, 0) * math.sqrt(dt)
            walk, total = np.empty(n), 0.0
            for i, step in enumerate(scaled):
                total += step
                walk[i] = total
            z_t = normals(0, p, 1, 2**63)[0]
            walk += k / n * (math.sqrt(horizon) * z_t - walk[-1])
            log[p, :, 0] = l00 * walk + (drift * dt) * k
            log[p, -1, 0] = l00 * z_t * math.sqrt(horizon) + drift * horizon
        np.exp(log, out=log)
        log *= config.initial_prices
        paths = np.concatenate([np.full((9, 1, 1), 50.0), log], axis=1)
        for cells in "_REBUILD_CELLS", "_FORKED_CELLS":
            monkeypatch.setattr(paths_csv, cells, chunk * (n + 1))
        monkeypatch.setattr(forking, "available_cpus", lambda: workers)
        out = tmp_path / "paths.csv"
        paths_csv.write_paths_csv(params, config, out)
        assert out.read_bytes() == reference_paths_csv(paths, ("A",))
        assert np.array_equal(
            paths[:, -1, :],
            simulate(params, config, workers=workers).terminal_asset_prices)

    def test_path_wider_than_a_unit_is_its_own_chunk(self, three_asset_params,
                                                     tmp_path, monkeypatch):
        # a path holding more prices than a block's unit still makes a
        # block of its own, and the bytes do not move
        config = SimConfig(weights=weights_for(three_asset_params), n_paths=5)
        expected = reference_paths_csv(
            rebuilt_paths(three_asset_params, config),
            three_asset_params.tickers)
        for cells in "_REBUILD_CELLS", "_FORKED_CELLS":
            monkeypatch.setattr(paths_csv, cells, 1)
        assert paths_csv._block_paths(config, 3, paths_csv._REBUILD_CELLS) == 1
        assert paths_csv._block_paths(config, 3, paths_csv._FORKED_CELLS) == 1
        out = tmp_path / "paths.csv"
        paths_csv.write_paths_csv(three_asset_params, config, out)
        assert out.read_bytes() == expected

    @pytest.fixture(scope="class")
    def wide_run(self):
        # 100 paths x 200 assets: the benchmark's wide universe
        return wide_inputs(200, n_paths=100)

    @pytest.mark.skipif(forking.available_cpus() < 2,
                        reason="needs a second CPU")
    def test_wide_bits_do_not_depend_on_the_cpu_count(self):
        # the shock product is a fixed-order elementwise sum, where one BLAS
        # product of 300 assets would thread; the inputs are built here, as
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
        # the draw holds a few (paths, assets) arrays, 160 KB each here; a
        # draw of every step would hold 40 MB arrays
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
        # a few 240 KB (paths, assets) arrays; every step of every path
        # would take 60 MB
        config = SimConfig(weights=weights_for(three_asset_params))
        tracemalloc.start()
        try:
            simulate(three_asset_params, config, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_draw_memory_bounded_at_1e5_paths(self, three_asset_params):
        # the run's own (paths, assets) arrays, 2.4 MB each, and one pass of
        # the vector draw; a single pass over all paths would hold ~17 MB
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=100_000)
        tracemalloc.start()
        try:
            simulate(three_asset_params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

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
        # rebuilt paths up to 4,100, at the top seed, follow a plain-numpy
        # Brownian bridge over the reference streams for (seed, path): step
        # normals at counter 0, terminal normals at top word 2**63
        seed = 2**64 - 1
        s0 = np.array([5.0, 6.0, 7.0])
        config = SimConfig(weights=weights_for(three_asset_params),
                           n_paths=4100, seed=seed, initial_prices=s0)
        paths = rebuilt_paths(three_asset_params, config)
        l = cholesky(three_asset_params.cov)
        dt, horizon = config.dt, config.horizon_years
        sigma = three_asset_params.sigma
        drift = three_asset_params.mu - sigma**2 / 2.0
        k = np.arange(1, 253)[:, None]
        for p in (0, 4095, 4096, 4099):
            z = normals(seed, p, 252 * 3, 0).reshape(252, 3)
            z_t = normals(seed, p, 3, 2**63)
            walk = np.cumsum(math.sqrt(dt) * z, axis=0)
            walk += k / 252 * (math.sqrt(horizon) * z_t - walk[-1])
            log_path = walk @ l.T + k * drift * dt
            assert np.allclose(paths[p, 1:], s0 * np.exp(log_path),
                               rtol=1e-12, atol=0.0)
            log_t = drift * horizon + math.sqrt(horizon) * (l @ z_t)
            assert np.allclose(paths[p, -1], s0 * np.exp(log_t),
                               rtol=1e-14, atol=0.0)

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


class TestTerminalSampler:
    """The terminal draw's contract: each path a function of (seed, p) alone,
    exact in law, and the last step of every rebuilt path."""

    @pytest.fixture(scope="class", params=[3, 10, 50, 200])
    def run_300(self, request):
        # inputs and a 300-path run, drawn once per width
        params, config = wide_inputs(request.param, n_paths=300, seed=9)
        return params, config, simulate(params, config)

    @pytest.mark.parametrize("k", [1, 2, 7, 64, 255])
    def test_first_k_paths_equal_a_k_path_run(self, run_300, k):
        # one BLAS product over all paths rounds differently by batch size;
        # the fixed-order sum gives each path the same bits in any run
        params, config, full = run_300
        short = simulate(params, replace(config, n_paths=k))
        assert np.array_equal(short.terminal_asset_prices,
                              full.terminal_asset_prices[:k])

    @pytest.mark.parametrize("n_assets, steps", [
        (1, 252), (3, 12), (50, 12), (200, 3)])
    def test_rebuilt_last_row_is_the_terminal_draw(self, n_assets, steps):
        params = random_universe(n_assets)
        config = SimConfig(weights=weights_for(params), n_paths=20, seed=4,
                           steps_per_year=steps,
                           initial_prices=np.linspace(0.5, 90.0, n_assets))
        paths = rebuilt_paths(params, config)
        assert paths.shape == (20, steps + 1, n_assets)
        assert np.array_equal(paths[:, -1, :],
                              simulate(params, config).terminal_asset_prices)

    def test_bridge_increments_keep_the_law(self, three_asset_params):
        # criterion 2's moment checks and criterion 3's correlation check on
        # the rebuilt paths' step increments, 1e5 paths x 12 steps, pooled
        # over the steps; and increments of one asset uncorrelated across
        # steps, as a pinned walk's are only when the bridge is right
        params = three_asset_params
        config = SimConfig(weights=weights_for(params), n_paths=100_000,
                           steps_per_year=12, seed=1618)
        steps = np.diff(np.log(rebuilt_paths(params, config)), axis=1)
        dt = config.dt
        sigma = params.sigma
        for i in range(params.n_assets):
            sample = steps[:, :, i].ravel()
            n = sample.size
            mean_target = (params.mu[i] - sigma[i] ** 2 / 2.0) * dt
            se_mean = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - mean_target) / se_mean < 3.0
            sample_var = sample.var(ddof=1)
            se_var = sample_var * math.sqrt(2.0 / (n - 1))
            assert abs(sample_var - params.cov[i, i] * dt) / se_var < 3.0
            growth = np.exp(sample)
            se_growth = growth.std(ddof=1) / math.sqrt(n)
            target = math.exp(params.mu[i] * dt)
            assert abs(growth.mean() - target) / se_growth < 3.0
            across = np.corrcoef(steps[:, :, i], rowvar=False)
            assert np.max(np.abs(across - np.eye(12))) < 0.05
        target_corr = params.cov / np.outer(sigma, sigma)
        for k in range(12):
            sample_corr = np.corrcoef(steps[:, k, :], rowvar=False)
            assert np.max(np.abs(sample_corr - target_corr)) < 0.05

    def test_one_asset_var_within_order_statistic_ci(self):
        # the distribution-free 95% CI of the 5% quantile of 1e6 terminal
        # values, order statistics n*alpha -+ 1.96 sqrt(n alpha (1 - alpha)),
        # covers the lognormal closed form
        s0, mu, sigma, alpha, n = 100.0, 0.05, 0.2, 0.05, 1_000_000
        params = make_params(("X",), [mu], [[sigma**2]])
        config = SimConfig(weights=WeightVector(("X",), np.array([1.0])),
                           n_paths=n, seed=42, initial_value=s0,
                           initial_prices=np.array([s0]))
        values = np.sort(simulate(params, config).terminal_portfolio_values)
        half = 1.959963984540054 * math.sqrt(n * alpha * (1.0 - alpha))
        lo, hi = math.floor(n * alpha - half), math.ceil(n * alpha + half)
        exact = analytic_var_single_asset(s0, mu, sigma, 1.0, alpha)
        assert values[lo - 1] <= exact <= values[hi - 1]
