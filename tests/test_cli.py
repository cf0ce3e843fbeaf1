"""CLI and pipeline integration tests.

The end-to-end oracle here recomputes the whole pipeline from the CSV with
plain numpy (csv module, log/diff, population covariance, LAPACK Cholesky,
raw counter-based streams) and must agree with the package's report.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gbmrisk import cli, forking, paths_csv
from gbmrisk.cli import (
    PORTFOLIO_MODES,
    PipelineError,
    RunConfig,
    compare_portfolios,
    load_run_config,
    main,
    run_backtest,
    run_pipeline,
)
from gbmrisk.estimation import EstimationError, MarketParams, estimate_params
from gbmrisk.market_data import ReturnMatrix
from gbmrisk.optimizer import WeightVector
from gbmrisk.risk import RiskError, build_report, rolling_var_backtest
from gbmrisk.simulation import SimConfig, SimulationError, simulate

from conftest import DATA_DIR, assert_no_children, make_params
from oracles import leaves_fast_path, rebuilt_paths, reference_paths_csv


class BlockFailed(Exception):
    """Raised by a block formatter in a test; it names the raising pid,
    and the block's first path where it is given."""


# values every run parameter's rule is tried on
REJECTION_GRID = (True, "5", 0, -1, 1, 2.5, math.nan, math.inf, 10**400,
                  2**64, 2**64 - 1, 10**5000, 2**62)


def write_constant_csv(path: Path, days: int = 30, price: float = 50.0) -> None:
    rows = ["date,ONLY"]
    for d in range(days):
        rows.append(f"2024-02-{d + 1:02d},{price}")
    path.write_text("\n".join(rows) + "\n")


def config_entry_points(tmp_path: Path, kw: dict):
    """The two ways to build a RunConfig from ``kw``: the library constructor
    and load_run_config, from a JSON file when JSON holds every value and
    from flag overrides otherwise."""
    yield lambda: RunConfig(**kw)
    try:
        text = json.dumps(kw)
    except TypeError:
        yield lambda: load_run_config(None, kw)
        return
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    yield lambda: load_run_config(str(cfg), {})


def write_gbm_csv(path: Path, n_rows: int, seed: int, tickers=("GA", "GB"),
                  daily_mean=0.0003, daily_std=0.01) -> None:
    rng = np.random.default_rng(seed)
    log_prices = np.cumsum(
        rng.normal(daily_mean, daily_std, size=(n_rows, len(tickers))), axis=0
    )
    rows = ["date," + ",".join(tickers)]
    for i in range(n_rows):
        cells = ",".join(repr(float(p)) for p in np.exp(log_prices[i]))
        rows.append(f"d{i:05d},{cells}")
    path.write_text("\n".join(rows) + "\n")


class TestRunConfig:
    def test_defaults_match_benchmark_setup(self, tmp_path):
        csv = tmp_path / "p.csv"
        write_constant_csv(csv)
        config = RunConfig(price_csv=str(csv))
        assert config.n_paths == 10_000
        assert config.horizon_years == 1.0
        assert config.trading_days == 252
        assert config.alpha == 0.05
        assert config.initial_value == 100_000.0
        assert config.seed == 42
        assert config.portfolio_mode == "mvp"

    def test_mode_normalization(self):
        assert RunConfig(price_csv="x", portfolio_mode="max-sharpe"
                         ).portfolio_mode == "max_sharpe"
        assert RunConfig(price_csv="x", portfolio_mode="MVP"
                         ).portfolio_mode == "mvp"
        got = RunConfig(price_csv="x", portfolio_mode="explicit_weights",
                        explicit_weights={"A": 1.0})
        assert got.portfolio_mode == "explicit-weights"

    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError, match="portfolio_mode"):
            RunConfig(price_csv="x", portfolio_mode="equal")

    def test_explicit_weights_iff_mode(self):
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", portfolio_mode="explicit-weights")
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", portfolio_mode="mvp",
                      explicit_weights={"A": 1.0})

    def test_range_validation(self, tmp_path):
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", alpha=1.5)
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", n_paths=0)
        # a count numpy cannot allocate fails here, not after load and fit
        with pytest.raises(PipelineError, match="stage config: n_paths must be"):
            RunConfig(price_csv="x", n_paths=2**62)
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", initial_value=0.0)
        # non-finite floats stop at stage config, not in a later stage or
        # in a report that looks successful
        for key, bad in (("risk_free", math.nan), ("risk_free", math.inf),
                         ("horizon_years", math.inf),
                         ("initial_value", math.inf), ("alpha", math.nan)):
            with pytest.raises(PipelineError,
                               match=f"stage config: {key} must be finite"):
                RunConfig(price_csv="x", **{key: bad})
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"price_csv": "x", "risk_free": NaN}')
        with pytest.raises(PipelineError,
                           match="stage config: risk_free must be finite"):
            load_run_config(str(cfg), {})

    @pytest.mark.parametrize("run_key, sim_key", [
        ("n_paths", "n_paths"), ("trading_days", "steps_per_year"),
        ("horizon_years", "horizon_years"), ("initial_value", "initial_value"),
        ("seed", "seed"),
    ])
    def test_shared_fields_reject_what_simconfig_rejects(self, run_key,
                                                         sim_key):
        # one rule per run parameter: RunConfig refuses a value exactly when
        # SimConfig does, each naming its own field
        def rejects(build, error, name) -> bool:
            try:
                build()
            except error as err:
                assert f"{name} must be" in str(err)
                return True
            return False

        w = WeightVector(("A",), np.array([1.0]))
        for value in REJECTION_GRID:
            run = rejects(lambda: RunConfig(price_csv="x", **{run_key: value}),
                          PipelineError, f"stage config: {run_key}")
            sim = rejects(lambda: SimConfig(weights=w, **{sim_key: value}),
                          SimulationError, sim_key)
            assert run == sim, (value, run, sim)

    @pytest.mark.parametrize("key", ["trading_days", "alpha", "window"])
    def test_library_entry_points_reject_what_runconfig_rejects(self, key):
        # each library function taking a run parameter rejects exactly what
        # the first entry point listed rejects (RunConfig where it has the
        # field), with its own error class, naming the field; an error that
        # does not name the rule is a later failure of a value it let through
        def rejects(build, error, name) -> bool:
            try:
                build()
            except error as err:
                return f"{name} must be" in str(err)
            return False

        w = WeightVector(("A",), np.array([1.0]))
        params = make_params(("A",), [0.05], [[0.04]])
        sim = simulate(params, SimConfig(weights=w, n_paths=20))
        returns = ReturnMatrix(("A",), np.array([[0.01], [-0.02], [0.005]]))
        values = 100.0 + np.arange(30.0)
        backtest_config = RunConfig(
            price_csv=str(DATA_DIR / "crypto_like.csv"),
            portfolio_mode="explicit-weights",
            explicit_weights={"CRA": 0.2, "CRB": 0.3, "CRC": 0.5},
        )
        run_config = (lambda v: RunConfig(price_csv="x", **{key: v}),
                      PipelineError, f"stage config: {key}")
        entry_points = {
            "trading_days": [
                run_config,
                (lambda v: MarketParams(("A",), [0.05], [0.2], [[0.04]], v),
                 EstimationError, "trading_days"),
                (lambda v: estimate_params(returns, trading_days=v),
                 EstimationError, "trading_days"),
            ],
            "alpha": [
                run_config,
                (lambda v: build_report(sim, alpha=v), RiskError, "alpha"),
                (lambda v: rolling_var_backtest(values, alpha=v, window=5),
                 RiskError, "alpha"),
            ],
            "window": [
                (lambda v: rolling_var_backtest(values, window=v),
                 RiskError, "window"),
                (lambda v: run_backtest(backtest_config, window=v),
                 PipelineError, "stage backtest: window"),
            ],
        }[key]
        for value in REJECTION_GRID:
            verdicts = [rejects(lambda: build(value), error, name)
                        for build, error, name in entry_points]
            assert len(set(verdicts)) == 1, (key, value, verdicts)
            if key == "window" and type(value) is float:  # a count
                assert verdicts[0], value

    @pytest.mark.parametrize("key, value, message", [
        ("tickers", "CRA", "tickers must be a list of strings, got 'CRA'"),
        ("tickers", ["CRA", 1],
         "tickers must be a list of strings, got ['CRA', 1]"),
        ("explicit_weights", [["CRA", 1.0]], "explicit_weights must be an "
         "object of numbers, got [['CRA', 1.0]]"),
        ("explicit_weights", {1: 1.0},
         "explicit_weights must be an object of numbers, got {1: 1.0}"),
        ("explicit_weights", {"CRA": "1"},
         "explicit_weights must be float, got '1'"),
        ("explicit_weights", {"CRA": math.inf},
         "explicit_weights must be finite, got inf"),
    ])
    def test_container_fields_keep_their_rules(self, key, value, message):
        # a list or map field breaks its container rule, or a weight the
        # rule of a number, with the config stage's own message
        fields = {"portfolio_mode": "explicit-weights",
                  "explicit_weights": {"CRA": 1.0}, key: value}
        with pytest.raises(PipelineError) as err:
            RunConfig(price_csv="x", **fields)
        assert err.value.stage == "config"
        assert str(err.value) == f"stage config: {message}"

    def test_seed_range(self, tmp_path):
        assert RunConfig(price_csv="x", seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-1, 2**64, True, 7.0):
            with pytest.raises(PipelineError, match="stage config: seed"):
                RunConfig(price_csv="x", seed=bad)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"price_csv": "x", "seed": -1}))
        with pytest.raises(PipelineError, match="stage config: seed"):
            load_run_config(str(cfg), {})


class TestLoadRunConfig:
    def test_file_plus_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"price_csv": "from_file.csv",
                                   "n_paths": 777, "alpha": 0.01}))
        config = load_run_config(str(cfg), {"n_paths": 55, "seed": None})
        assert config.price_csv == "from_file.csv"
        assert config.n_paths == 55  # flag wins
        assert config.alpha == 0.01  # file survives
        assert config.seed == 42  # default fills the rest

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"price_csv": "x", "paths": 10}))
        with pytest.raises(PipelineError, match="unknown config keys"):
            load_run_config(str(cfg), {})

    def test_missing_price_csv_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_paths": 10}))
        with pytest.raises(PipelineError, match="price_csv"):
            load_run_config(str(cfg), {})

    @pytest.mark.parametrize("key, value", [
        ("n_paths", 10.5), ("n_paths", True), ("trading_days", "252"),
        ("horizon_years", True), ("alpha", "0.05"),
        ("initial_value", True), ("risk_free", "0"),
        ("record_paths", 1), ("record_paths", "true"),
        ("tickers", "EQA"), ("tickers", [1, 2]),
        ("explicit_weights", {"E": True, "Q": False, "A": "0"}),
        ("explicit_weights", [0.5, 0.5]),
        ("explicit_weights", {"E": True, "Q": False, "A": False}),
        ("trading_days", 252.0), ("record_paths", "no"),
        ("price_csv", Path("data/crypto_like.csv")),
        ("explicit_weights", {"EQA": 10**400, "EQB": 0, "EQC": 0}),
        ("explicit_weights", {"EQA": math.nan, "EQB": 0, "EQC": 0}),
        *(pytest.param(key, 10**400, id=f"{key}-10**400")
          for key in ("initial_value", "horizon_years", "risk_free")),
        # n_steps = round(horizon_years * trading_days) past the count rule,
        # or past the float range
        ("horizon_years", 1e300), ("horizon_years", 1e307),
    ])
    def test_wrong_json_type_rejected(self, tmp_path, key, value):
        # RunConfig and load_run_config callers meet one check. Explicit-weights
        # mode, so a coerced weight map or ticker list would load or fail
        # the mode check instead of the type check.
        kw = {"price_csv": "x", key: value, "portfolio_mode": "explicit-weights"}
        for build in config_entry_points(tmp_path, kw):
            with pytest.raises(PipelineError,
                               match=f"stage config: {key} must be"):
                build()

    def test_int_accepted_for_float_field(self, tmp_path):
        # kept as the int given, so the report echoes 5000, not 5000.0
        kw = {"price_csv": "x", "initial_value": 5000, "risk_free": 0}
        for build in config_entry_points(tmp_path, kw):
            config = build()
            assert (config.initial_value, config.risk_free) == (5000, 0)
            assert type(config.initial_value) is type(config.risk_free) is int

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="cannot read"):
            load_run_config(str(tmp_path / "missing.json"), {})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PipelineError, match="cannot read"):
            load_run_config(str(bad), {})


class TestRunPipeline:
    def test_constant_prices_degenerate_report(self, tmp_path):
        # zero volatility end to end: weight 1.0 on the only asset, the
        # terminal value equals the start, nothing counts as a loss
        csv = tmp_path / "flat.csv"
        write_constant_csv(csv)
        result = run_pipeline(RunConfig(price_csv=str(csv), n_paths=200))
        assert result.weights.as_dict() == {"ONLY": 1.0}
        assert result.report.var_value == pytest.approx(100_000.0, rel=1e-12)
        assert result.report.chance_of_loss == 0.0
        assert result.report.potential_loss == pytest.approx(0.0, abs=1e-6)
        assert result.stats.volatility == 0.0

    def test_stage_names_in_errors(self, tmp_path):
        with pytest.raises(PipelineError, match="stage load"):
            run_pipeline(RunConfig(price_csv=str(tmp_path / "nope.csv")))
        csv = tmp_path / "one_row.csv"
        csv.write_text("date,A\n2024-01-02,1.0\n")
        with pytest.raises(PipelineError, match="stage returns"):
            run_pipeline(RunConfig(price_csv=str(csv)))

    def test_ticker_subset_order(self):
        config = RunConfig(price_csv=str(DATA_DIR / "equity_like.csv"),
                           tickers=("EQC", "EQA"), n_paths=50)
        result = run_pipeline(config)
        assert result.params.tickers == ("EQC", "EQA")
        assert tuple(result.weights.as_dict()) == ("EQC", "EQA")

    def test_report_json_key_set_is_fixed(self):
        config = RunConfig(price_csv=str(DATA_DIR / "equity_like.csv"),
                           n_paths=50)
        result = run_pipeline(config)
        assert sorted(result.report_json) == sorted(
            ["weights", "stats", "var_value", "potential_loss",
             "chance_of_loss", "percentiles", "config_echo"]
        )
        echo = result.report_json["config_echo"]
        for key in ("seed", "jitter", "version", "n_steps", "alpha",
                    "initial_prices", "portfolio_mode"):
            assert key in echo

    @pytest.mark.parametrize("fixture", ["crypto_like", "equity_like"])
    def test_default_pipeline_matches_fixture_meta(self, fixture):
        # the seed-42 default run is the contract data/*.meta.json records
        meta = json.loads((DATA_DIR / f"{fixture}.meta.json").read_text())
        expected = meta["default_pipeline_report"]
        config = RunConfig(price_csv=str(DATA_DIR / f"{fixture}.csv"))
        result = run_pipeline(config)
        assert result.report.var_value == expected["var_value"]
        assert result.report.chance_of_loss == expected["chance_of_loss"]
        assert result.weights.as_dict() == expected["weights"]

    def test_end_to_end_independent_recomputation(self):
        # rebuild every stage with plain numpy and compare the report
        w_map = {"EQA": 0.5, "EQB": 0.3, "EQC": 0.2}
        config = RunConfig(
            price_csv=str(DATA_DIR / "equity_like.csv"),
            portfolio_mode="explicit-weights",
            explicit_weights=w_map,
            n_paths=200,
            seed=17,
        )
        result = run_pipeline(config)

        import csv as csv_module
        with open(DATA_DIR / "equity_like.csv", newline="") as fh:
            reader = csv_module.reader(fh)
            header = next(reader)
            rows = sorted(reader, key=lambda r: r[0])
        tickers = header[1:]
        prices = np.array([[float(c) for c in row[1:]] for row in rows])
        returns = np.diff(np.log(prices), axis=0)
        daily_mean = returns.mean(axis=0)
        centered = returns - daily_mean
        cov = centered.T @ centered / returns.shape[0] * 252
        mu = daily_mean * 252 + np.diag(cov) / 2.0
        l = np.linalg.cholesky(cov)
        drift = mu - np.diag(cov) / 2.0  # over a one-year horizon
        s0 = prices[-1]
        w = np.array([w_map[t] for t in tickers])
        values = np.empty(200)
        for p in range(200):
            # path p's terminal stream: key (17, p), counter top word 2**63
            gen = np.random.Generator(np.random.Philox(
                key=np.array([17, p], dtype=np.uint64),
                counter=np.array([0, 0, 0, 2**63], dtype=np.uint64)))
            z = gen.standard_normal(3)
            terminal = s0 * np.exp(drift + l @ z)
            values[p] = 100_000.0 * float((terminal / s0) @ w)

        assert np.allclose(
            values, result.simulation.terminal_portfolio_values, rtol=1e-9
        )
        assert result.report.var_value == pytest.approx(
            float(np.quantile(values, 0.05, method="linear")), rel=1e-9
        )
        assert result.report.chance_of_loss == pytest.approx(
            float(np.mean(values < 100_000.0)), abs=1e-12
        )
        for level, got in result.report.percentiles.items():
            assert got == pytest.approx(
                float(np.quantile(values, level, method="linear")), rel=1e-9
            )
        assert np.allclose(result.params.mu, mu, rtol=1e-12)
        assert np.allclose(result.params.cov, cov, rtol=1e-12)


class TestCliCommands:
    def run(self, *argv) -> int:
        return main(list(argv))

    def test_simulate_writes_deterministic_reports(self, tmp_path,
                                                   monkeypatch):
        base = [
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--n-paths", "500",
        ]
        out1, out2, out3, out4 = (tmp_path / n for n in ("r1", "r2", "r3", "r4"))
        assert self.run(*base, "--out-dir", str(out1)) == 0
        assert self.run(*base, "--out-dir", str(out2)) == 0
        # the paths.csv writer's process count follows the CPUs it sees
        for out, cpus in ((out3, 1), (out4, 4)):
            monkeypatch.setattr(forking, "available_cpus", lambda: cpus)
            assert self.run(*base, "--record-paths", "--out-dir", str(out)) == 0
        ref = (out1 / "report.json").read_bytes()
        assert (out2 / "report.json").read_bytes() == ref
        for name in ("report.json", "paths.csv"):
            assert (out4 / name).read_bytes() == (out3 / name).read_bytes()
        csv_ref = (out1 / "percentiles.csv").read_bytes()
        for out in (out2, out3, out4):
            assert (out / "percentiles.csv").read_bytes() == csv_ref
        assert csv_ref.startswith(b"percentile,value\n")

    def test_simulate_report_content(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(
            "simulate", "--price-csv", str(DATA_DIR / "crypto_like.csv"),
            "--n-paths", "300", "--out-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"weights", "stats", "var_value",
                               "potential_loss", "chance_of_loss",
                               "percentiles", "config_echo"}
        assert report["config_echo"]["n_paths"] == 300
        assert report["config_echo"]["jitter"] == 0.0
        assert sum(report["weights"].values()) == pytest.approx(1.0, abs=1e-9)
        assert report["var_value"] < 100_000.0
        lines = (out / "percentiles.csv").read_text().strip().splitlines()
        assert lines[0] == "percentile,value"
        assert len(lines) == 1 + len(report["percentiles"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "price_csv": str(DATA_DIR / "equity_like.csv"),
            "n_paths": 100,
            "portfolio_mode": "max_sharpe",
        }))
        out = tmp_path / "out"
        code = self.run("simulate", "--config", str(cfg),
                        "--n-paths", "150", "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config_echo"]["n_paths"] == 150
        assert report["config_echo"]["portfolio_mode"] == "max_sharpe"

    def test_record_paths_csv(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--n-paths", "3", "--horizon-years", str(2 / 252),
            "--record-paths", "--out-dir", str(out),
        )
        assert code == 0
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert lines[0] == "path,step,ticker,price"
        # 3 paths x (2 steps + start) x 3 tickers
        assert len(lines) == 1 + 3 * 3 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "EQA"
        # cells must be plain numbers, not numpy scalar reprs
        for line in lines[1:]:
            assert float(line.split(",")[3]) > 0.0

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("GBMRISK_OUTPUT_DIR", str(target))
        code = self.run(
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--n-paths", "50",
        )
        assert code == 0
        assert (target / "report.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GBMRISK_OUTPUT_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        code = self.run(
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--n-paths", "50", "--out-dir", str(chosen),
        )
        assert code == 0
        assert (chosen / "report.json").exists()
        assert not (tmp_path / "ignored" / "report.json").exists()

    def test_estimate_command(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run(
            "estimate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--out-dir", str(out),
        )
        assert code == 0
        params = json.loads((out / "params.json").read_text())
        assert list(params["mu"]) == ["EQA", "EQB", "EQC"]
        assert params["trading_days"] == 252
        assert params["n_observations"] == 252
        assert all(s > 0 for s in params["sigma"].values())
        assert "mu=" in capsys.readouterr().out

    def test_optimize_command_matches_library(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(
            "optimize", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--out-dir", str(out),
        )
        assert code == 0
        payload = json.loads((out / "weights.json").read_text())
        from gbmrisk.estimation import estimate_params
        from gbmrisk.market_data import load_prices, log_returns
        from gbmrisk.optimizer import min_variance
        params = estimate_params(log_returns(
            load_prices(DATA_DIR / "equity_like.csv")))
        expected = min_variance(params).weights.as_dict()
        for ticker, weight in expected.items():
            assert payload["weights"][ticker] == pytest.approx(weight,
                                                               abs=1e-12)

    def test_explicit_weights_flag(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--portfolio-mode", "explicit-weights",
            "--explicit-weights", "EQA=0.2,EQB=0.3,EQC=0.5",
            "--n-paths", "50", "--out-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["weights"] == {"EQA": 0.2, "EQB": 0.3, "EQC": 0.5}

    @pytest.mark.parametrize("entry", ["A=abc", "A=", "=0.5", "A"])
    def test_malformed_weight_entry_rejected(self, entry, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("simulate", "--price-csv", "x.csv",
                     "--explicit-weights", f"B=0.5,{entry}")
        assert exc.value.code == 2
        assert (f"bad weight entry {entry!r}; expected TICKER=WEIGHT"
                in capsys.readouterr().err)

    def test_compare_identical_configs_identical_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "price_csv": str(DATA_DIR / "equity_like.csv"),
            "n_paths": 100,
        }))
        out = tmp_path / "out"
        code = self.run("compare", "--config-a", str(cfg),
                        "--config-b", str(cfg), "--out-dir", str(out))
        assert code == 0
        comparison = json.loads((out / "comparison.json").read_text())
        for field in ("var_value", "chance_of_loss", "potential_loss"):
            assert comparison["a"][field] == comparison["b"][field]

    def test_compare_reports_each_sides_warning(self, tmp_path, capsys):
        base = {"price_csv": str(DATA_DIR / "equity_like.csv"), "n_paths": 50}
        calm, rich = tmp_path / "calm.json", tmp_path / "rich.json"
        calm.write_text(json.dumps(base))
        rich.write_text(json.dumps(
            {**base, "portfolio_mode": "max_sharpe", "risk_free": 10}))
        out = tmp_path / "out"
        assert self.run("compare", "--config-a", str(calm), "--config-b",
                        str(rich), "--label-b", "high-rf",
                        "--out-dir", str(out)) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        warning = comparison["b"]["report"]["config_echo"]["warning"]
        assert warning.startswith("no asset has expected return above")
        assert comparison["a"]["report"]["config_echo"]["warning"] is None
        assert capsys.readouterr().err == f"warning: [high-rf] {warning}\n"

    def test_compare_errors_labeled_by_side(self, tmp_path):
        good = RunConfig(price_csv=str(DATA_DIR / "equity_like.csv"),
                         n_paths=50)
        bad = RunConfig(price_csv=str(tmp_path / "missing.csv"))
        with pytest.raises(PipelineError, match="b:load"):
            compare_portfolios(good, bad, label_a="ok", label_b="broken")
        with pytest.raises(PipelineError, match="a:load"):
            compare_portfolios(bad, good)

    def test_backtest_command(self, tmp_path):
        csv = tmp_path / "hist.csv"
        write_gbm_csv(csv, n_rows=400, seed=8)
        out = tmp_path / "out"
        code = self.run(
            "backtest", "--price-csv", str(csv), "--window", "100",
            "--out-dir", str(out),
        )
        assert code == 0
        payload = json.loads((out / "backtest.json").read_text())
        assert payload["window"] == 100
        assert payload["n_tests"] == 299
        assert 0.0 <= payload["violation_rate"] <= 1.0
        assert sum(payload["weights"].values()) == pytest.approx(1.0,
                                                                 abs=1e-9)

    def test_backtest_reports_solver_warning(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run(
            "backtest", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--portfolio-mode", "max_sharpe", "--risk-free", "10",
            "--window", "100", "--out-dir", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith(
            "warning: no asset has expected return above the risk-free rate")
        assert err.count("\n") == 1
        # the warning goes to stderr only; backtest.json keeps its keys
        assert "warning" not in json.loads((out / "backtest.json").read_text())

    def test_backtest_no_lookahead_weights(self, tmp_path):
        # weights must come from the first window+1 rows only
        csv = tmp_path / "hist.csv"
        write_gbm_csv(csv, n_rows=300, seed=10)
        config = RunConfig(price_csv=str(csv))
        _, weights_full, _, _ = run_backtest(config, window=120)

        truncated = tmp_path / "head.csv"
        lines = csv.read_text().strip().splitlines()
        truncated.write_text("\n".join(lines[: 1 + 123]) + "\n")
        _, weights_head, _, _ = run_backtest(
            RunConfig(price_csv=str(truncated)), window=120
        )
        assert np.array_equal(weights_full.w, weights_head.w)

    def test_backtest_explicit_weights(self, tmp_path):
        csv = tmp_path / "hist.csv"
        write_gbm_csv(csv, n_rows=200, seed=11)
        result, weights, _, _ = run_backtest(
            RunConfig(price_csv=str(csv),
                      portfolio_mode="explicit-weights",
                      explicit_weights={"GA": 0.7, "GB": 0.3}),
            window=50,
        )
        assert weights.as_dict() == {"GA": 0.7, "GB": 0.3}
        assert result.n_tests == 199 - 50

    @pytest.mark.parametrize("mode", ["mvp", "explicit-weights"])
    @pytest.mark.parametrize("window", [1, 0, -3])
    def test_backtest_short_window_rejected_before_any_fit(self, window, mode,
                                                           monkeypatch):
        def no_load(config):
            raise AssertionError("prices loaded for an invalid window")

        monkeypatch.setattr(cli, "_load", no_load)
        weights = {"CRA": 0.2, "CRB": 0.3, "CRC": 0.5}
        config = RunConfig(
            price_csv=str(DATA_DIR / "crypto_like.csv"), portfolio_mode=mode,
            explicit_weights=weights if mode == "explicit-weights" else None,
        )
        with pytest.raises(PipelineError,
                           match=f"stage backtest: window must be >= 2, "
                                 f"got {window}"):
            run_backtest(config, window=window)

    @pytest.mark.parametrize("mode", PORTFOLIO_MODES)
    def test_backtest_short_history_fails_alike_in_every_mode(self, mode):
        # equity_like holds 253 price rows, one short of window + 2
        config = RunConfig(
            price_csv=str(DATA_DIR / "equity_like.csv"), portfolio_mode=mode,
            explicit_weights=({"EQA": 0.2, "EQB": 0.3, "EQC": 0.5}
                              if mode == "explicit-weights" else None),
        )
        with pytest.raises(PipelineError) as exc:
            run_backtest(config, window=252)
        assert str(exc.value) == ("stage backtest: need at least window + 2 "
                                  "= 254 price rows, got 253")

    @pytest.mark.parametrize("weights", ["EQA=0.5,EQB=0.5",
                                         "EQA=0.2,EQB=0.3,EQC=0.4,EQD=0.1"])
    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--n-paths", "50"]), ("optimize", []),
        ("backtest", ["--window", "100"]),
    ])
    def test_explicit_weights_must_cover_the_tickers(self, command, extra,
                                                     weights, tmp_path,
                                                     capsys):
        missing = [] if "EQC" in weights else ["EQC"]
        unexpected = ["EQD"] if "EQD" in weights else []
        assert self.run(
            command, "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--portfolio-mode", "explicit-weights",
            "--explicit-weights", weights, *extra,
            "--out-dir", str(tmp_path / "out"),
        ) == 2
        assert capsys.readouterr().err == (
            "error: stage optimize: explicit weights must cover exactly "
            f"['EQA', 'EQB', 'EQC']; missing {missing}, "
            f"unexpected {unexpected}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf ratios
    def test_backtest_overflowing_returns_name_their_stage(self, tmp_path,
                                                            capsys):
        csv = tmp_path / "wild.csv"
        csv.write_text("date,A\n" + "".join(
            f"2024-01-{d + 1:02d},{1e300 if d % 2 else 1e-300!r}\n"
            for d in range(8)
        ))
        code = self.run("backtest", "--price-csv", str(csv), "--window", "2")
        assert code == 2
        assert "stage returns" in capsys.readouterr().err

    def test_exit_codes(self, tmp_path, capsys):
        assert self.run("simulate", "--price-csv",
                        str(tmp_path / "missing.csv")) == 2
        assert "stage load" in capsys.readouterr().err
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"price_csv": "x", "bogus": 1}))
        assert self.run("simulate", "--config", str(cfg)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_optimize_writes_undefined_sharpe_as_null(self, tmp_path):
        # zero volatility leaves the Sharpe ratio NaN; JSON gets null
        csv = tmp_path / "flat.csv"
        write_constant_csv(csv)
        out = tmp_path / "out"
        assert self.run("optimize", "--price-csv", str(csv),
                        "--out-dir", str(out)) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["stats"]["sharpe"] is None
        assert payload["stats"]["volatility"] == 0.0

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([{"price_csv": "x.csv"}]))
        assert self.run("simulate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "error: stage config: config file must hold a JSON object\n")

    @pytest.mark.parametrize("flag, message", [
        ("--tickers", "empty ticker list"),
        ("--explicit-weights", "empty weight map"),
    ])
    def test_empty_list_flag_rejected(self, flag, message, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("simulate", "--price-csv", "x.csv", flag, ",")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_blank_weight_entry_skipped(self):
        args = cli.build_parser().parse_args(
            ["simulate", "--explicit-weights", "EQA=0.5,,EQB=0.2,EQC=0.3"])
        assert args.explicit_weights == {"EQA": 0.5, "EQB": 0.2, "EQC": 0.3}

    def test_repeated_weight_ticker_rejected(self, capsys):
        # a repeated ticker is refused, not collapsed to its last weight
        with pytest.raises(SystemExit) as exc:
            self.run("optimize", "--portfolio-mode", "explicit-weights",
                     "--explicit-weights", "EQA=0.1,EQA=0.5,EQB=0.2,EQC=0.3")
        assert exc.value.code == 2
        assert ("argument --explicit-weights: ticker 'EQA' given twice"
                in capsys.readouterr().err)

    RUN_FLAGS = {
        "-h", "--help", "--config", "--out-dir", "--price-csv", "--tickers",
        "--trading-days", "--n-paths", "--horizon-years", "--alpha",
        "--initial-value", "--risk-free", "--seed", "--portfolio-mode",
        "--explicit-weights", "--record-paths", "--no-record-paths",
    }

    @staticmethod
    def flags(command: str) -> set[str]:
        """Every option string of one subcommand."""
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        return {s for a in commands[command]._actions for s in a.option_strings}

    @pytest.mark.parametrize("command, extras", [
        ("estimate", set()), ("optimize", set()),
        ("simulate", set()), ("backtest", {"--window"}),
    ])
    def test_run_flags_are_pinned(self, command, extras):
        assert self.flags(command) == self.RUN_FLAGS | extras
        parser = cli.build_parser()
        # an absent flag reads as None, so it never overrides the file
        args = parser.parse_args([command])
        assert all(getattr(args, f.name) is None for f in fields(RunConfig))
        args = parser.parse_args([
            command, "--price-csv", "p.csv", "--tickers", "A, B",
            "--trading-days", "250", "--n-paths", "9", "--horizon-years", "2",
            "--alpha", "0.1", "--initial-value", "5", "--risk-free", "0.01",
            "--seed", "3", "--portfolio-mode", "explicit-weights",
            "--explicit-weights", "A=0.25,B=0.75", "--no-record-paths",
        ])
        assert {f.name: getattr(args, f.name) for f in fields(RunConfig)} == {
            "price_csv": "p.csv", "tickers": ("A", "B"), "trading_days": 250,
            "n_paths": 9, "horizon_years": 2.0, "alpha": 0.1,
            "initial_value": 5.0, "risk_free": 0.01, "seed": 3,
            "portfolio_mode": "explicit-weights",
            "explicit_weights": {"A": 0.25, "B": 0.75}, "record_paths": False,
        }
        assert type(args.horizon_years) is float and type(args.seed) is int

    def test_compare_flags_are_pinned(self):
        assert self.flags("compare") == {
            "-h", "--help", "--config-a", "--config-b", "--label-a",
            "--label-b", "--out-dir",
        }

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("--version")
        assert exc.value.code == 0
        import gbmrisk
        assert gbmrisk.__version__ in capsys.readouterr().out

    def test_module_entry_point(self):
        # python -m gbmrisk runs gbmrisk/__main__.py
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(DATA_DIR.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "gbmrisk", "--version"],
                              capture_output=True, text=True, env=env,
                              check=False)
        assert done.returncode == 0
        assert done.stdout == "0.4.0\n"


class TestPathsCsv:
    """paths.csv is streamed a block of paths at a time; its bytes are
    pinned."""

    @pytest.mark.parametrize("fixture, digest", [
        ("crypto_like",
         "808ab876324239e4cc60d08850f91a40671db1b909530aab8911b1b380f722ee"),
        ("equity_like",
         "9a1443fdf72c24bbb1c79c95be6fb46bac8e562ecca1a9bc729a5024744f3c2a"),
    ], ids=["crypto_like", "equity_like"])
    def test_bytes_are_pinned(self, fixture, digest, tmp_path):
        assert main([
            "simulate", "--price-csv", str(DATA_DIR / f"{fixture}.csv"),
            "--n-paths", "300", "--seed", "42", "--record-paths",
            "--out-dir", str(tmp_path),
        ]) == 0
        data = (tmp_path / "paths.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("kw", [
        {"tickers": ["EQB"], "portfolio_mode": "explicit-weights",
         "explicit_weights": {"EQB": 1.0}, "n_paths": 40},
        {"horizon_years": 2 / 252, "n_paths": 25},
    ], ids=["one-asset", "two-steps"])
    def test_matches_reference_writer(self, kw, tmp_path):
        config = RunConfig(price_csv=str(DATA_DIR / "equity_like.csv"),
                           record_paths=True, **kw)
        result = run_pipeline(config)
        cli.write_report_files(result, tmp_path)
        paths = rebuilt_paths(result.params, result.simulation.config_echo)
        expected = reference_paths_csv(paths, result.params.tickers)
        assert (tmp_path / "paths.csv").read_bytes() == expected

    @pytest.fixture(scope="class")
    def recorded(self):
        """Recorded crypto_like runs, by path count."""
        cache = {}

        def run(n_paths: int):
            if n_paths not in cache:
                cache[n_paths] = run_pipeline(RunConfig(
                    price_csv=str(DATA_DIR / "crypto_like.csv"),
                    n_paths=n_paths, record_paths=True))
            return cache[n_paths]

        return run

    @staticmethod
    def block_paths(result) -> int:
        """Paths per paths.csv block of a write of ``result``."""
        return paths_csv._block_paths(result.simulation.config_echo,
                                      result.params.n_assets)

    @staticmethod
    def on_cpus(monkeypatch, cpus: int) -> None:
        """Make the writer see ``cpus`` CPUs, whatever the machine has."""
        monkeypatch.setattr(forking, "available_cpus", lambda: cpus)

    @staticmethod
    def relay_once_ended(monkeypatch) -> None:
        """Make this process receive a worker's next length only once the
        worker has ended, or after 2 s, so that an offset sent to a worker
        that ended early meets a closed pipe. The workers call no
        _receive, and WNOWAIT leaves each of them to be reaped."""
        real_receive = forking._receive

        def receive_once_ended(pipe, pid):
            deadline = time.monotonic() + 2
            ended = os.WEXITED | os.WNOHANG | os.WNOWAIT
            while (os.waitid(os.P_PID, pid, ended) is None
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            return real_receive(pipe, pid)

        monkeypatch.setattr(forking, "_receive", receive_once_ended)

    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("blocks, extra", [
        (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_bytes_equal_for_any_worker_count(self, workers, blocks, extra,
                                              recorded, tmp_path,
                                              monkeypatch):
        # path counts around the block size: 1, block - 1, block,
        # block + 1 and 2 * block + 3; None keeps this machine's CPU count
        if workers is not None:
            self.on_cpus(monkeypatch, workers)
        result = recorded(blocks * self.block_paths(recorded(1)) + extra)
        paths = rebuilt_paths(result.params, result.simulation.config_echo)
        expected = reference_paths_csv(paths, result.params.tickers)
        cli.write_report_files(result, tmp_path)
        assert (tmp_path / "paths.csv").read_bytes() == expected

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("block", [1, 5, None])
    def test_bytes_equal_for_any_block_size(self, workers, block, recorded,
                                            tmp_path, monkeypatch):
        # blocks of 1 path, 5 paths and the default; 23 paths leave a
        # partial last block at each size; 8 workers outnumber the CPUs
        self.on_cpus(monkeypatch, workers)
        result = recorded(23)
        config = result.simulation.config_echo
        if block is not None:
            monkeypatch.setattr(paths_csv, "_REBUILD_CELLS",
                                block * (config.n_steps + 1)
                                * result.params.n_assets)
            assert self.block_paths(result) == block
        paths = rebuilt_paths(result.params, config)
        expected = reference_paths_csv(paths, result.params.tickers)
        cli.write_report_files(result, tmp_path)
        assert (tmp_path / "paths.csv").read_bytes() == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_any_ticker_bytes(self, workers, tmp_path, monkeypatch):
        # tickers are header cells: non-ASCII, or quoted around a comma;
        # paths.csv writes them as they are, in UTF-8
        lines = (DATA_DIR / "crypto_like.csv").read_text().splitlines()
        lines[0] = 'date,"CR,A",Ωμέγα,Cé'
        prices = tmp_path / "tickers.csv"
        prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.on_cpus(monkeypatch, workers)
        result = run_pipeline(RunConfig(price_csv=str(prices), n_paths=30,
                                        record_paths=True))
        assert result.params.tickers == ("CR,A", "Ωμέγα", "Cé")
        out = tmp_path / "out"
        out.mkdir()
        cli.write_report_files(result, out)
        paths = rebuilt_paths(result.params, result.simulation.config_echo)
        expected = reference_paths_csv(paths, result.params.tickers)
        assert (out / "paths.csv").read_bytes() == expected

    def test_single_block_starts_no_pool(self, recorded, tmp_path,
                                         monkeypatch):
        # workers are clamped to the block count, so one block runs here
        def no_fork():
            raise AssertionError("a single-block write forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.on_cpus(monkeypatch, 8)
        n_paths = self.block_paths(recorded(1))
        cli.write_report_files(recorded(n_paths), tmp_path)
        assert (tmp_path / "paths.csv").stat().st_size > 0

    def test_no_fork_off_linux(self, recorded, tmp_path, monkeypatch):
        # fork without exec is unsafe on other platforms (macOS among them)
        def no_fork():
            raise AssertionError("forked off Linux")

        self.on_cpus(monkeypatch, 2)
        result = recorded(3 * self.block_paths(recorded(1)))
        cli.write_report_files(result, tmp_path)
        expected = (tmp_path / "paths.csv").read_bytes()
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(sys, "platform", "darwin")
        cli.write_report_files(result, tmp_path)
        assert (tmp_path / "paths.csv").read_bytes() == expected

    @pytest.mark.parametrize("fails_from", [0, 2], ids=["first", "later"])
    def test_worker_error_surfaces_and_leaves_no_children(self, fails_from,
                                                          recorded, tmp_path,
                                                          monkeypatch):
        # the forked formatting processes inherit the patched formatter;
        # blocks from the third on fail a worker that still holds an
        # unwritten block, its first, and that may have ended before its
        # first block's offset is sent
        def failing_formatter(*args):
            format_block = real_formatter(*args)

            def fails(start):
                if start >= fails_from * args[2]:
                    raise BlockFailed(os.getpid(), start)
                return format_block(start)
            return fails

        real_formatter = paths_csv._block_formatter
        monkeypatch.setattr(paths_csv, "_block_formatter", failing_formatter)
        self.on_cpus(monkeypatch, 2)
        self.relay_once_ended(monkeypatch)
        result = recorded(100)
        with pytest.raises(BlockFailed) as err:
            cli.write_report_files(result, tmp_path)
        assert err.value.args[0] != os.getpid()  # raised in a child
        # the first failing block's own exception, with its traceback
        assert err.value.args[1] == fails_from * self.block_paths(result)
        assert "BlockFailed" in str(err.value.__cause__)
        assert_no_children()

    def test_workers_format_ahead_of_their_writes(self, recorded, tmp_path,
                                                  monkeypatch):
        # a worker formats its next block before it writes the one it
        # formatted last, and holds at most two: as it formats each of its
        # three blocks it has written 0, 0 and 1. The workers inherit both
        # patches; this process writes no block, so each count starts at 0
        written = [0]
        formatted = tmp_path / "formatted.txt"

        def counting_pwrite(*args):
            written[0] += 1
            return real_pwrite(*args)

        def logging_formatter(*args):
            format_block = real_formatter(*args)

            def logged(start):
                with open(formatted, "a") as log:
                    log.write(f"{os.getpid()} {start} {written[0]}\n")
                return format_block(start)
            return logged

        real_pwrite, real_formatter = os.pwrite, paths_csv._block_formatter
        monkeypatch.setattr(os, "pwrite", counting_pwrite)
        monkeypatch.setattr(paths_csv, "_block_formatter", logging_formatter)
        self.on_cpus(monkeypatch, 2)
        block = self.block_paths(recorded(1))
        cli.write_report_files(recorded(6 * block), tmp_path)
        counts, starts = {}, []
        for line in formatted.read_text().splitlines():
            pid, start, count = map(int, line.split())
            counts.setdefault(pid, []).append(count)
            starts.append(start)
        assert sorted(starts) == list(range(0, 6 * block, block))
        assert os.getpid() not in counts
        assert list(counts.values()) == [[0, 0, 1], [0, 0, 1]]

    def test_workers_start_on_cpus_of_their_own(self, recorded, tmp_path,
                                                 monkeypatch):
        # each worker pins itself to one CPU of this process's mask, worker
        # w to CPU w, so that it starts apart from the others, then gives
        # itself the whole mask back; the workers inherit the patch
        calls = tmp_path / "affinity.txt"

        def logged(pid, cpus):
            with open(calls, "a") as log:
                log.write(f"{os.getpid()} {sorted(cpus)}\n")
            real_setaffinity(pid, cpus)

        real_setaffinity = os.sched_setaffinity
        monkeypatch.setattr(os, "sched_setaffinity", logged)
        self.on_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        out.mkdir()
        cli.write_report_files(recorded(4 * self.block_paths(recorded(1))),
                               out)
        mask = sorted(os.sched_getaffinity(0))
        by_worker = {}
        for line in calls.read_text().splitlines():
            pid, cpus = line.split(" ", 1)
            by_worker.setdefault(int(pid), []).append(cpus)
        assert os.getpid() not in by_worker
        assert sorted(by_worker.values()) == sorted(
            [str([mask[w % len(mask)]]), str(mask)] for w in range(2))

    def test_worker_that_dies_is_reported(self, recorded, tmp_path,
                                          monkeypatch):
        real_formatter = paths_csv._block_formatter

        def dying_formatter(*args):
            format_block = real_formatter(*args)

            def dies_on_third(start):
                if start == 2 * args[2]:
                    os._exit(3)
                return format_block(start)
            return dies_on_third

        monkeypatch.setattr(paths_csv, "_block_formatter", dying_formatter)
        self.on_cpus(monkeypatch, 2)
        self.relay_once_ended(monkeypatch)
        with pytest.raises(ChildProcessError, match="ended before its block"):
            cli.write_report_files(recorded(100), tmp_path)
        assert_no_children()

    def test_worker_that_dies_holding_a_block_is_reported(self, recorded,
                                                          tmp_path,
                                                          monkeypatch):
        # each worker sends its second block's length, then dies as it
        # would read its first block's offset
        def dies(*args):
            os._exit(3)

        monkeypatch.setattr(forking, "_place", dies)
        self.on_cpus(monkeypatch, 2)
        self.relay_once_ended(monkeypatch)
        with pytest.raises(ChildProcessError, match="ended before its offset"):
            cli.write_report_files(recorded(100), tmp_path)
        assert_no_children()

    def test_worker_that_dies_writing_is_reported(self, recorded, tmp_path,
                                                  monkeypatch):
        # two blocks on two workers: each sends its length and gets its
        # offset, then dies in its write, so only the exit status tells
        def dies(*args):
            os._exit(3)

        monkeypatch.setattr(os, "pwrite", dies)
        self.on_cpus(monkeypatch, 2)
        result = recorded(2 * self.block_paths(recorded(1)))
        with pytest.raises(ChildProcessError, match="exited with status"):
            cli.write_report_files(result, tmp_path)
        assert_no_children()

    def test_writer_error_stops_the_workers(self, recorded, tmp_path,
                                            monkeypatch):
        # a failure in this process, with every worker formatting or
        # waiting for its offset, still reaps them all; the workers call
        # no _receive, so the patch fails only here
        real_receive = forking._receive
        received = []

        def receive_one_then_fail(*args):
            received.append(real_receive(*args))
            if len(received) == 2:  # that worker now waits for its offset
                raise BlockFailed(os.getpid())
            return received[-1]

        monkeypatch.setattr(forking, "_receive", receive_one_then_fail)
        self.on_cpus(monkeypatch, 2)
        with pytest.raises(BlockFailed) as err:
            cli.write_report_files(recorded(100), tmp_path)
        assert err.value.args[0] == os.getpid()
        assert_no_children()

    @pytest.mark.parametrize("blocks", [2, 9])
    def test_worker_write_error_surfaces(self, blocks, recorded, tmp_path,
                                         monkeypatch):
        # each worker writes its own blocks: what its write raised, such as
        # a full disk, is raised here with its traceback, its last block's
        # write too (two blocks on two workers)
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "pwrite", full_disk)
        self.on_cpus(monkeypatch, 2)
        result = recorded(blocks * self.block_paths(recorded(1)))
        with pytest.raises(OSError) as err:
            cli.write_report_files(result, tmp_path)
        assert err.value.errno == errno.ENOSPC
        assert "full_disk" in str(err.value.__cause__)
        assert_no_children()

    def test_pooled_write_leaves_no_children_or_warnings(self, recorded,
                                                          tmp_path,
                                                          monkeypatch):
        # Python 3.12+ warns when it forks a process that runs threads
        # (BLAS ones included); the pool must not trip that here
        self.on_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.write_report_files(recorded(100), tmp_path)
        assert_no_children()

    @staticmethod
    def writer_peak(tmp_path) -> tuple[int, int]:
        """This process's traced peak over a 200-path write, and the bytes
        of one paths.csv block."""
        config = RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"),
                           n_paths=200, record_paths=True)
        result = run_pipeline(config)
        tracemalloc.start()
        try:
            cli.write_report_files(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "paths.csv").stat().st_size
        assert size > 4_000_000
        return peak, size * TestPathsCsv.block_paths(result) // 200

    def test_writer_memory_is_bounded(self, tmp_path, monkeypatch):
        # one CPU: this process formats every block, one at a time; the
        # all-rows writer peaked at ~22 MB here, in proportion to the file
        self.on_cpus(monkeypatch, 1)
        peak, _ = self.writer_peak(tmp_path)
        assert peak < 1_000_000

    def test_writer_memory_is_bounded_on_many_cpus(self, tmp_path,
                                                   monkeypatch):
        # the formatting processes write their own rows, so this one holds
        # none of them, whatever the process count
        self.on_cpus(monkeypatch, 8)
        peak, block = self.writer_peak(tmp_path)
        assert peak < block / 3

    def test_recorded_run_memory_is_flat_in_paths(self, tmp_path,
                                                  monkeypatch):
        # paths are rebuilt from their keys as paths.csv streams, so nothing
        # holds every path. 25-step paths keep the test fast.
        monkeypatch.setattr(forking, "available_cpus", lambda: 1)

        def peak(n_paths: int) -> int:
            config = RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"),
                               n_paths=n_paths, horizon_years=0.1,
                               record_paths=True)
            tracemalloc.start()
            try:
                cli.write_report_files(run_pipeline(config), tmp_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # holding every path would add 3,072 x 26 x 3 floats, 1.9 MB
        assert peak(4096) - peak(1024) < 1_000_000


class TestFitPath:
    """The benchmark traces each entry point by swapping these gbmrisk.cli
    globals, so every entry point must call each of them through the module,
    exactly once."""

    LAYERS = ("load_prices", "log_returns", "estimate_params")

    @pytest.fixture
    def calls(self, monkeypatch) -> dict:
        counts = dict.fromkeys(self.LAYERS, 0)
        for name in self.LAYERS:
            real = getattr(cli, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        return counts

    @pytest.mark.parametrize(
        "entry", ["run_pipeline", "estimate", "optimize", "run_backtest",
                  "run_backtest_explicit"]
    )
    def test_entry_calls_each_layer_once(self, entry, calls, tmp_path):
        csv = str(DATA_DIR / "equity_like.csv")
        config = RunConfig(price_csv=csv, n_paths=50)
        if entry == "run_pipeline":
            run_pipeline(config)
        elif entry == "run_backtest":
            run_backtest(config, window=100)
        elif entry == "run_backtest_explicit":
            run_backtest(RunConfig(
                price_csv=csv, portfolio_mode="explicit-weights",
                explicit_weights={"EQA": 0.2, "EQB": 0.3, "EQC": 0.5},
            ), window=100)
        else:
            assert main([entry, "--price-csv", csv,
                         "--out-dir", str(tmp_path)]) == 0
        assert calls == dict.fromkeys(self.LAYERS, 1)

    def test_benchmark_tracer_counts_simulate(self, monkeypatch):
        # the tracer's simulate counter reads the result's fields; tier-1
        # does not run perfbench's own tests, so a field it reads that goes
        # missing fails here
        monkeypatch.syspath_prepend(str(DATA_DIR.parent / "perfbench"))
        spans = importlib.import_module("spans")
        for record_paths in (False, True):
            config = RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"),
                               n_paths=50, record_paths=record_paths)
            tracer = spans.Tracer()
            with tracer.installed(0):
                run_pipeline(config)
            counts = [s.counts for s in tracer.spans if s.name == "simulate"]
            assert len(counts) == 1
            assert set(counts[0]) == {"normals", "path_streams",
                                      "bytes_computed"}
            # numpy's Generator draws only the terminal normals of the
            # paths that leave the ziggurat fast path; the rest come from
            # the vector draw, which the probe does not see
            fallback = sum(leaves_fast_path(config.seed, p, 3, 2**63)
                           for p in range(50))
            assert 0 < fallback < 50
            assert counts[0]["normals"] == fallback * 3


def test_run_benchmark_script_smoke(tmp_path, monkeypatch, capsys):
    script = DATA_DIR.parent / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(DATA_DIR.parent)  # the script's default --data-dir
    assert module.main(["--n-paths", "50", "--out-dir", str(tmp_path)]) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if line.startswith(("crypto_like ", "equity_like "))]
    pairs = [[fx, mode] for fx in ("crypto_like", "equity_like")
             for mode in ("mvp", "max_sharpe")]
    assert rows == pairs
    for fixture, mode in pairs:
        for name in ("report.json", "percentiles.csv"):
            assert (tmp_path / fixture / mode / name).is_file()


def key_shape(row):
    """The nested key structure of a JSON row, values dropped."""
    if isinstance(row, dict):
        return {k: key_shape(v) for k, v in row.items()}
    return None


@pytest.fixture
def scaling(monkeypatch):
    """scripts/scaling.py, imported as a module."""
    monkeypatch.syspath_prepend(str(DATA_DIR.parent / "scripts"))
    return importlib.import_module("scaling")


def test_scaling_scripts_smoke(scaling):
    # the script's rows keep the keys of the committed record it made
    root = DATA_DIR.parent
    committed = json.loads((root / "BENCH_26.json").read_text())
    for rows, row in (
        ("shapes", scaling.measure_shape(root / "src", 50, 3, 1)),
        ("rows", scaling.measure_row(root / "src", 20, 1)),
    ):
        for record in committed.values():
            for pinned in record[rows]:
                assert key_shape(row) == key_shape(pinned), rows


def test_scaling_save_prices_pairs_two_packages(scaling, monkeypatch):
    # two rounds, each running both packages' children; a row keeps the
    # keys of the committed record, the baseline's those of its own side
    monkeypatch.setattr(scaling, "REPEATS", 2)
    src = DATA_DIR.parent / "src"
    row = scaling.measure_save(src, 3, 1, baseline=src)
    committed = json.loads((DATA_DIR.parent / "BENCH_30.json").read_text())
    for pinned in committed["change"]["save_prices"]:
        assert key_shape(row) == key_shape(pinned)
    side = {key: row[key] for key in ("cold_s", "warm_s", "peak_rss_mb")}
    assert key_shape(row["baseline"]) == key_shape(side)
    assert len(row["cold_s"]["runs_s"]) == len(
        row["baseline"]["cold_s"]["runs_s"]) == 2


def test_scaling_child_reports_its_own_peak(scaling):
    # a child's peak RSS is its own: ru_maxrss would carry across exec the
    # peak of this process, which holds a 64 MiB array, more than the
    # child's whole peak
    held = np.ones(2**23)
    row = scaling.run_child(DATA_DIR.parent / "src", 1, "record", 20)
    assert row["peak_rss_b"] < held.nbytes


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity mask here")
def test_one_cpu_mask_runs_serially(tmp_path, monkeypatch):
    # the affinity mask is the one worker rule: on one CPU neither the
    # simulation (3 chunks here) nor the paths.csv writer (250 blocks)
    # enters the fork routine or starts a process
    def refuse(*args, **kwargs):
        raise AssertionError("started a worker on one CPU")

    monkeypatch.setattr(forking, "run_forked", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    config = RunConfig(price_csv=str(DATA_DIR / "crypto_like.csv"),
                       n_paths=3_000, record_paths=True)
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        written = cli.write_report_files(run_pipeline(config), tmp_path)
    finally:
        os.sched_setaffinity(0, mask)
    assert tmp_path / "paths.csv" in written


def test_readme_commands_parse():
    # every `gbmrisk ...` command in the README's bash blocks, with its
    # `\` continuations joined, is accepted by the real parser
    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("gbmrisk "):
                commands.append(shlex.split(line)[1:])
    assert {argv[0] for argv in commands} == {
        "estimate", "optimize", "simulate", "compare", "backtest"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
