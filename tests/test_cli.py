"""CLI and pipeline integration tests.

The end-to-end oracle here recomputes the whole pipeline from the CSV with
plain numpy (csv module, log/diff, population covariance, LAPACK Cholesky,
raw counter-based streams) and must agree with the package's report.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gbmrisk.cli import (
    PipelineError,
    RunConfig,
    compare_portfolios,
    load_run_config,
    main,
    run_backtest,
    run_pipeline,
)

from conftest import DATA_DIR


def write_constant_csv(path: Path, days: int = 30, price: float = 50.0) -> None:
    rows = ["date,ONLY"]
    for d in range(days):
        rows.append(f"2024-02-{d + 1:02d},{price}")
    path.write_text("\n".join(rows) + "\n")


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

    def test_range_validation(self):
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", alpha=1.5)
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", n_paths=0)
        with pytest.raises(PipelineError):
            RunConfig(price_csv="x", initial_value=0.0)

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
    ])
    def test_wrong_json_type_rejected(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"price_csv": "x", key: value}))
        with pytest.raises(PipelineError, match=f"stage config: {key} must be"):
            load_run_config(str(cfg), {})

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"price_csv": "x", "initial_value": 5000,
                                   "risk_free": 0}))
        config = load_run_config(str(cfg), {})
        assert (config.initial_value, config.risk_free) == (5000, 0)

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
        dt = 1.0 / 252
        drift = (mu - np.diag(cov) / 2.0) * dt
        s0 = prices[-1]
        w = np.array([w_map[t] for t in tickers])
        values = np.empty(200)
        for p in range(200):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([17, p], dtype=np.uint64))
            )
            z = gen.standard_normal(252 * 3).reshape(252, 3)
            log_path = np.cumsum(drift + math.sqrt(dt) * (z @ l.T), axis=0)
            terminal = s0 * np.exp(log_path[-1])
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

    def test_simulate_writes_deterministic_reports(self, tmp_path):
        base = [
            "simulate", "--price-csv", str(DATA_DIR / "equity_like.csv"),
            "--n-paths", "500",
        ]
        out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
        assert self.run(*base, "--out-dir", str(out1)) == 0
        assert self.run(*base, "--out-dir", str(out2)) == 0
        assert self.run(*base, "--out-dir", str(out3), "--workers", "4") == 0
        ref = (out1 / "report.json").read_bytes()
        assert (out2 / "report.json").read_bytes() == ref
        assert (out3 / "report.json").read_bytes() == ref
        csv_ref = (out1 / "percentiles.csv").read_bytes()
        assert (out3 / "percentiles.csv").read_bytes() == csv_ref
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

    def test_backtest_no_lookahead_weights(self, tmp_path):
        # weights must come from the first window+1 rows only
        csv = tmp_path / "hist.csv"
        write_gbm_csv(csv, n_rows=300, seed=10)
        config = RunConfig(price_csv=str(csv))
        _, weights_full, _ = run_backtest(config, window=120)

        truncated = tmp_path / "head.csv"
        lines = csv.read_text().strip().splitlines()
        truncated.write_text("\n".join(lines[: 1 + 123]) + "\n")
        _, weights_head, _ = run_backtest(
            RunConfig(price_csv=str(truncated)), window=120
        )
        assert np.array_equal(weights_full.w, weights_head.w)

    def test_backtest_explicit_weights(self, tmp_path):
        csv = tmp_path / "hist.csv"
        write_gbm_csv(csv, n_rows=200, seed=11)
        result, weights, _ = run_backtest(
            RunConfig(price_csv=str(csv),
                      portfolio_mode="explicit-weights",
                      explicit_weights={"GA": 0.7, "GB": 0.3}),
            window=50,
        )
        assert weights.as_dict() == {"GA": 0.7, "GB": 0.3}
        assert result.n_tests == 199 - 50

    def test_exit_codes(self, tmp_path, capsys):
        assert self.run("simulate", "--price-csv",
                        str(tmp_path / "missing.csv")) == 2
        assert "stage load" in capsys.readouterr().err
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"price_csv": "x", "bogus": 1}))
        assert self.run("simulate", "--config", str(cfg)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("--version")
        assert exc.value.code == 0
        import gbmrisk
        assert gbmrisk.__version__ in capsys.readouterr().out
