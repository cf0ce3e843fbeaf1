"""Batch command-line surface for the risk pipeline.

Subcommands: estimate (parameters only), optimize (weights only),
simulate (full pipeline), compare (two configs side by side), backtest
(rolling VaR violation counter). Flags mirror RunConfig fields one-to-one
in kebab-case; an optional JSON config file supplies the same keys and
flags override it. Reports are emitted as deterministic JSON (sorted keys,
fixed indentation) so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .estimation import MarketParams, estimate_params
from .market_data import PriceSeries, load_prices, log_returns
from .optimizer import (
    OptimizerOutput,
    PortfolioStats,
    WeightVector,
    max_sharpe,
    min_variance,
    portfolio_stats,
)
from .risk import (
    DEFAULT_BACKTEST_WINDOW,
    BacktestResult,
    RiskReport,
    build_report,
    rolling_var_backtest,
)
from .simulation import (
    SimConfig,
    SimulationError,
    SimulationResult,
    simulate,
    validate_seed,
)

__all__ = [
    "PipelineError",
    "RunConfig",
    "PipelineResult",
    "load_run_config",
    "run_pipeline",
    "write_report_files",
    "compare_portfolios",
    "run_backtest",
    "main",
]

PORTFOLIO_MODES = ("mvp", "max_sharpe", "explicit-weights")
REPORT_KEYS = (
    "weights",
    "stats",
    "var_value",
    "potential_loss",
    "chance_of_loss",
    "percentiles",
    "config_echo",
)
OUTPUT_DIR_ENV = "GBMRISK_OUTPUT_DIR"
# Types of the scalar RunConfig fields; a float field also takes an int. A
# bool is an int to Python, so it is refused unless the field is a bool.
_SCALAR_TYPES = {
    "trading_days": int, "n_paths": int, "seed": int,
    "horizon_years": float, "alpha": float, "initial_value": float,
    "risk_free": float, "record_paths": bool,
}


class PipelineError(Exception):
    """A pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run. Defaults: 10,000 paths over one year in 1/252
    steps, 5% VaR, $100,000 start."""

    price_csv: str
    tickers: tuple[str, ...] | None = None
    trading_days: int = 252
    n_paths: int = 10_000
    horizon_years: float = 1.0
    alpha: float = 0.05
    initial_value: float = 100_000.0
    risk_free: float = 0.0
    seed: int = 42
    portfolio_mode: str = "mvp"
    explicit_weights: dict[str, float] | None = None
    record_paths: bool = False

    def __post_init__(self):
        mode = _canonical_mode(self.portfolio_mode)
        object.__setattr__(self, "portfolio_mode", mode)
        if self.tickers is not None:
            object.__setattr__(self, "tickers", tuple(self.tickers))
        if not self.price_csv:
            raise PipelineError("config", "price_csv is required")
        if self.trading_days < 1:
            raise PipelineError("config", "trading_days must be >= 1")
        if self.n_paths < 1:
            raise PipelineError("config", "n_paths must be >= 1")
        if not self.horizon_years > 0.0:
            raise PipelineError("config", "horizon_years must be > 0")
        if not 0.0 < self.alpha < 1.0:
            raise PipelineError("config", f"alpha {self.alpha!r} outside (0, 1)")
        if not self.initial_value > 0.0:
            raise PipelineError("config", "initial_value must be > 0")
        try:
            validate_seed(self.seed)
        except SimulationError as err:
            raise PipelineError("config", str(err)) from None
        has_weights = self.explicit_weights is not None
        if (mode == "explicit-weights") != has_weights:
            raise PipelineError(
                "config",
                "explicit_weights must be given exactly when "
                "portfolio_mode is explicit-weights",
            )


@dataclass(frozen=True)
class PipelineResult:
    """Everything a finished run produced, plus the serializable report."""

    config: RunConfig
    params: MarketParams
    weights: WeightVector
    stats: PortfolioStats
    warning: str | None
    simulation: SimulationResult
    report: RiskReport
    report_json: dict


def _canonical_mode(mode: str) -> str:
    normalized = str(mode).strip().lower().replace("-", "_")
    by_key = {"mvp": "mvp", "max_sharpe": "max_sharpe",
              "explicit_weights": "explicit-weights"}
    if normalized not in by_key:
        raise PipelineError(
            "config",
            f"portfolio_mode {mode!r} not one of {list(PORTFOLIO_MODES)}",
        )
    return by_key[normalized]


def _stage(stage: str, fn, *args, **kwargs):
    # Uniform error surface: any module error is re-raised with its stage.
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(stage, str(err)) from err


def load_run_config(
    config_path: str | None, overrides: dict | None = None
) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    Unknown file keys are an error, not silently ignored; so is a scalar of
    the wrong JSON type (a float or bool count, a string rate, a non-bool
    record_paths). Override values of None mean "flag not given".
    """
    known = {f.name for f in fields(RunConfig)}
    merged: dict = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise PipelineError("config", f"cannot read {config_path}: {err}")
        if not isinstance(raw, dict):
            raise PipelineError("config", "config file must hold a JSON object")
        unknown = sorted(set(raw) - known)
        if unknown:
            raise PipelineError("config", f"unknown config keys: {unknown}")
        merged.update(raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in known:
            raise PipelineError("config", f"unknown config key: {key}")
        merged[key] = value
    for key, value in merged.items():
        want = _SCALAR_TYPES.get(key)
        if want is None:
            continue
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
            raise PipelineError(
                "config", f"{key} must be {want.__name__}, got {value!r}"
            )
    if "tickers" in merged and merged["tickers"] is not None:
        merged["tickers"] = tuple(str(t) for t in merged["tickers"])
    if "explicit_weights" in merged and merged["explicit_weights"] is not None:
        merged["explicit_weights"] = {
            str(t): float(w) for t, w in dict(merged["explicit_weights"]).items()
        }
    if "price_csv" not in merged:
        raise PipelineError("config", "price_csv is required")
    try:
        return RunConfig(**merged)
    except PipelineError:
        raise
    except (TypeError, ValueError) as err:
        raise PipelineError("config", str(err))


def _select(series: PriceSeries, tickers: tuple[str, ...] | None) -> PriceSeries:
    if tickers is None:
        return series
    return series.select(tickers)


def _explicit_weight_vector(
    tickers: tuple[str, ...], mapping: dict[str, float]
) -> WeightVector:
    missing = [t for t in tickers if t not in mapping]
    extra = sorted(set(mapping) - set(tickers))
    if missing or extra:
        raise ValueError(
            f"explicit weights must cover exactly {list(tickers)}; "
            f"missing {missing}, unexpected {extra}"
        )
    return WeightVector(tickers, np.array([mapping[t] for t in tickers]))


def _choose_weights(
    config: RunConfig, params: MarketParams
) -> tuple[WeightVector, PortfolioStats, str | None]:
    if config.portfolio_mode == "mvp":
        out: OptimizerOutput = min_variance(params)
    elif config.portfolio_mode == "max_sharpe":
        out = max_sharpe(params, risk_free=config.risk_free)
    else:
        wv = _explicit_weight_vector(params.tickers, config.explicit_weights)
        out = OptimizerOutput(
            weights=wv, stats=portfolio_stats(wv, params, config.risk_free)
        )
    return out.weights, out.stats, out.warning


def run_pipeline(config: RunConfig, workers: int = 1) -> PipelineResult:
    """Execute load -> align -> returns -> estimate -> optimize ->
    simulate -> risk and assemble the report."""
    series = _stage("load", load_prices, config.price_csv)
    series = _stage("align", _select, series, config.tickers)
    returns = _stage("returns", log_returns, series)
    params = _stage(
        "estimate", estimate_params, returns, trading_days=config.trading_days
    )
    weights, stats, warning = _stage("optimize", _choose_weights, config, params)
    sim_config = _stage(
        "simulate",
        SimConfig,
        weights=weights,
        n_paths=config.n_paths,
        horizon_years=config.horizon_years,
        steps_per_year=config.trading_days,
        seed=config.seed,
        initial_value=config.initial_value,
        initial_prices=series.prices[-1],
        record_paths=config.record_paths,
    )
    sim = _stage("simulate", simulate, params, sim_config, workers=workers)
    report = _stage("risk", build_report, sim, alpha=config.alpha)
    report_json = _report_dict(config, params, weights, stats, warning, sim, report)
    return PipelineResult(
        config=config,
        params=params,
        weights=weights,
        stats=stats,
        warning=warning,
        simulation=sim,
        report=report,
        report_json=report_json,
    )


def _report_dict(
    config: RunConfig,
    params: MarketParams,
    weights: WeightVector,
    stats: PortfolioStats,
    warning: str | None,
    sim: SimulationResult,
    report: RiskReport,
) -> dict:
    sim_config = sim.config_echo
    config_echo = {
        "price_csv": config.price_csv,
        "tickers": list(params.tickers),
        "trading_days": config.trading_days,
        "n_paths": config.n_paths,
        "n_steps": sim_config.n_steps,
        "horizon_years": config.horizon_years,
        "alpha": config.alpha,
        "initial_value": config.initial_value,
        "risk_free": config.risk_free,
        "seed": config.seed,
        "portfolio_mode": config.portfolio_mode,
        "explicit_weights": config.explicit_weights,
        "record_paths": config.record_paths,
        "initial_prices": {
            t: float(p) for t, p in zip(params.tickers, sim_config.initial_prices)
        },
        "jitter": sim.jitter,
        "warning": warning,
        "version": __version__,
    }
    return {
        "weights": weights.as_dict(),
        "stats": {
            "expected_return": stats.expected_return,
            "variance": stats.variance,
            "volatility": stats.volatility,
            "sharpe": stats.sharpe,
        },
        "var_value": report.var_value,
        "potential_loss": report.potential_loss,
        "chance_of_loss": report.chance_of_loss,
        "percentiles": {repr(level): v for level, v in report.percentiles.items()},
        "config_echo": config_echo,
    }


def _sanitize(obj):
    """Make an object JSON-safe and deterministic: numpy scalars to Python
    scalars, non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _json_bytes(obj) -> bytes:
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def resolve_out_dir(flag_value: str | None) -> Path:
    env_value = os.environ.get(OUTPUT_DIR_ENV)
    if flag_value is not None:
        return Path(flag_value)
    if env_value:
        return Path(env_value)
    return Path(".")


def write_report_files(result: PipelineResult, out_dir: Path) -> list[Path]:
    """Emit report.json, percentiles.csv, and (when recorded) paths.csv."""
    written = []
    report_path = out_dir / "report.json"
    _write_bytes(report_path, _json_bytes(result.report_json))
    written.append(report_path)

    lines = ["percentile,value"]
    for level, value in sorted(result.report.percentiles.items()):
        lines.append(f"{level!r},{value!r}")
    csv_path = out_dir / "percentiles.csv"
    _write_bytes(csv_path, ("\n".join(lines) + "\n").encode("utf-8"))
    written.append(csv_path)

    paths = result.simulation.paths
    if paths is not None:
        tickers = result.params.tickers
        rows = ["path,step,ticker,price"]
        n_paths, n_rows, _ = paths.shape
        for p in range(n_paths):
            for step in range(n_rows):
                for a, ticker in enumerate(tickers):
                    rows.append(f"{p},{step},{ticker},{float(paths[p, step, a])!r}")
        paths_path = out_dir / "paths.csv"
        _write_bytes(paths_path, ("\n".join(rows) + "\n").encode("utf-8"))
        written.append(paths_path)
    return written


def compare_portfolios(
    config_a: RunConfig,
    config_b: RunConfig,
    label_a: str = "a",
    label_b: str = "b",
    workers: int = 1,
) -> dict:
    """Run both configs and tabulate VaR and chance of loss side by side."""
    def side(tag: str, label: str, config: RunConfig) -> dict:
        try:
            result = run_pipeline(config, workers=workers)
        except PipelineError as err:
            raise PipelineError(f"{tag}:{err.stage}", f"[{label}] {err}") from err
        return {
            "label": label,
            "var_value": result.report.var_value,
            "potential_loss": result.report.potential_loss,
            "chance_of_loss": result.report.chance_of_loss,
            "report": result.report_json,
        }

    return {"a": side("a", label_a, config_a), "b": side("b", label_b, config_b)}


def _comparison_table(comparison: dict) -> str:
    header = f"{'portfolio':<24} {'var_value':>16} {'chance_of_loss':>16}"
    rows = [header, "-" * len(header)]
    for key in ("a", "b"):
        row = comparison[key]
        rows.append(
            f"{row['label']:<24} {row['var_value']:>16.2f} "
            f"{row['chance_of_loss']:>16.4f}"
        )
    return "\n".join(rows)


def run_backtest(
    config: RunConfig, window: int = DEFAULT_BACKTEST_WINDOW
) -> tuple[BacktestResult, WeightVector, dict]:
    """Rolling VaR backtest over the price history itself.

    Weights for mvp/max_sharpe modes are fitted on the first window+1 price
    rows only, so no information later than the first forecast's own
    trailing window leaks into portfolio construction.
    """
    series = _stage("load", load_prices, config.price_csv)
    series = _stage("align", _select, series, config.tickers)
    if config.portfolio_mode == "explicit-weights":
        weights = _stage(
            "optimize", _explicit_weight_vector, series.tickers,
            config.explicit_weights,
        )
    else:
        if series.n_dates < window + 2:
            raise PipelineError(
                "backtest",
                f"need at least window + 2 = {window + 2} price rows, "
                f"got {series.n_dates}",
            )
        head = PriceSeries(
            tickers=series.tickers,
            dates=series.dates[: window + 1],
            prices=series.prices[: window + 1],
        )
        head_params = _stage(
            "estimate", estimate_params, log_returns(head),
            trading_days=config.trading_days,
        )
        weights, _, _ = _stage("optimize", _choose_weights, config, head_params)
    gross = series.prices / series.prices[0]
    values = config.initial_value * (gross @ weights.w)
    result = _stage(
        "risk", rolling_var_backtest, values, alpha=config.alpha, window=window
    )
    summary = {
        "alpha": result.alpha,
        "window": result.window,
        "n_tests": result.n_tests,
        "n_violations": result.n_violations,
        "violation_rate": result.violation_rate,
        "portfolio_mode": config.portfolio_mode,
        "weights": weights.as_dict(),
        "price_csv": config.price_csv,
        "seed": config.seed,
        "version": __version__,
    }
    return result, weights, summary


def _params_dict(params: MarketParams, n_obs: int) -> dict:
    tickers = params.tickers
    return {
        "tickers": list(tickers),
        "trading_days": params.trading_days,
        "n_observations": n_obs,
        "mu": {t: float(m) for t, m in zip(tickers, params.mu)},
        "sigma": {t: float(s) for t, s in zip(tickers, params.sigma)},
        "cov": {
            ti: {tj: float(params.cov[i, j]) for j, tj in enumerate(tickers)}
            for i, ti in enumerate(tickers)
        },
        "version": __version__,
    }


def _parse_ticker_list(text: str) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise argparse.ArgumentTypeError("empty ticker list")
    return items


def _parse_weight_map(text: str) -> dict[str, float]:
    mapping: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ticker, _, value = part.partition("=")
        if not ticker or not value:
            raise argparse.ArgumentTypeError(
                f"bad weight entry {part!r}; expected TICKER=WEIGHT"
            )
        mapping[ticker.strip()] = float(value)
    if not mapping:
        raise argparse.ArgumentTypeError("empty weight map")
    return mapping


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--price-csv", help="price history CSV (date column first)")
    parser.add_argument(
        "--tickers", type=_parse_ticker_list,
        help="comma-separated ordered ticker subset",
    )
    parser.add_argument("--trading-days", type=int)
    parser.add_argument("--n-paths", type=int)
    parser.add_argument("--horizon-years", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--initial-value", type=float)
    parser.add_argument("--risk-free", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--portfolio-mode",
        help="mvp, max_sharpe, or explicit-weights",
    )
    parser.add_argument(
        "--explicit-weights", type=_parse_weight_map,
        help="TICKER=W,TICKER=W,... (explicit-weights mode)",
    )
    parser.add_argument(
        "--record-paths", action=argparse.BooleanOptionalAction, default=None
    )
    parser.add_argument("--out-dir", help=f"output directory (or ${OUTPUT_DIR_ENV})")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        "price_csv": args.price_csv,
        "tickers": args.tickers,
        "trading_days": args.trading_days,
        "n_paths": args.n_paths,
        "horizon_years": args.horizon_years,
        "alpha": args.alpha,
        "initial_value": args.initial_value,
        "risk_free": args.risk_free,
        "seed": args.seed,
        "portfolio_mode": args.portfolio_mode,
        "explicit_weights": args.explicit_weights,
        "record_paths": args.record_paths,
    }
    return load_run_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmrisk",
        description="GBM portfolio risk pipeline: estimate, optimize, "
        "simulate, compare, backtest.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_estimate = sub.add_parser("estimate", help="fit drift and covariance")
    _add_run_flags(p_estimate)

    p_optimize = sub.add_parser("optimize", help="solve portfolio weights")
    _add_run_flags(p_optimize)

    p_simulate = sub.add_parser("simulate", help="run the full pipeline")
    _add_run_flags(p_simulate)
    p_simulate.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker threads (results are identical for any value)",
    )

    p_compare = sub.add_parser("compare", help="run two configs side by side")
    p_compare.add_argument("--config-a", required=True)
    p_compare.add_argument("--config-b", required=True)
    p_compare.add_argument("--label-a")
    p_compare.add_argument("--label-b")
    p_compare.add_argument("--workers", type=int, default=1)
    p_compare.add_argument("--out-dir")

    p_backtest = sub.add_parser("backtest", help="count rolling VaR violations")
    _add_run_flags(p_backtest)
    p_backtest.add_argument(
        "--window", type=int, default=DEFAULT_BACKTEST_WINDOW,
        help="trailing return window per forecast",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            config = _config_from_args(args)
            series = _stage("load", load_prices, config.price_csv)
            series = _stage("align", _select, series, config.tickers)
            returns = _stage("returns", log_returns, series)
            params = _stage(
                "estimate", estimate_params, returns,
                trading_days=config.trading_days,
            )
            out_dir = resolve_out_dir(args.out_dir)
            path = out_dir / "params.json"
            _write_bytes(
                path, _json_bytes(_params_dict(params, returns.returns.shape[0]))
            )
            for t, m, s in zip(params.tickers, params.mu, params.sigma):
                print(f"{t}: mu={m:.6f} sigma={s:.6f}")
            print(f"wrote {path}")
        elif args.command == "optimize":
            config = _config_from_args(args)
            series = _stage("load", load_prices, config.price_csv)
            series = _stage("align", _select, series, config.tickers)
            returns = _stage("returns", log_returns, series)
            params = _stage(
                "estimate", estimate_params, returns,
                trading_days=config.trading_days,
            )
            weights, stats, warning = _stage(
                "optimize", _choose_weights, config, params
            )
            out_dir = resolve_out_dir(args.out_dir)
            path = out_dir / "weights.json"
            payload = {
                "portfolio_mode": config.portfolio_mode,
                "risk_free": config.risk_free,
                "weights": weights.as_dict(),
                "stats": {
                    "expected_return": stats.expected_return,
                    "variance": stats.variance,
                    "volatility": stats.volatility,
                    "sharpe": stats.sharpe,
                },
                "warning": warning,
                "version": __version__,
            }
            _write_bytes(path, _json_bytes(payload))
            for t, w in weights.as_dict().items():
                print(f"{t}: {w:.6f}")
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            print(f"wrote {path}")
        elif args.command == "simulate":
            config = _config_from_args(args)
            result = run_pipeline(config, workers=args.workers)
            out_dir = resolve_out_dir(args.out_dir)
            written = write_report_files(result, out_dir)
            report = result.report
            print(
                f"VaR({report.var_level:.0%}) value: {report.var_value:.2f}  "
                f"potential loss: {report.potential_loss:.2f}  "
                f"chance of loss: {report.chance_of_loss:.4f}"
            )
            if result.warning:
                print(f"warning: {result.warning}", file=sys.stderr)
            for path in written:
                print(f"wrote {path}")
        elif args.command == "compare":
            config_a = load_run_config(args.config_a, {})
            config_b = load_run_config(args.config_b, {})
            label_a = args.label_a or Path(args.config_a).stem
            label_b = args.label_b or Path(args.config_b).stem
            comparison = compare_portfolios(
                config_a, config_b, label_a, label_b, workers=args.workers
            )
            out_dir = resolve_out_dir(args.out_dir)
            path = out_dir / "comparison.json"
            _write_bytes(path, _json_bytes(comparison))
            print(_comparison_table(comparison))
            print(f"wrote {path}")
        elif args.command == "backtest":
            config = _config_from_args(args)
            result, _, summary = run_backtest(config, window=args.window)
            out_dir = resolve_out_dir(args.out_dir)
            path = out_dir / "backtest.json"
            _write_bytes(path, _json_bytes(summary))
            print(
                f"violations: {result.n_violations}/{result.n_tests} "
                f"(rate {result.violation_rate:.4f}, alpha {result.alpha})"
            )
            print(f"wrote {path}")
        else:  # pragma: no cover - argparse enforces the choices
            raise PipelineError("cli", f"unknown command {args.command!r}")
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
