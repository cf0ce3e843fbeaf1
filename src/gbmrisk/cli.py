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
from dataclasses import asdict, dataclass, fields
from decimal import Decimal
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
from .paths_csv import write_paths_csv
from .rules import CONTAINERS, RULES, check, check_items, shown, step_count
from .simulation import SimConfig, SimulationResult, simulate

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


class PipelineError(Exception):
    """A pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):  # pickle calls __init__ with these arguments
        return type(self), (self.stage, self.message), self.__dict__


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run. Defaults: 10,000 paths over one year in 1/252
    steps, 5% VaR, $100,000 start. Every field is checked here, whether it
    came from a library call, a JSON file or a flag."""

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
        for key in _SCALAR_TYPES:
            _stage("config", check, key, getattr(self, key), ValueError)
        _stage("config", step_count, self.horizon_years, self.trading_days, ValueError)
        for key in CONTAINERS:
            if getattr(self, key) is not None:
                _stage("config", check_items, key, getattr(self, key),
                       ValueError)
        if self.tickers is not None:
            object.__setattr__(self, "tickers", tuple(self.tickers))
        if self.explicit_weights is not None:
            object.__setattr__(self, "explicit_weights", {
                t: float(w) for t, w in self.explicit_weights.items()})
        has_weights = self.explicit_weights is not None
        if (mode == "explicit-weights") != has_weights:
            raise PipelineError(
                "config",
                "explicit_weights must be given exactly when "
                "portfolio_mode is explicit-weights",
            )


# RunConfig's scalar fields, each with its rule's type, which also types the
# flags; the explicit_weights rule is that of each weight in the map.
_SCALAR_TYPES = {
    f.name: RULES[f.name][0]
    for f in fields(RunConfig)
    if f.name in RULES and f.name != "explicit_weights"
}


@dataclass(frozen=True)
class PipelineResult:
    """Everything a finished run produced. ``report_json``, the dict that
    report.json serializes, is derived from these fields on each read."""

    config: RunConfig
    params: MarketParams
    weights: WeightVector
    stats: PortfolioStats
    warning: str | None
    simulation: SimulationResult
    report: RiskReport

    @property
    def report_json(self) -> dict:
        tickers, sim_config = self.params.tickers, self.simulation.config_echo
        config_echo = {
            **asdict(self.config),
            "tickers": list(tickers),
            "n_steps": sim_config.n_steps,
            "initial_prices": {
                t: float(p) for t, p in zip(tickers, sim_config.initial_prices)
            },
            "jitter": self.simulation.jitter,
            "warning": self.warning,
            "version": __version__,
        }
        report = self.report
        return {
            "weights": self.weights.as_dict(),
            "stats": asdict(self.stats),
            "var_value": report.var_value,
            "potential_loss": report.potential_loss,
            "chance_of_loss": report.chance_of_loss,
            "percentiles": {repr(level): v for level, v in report.percentiles.items()},
            "config_echo": config_echo,
        }


def _canonical_mode(mode: str) -> str:
    normalized = str(mode).strip().lower().replace("-", "_")
    by_key = {m.replace("-", "_"): m for m in PORTFOLIO_MODES}
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

    Unknown keys are an error, not silently ignored. Override values of None
    mean "flag not given". RunConfig itself checks every value, so a file,
    a flag and a library caller meet the same rules.
    """
    merged: dict = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise PipelineError("config", f"cannot read {config_path}: {err}")
        if not isinstance(raw, dict):
            raise PipelineError("config", "config file must hold a JSON object")
        merged.update(raw)
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(set(merged) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise PipelineError("config", f"unknown config keys: {unknown}")
    if "price_csv" not in merged:
        raise PipelineError("config", "price_csv is required")
    return RunConfig(**merged)


# _load, _fit and _choose_weights look layer functions up as module globals
# at call time, so the benchmark's tracer (perfbench/spans.py) can swap them.
def _load(config: RunConfig) -> PriceSeries:
    """Load the price CSV, then keep the configured tickers in order."""
    series = _stage("load", load_prices, config.price_csv)
    if config.tickers is None:
        return series
    return _stage("align", series.select, config.tickers)


def _fit(config: RunConfig, series: PriceSeries) -> MarketParams:
    """Daily log-returns of ``series``, then the annualized MLE fit."""
    returns = _stage("returns", log_returns, series)
    return _stage(
        "estimate", estimate_params, returns, trading_days=config.trading_days
    )


def _choose_weights(config: RunConfig, params: MarketParams) -> OptimizerOutput:
    """The configured portfolio; explicit weights must cover every ticker."""
    if config.portfolio_mode == "mvp":
        return min_variance(params)
    if config.portfolio_mode == "max_sharpe":
        return max_sharpe(params, risk_free=config.risk_free)
    tickers, mapping = params.tickers, config.explicit_weights
    missing = [t for t in tickers if t not in mapping]
    extra = sorted(set(mapping) - set(tickers))
    if missing or extra:
        raise ValueError(
            f"explicit weights must cover exactly {list(tickers)}; "
            f"missing {missing}, unexpected {extra}"
        )
    wv = WeightVector(tickers, np.array([mapping[t] for t in tickers]))
    return OptimizerOutput(
        weights=wv, stats=portfolio_stats(wv, params, config.risk_free)
    )


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute load -> align -> returns -> estimate -> optimize ->
    simulate -> risk and assemble the report, all in this process."""
    series = _load(config)
    params = _fit(config, series)
    chosen = _stage("optimize", _choose_weights, config, params)
    sim_config = _stage(
        "simulate",
        SimConfig,
        weights=chosen.weights,
        n_paths=config.n_paths,
        horizon_years=config.horizon_years,
        steps_per_year=config.trading_days,
        seed=config.seed,
        initial_value=config.initial_value,
        initial_prices=series.prices[-1],
    )
    sim = _stage("simulate", simulate, params, sim_config)
    report = _stage("risk", build_report, sim, alpha=config.alpha)
    return PipelineResult(
        config=config,
        params=params,
        weights=chosen.weights,
        stats=chosen.stats,
        warning=chosen.warning,
        simulation=sim,
        report=report,
    )


def _sanitize(obj):
    """Make an object JSON-safe: non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
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
    """Emit report.json, percentiles.csv, and (when recorded) paths.csv.

    paths.csv is formatted on one process per CPU this process may run on,
    with the same bytes for any count; on Linux this forks the calling
    process through ``gbmrisk.forking.run_forked``, and each forked
    process writes its own blocks of the file.
    """
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

    if result.config.record_paths:
        paths_path = out_dir / "paths.csv"
        write_paths_csv(result.params, result.simulation.config_echo, paths_path)
        written.append(paths_path)
    return written


def compare_portfolios(
    config_a: RunConfig,
    config_b: RunConfig,
    label_a: str = "a",
    label_b: str = "b",
) -> dict:
    """Run both configs and tabulate VaR and chance of loss side by side."""
    def side(tag: str, label: str, config: RunConfig) -> dict:
        try:
            result = run_pipeline(config)
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
) -> tuple[BacktestResult, WeightVector, str | None, dict]:
    """Rolling VaR backtest over the price history itself.

    Every mode takes its weights from the first window+1 price rows only
    (explicit weights are checked against a fit of those rows), so no
    information later than the first forecast's own trailing window leaks
    into portfolio construction. Returns the backtest, the weights, the
    solver's warning (or None) and the JSON summary.
    """
    _stage("backtest", check, "window", window, ValueError)
    series = _load(config)
    if series.n_dates < window + 2:
        raise PipelineError(
            "backtest",
            f"need at least window + 2 = {shown(window + 2)} price rows, "
            f"got {series.n_dates}",
        )
    head = PriceSeries(
        tickers=series.tickers,
        dates=series.dates[: window + 1],
        prices=series.prices[: window + 1],
    )
    chosen = _stage("optimize", _choose_weights, config, _fit(config, head))
    gross = series.prices / series.prices[0]
    values = config.initial_value * (gross @ chosen.weights.w)
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
        "weights": chosen.weights.as_dict(),
        "price_csv": config.price_csv,
        "seed": config.seed,
        "version": __version__,
    }
    return result, chosen.weights, chosen.warning, summary


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
        ticker, _, value = (s.strip() for s in part.partition("="))
        if ticker in mapping:
            raise argparse.ArgumentTypeError(f"ticker {ticker!r} given twice")
        try:
            if not ticker:
                raise ValueError(part)
            mapping[ticker] = float(value)  # float("") fails too
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad weight entry {part!r}; expected TICKER=WEIGHT"
            ) from None
    if not mapping:
        raise argparse.ArgumentTypeError("empty weight map")
    return mapping


_FLAG_PARSERS = {"tickers": _parse_ticker_list, "explicit_weights": _parse_weight_map}
_FLAG_HELP = {
    "price_csv": "price history CSV (date column first)",
    "tickers": "comma-separated ordered ticker subset",
    "portfolio_mode": "mvp, max_sharpe, or explicit-weights",
    "explicit_weights": "TICKER=W,TICKER=W,... (explicit-weights mode)",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # One --kebab-case flag per RunConfig field, typed by _SCALAR_TYPES.
    parser.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if _SCALAR_TYPES.get(f.name) is bool:
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None
            )
            continue
        kind = _FLAG_PARSERS.get(f.name, _SCALAR_TYPES.get(f.name))
        parser.add_argument(flag, type=kind, help=_FLAG_HELP.get(f.name))
    parser.add_argument("--out-dir", help=f"output directory (or ${OUTPUT_DIR_ENV})")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return load_run_config(args.config, overrides)


def _warn(warning: str | None, label: str = "") -> None:
    if warning:
        print(f"warning: {label}{warning}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmrisk",
        description="GBM portfolio risk pipeline: estimate, optimize, "
        "simulate, compare, backtest.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("estimate", "fit drift and covariance"),
            ("optimize", "solve portfolio weights"),
            ("simulate", "run the full pipeline"),
            ("compare", "run two configs side by side"),
            ("backtest", "count rolling VaR violations"),
        )
    }
    for name in ("estimate", "optimize", "simulate", "backtest"):
        _add_run_flags(commands[name])
    commands["backtest"].add_argument(
        "--window", type=int, default=DEFAULT_BACKTEST_WINDOW,
        help="trailing return window per forecast",
    )

    p_compare = commands["compare"]
    p_compare.add_argument("--config-a", required=True)
    p_compare.add_argument("--config-b", required=True)
    p_compare.add_argument("--label-a")
    p_compare.add_argument("--label-b")
    p_compare.add_argument("--out-dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = resolve_out_dir(args.out_dir)
    try:
        if args.command == "estimate":
            config = _config_from_args(args)
            series = _load(config)
            params = _fit(config, series)
            path = out_dir / "params.json"
            _stage("write", _write_bytes, path,
                   _json_bytes(_params_dict(params, series.n_dates - 1)))
            for t, m, s in zip(params.tickers, params.mu, params.sigma):
                print(f"{t}: mu={m:.6f} sigma={s:.6f}")
            print(f"wrote {path}")
        elif args.command == "optimize":
            config = _config_from_args(args)
            params = _fit(config, _load(config))
            chosen = _stage("optimize", _choose_weights, config, params)
            path = out_dir / "weights.json"
            payload = {
                "portfolio_mode": config.portfolio_mode,
                "risk_free": config.risk_free,
                "weights": chosen.weights.as_dict(),
                "stats": asdict(chosen.stats),
                "warning": chosen.warning,
                "version": __version__,
            }
            _stage("write", _write_bytes, path, _json_bytes(payload))
            for t, w in chosen.weights.as_dict().items():
                print(f"{t}: {w:.6f}")
            _warn(chosen.warning)
            print(f"wrote {path}")
        elif args.command == "simulate":
            config = _config_from_args(args)
            result = run_pipeline(config)
            written = _stage("write", write_report_files, result, out_dir)
            report = result.report
            level = Decimal(repr(report.var_level)).scaleb(2)  # exact, in %
            print(
                f"VaR({level:f}%) value: {report.var_value:.2f}  "
                f"potential loss: {report.potential_loss:.2f}  "
                f"chance of loss: {report.chance_of_loss:.4f}"
            )
            _warn(result.warning)
            for path in written:
                print(f"wrote {path}")
        elif args.command == "compare":
            config_a = load_run_config(args.config_a, {})
            config_b = load_run_config(args.config_b, {})
            label_a = args.label_a or Path(args.config_a).stem
            label_b = args.label_b or Path(args.config_b).stem
            comparison = compare_portfolios(config_a, config_b, label_a, label_b)
            path = out_dir / "comparison.json"
            _stage("write", _write_bytes, path, _json_bytes(comparison))
            print(_comparison_table(comparison))
            for row in comparison.values():
                _warn(row["report"]["config_echo"]["warning"], f"[{row['label']}] ")
            print(f"wrote {path}")
        elif args.command == "backtest":
            config = _config_from_args(args)
            result, _, warning, summary = run_backtest(config, window=args.window)
            path = out_dir / "backtest.json"
            _stage("write", _write_bytes, path, _json_bytes(summary))
            print(
                f"violations: {result.n_violations}/{result.n_tests} "
                f"(rate {result.violation_rate:.4f}, alpha {result.alpha})"
            )
            _warn(warning)
            print(f"wrote {path}")
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
