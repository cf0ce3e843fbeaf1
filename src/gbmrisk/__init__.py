"""Portfolio risk engine: GBM Monte Carlo with MLE-fitted parameters,
simplex-constrained mean-variance optimization, and VaR reporting."""

__version__ = "0.6.0"

from .estimation import MarketParams, estimate_params
from .market_data import (
    PriceSeries,
    ReturnMatrix,
    load_prices,
    log_returns,
    save_prices,
)
from .optimizer import (
    OptimizerOutput,
    PortfolioStats,
    WeightVector,
    max_sharpe,
    min_variance,
    portfolio_stats,
)
from .risk import (
    BacktestResult,
    RiskReport,
    build_report,
    chance_of_loss,
    quantile,
    rolling_var_backtest,
)
from .simulation import (
    CholeskyError,
    SimConfig,
    SimulationResult,
    cholesky,
    repair_psd,
    simulate,
)
from .cli import PipelineError, RunConfig, compare_portfolios, run_pipeline

__all__ = [
    "__version__",
    "MarketParams",
    "estimate_params",
    "PriceSeries",
    "ReturnMatrix",
    "load_prices",
    "log_returns",
    "save_prices",
    "OptimizerOutput",
    "PortfolioStats",
    "WeightVector",
    "max_sharpe",
    "min_variance",
    "portfolio_stats",
    "BacktestResult",
    "RiskReport",
    "build_report",
    "chance_of_loss",
    "quantile",
    "rolling_var_backtest",
    "CholeskyError",
    "SimConfig",
    "SimulationResult",
    "cholesky",
    "repair_psd",
    "simulate",
    "PipelineError",
    "RunConfig",
    "compare_portfolios",
    "run_pipeline",
]
