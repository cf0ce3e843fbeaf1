"""Portfolio risk engine: GBM Monte Carlo with MLE-fitted parameters,
simplex-constrained mean-variance optimization, and VaR reporting."""

__version__ = "0.1.0"

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
    analytic_var_single_asset,
    build_report,
    chance_of_loss,
    quantile,
    rolling_var_backtest,
)
from .simulation import (
    CholeskyError,
    CholeskyFactor,
    SimConfig,
    SimulationResult,
    cholesky,
    draw_standard_normals,
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
    "analytic_var_single_asset",
    "build_report",
    "chance_of_loss",
    "quantile",
    "rolling_var_backtest",
    "CholeskyError",
    "CholeskyFactor",
    "SimConfig",
    "SimulationResult",
    "cholesky",
    "draw_standard_normals",
    "repair_psd",
    "simulate",
    "PipelineError",
    "RunConfig",
    "compare_portfolios",
    "run_pipeline",
]
