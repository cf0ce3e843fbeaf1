"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from gbmrisk.estimation import MarketParams

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def assert_no_children() -> None:
    """Every process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_params(
    tickers, mu, cov, trading_days: int = 252
) -> MarketParams:
    """MarketParams with sigma derived from the covariance diagonal."""
    cov = np.asarray(cov, dtype=np.float64)
    return MarketParams(
        tickers=tuple(tickers),
        mu=np.asarray(mu, dtype=np.float64),
        sigma=np.sqrt(np.diag(cov)),
        cov=cov,
        trading_days=trading_days,
    )


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None,
               scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix A A^T with controllable rank."""
    a = rng.standard_normal((n, rank if rank is not None else n))
    cov = a @ a.T * (scale / max(1, a.shape[1]))
    return (cov + cov.T) / 2.0


def random_universe(n: int) -> MarketParams:
    """n assets on random_psd(default_rng(n), n, scale=0.05), drifts spread
    from 2% to 12%: the wide universes of the simulation and solver tests."""
    cov = random_psd(np.random.default_rng(n), n, scale=0.05)
    return make_params([f"T{i}" for i in range(n)],
                       np.linspace(0.02, 0.12, n), cov)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def three_asset_params() -> MarketParams:
    """Correlated 3-asset parameter set used across simulation tests."""
    sigma = np.array([0.2, 0.3, 0.25])
    corr = np.array(
        [
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.4],
            [0.3, 0.4, 1.0],
        ]
    )
    cov = corr * np.outer(sigma, sigma)
    return make_params(("A", "B", "C"), [0.08, 0.12, 0.1], cov)
