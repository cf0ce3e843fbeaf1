"""Independent reference implementations the tests compare the optimizer
against: the explicit double-sum variance and an exhaustive simplex-lattice
search for the minimum-variance weights."""

from __future__ import annotations

import numpy as np

from gbmrisk.estimation import MarketParams
from gbmrisk.optimizer import OptimizerError, WeightVector, _check_dims

GRID_MAX_ASSETS = 4


def quad_form_double_sum(w: WeightVector, params: MarketParams) -> float:
    """Portfolio variance as the explicit double sum.

    sum_i w_i^2 var_i + sum_i sum_{j != i} w_i w_j cov_ij. Exists solely as a
    cross-check oracle for the matrix quadratic form.
    """
    _check_dims(w, params)
    n = len(w.w)
    total = 0.0
    for i in range(n):
        total += w.w[i] * w.w[i] * params.cov[i, i]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += w.w[i] * w.w[j] * params.cov[i, j]
    return total


def simplex_lattice(n_assets: int, resolution: float) -> np.ndarray:
    """All simplex lattice points with spacing ``resolution`` (rows sum to 1)."""
    k = round(1.0 / resolution)
    if abs(k * resolution - 1.0) > 1e-9:
        raise OptimizerError(f"resolution {resolution!r} does not divide 1")

    def counts(parts: int, total: int) -> np.ndarray:
        if parts == 1:
            return np.array([[total]], dtype=np.int64)
        blocks = []
        for first in range(total + 1):
            rest = counts(parts - 1, total - first)
            blocks.append(
                np.column_stack([np.full(len(rest), first, dtype=np.int64), rest])
            )
        return np.vstack(blocks)

    return counts(n_assets, k) / float(k)


def grid_oracle_min_variance(
    params: MarketParams, resolution: float
) -> WeightVector:
    """Exhaustive lattice search for the minimum-variance weights.

    Independent verification oracle; guarded to N <= 4 assets because the
    lattice grows combinatorially.
    """
    n = params.n_assets
    if n > GRID_MAX_ASSETS:
        raise OptimizerError(f"grid oracle limited to {GRID_MAX_ASSETS} assets")
    lattice = simplex_lattice(n, resolution)
    objectives = np.einsum("pi,ij,pj->p", lattice, params.cov, lattice)
    return WeightVector(params.tickers, lattice[int(np.argmin(objectives))])
