"""Closed-form posterior for dQ/dV from a fitted GP.

The derivative of a GP is a GP jointly Gaussian with the values, so dQ/dV
needs no numerical differencing: one triangular solve of the kernel's
value-derivative block serves the band, the full covariance and the draws.

This module owns the credible-band rule: ``derivative_posterior`` sets the
band half-width z * sqrt(var), z the two-sided normal quantile at the
credible level, and detection reads it from the posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from .errors import DqdvGpError
from .gp_core import FittedGP
from .kernel import k_dd, kernel_matrix

__all__ = [
    "DerivativePosterior",
    "check_level",
    "derivative_posterior",
    "covariance_full",
    "sample_derivative",
]

DEFAULT_GRID_N = 400
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True)
class DerivativePosterior:
    """Pointwise dQ/dV posterior on a voltage grid.

    halfwidth is the credible-band half-width at `level`, z * sqrt(var) with
    z the two-sided normal quantile; lower/upper are mean -/+ halfwidth.
    """

    grid: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    level: float
    halfwidth: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _clip_variance(var):
    # tiny negatives are round-off; anything clearly negative is a bug
    floor = -1e-8 * max(float(np.max(var)), 0.0)
    if np.any(var < floor):
        raise DqdvGpError(
            f"derivative variance {float(np.min(var)):.3e} below round-off floor {floor:.3e}"
        )
    return np.clip(var, 0.0, None)


def check_level(level: float):
    """Raise ValueError unless ``level`` is a credible level, in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"credible level must be in (0, 1), got {level}")


def _solve(model: FittedGP, grid):
    """(grid, centred grid, mean K'(X*, X) Kn^-1 Y, v = L^-1 K'(X, X*)) on ``grid``."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    grid_c = grid - model.train.x_mean
    # [i, j] = cov(f(xs_c[i]), f'(grid_c[j])), in standardized output units
    vd = kernel_matrix(model.xs_centered, grid_c, model.hp_internal, "VD")
    mean = model.train.y_std * (vd.T @ model.weights)
    return grid, grid_c, mean, solve_triangular(model.chol, vd, lower=True)


def derivative_posterior(
    model: FittedGP, grid, level: float = DEFAULT_LEVEL
) -> DerivativePosterior:
    """Posterior mean, pointwise variance, and credible band of dQ/dV.

    The variance is the diagonal of K''(X*, X*) - K'(X*, X) Kn^-1 K'(X, X*).
    """
    check_level(level)
    grid, grid_c, mean, v = _solve(model, grid)
    prior_var = k_dd(grid_c, grid_c, model.hp_internal)
    var = _clip_variance(model.train.y_std**2 * (prior_var - np.sum(v * v, axis=0)))

    half = ndtri(0.5 + level / 2.0) * np.sqrt(var)
    return DerivativePosterior(
        grid=grid, mean=mean, var=var, level=level, halfwidth=half,
        lower=mean - half, upper=mean + half,
    )


def _mean_and_covariance(model: FittedGP, grid):
    if np.size(grid) > 2000:
        raise ValueError("covariance_full is limited to grids of <= 2000 points")
    _, grid_c, mean, v = _solve(model, grid)
    kdd = kernel_matrix(grid_c, grid_c, model.hp_internal, "DD")
    cov = model.train.y_std**2 * (kdd - v.T @ v)
    return mean, 0.5 * (cov + cov.T)


def covariance_full(model: FittedGP, grid):
    """Full posterior covariance matrix of dQ/dV on the grid (<= 2000 points)."""
    return _mean_and_covariance(model, grid)[1]


def sample_derivative(model: FittedGP, grid, n: int, seed: int):
    """Draw n curves from the joint dQ/dV posterior; deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mean, cov = _mean_and_covariance(model, grid)
    tol = 1e-8 * float(np.max(np.diag(cov)))  # the round-off floor of _clip_variance
    return np.random.default_rng(seed).multivariate_normal(mean, cov, n, method="eigh", tol=tol)
