"""Closed-form posterior for dQ/dV from a fitted GP.

The derivative of a GP is again a GP, jointly Gaussian with the values, so
the dQ/dV mean and covariance follow from the cross-covariance blocks of
the rational-quadratic kernel with no numerical differencing.  The kernel
gives f' the prior variance sigma_f^2 / l^2 for every alpha.

This module owns the credible-band rule: ``derivative_posterior`` sets the
band half-width z * sqrt(var), z the two-sided normal quantile at the
credible level, and detection reads it from the posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import norm

from .errors import DqdvGpError, FactorizationFailure
from .gp_core import FittedGP
from .kernel import kernel_matrix

__all__ = [
    "DerivativePosterior",
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


def _cross_block(model: FittedGP, grid_c):
    # [i, j] = cov(f'(grid_c[i]), f(xs_c[j])), in standardized output units
    return kernel_matrix(model.xs_centered, grid_c, model.hp_internal, "VD").T


def derivative_posterior(
    model: FittedGP, grid, level: float = DEFAULT_LEVEL
) -> DerivativePosterior:
    """Posterior mean, pointwise variance, and credible band of dQ/dV.

    mean = K'(X*, X) Kn^-1 Y via the stored weight vector; variance from the
    diagonal of K''(X*, X*) - K'(X*, X) Kn^-1 K'(X, X*) via triangular solves.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"credible level must be in (0, 1), got {level}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    grid_c = grid - model.train.x_mean

    s = model.train.y_std
    a = _cross_block(model, grid_c)
    mean = s * (a @ model.weights)

    v = solve_triangular(model.chol, a.T, lower=True)
    prior_var = model.hp_internal.signal_std**2 / model.hp.length_scale**2
    var = _clip_variance(s**2 * (prior_var - np.sum(v * v, axis=0)))

    half = norm.ppf(0.5 + level / 2.0) * np.sqrt(var)
    return DerivativePosterior(
        grid=grid, mean=mean, var=var, level=level, halfwidth=half,
        lower=mean - half, upper=mean + half,
    )


def covariance_full(model: FittedGP, grid):
    """Full posterior covariance matrix of dQ/dV on the grid (<= 2000 points)."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if len(grid) > 2000:
        raise ValueError("covariance_full is limited to grids of <= 2000 points")
    grid_c = grid - model.train.x_mean
    kdd = kernel_matrix(grid_c, grid_c, model.hp_internal, "DD")
    a = _cross_block(model, grid_c)
    v = solve_triangular(model.chol, a.T, lower=True)
    cov = model.train.y_std**2 * (kdd - v.T @ v)
    return 0.5 * (cov + cov.T)


def sample_derivative(model: FittedGP, grid, n: int, seed: int):
    """Draw n curves from the joint dQ/dV posterior; deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    post = derivative_posterior(model, grid)
    cov = covariance_full(model, grid)

    scale = max(float(np.max(np.diag(cov))), 1e-300)
    chol = None
    for jit in (1e-12, 1e-10, 1e-8, 1e-6):
        try:
            chol = cholesky(cov + jit * scale * np.eye(len(grid)), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise FactorizationFailure("derivative covariance is numerically indefinite")

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, len(grid)))
    return post.mean[None, :] + z @ chol.T
