"""Derivative posterior: mean vs finite differences of the value posterior,
variance sanity, band geometry, and joint sampling."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from dqdv_gp import derivative
from dqdv_gp.derivative import (
    covariance_full,
    derivative_posterior,
    sample_derivative,
)
from dqdv_gp.gp_core import TrainingSet, fit, posterior_mean


@pytest.fixture(scope="module")
def smooth_model():
    rng = np.random.default_rng(2)
    xs = np.linspace(2.8, 4.15, 120)
    ys = 0.02 * xs + 0.008 * np.sin(4.0 * xs) + rng.normal(0, 2e-4, len(xs))
    return fit(TrainingSet(xs, ys))


def test_mean_matches_fd_of_posterior_mean(smooth_model):
    grid = np.linspace(2.9, 4.05, 200)
    post = derivative_posterior(smooth_model, grid)
    h = 1e-6
    fd = (posterior_mean(smooth_model, grid + h) - posterior_mean(smooth_model, grid - h)) / (
        2 * h
    )
    assert np.max(np.abs(post.mean - fd)) <= 1e-6 * np.max(np.abs(post.mean))


def test_variance_nonnegative_and_band_symmetric(smooth_model):
    xs = smooth_model.train.xs
    post = derivative_posterior(smooth_model, np.linspace(xs[0], xs[-1], 400))
    assert np.all(post.var >= 0)
    half = norm.ppf(0.975) * np.sqrt(post.var)
    assert np.allclose(post.upper - post.mean, half)
    assert np.allclose(post.mean - post.lower, half)


def test_band_width_grows_with_level(smooth_model):
    grid = np.linspace(2.9, 4.0, 50)
    p95 = derivative_posterior(smooth_model, grid, level=0.95)
    p99 = derivative_posterior(smooth_model, grid, level=0.99)
    ratio = (p99.upper - p99.lower) / (p95.upper - p95.lower)
    expected = norm.ppf(0.995) / norm.ppf(0.975)
    assert np.allclose(ratio, expected, rtol=1e-10)


def test_covariance_diag_matches_pointwise_var(smooth_model):
    grid = np.linspace(2.9, 4.0, 80)
    post = derivative_posterior(smooth_model, grid)
    cov = covariance_full(smooth_model, grid)
    assert np.allclose(np.diag(cov), post.var, atol=1e-12 + 1e-8 * post.var.max())
    assert np.allclose(cov, cov.T)


def test_derivative_of_linear_data_is_slope():
    xs = np.linspace(2.8, 4.1, 80)
    model = fit(TrainingSet(xs, 3.0 * xs))
    post = derivative_posterior(model, np.linspace(3.0, 3.9, 50))
    assert np.max(np.abs(post.mean - 3.0)) < 1e-3 * 3.0


def test_variance_reverts_to_prior_far_from_data(smooth_model):
    hp = smooth_model.hp
    far = np.array([smooth_model.train.xs[-1] + 50 * hp.length_scale])
    post = derivative_posterior(smooth_model, far)
    prior_var = hp.signal_std**2 / hp.length_scale**2
    assert post.var[0] == pytest.approx(prior_var, rel=1e-6)


def test_covariance_single_point_equals_var(smooth_model):
    grid = np.array([3.6])
    cov = covariance_full(smooth_model, grid)
    post = derivative_posterior(smooth_model, grid)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(post.var[0], rel=1e-10)


def test_covariance_grid_limit(smooth_model):
    with pytest.raises(ValueError, match="2000"):
        covariance_full(smooth_model, np.linspace(2.9, 4.0, 2001))


def test_sampling_is_seeded_and_matches_moments(smooth_model):
    grid = np.linspace(2.9, 4.0, 60)
    a = sample_derivative(smooth_model, grid, 500, seed=123)
    b = sample_derivative(smooth_model, grid, 500, seed=123)
    assert np.array_equal(a, b)
    c = sample_derivative(smooth_model, grid, 500, seed=124)
    assert not np.array_equal(a, c)

    post = derivative_posterior(smooth_model, grid)
    big = sample_derivative(smooth_model, grid, 20000, seed=7)
    # sample mean within a few standard errors of the analytic mean
    se = np.sqrt(post.var / 20000)
    assert np.all(np.abs(big.mean(axis=0) - post.mean) < 6 * se + 1e-12)
    emp_var = big.var(axis=0)
    assert np.all(np.abs(emp_var - post.var) <= 0.10 * post.var + 1e-16)


def test_sampling_takes_round_off_relative_to_the_output_scale(smooth_model):
    train = smooth_model.train
    model = fit(TrainingSet(train.xs, 1e6 * train.ys))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_derivative(model, np.linspace(2.9, 4.0, 400), 2, seed=0)
    assert np.all(np.isfinite(draws))


def test_level_validation(smooth_model):
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            derivative_posterior(smooth_model, np.array([3.5]), level=bad)


def test_grid_must_be_finite(smooth_model):
    with pytest.raises(ValueError, match="finite"):
        derivative_posterior(smooth_model, np.array([3.5, np.nan]))


@pytest.mark.parametrize("call", [
    lambda model, grid: covariance_full(model, grid),
    lambda model, grid: sample_derivative(model, grid, 3, seed=0),
], ids=["covariance_full", "sample_derivative"])
def test_covariance_and_draws_need_a_finite_grid(smooth_model, call):
    with pytest.raises(ValueError, match="finite"):
        call(smooth_model, np.array([3.5, np.nan]))


@pytest.mark.parametrize("call", [
    lambda model, grid: derivative_posterior(model, grid),
    lambda model, grid: covariance_full(model, grid),
    lambda model, grid: sample_derivative(model, grid, 3, seed=0),
], ids=["derivative_posterior", "covariance_full", "sample_derivative"])
def test_each_posterior_quantity_takes_one_solve(smooth_model, monkeypatch, call):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_triangular(*args, **kwargs)

    monkeypatch.setattr(derivative, "solve_triangular", counting)
    call(smooth_model, np.linspace(2.9, 4.0, 30))
    assert len(calls) == 1
