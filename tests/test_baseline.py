"""Savitzky-Golay smoothing and the conventional finite-difference dQ/dV."""

import numpy as np
import pytest
from scipy.signal import savgol_coeffs, savgol_filter

from dqdv_gp.baseline import SgConfig, fd_dqdv
from dqdv_gp.ingest import QVCurve


def _smooth(values, cfg):
    """The Savitzky-Golay call ``fd_dqdv`` makes on its resampled charge."""
    return savgol_filter(values, cfg.window, cfg.polyorder, mode="interp")


def test_config_validation():
    with pytest.raises(ValueError):
        SgConfig(window=4)
    with pytest.raises(ValueError):
        SgConfig(window=10)
    with pytest.raises(ValueError):
        SgConfig(window=11, polyorder=11)
    with pytest.raises(ValueError):
        SgConfig(window=11, polyorder=0)
    with pytest.raises(ValueError):
        SgConfig(resample_n=5)


def test_polynomial_reproduced_exactly():
    x = np.linspace(0, 1, 101)
    for deg in (0, 1, 2):
        y = np.polyval(np.arange(deg + 1) + 1.0, x)
        out = _smooth(y, SgConfig(window=11, polyorder=2))
        interior = slice(5, -5)
        assert np.max(np.abs(out[interior] - y[interior])) < 1e-10


def test_constant_preserved():
    y = np.full(50, 3.7)
    assert np.allclose(_smooth(y, SgConfig()), 3.7)


def test_white_noise_variance_matches_weight_norm():
    cfg = SgConfig(window=11, polyorder=2)
    w = savgol_coeffs(cfg.window, cfg.polyorder)
    expected_var = float(np.sum(w**2))

    rng = np.random.default_rng(0)
    n_trials, n = 10**4, 41
    noise = rng.standard_normal((n_trials, n))
    out = np.apply_along_axis(lambda r: _smooth(r, cfg), 1, noise)
    observed = float(np.var(out[:, n // 2]))
    assert observed == pytest.approx(expected_var, rel=0.10)


def test_fd_dqdv_recovers_linear_slope():
    v = np.linspace(2.8, 4.1, 200)
    q = 0.03 * (v - 2.8)
    curve = QVCurve(v=v, q=q, cycle=1)
    grid, dqdv = fd_dqdv(curve, SgConfig(resample_n=200))
    assert len(grid) == 200
    assert np.max(np.abs(dqdv - 0.03)) < 1e-9


def test_fd_dqdv_quadratic_charge():
    v = np.linspace(2.8, 4.1, 300)
    q = 0.01 * (v - 2.8) ** 2
    curve = QVCurve(v=v, q=q, cycle=1)
    grid, dqdv = fd_dqdv(curve, SgConfig(resample_n=300))
    truth = 0.02 * (grid - 2.8)
    interior = slice(10, -10)
    assert np.max(np.abs(dqdv[interior] - truth[interior])) < 1e-6


def test_fd_dqdv_amplifies_noise_relative_to_truth():
    # the motivating failure mode: differencing a noisy q visibly amplifies
    # high-frequency error even after SG smoothing
    rng = np.random.default_rng(5)
    v = np.linspace(2.8, 4.1, 400)
    q = 0.03 * (v - 2.8) + rng.normal(0, 1e-4, 400)
    curve = QVCurve(v=v, q=np.maximum.accumulate(q), cycle=1)
    _, dqdv = fd_dqdv(curve, SgConfig(resample_n=400))
    rmse = np.sqrt(np.mean((dqdv[20:-20] - 0.03) ** 2))
    assert rmse > 5e-3  # orders of magnitude above the q-noise level
