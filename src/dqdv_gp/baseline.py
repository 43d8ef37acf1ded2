"""Savitzky-Golay smoothing plus finite-difference dQ/dV, the conventional
comparator to the GP derivative posterior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import savgol_filter

from .derivative import DEFAULT_GRID_N
from .ingest import QVCurve

__all__ = ["SgConfig", "fd_dqdv"]


@dataclass(frozen=True)
class SgConfig:
    window: int = 11
    polyorder: int = 2
    resample_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.window < 5 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 5, got {self.window}")
        if not 1 <= self.polyorder < self.window:
            raise ValueError(
                f"polyorder must be in [1, window), got {self.polyorder} with window {self.window}"
            )
        if self.resample_n < self.window:
            raise ValueError("resample_n must be at least the window length")


def fd_dqdv(curve: QVCurve, cfg: SgConfig = SgConfig()):
    """Conventional dQ/dV: resample q onto a uniform V grid, SG-smooth, then
    finite-difference (central interior, one-sided ends).  The smoothed
    endpoints come from a polynomial fit over the truncated window (scipy's
    'interp' edge mode).  Returns (grid, dqdv).
    """
    grid = np.linspace(curve.v[0], curve.v[-1], cfg.resample_n)
    q = np.interp(grid, curve.v, curve.q)
    q_s = savgol_filter(q, cfg.window, cfg.polyorder, mode="interp")
    dqdv = np.gradient(q_s, grid)
    return grid, dqdv
