"""The benchmark's own closed form for the dQ/dV of its synthetic cells.

It is written apart from ``dqdv_gp.synth`` on purpose: ``cross_check``
compares the two at start-up, so a fault in the generator's truth fails
the run instead of silently moving every accuracy figure.

A cell is a uniform background of weight 1 over the voltage window plus
Gaussian bumps, normalized so that the first charge holds ``capacity`` Ah.
Cycle c holds (1 - fade * (c - 1)) of it at every voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

V_RANGE = (2.75, 4.2)
CAPACITY_AH = 0.045
NOISE_STD_AH = 5e-6
INTERIOR_FRAC = 0.05  # share of the voltage span left out at each edge

# (center V, width V, amplitude relative to the background)
PLATING_BUMPS = ((4.08, 0.03, 3.0),)
NO_PLATING_BUMPS = ((3.45, 0.05, 2.0), (3.75, 0.06, 2.5))


@dataclass(frozen=True)
class Cell:
    plating: bool
    fade: float = 0.0
    capacity: float = CAPACITY_AH

    @property
    def bumps(self):
        return PLATING_BUMPS if self.plating else NO_PLATING_BUMPS

    @property
    def bump_v(self):
        """Center of the plating bump (None for a no-plating cell)."""
        return PLATING_BUMPS[0][0] if self.plating else None

    def fade_factor(self, cycle):
        return 1.0 - self.fade * (cycle - 1)

    def dqdv(self, v, cycle=1):
        """Exact dQ/dV of the noise-free curve of ``cycle``, in Ah/V."""
        v = np.asarray(v, dtype=float)
        raw = np.ones_like(v)
        for center, width, amp in self.bumps:
            raw += amp * np.exp(-0.5 * ((v - center) / width) ** 2)
        return self.fade_factor(cycle) * self.capacity / self._raw_charge() * raw

    def _raw_charge(self):
        lo, hi = V_RANGE
        total = hi - lo
        for center, width, amp in self.bumps:
            total += amp * width * math.sqrt(2.0 * math.pi) * (
                _normal_cdf((hi - center) / width) - _normal_cdf((lo - center) / width)
            )
        return total


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def synth_spec(cell: Cell, seed: int, n_samples: int, n_cycles: int):
    """The ``dqdv_gp.synth`` spec that generates this cell's logs."""
    from dqdv_gp import synth

    bumps = [synth.GaussianBump(*b) for b in cell.bumps]
    return synth.SynthSpec(
        v_range=V_RANGE,
        capacity=cell.capacity,
        background=(synth.LogisticRamp(),),
        staging_bumps=() if cell.plating else tuple(bumps),
        plating_bump=bumps[0] if cell.plating else None,
        noise_std=NOISE_STD_AH,
        n_samples=n_samples,
        seed=seed,
        fade_rate=cell.fade,
        n_cycles=n_cycles,
    )


class TruthMismatch(RuntimeError):
    """The generator's truth disagrees with the benchmark's closed form."""


def cross_check(cell: Cell, rtol: float = 1e-9):
    """Compare the closed form with ``synth.true_dqdv`` on a dense grid."""
    from dqdv_gp import synth

    grid = np.linspace(*V_RANGE, 2001)
    ours = cell.dqdv(grid)
    theirs = synth.true_dqdv(synth_spec(cell, 0, 300, 1), grid)
    err = float(np.max(np.abs(ours - theirs)))
    if not err <= rtol * float(np.max(np.abs(ours))):
        raise TruthMismatch(
            f"synth.true_dqdv differs from the closed form by {err:.3e} Ah/V "
            f"(plating={cell.plating})"
        )


def interior(grid):
    """Mask of the grid points at least INTERIOR_FRAC of the span from either end."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = grid[0], grid[-1]
    margin = INTERIOR_FRAC * (hi - lo)
    eps = 1e-12 * (hi - lo)
    return (grid >= lo + margin - eps) & (grid <= hi - margin + eps)
