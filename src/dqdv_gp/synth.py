"""Synthetic cell-data generator with analytically known dQ/dV.

The ground truth is a sum of logistic-ramp and Gaussian components in the
derivative, scaled so the charge over the voltage window equals the cell
capacity.  Both q(V) and dQ/dV are closed-form, so every downstream result
can be checked against exact truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import ndtr

from .detect import THRESHOLD_V_DEFAULT
from .errors import InvalidSpec
from .ingest import ChargeLog, SECONDS_PER_HOUR, V_MAX_DEFAULT, V_MIN_DEFAULT

__all__ = [
    "LogisticRamp",
    "GaussianBump",
    "SynthSpec",
    "plating_spec",
    "baseline_spec",
    "true_dqdv",
    "true_q",
    "generate_cycle",
    "generate_log",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LogisticRamp:
    """Sigmoidal charge component; width=None gives a uniform component
    (constant contribution to dQ/dV over the window)."""

    center: float | None = None
    width: float | None = None
    weight: float = 1.0


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian component of dQ/dV (staging or plating peak)."""

    center: float
    width: float
    amplitude: float


@dataclass(frozen=True)
class SynthSpec:
    v_range: tuple = (V_MIN_DEFAULT, V_MAX_DEFAULT)
    capacity: float = 0.045  # Ah
    background: tuple = (LogisticRamp(),)
    staging_bumps: tuple = ()
    plating_bump: GaussianBump | None = None
    noise_std: float = 5e-6  # Ah, on the charge channel
    n_samples: int = 300
    seed: int = 0
    fade_rate: float = 0.0
    n_cycles: int = 1

    def __post_init__(self):
        lo, hi = self.v_range
        if not lo < hi:
            raise InvalidSpec(f"v_range must be increasing, got {self.v_range}")
        if self.capacity <= 0:
            raise InvalidSpec("capacity must be positive")
        if not self.background:
            raise InvalidSpec("at least one background component is required")
        for ramp in self.background:
            if ramp.weight < 0:
                raise InvalidSpec("background weights must be >= 0")
        for bump in self.staging_bumps:
            if bump.amplitude < 0 or bump.width <= 0:
                raise InvalidSpec("staging bumps need amplitude >= 0 and width > 0")
        if self.plating_bump is not None:
            b = self.plating_bump
            if not THRESHOLD_V_DEFAULT < b.center < hi:
                raise InvalidSpec(
                    f"plating bump center must be in ({THRESHOLD_V_DEFAULT}, {hi}), "
                    f"got {b.center}"
                )
            if b.amplitude < 0 or b.width <= 0:
                raise InvalidSpec("plating bump needs amplitude >= 0 and width > 0")
        if self.noise_std < 0:
            raise InvalidSpec("noise_std must be >= 0")
        if self.n_samples < 10:
            raise InvalidSpec("n_samples must be >= 10")
        if not 0.0 <= self.fade_rate < 1.0:
            raise InvalidSpec("fade_rate must be in [0, 1)")
        if self.n_cycles < 1:
            raise InvalidSpec("n_cycles must be >= 1")
        if self.fade_rate * (self.n_cycles - 1) >= 1.0:
            raise InvalidSpec("fade_rate * (n_cycles - 1) must stay below 1")
        object.__setattr__(self, "background", tuple(self.background))
        object.__setattr__(self, "staging_bumps", tuple(self.staging_bumps))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["v_range"] = tuple(d["v_range"])
        d["background"] = tuple(LogisticRamp(**r) for r in d["background"])
        d["staging_bumps"] = tuple(GaussianBump(**b) for b in d["staging_bumps"])
        if d.get("plating_bump") is not None:
            d["plating_bump"] = GaussianBump(**d["plating_bump"])
        return cls(**d)


def _all_bumps(spec):
    bumps = list(spec.staging_bumps)
    if spec.plating_bump is not None:
        bumps.append(spec.plating_bump)
    return bumps


def _raw_dqdv(spec, v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for ramp in spec.background:
        if ramp.width is None or not np.isfinite(ramp.width):
            out = out + ramp.weight
        else:
            s = 1.0 / (1.0 + np.exp(-(v - ramp.center) / ramp.width))
            out = out + ramp.weight / ramp.width * s * (1.0 - s)
    for bump in _all_bumps(spec):
        out = out + bump.amplitude * np.exp(-0.5 * ((v - bump.center) / bump.width) ** 2)
    return out


def _raw_q(spec, v):
    """Exact antiderivative of _raw_dqdv, zero at the lower cutoff."""
    v = np.asarray(v, dtype=float)
    lo = spec.v_range[0]
    out = np.zeros_like(v)
    for ramp in spec.background:
        if ramp.width is None or not np.isfinite(ramp.width):
            out = out + ramp.weight * (v - lo)
        else:
            s_v = 1.0 / (1.0 + np.exp(-(v - ramp.center) / ramp.width))
            s_lo = 1.0 / (1.0 + np.exp(-(lo - ramp.center) / ramp.width))
            out = out + ramp.weight * (s_v - s_lo)
    for bump in _all_bumps(spec):
        out = out + bump.amplitude * bump.width * _SQRT_2PI * (
            ndtr((v - bump.center) / bump.width)
            - ndtr((lo - bump.center) / bump.width)
        )
    return out


def _scale(spec):
    return spec.capacity / float(_raw_q(spec, spec.v_range[1]))


def true_dqdv(spec: SynthSpec, v):
    """Exact dQ/dV of the noise-free first-cycle curve, in Ah/V."""
    return _scale(spec) * _raw_dqdv(spec, v)


def true_q(spec: SynthSpec, v):
    """Exact cumulative charge Q(v) of the noise-free first-cycle curve."""
    return _scale(spec) * _raw_q(spec, v)


def plating_spec(**overrides) -> SynthSpec:
    """Default plating scenario: a plating bump at 4.08 V, width 0.03 V,
    3x the (uniform) background level."""
    kwargs = dict(plating_bump=GaussianBump(4.08, 0.03, 3.0))
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def baseline_spec(**overrides) -> SynthSpec:
    """Default no-plating scenario: the two staging bumps only."""
    kwargs = dict(staging_bumps=(GaussianBump(3.45, 0.05, 2.0), GaussianBump(3.75, 0.06, 2.5)))
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def _invert_q(spec, q_values, n_grid=8001):
    lo, hi = spec.v_range
    vv = np.linspace(lo, hi, n_grid)
    qq = true_q(spec, vv)
    return np.interp(q_values, qq, vv)


def generate_cycle(spec: SynthSpec, cycle: int) -> ChargeLog:
    """One CC charge cycle as a ChargeLog fragment (time starts at 0).

    The implied constant current is a 1C rate on the nominal capacity;
    per-cycle capacity shrinks linearly, by fade_rate * (cycle - 1) of the
    first-cycle value.  Charge-channel noise is realized as voltage jitter
    scaled by the local inverse slope.  Deterministic given (spec.seed, cycle).
    """
    if not 1 <= cycle <= spec.n_cycles:
        raise InvalidSpec(f"cycle must be in [1, {spec.n_cycles}], got {cycle}")
    ff = 1.0 - spec.fade_rate * (cycle - 1)
    current = spec.capacity  # amperes: 1C on nominal capacity
    cap_c = spec.capacity * ff
    t_end = cap_c / current * SECONDS_PER_HOUR

    t = np.linspace(0.0, t_end, spec.n_samples)
    q = current * t / SECONDS_PER_HOUR  # exact coulomb count, Ah
    # cycle curve is the first-cycle curve scaled by ff: invert at q / ff
    v = _invert_q(spec, q / ff)

    if spec.noise_std > 0:
        rng = np.random.default_rng([spec.seed, cycle])
        eps = rng.normal(0.0, spec.noise_std, size=spec.n_samples)
        slope = ff * true_dqdv(spec, v)
        v = v + eps / slope
        v = np.clip(v, spec.v_range[0], spec.v_range[1])

    return ChargeLog(
        t=t,
        i=np.full(spec.n_samples, current),
        v=v,
        cycle=np.full(spec.n_samples, cycle, dtype=int),
    )


REST_SECONDS = 300.0
_N_REST_SAMPLES = 5


def generate_log(spec: SynthSpec) -> ChargeLog:
    """All cycles concatenated into one log, with a 5-minute zero-current
    rest between consecutive charges."""
    t_parts, i_parts, v_parts, c_parts = [], [], [], []
    offset = 0.0
    for cycle in range(1, spec.n_cycles + 1):
        frag = generate_cycle(spec, cycle)
        if cycle > 1:
            # keep global time strictly increasing across the rest boundary
            offset += frag.t[1] - frag.t[0]
        t_parts.append(frag.t + offset)
        i_parts.append(frag.i)
        v_parts.append(frag.v)
        c_parts.append(frag.cycle)
        offset = t_parts[-1][-1]
        if cycle < spec.n_cycles:
            rest_t = offset + np.linspace(
                REST_SECONDS / _N_REST_SAMPLES, REST_SECONDS, _N_REST_SAMPLES
            )
            t_parts.append(rest_t)
            i_parts.append(np.zeros(_N_REST_SAMPLES))
            v_parts.append(np.full(_N_REST_SAMPLES, frag.v[-1]))
            c_parts.append(np.full(_N_REST_SAMPLES, cycle, dtype=int))
            offset = rest_t[-1]
    return ChargeLog(
        t=np.concatenate(t_parts),
        i=np.concatenate(i_parts),
        v=np.concatenate(v_parts),
        cycle=np.concatenate(c_parts),
    )
