"""Uncertainty-aware peak detection on the dQ/dV posterior and plating
classification via the >4.0 V signature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivative import DerivativePosterior
from .errors import GridDoesNotReachThreshold

__all__ = [
    "PeakCandidate",
    "PlatingReport",
    "find_peaks",
    "classify",
    "THRESHOLD_V_DEFAULT",
    "MIN_PROMINENCE_FRAC_DEFAULT",
]

THRESHOLD_V_DEFAULT = 4.0
MIN_PROMINENCE_FRAC_DEFAULT = 0.05
MIN_GRID_N = 5

VERDICT_PLATING = "Plating"
VERDICT_NO_PLATING = "NoPlating"


@dataclass(frozen=True)
class PeakCandidate:
    """A significant interior local maximum of the dQ/dV posterior mean.

    ``index`` is the grid sample at which the maximum was found; the band
    half-width is read there and the band-separation test runs there.  The
    report leaves it out.
    """

    v_peak: float
    magnitude: float
    band_halfwidth: float
    prominence: float
    index: int

    @property
    def confidence_pct(self) -> float:
        """Credible-band half-width at the peak as a percentage of its magnitude."""
        if self.magnitude <= 0:
            raise ValueError("peak magnitude must be positive")
        return 100.0 * self.band_halfwidth / self.magnitude

    def to_dict(self):
        return {
            "v_peak": float(self.v_peak),
            "magnitude": float(self.magnitude),
            "band_halfwidth": float(self.band_halfwidth),
            "prominence": float(self.prominence),
            "confidence_pct": float(self.confidence_pct),
        }


@dataclass(frozen=True)
class PlatingReport:
    """Per-cycle classification outcome, decided from the dQ/dV posterior
    alone; the fit behind it is recorded by the caller."""

    cycle: int
    verdict: str
    peaks: tuple
    threshold_v: float
    grid_vmin: float
    grid_vmax: float
    grid_n: int

    def to_dict(self):
        return {
            "cycle": int(self.cycle),
            "verdict": self.verdict,
            "threshold_v": float(self.threshold_v),
            "peaks": [p.to_dict() for p in self.peaks],
            "grid": {
                "vmin": float(self.grid_vmin),
                "vmax": float(self.grid_vmax),
                "n": int(self.grid_n),
            },
        }


def _refine_quadratic(grid, mean, idx):
    """Sub-grid peak location/height from a parabola through 3 samples."""
    y0, y1, y2 = mean[idx - 1], mean[idx], mean[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0:  # not locally concave; keep the grid point
        return float(grid[idx]), float(y1)
    delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    v_peak = float(grid[idx] + delta * (grid[idx + 1] - grid[idx]))
    height = float(y1 - 0.25 * (y0 - y2) * delta)
    return v_peak, height


def _prominent_maxima(x, floor):
    """The indices and prominences that ``scipy.signal.find_peaks(x,
    prominence=floor)`` returns, bit for bit, for ``x`` of at least one sample.

    A local maximum is a run of equal samples that rises from the sample
    before it and falls to the sample after it; a run touching either end
    never counts.  A flat top yields its middle sample, rounded down.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    tops = x[starts]
    is_peak = (tops[:-2] < tops[1:-1]) & (tops[2:] < tops[1:-1])
    peaks = ((starts[1:-1] + starts[2:] - 1) // 2)[is_peak]
    prominences = _prominences(x, peaks)
    keep = prominences >= floor
    return peaks[keep], prominences[keep]


def _prominences(x, peaks):
    """Prominence of each of ``peaks`` in ``x``, as scipy.signal.peak_prominences
    computes it with no window.

    Each base search runs outward from the peak until a sample that is
    higher or NaN (a stop), or the end of ``x``; the prominence is the peak's
    height less the higher of the two minima passed.
    """
    bases = np.empty(len(peaks))
    for k, peak in enumerate(peaks.tolist()):
        stops = np.flatnonzero(~(x <= x[peak]))
        after = np.searchsorted(stops, peak)
        lo = stops[after - 1] + 1 if after > 0 else 0
        hi = stops[after] if after < len(stops) else len(x)
        bases[k] = max(x[lo:peak + 1].min(), x[peak:hi].min())
    return x[peaks] - bases


def find_peaks(
    post: DerivativePosterior,
    min_prominence_frac: float = MIN_PROMINENCE_FRAC_DEFAULT,
) -> list[PeakCandidate]:
    """Interior local maxima of the posterior mean filtered by prominence.

    The prominence floor is ``min_prominence_frac`` times the peak-to-peak
    range of the mean; locations are refined by quadratic interpolation.
    Maxima and prominences follow scipy.signal.find_peaks bit for bit, so
    endpoints are never candidates: a maximum is a run of equal samples with
    a lower sample on each side.  Each candidate's band half-width is the
    posterior's own, read at the sample where the maximum was found.
    """
    mean = post.mean
    if len(mean) < MIN_GRID_N:
        raise ValueError(f"grid must have at least {MIN_GRID_N} points")
    rng = float(np.max(mean) - np.min(mean))
    if rng <= 0:
        return []
    idxs, prominences = _prominent_maxima(mean, min_prominence_frac * rng)

    out = []
    for idx, prominence in zip(idxs.tolist(), prominences.tolist()):
        v_peak, magnitude = _refine_quadratic(post.grid, mean, idx)
        if magnitude <= 0:
            continue
        out.append(
            PeakCandidate(
                v_peak=v_peak,
                magnitude=magnitude,
                band_halfwidth=float(post.halfwidth[idx]),
                prominence=prominence,
                index=idx,
            )
        )
    out.sort(key=lambda p: p.v_peak)
    return out


def _band_separated(post: DerivativePosterior, peak_idx: int) -> bool:
    """Peak resolved beyond uncertainty: its lower credible bound exceeds the
    upper bound at the higher-voltage flanking minimum (or grid end)."""
    right = post.mean[peak_idx:]
    min_idx = peak_idx + int(np.argmin(right))
    return post.lower[peak_idx] > post.upper[min_idx]


def classify(
    post: DerivativePosterior,
    threshold_v: float = THRESHOLD_V_DEFAULT,
    cycle: int = 0,
) -> PlatingReport:
    """Classify one cycle by the above-threshold differential-peak signature.

    Reads nothing but the posterior.  Verdict is Plating iff some candidate
    sits above ``threshold_v`` and is resolved beyond its credible band: the
    lower bound at the candidate's sample (``PeakCandidate.index``) exceeds
    the upper bound at the flanking minimum on its higher-voltage side (or
    at the grid end).  Candidates above the threshold are reported either
    way.  Raises GridDoesNotReachThreshold when the grid tops out at
    or below the threshold (the cycle carries no evidence either way).
    """
    if float(post.grid[-1]) <= threshold_v:
        raise GridDoesNotReachThreshold(
            f"grid ends at {float(post.grid[-1]):.3f} V <= threshold {threshold_v} V"
        )

    candidates = find_peaks(post)
    above = [p for p in candidates if p.v_peak > threshold_v]

    any_significant = any(_band_separated(post, p.index) for p in above)

    return PlatingReport(
        cycle=cycle,
        verdict=VERDICT_PLATING if any_significant else VERDICT_NO_PLATING,
        peaks=tuple(above),
        threshold_v=threshold_v,
        grid_vmin=float(post.grid[0]),
        grid_vmax=float(post.grid[-1]),
        grid_n=len(post.grid),
    )
