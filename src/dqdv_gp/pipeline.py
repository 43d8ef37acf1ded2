"""End-to-end helpers wiring ingest -> fit -> derivative -> detection,
shared by the CLI and the benchmark harness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import baseline, detect, ingest, synth
from .derivative import DEFAULT_GRID_N, DEFAULT_LEVEL, derivative_posterior
from .gp_core import TrainingSet, fit
from .ingest import QVCurve, clean_qv, coulomb_count, extract_cc_charge
from .kernel import Hyperparams

__all__ = ["analyze_curve", "log_to_curves", "paired_trial"]


def analyze_curve(
    curve: QVCurve,
    grid_n: int = DEFAULT_GRID_N,
    level: float = DEFAULT_LEVEL,
    threshold_v: float = detect.THRESHOLD_V_DEFAULT,
    start: Hyperparams | None = None,
):
    """Fit, differentiate, and classify one cycle.

    ``start`` is passed to ``fit``: hyperparameters to ascend from, such as
    the previous cycle's ``model.hp``.  Returns (model, posterior, report);
    classification errors propagate.  The report holds no hyperparameters:
    ``model.hp`` has them.
    """
    model = fit(TrainingSet(xs=curve.v, ys=curve.q), start)
    grid = np.linspace(curve.v[0], curve.v[-1], grid_n)
    post = derivative_posterior(model, grid, level)
    report = detect.classify(post, threshold_v=threshold_v, cycle=curve.cycle)
    return model, post, report


def log_to_curves(
    log,
    cc_tol: float = ingest.CC_TOL_DEFAULT,
    vmin: float = ingest.V_MIN_DEFAULT,
    vmax: float = ingest.V_MAX_DEFAULT,
    max_points: int = ingest.MAX_POINTS_DEFAULT,
    capacity_ah: float | None = None,
):
    """Segment a charge log into cleaned per-cycle Q(V) curves."""
    segments = extract_cc_charge(log, tol=cc_tol)
    curves = []
    for seg in segments:
        raw = coulomb_count(seg, capacity_ah=capacity_ah)
        curves.append(clean_qv(raw, max_points=max_points, vmin=vmin, vmax=vmax))
    return curves


INTERIOR_FRAC = 0.05  # fraction of the voltage span excluded at each edge


def interior_mask(grid):
    lo, hi = grid[0], grid[-1]
    margin = INTERIOR_FRAC * (hi - lo)
    eps = 1e-12 * (hi - lo)  # keep boundary points despite round-off
    return (grid >= lo + margin - eps) & (grid <= hi - margin + eps)


def paired_trial(
    spec: synth.SynthSpec,
    seed: int = 0,
    sg_cfg: baseline.SgConfig | None = None,
):
    """One paired GP-vs-SG trial on a synthetic cycle with known truth.

    Both methods see the identical cleaned curve and matched grids.
    Returns per-seed metrics: RMSEs vs truth, GP peak-location error (when a
    plating bump exists), and empirical credible-band coverage.
    """
    spec = replace(spec, seed=seed)

    log = synth.generate_cycle(spec, 1)
    curves = log_to_curves(
        log, vmin=spec.v_range[0], vmax=spec.v_range[1], capacity_ah=spec.capacity
    )
    curve = curves[0]

    model, post, report = analyze_curve(curve)
    truth = synth.true_dqdv(spec, post.grid)
    mask = interior_mask(post.grid)
    gp_rmse = float(np.sqrt(np.mean((post.mean[mask] - truth[mask]) ** 2)))

    sg_grid, sg_dqdv = baseline.fd_dqdv(curve, sg_cfg or baseline.SgConfig())
    sg_truth = synth.true_dqdv(spec, sg_grid)
    sg_mask = interior_mask(sg_grid)
    sg_rmse = float(np.sqrt(np.mean((sg_dqdv[sg_mask] - sg_truth[sg_mask]) ** 2)))

    covered = (truth >= post.lower) & (truth <= post.upper)
    coverage = float(np.mean(covered[mask]))

    v_peak_err = np.nan
    # report.peaks are the candidates above the default threshold
    if spec.plating_bump is not None and report.peaks:
        best = max(report.peaks, key=lambda p: p.magnitude)
        v_peak_err = abs(best.v_peak - spec.plating_bump.center)

    return {
        "seed": seed,
        "gp_rmse": gp_rmse,
        "sg_rmse": sg_rmse,
        "v_peak_err": float(v_peak_err),
        "coverage": coverage,
        "length_scale": model.hp.length_scale,
        "noise_std": model.hp.noise_std,
        "alpha": model.hp.alpha,
    }
