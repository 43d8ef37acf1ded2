"""End-to-end helpers: segmentation to verdict on synthetic logs."""

import numpy as np
import pytest

from dqdv_gp.pipeline import analyze_curve, interior_mask, log_to_curves, paired_trial
from dqdv_gp.synth import baseline_spec, generate_log, plating_spec, true_dqdv


def test_interior_mask_trims_five_percent():
    grid = np.linspace(0.0, 1.0, 101)
    mask = interior_mask(grid)
    assert not mask[:5].any() and not mask[-5:].any()
    assert mask[5] and mask[-6]


@pytest.fixture(scope="module")
def plating_run():
    spec = plating_spec(seed=0)
    curves = log_to_curves(generate_log(spec), capacity_ah=spec.capacity)
    model, post, report = analyze_curve(curves[0])
    return spec, curves[0], model, post, report


def test_log_to_curves_shapes(plating_run):
    _, curve, _, _, _ = plating_run
    assert curve.cycle == 1
    assert np.all(np.diff(curve.v) > 0)
    assert curve.q[0] == 0.0


def test_analyze_curve_detects_plating(plating_run):
    spec, _, _, post, report = plating_run
    assert report.verdict == "Plating"
    best = max(report.peaks, key=lambda p: p.magnitude)
    assert best.v_peak == pytest.approx(4.08, abs=0.02)
    assert report.grid_n == len(post.grid)


def test_posterior_tracks_truth(plating_run):
    spec, _, _, post, _ = plating_run
    truth = true_dqdv(spec, post.grid)
    mask = interior_mask(post.grid)
    rel = np.abs(post.mean[mask] - truth[mask]) / truth[mask].max()
    assert np.median(rel) < 0.02


def test_baseline_curve_is_no_plating():
    spec = baseline_spec(seed=1)
    curves = log_to_curves(generate_log(spec), capacity_ah=spec.capacity)
    _, _, report = analyze_curve(curves[0])
    assert report.verdict == "NoPlating"


def test_paired_trial_fields_and_reproducibility():
    spec = plating_spec(n_samples=150)
    row = paired_trial(spec, seed=4)
    again = paired_trial(spec, seed=4)
    assert row == again
    assert set(row) == {
        "seed", "gp_rmse", "sg_rmse", "v_peak_err", "coverage",
        "length_scale", "noise_std", "alpha",
    }
    assert 0.0 <= row["coverage"] <= 1.0
    assert row["gp_rmse"] > 0 and row["sg_rmse"] > 0
