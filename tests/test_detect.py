"""Peak finding and plating classification on hand-built posteriors."""

import numpy as np
import pytest
from scipy.stats import norm

from dqdv_gp.derivative import DerivativePosterior
from dqdv_gp.detect import PeakCandidate, classify, find_peaks
from dqdv_gp.errors import GridDoesNotReachThreshold


def _post(grid, mean, sd, level=0.95):
    """Posterior with the given mean and standard deviation (scalar or per sample)."""
    grid = np.asarray(grid, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(sd, dtype=float) ** 2 * np.ones_like(mean)
    z = norm.ppf(0.5 + level / 2.0)
    half = z * np.sqrt(var)
    return DerivativePosterior(
        grid=grid, mean=mean, var=var, level=level, halfwidth=half,
        lower=mean - half, upper=mean + half,
    )


GRID = np.linspace(2.8, 4.2, 400)


def _gauss(center, width, amp):
    return amp * np.exp(-0.5 * ((GRID - center) / width) ** 2)


class TestFindPeaks:
    def test_single_gaussian_location_and_height(self):
        post = _post(GRID, 0.02 + _gauss(3.6, 0.05, 0.1), 1e-4)
        peaks = find_peaks(post)
        assert len(peaks) == 1
        # quadratic refinement should land well inside one grid step (3.5 mV)
        assert peaks[0].v_peak == pytest.approx(3.6, abs=1e-3)
        assert peaks[0].magnitude == pytest.approx(0.12, rel=1e-3)

    def test_refined_location_beats_grid_resolution(self):
        # put the true peak deliberately between grid points
        step = GRID[1] - GRID[0]
        center = GRID[200] + 0.37 * step
        post = _post(GRID, _gauss(center, 0.04, 0.1), 1e-5)
        (peak,) = find_peaks(post)
        assert abs(peak.v_peak - center) < 0.15 * step

    def test_prominence_filter(self):
        mean = _gauss(3.4, 0.05, 0.1) + _gauss(3.9, 0.05, 0.003)
        post = _post(GRID, mean, 1e-5)
        assert len(find_peaks(post, min_prominence_frac=0.05)) == 1
        assert len(find_peaks(post, min_prominence_frac=0.01)) == 2

    def test_peaks_sorted_by_voltage(self):
        mean = _gauss(3.9, 0.05, 0.08) + _gauss(3.3, 0.05, 0.1)
        peaks = find_peaks(_post(GRID, mean, 1e-5))
        assert [round(p.v_peak, 1) for p in peaks] == [3.3, 3.9]

    def test_flat_mean_no_peaks(self):
        assert find_peaks(_post(GRID, np.full_like(GRID, 0.03), 1e-5)) == []

    def test_endpoint_maxima_excluded(self):
        mean = np.linspace(0.0, 1.0, len(GRID))  # max at the right endpoint
        assert find_peaks(_post(GRID, mean, 1e-5)) == []

    def test_three_sample_plateau_keeps_middle_grid_point(self):
        # a flat top has no curvature to refine from: the middle sample stands
        mean = _gauss(GRID[200], 0.05, 0.1)
        mean[199:202] = 0.1
        (peak,) = find_peaks(_post(GRID, mean, 1e-5))
        assert (peak.v_peak, peak.magnitude, peak.index) == (GRID[200], 0.1, 200)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            find_peaks(_post(GRID[:4], np.zeros(4), 1e-5))


class TestClassify:
    def test_plating_verdict_with_resolved_peak(self):
        mean = 0.02 + _gauss(3.5, 0.06, 0.06) + _gauss(4.08, 0.03, 0.08)
        report = classify(_post(GRID, mean, 1e-4))
        assert report.verdict == "Plating"
        assert any(p.v_peak > 4.0 for p in report.peaks)

    def test_no_plating_without_high_voltage_peak(self):
        mean = 0.02 + _gauss(3.45, 0.05, 0.06) + _gauss(3.75, 0.06, 0.07)
        report = classify(_post(GRID, mean, 1e-4))
        assert report.verdict == "NoPlating"
        assert report.peaks == ()

    def test_unresolved_peak_is_not_plating(self):
        # the bump exists in the mean but drowns inside the credible band
        mean = 0.02 + _gauss(4.08, 0.03, 0.01)
        report = classify(_post(GRID, mean, sd=0.05))
        assert report.verdict == "NoPlating"
        # the candidate is still reported for inspection
        assert len(report.peaks) == 1

    def test_grid_below_threshold_raises(self):
        grid = np.linspace(2.8, 3.95, 200)
        mean = 0.02 + np.exp(-0.5 * ((grid - 3.5) / 0.05) ** 2) * 0.1
        with pytest.raises(GridDoesNotReachThreshold):
            classify(_post(grid, mean, 1e-4))

    def test_threshold_is_configurable(self):
        mean = 0.02 + _gauss(3.9, 0.03, 0.08)
        assert classify(_post(GRID, mean, 1e-4)).verdict == "NoPlating"
        report = classify(_post(GRID, mean, 1e-4), threshold_v=3.8)
        assert report.verdict == "Plating"

    def test_plateau_tested_at_the_sample_find_peaks_found(self):
        # a two-sample plateau: the quadratic refinement puts the peak half a
        # step right of the sample scipy reports, which on this grid rounds
        # nearer the right-hand sample.  Only the reported sample is resolved
        # beyond its band, so the verdict shows which sample was tested.
        i = 348
        mean = np.full_like(GRID, 0.02)
        mean[i - 2:i + 4] = [0.06, 0.08, 0.1, 0.1, 0.08, 0.06]
        sd = np.full_like(GRID, 1e-4)
        sd[i + 1] = 0.05
        post = _post(GRID, mean, sd)
        (peak,) = find_peaks(post)
        assert peak.index == i
        assert peak.v_peak == pytest.approx(0.5 * (GRID[i] + GRID[i + 1]))
        assert np.argmin(np.abs(GRID - peak.v_peak)) == i + 1
        report = classify(post)
        assert report.peaks == (peak,)
        assert peak.band_halfwidth == pytest.approx(norm.ppf(0.975) * 1e-4)
        assert report.verdict == "Plating"

    def test_report_json_schema(self):
        mean = 0.02 + _gauss(4.08, 0.03, 0.08)
        doc = classify(_post(GRID, mean, 1e-4), cycle=7).to_dict()
        assert set(doc) == {"cycle", "verdict", "threshold_v", "peaks", "grid"}
        assert doc["cycle"] == 7
        assert set(doc["grid"]) == {"vmin", "vmax", "n"}
        for p in doc["peaks"]:
            assert set(p) == {
                "v_peak", "magnitude", "band_halfwidth", "prominence", "confidence_pct"
            }


def _peak(magnitude, band_halfwidth):
    return PeakCandidate(v_peak=4.08, magnitude=magnitude, band_halfwidth=band_halfwidth,
                         prominence=magnitude, index=368)


def test_confidence_metric():
    assert _peak(0.1, 0.005).confidence_pct == pytest.approx(5.0)
    with pytest.raises(ValueError):
        _peak(0.0, 0.1).confidence_pct


def test_confidence_metric_edge_values():
    assert _peak(0.1, 0.0).confidence_pct == 0.0
    # the tightness regime quoted for well-resolved plating peaks
    assert _peak(0.05, 1.5e-4).confidence_pct == pytest.approx(0.3)


def test_confidence_grows_with_injected_noise():
    from dqdv_gp.pipeline import analyze_curve, log_to_curves
    from dqdv_gp.synth import generate_cycle, plating_spec

    conf = []
    for ns in (2e-6, 2e-5, 2e-4):
        spec = plating_spec(noise_std=ns, n_samples=200, seed=1)
        log = generate_cycle(spec, 1)
        (curve,) = log_to_curves(log, capacity_ah=spec.capacity)
        _, _, report = analyze_curve(curve)
        best = max(report.peaks, key=lambda p: p.magnitude)
        conf.append(best.confidence_pct)
    assert conf[0] < conf[1] < conf[2]


def test_single_bump_on_flat_background_refined():
    post = _post(GRID, 0.02 + _gauss(4.05, 0.04, 0.1), 1e-5)
    (peak,) = find_peaks(post)
    assert abs(peak.v_peak - 4.05) <= 0.005
