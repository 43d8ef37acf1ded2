"""Synthetic-data generator: closed-form truth, determinism, and the
noise-free pipeline round trip."""

import numpy as np
import pytest

from dqdv_gp.errors import InvalidSpec
from dqdv_gp.ingest import clean_qv, coulomb_count, extract_cc_charge
from dqdv_gp.synth import (
    GaussianBump,
    LogisticRamp,
    SynthSpec,
    baseline_spec,
    generate_cycle,
    generate_log,
    plating_spec,
    true_dqdv,
    true_q,
)


def _logistic_spec():
    """A sigmoidal background step on top of the uniform one, so the
    finite-width branches of the closed-form truth run."""
    return plating_spec(background=(LogisticRamp(), LogisticRamp(3.7, 0.08, 0.5)))


def test_capacity_normalization():
    for spec in (plating_spec(), baseline_spec(), SynthSpec(), _logistic_spec()):
        assert true_q(spec, spec.v_range[1]) == pytest.approx(spec.capacity, rel=1e-12)
        assert true_q(spec, spec.v_range[0]) == 0.0


def test_true_dqdv_is_derivative_of_true_q():
    v = np.linspace(2.8, 4.15, 500)
    h = 1e-6
    for spec in (plating_spec(), _logistic_spec()):
        fd = (true_q(spec, v + h) - true_q(spec, v - h)) / (2 * h)
        assert np.max(np.abs(fd - true_dqdv(spec, v))) < 1e-7 * np.max(np.abs(fd))


def test_plating_bump_visible_in_truth():
    spec = plating_spec()
    v = np.linspace(4.0, 4.2, 200)
    dq = true_dqdv(spec, v)
    assert v[np.argmax(dq)] == pytest.approx(4.08, abs=2e-3)


def test_baseline_has_no_high_voltage_peak():
    spec = baseline_spec()
    v = np.linspace(4.0, 4.2, 200)
    dq = true_dqdv(spec, v)
    # background only above 4 V: monotone-ish, no interior max
    assert np.argmax(dq) in (0, len(v) - 1)


def test_generate_cycle_deterministic():
    spec = plating_spec(seed=5)
    a = generate_cycle(spec, 1)
    b = generate_cycle(spec, 1)
    np.testing.assert_array_equal(a.v, b.v)
    c = generate_cycle(plating_spec(seed=6), 1)
    assert not np.array_equal(a.v, c.v)


def test_cycles_use_independent_noise():
    spec = plating_spec(n_cycles=2)
    a = generate_cycle(spec, 1)
    b = generate_cycle(spec, 2)
    assert not np.array_equal(a.v, b.v)


def test_noise_free_roundtrip_through_pipeline():
    spec = plating_spec(noise_std=0.0, n_samples=400)
    log = generate_cycle(spec, 1)
    (seg,) = extract_cc_charge(log)
    curve = clean_qv(coulomb_count(seg), vmin=spec.v_range[0], vmax=spec.v_range[1])
    q_true = true_q(spec, curve.v) - true_q(spec, curve.v[0])
    assert np.max(np.abs(curve.q - q_true)) < 1e-6 * spec.capacity


def test_fade_scales_capacity():
    spec = plating_spec(noise_std=0.0, fade_rate=0.02, n_cycles=3)
    q_ends = []
    for cycle in (1, 2, 3):
        log = generate_cycle(spec, cycle)
        (seg,) = extract_cc_charge(log)
        q_ends.append(coulomb_count(seg).q[-1])
    assert q_ends[1] / q_ends[0] == pytest.approx(0.98, rel=1e-6)
    assert q_ends[2] / q_ends[0] == pytest.approx(0.96, rel=1e-6)


def test_generate_log_inserts_rests():
    spec = plating_spec(n_cycles=3, n_samples=50)
    log = generate_log(spec)
    assert set(np.unique(log.cycle)) == {1, 2, 3}
    assert np.any(log.i == 0.0)  # rest samples
    assert np.all(np.diff(log.t) > 0)
    segs = extract_cc_charge(log)
    assert [s.cycle for s in segs] == [1, 2, 3]


def test_spec_roundtrip():
    spec = plating_spec(seed=9, fade_rate=0.01, n_cycles=4)
    assert SynthSpec.from_dict(spec.to_dict()) == spec


def test_uniform_background_component():
    spec = SynthSpec(background=(LogisticRamp(weight=2.0),), noise_std=0.0)
    v = np.linspace(2.8, 4.1, 50)
    dq = true_dqdv(spec, v)
    assert np.allclose(dq, dq[0])  # constant derivative


@pytest.mark.parametrize(
    "kwargs",
    [
        {"v_range": (4.2, 2.75)},
        {"capacity": 0.0},
        {"background": ()},
        {"plating_bump": GaussianBump(3.9, 0.03, 3.0)},  # center below 4.0 V
        {"plating_bump": GaussianBump(4.08, 0.0, 3.0)},
        {"noise_std": -1e-6},
        {"n_samples": 5},
        {"fade_rate": 1.0},
        {"n_cycles": 0},
        {"v_range": (2.75, float("inf"))},
        {"v_range": (-float("inf"), 4.2)},
        {"capacity": float("nan")},
        {"capacity": float("inf")},
        {"noise_std": float("inf")},
    ],
)
def test_invalid_specs(kwargs):
    with pytest.raises(InvalidSpec):
        SynthSpec(**kwargs)


def test_cycle_out_of_range():
    spec = plating_spec(n_cycles=2)
    with pytest.raises(InvalidSpec):
        generate_cycle(spec, 3)
    with pytest.raises(InvalidSpec):
        generate_cycle(spec, 0)
