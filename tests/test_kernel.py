"""Kernel block functions checked against finite differences of k itself."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdv_gp.kernel import (
    PARAMS,
    Hyperparams,
    jitter_for,
    k,
    k_cross,
    k_dd,
    kernel_matrix,
    log_param_grads,
)

HP = Hyperparams(length_scale=0.1, signal_std=0.02, noise_std=1e-4)


def test_k_at_zero_distance_is_signal_variance():
    assert k(1.7, 1.7, HP) == pytest.approx(HP.signal_std**2, rel=1e-15)


def test_k_known_value():
    # alpha = 1: sigma_f^2 / (1 + 0.05^2 / (2 * 0.1^2))
    expected = 0.02**2 / 1.125
    assert k(3.80, 3.75, HP) == pytest.approx(expected, rel=1e-12)


def test_unit_signal_reference_values():
    # alpha = 1, so r = 1 + d^2 / (2 l^2)
    hp = Hyperparams(length_scale=0.1, signal_std=1.0, noise_std=0.0)
    # d = 0.2: r = 3
    assert k(3.8, 4.0, hp) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # d = 0.1: r = 1.5, (x - x*) / l^2 * r^-2 = 10 / 2.25
    assert k_cross(4.0, 3.9, hp) == pytest.approx(10.0 / 2.25, rel=1e-12)
    # d = -0.2: 100 * (3^-2 - 2 * 4 * 3^-3)
    assert k_dd(4.0, 4.2, hp) == pytest.approx(100.0 * (1.0 / 9.0 - 8.0 / 27.0),
                                               rel=1e-12)
    assert k(1.7, 1.7, Hyperparams(1.0, 2.0, 0.0)) == pytest.approx(4.0)


def test_k_cross_zero_on_diagonal():
    assert k_cross(3.9, 3.9, HP) == 0.0


def test_k_dd_diagonal():
    assert k_dd(3.3, 3.3, HP) == pytest.approx(HP.signal_std**2 / HP.length_scale**2)


def test_k_cross_antisymmetric():
    a = k_cross(3.8, 3.9, HP)
    b = k_cross(3.9, 3.8, HP)
    assert a == pytest.approx(-b, rel=1e-12)


def _rand_rq_hp(rng):
    return Hyperparams(
        length_scale=float(rng.uniform(0.01, 1.0)),
        signal_std=float(rng.uniform(1e-3, 1.0)),
        noise_std=float(rng.uniform(0.0, 0.1)),
        alpha=float(np.exp(rng.uniform(np.log(1e-2), np.log(1e3)))),
    )


def test_k_cross_matches_fd_of_k():
    # d/dx* k(x, x*) at 1000 random triples at the near-SE alpha 1e8
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(1000):
        hp = replace(_rand_rq_hp(rng), alpha=1e8)
        x, xs = rng.uniform(2.5, 4.5, size=2)
        fd = (k(x, xs + h, hp) - k(x, xs - h, hp)) / (2 * h)
        val = k_cross(x, xs, hp)
        scale = max(abs(fd), hp.signal_std**2 / hp.length_scale * 1e-3)
        assert abs(val - fd) <= 1e-6 * scale + 1e-12


def test_k_dd_matches_second_fd_of_k():
    # as above for d^2/da db, at the near-SE alpha 1e8
    rng = np.random.default_rng(8)
    for _ in range(1000):
        hp = replace(_rand_rq_hp(rng), alpha=1e8)
        a, b = rng.uniform(2.5, 4.5, size=2)
        h = 1e-4 * hp.length_scale
        # d^2/da db via the cross-difference stencil
        fd = (
            k(a + h, b + h, hp) - k(a + h, b - h, hp)
            - k(a - h, b + h, hp) + k(a - h, b - h, hp)
        ) / (4 * h * h)
        val = k_dd(a, b, hp)
        scale = hp.signal_std**2 / hp.length_scale**2
        assert abs(val - fd) <= 1e-4 * scale


def test_rq_k_cross_matches_fd_of_k():
    # d/dx* k(x, x*) at 1000 random triples with random alpha
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(1000):
        hp = _rand_rq_hp(rng)
        x, xs = rng.uniform(2.5, 4.5, size=2)
        fd = (k(x, xs + h, hp) - k(x, xs - h, hp)) / (2 * h)
        val = k_cross(x, xs, hp)
        scale = max(abs(fd), hp.signal_std**2 / hp.length_scale * 1e-3)
        assert abs(val - fd) <= 1e-6 * scale + 1e-12


def test_rq_k_dd_matches_second_fd_of_k():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        hp = _rand_rq_hp(rng)
        a, b = rng.uniform(2.5, 4.5, size=2)
        h = 1e-4 * hp.length_scale
        fd = (
            k(a + h, b + h, hp) - k(a + h, b - h, hp)
            - k(a - h, b + h, hp) + k(a - h, b - h, hp)
        ) / (4 * h * h)
        val = k_dd(a, b, hp)
        scale = hp.signal_std**2 / hp.length_scale**2
        assert abs(val - fd) <= 1e-4 * scale


def test_rq_reference_values_and_diagonals():
    hp = Hyperparams(length_scale=0.1, signal_std=1.0, noise_std=0.0, alpha=2.0)
    # r = 1 + 0.2^2 / (2 * 2 * 0.01) = 2
    assert k(3.8, 4.0, hp) == pytest.approx(2.0**-2, rel=1e-12)
    # (x - x*) / l^2 * r^(-alpha-1) = 20 * 2^-3
    assert k_cross(4.0, 3.8, hp) == pytest.approx(20.0 * 2.0**-3, rel=1e-12)
    # 100 * (2^-3 - 1.5 * 4 * 2^-4)
    assert k_dd(4.0, 3.8, hp) == pytest.approx(100.0 * (2.0**-3 - 1.5 * 4.0 * 2.0**-4),
                                               rel=1e-12)
    assert k(3.3, 3.3, hp) == pytest.approx(1.0, rel=1e-15)
    assert k_cross(3.3, 3.3, hp) == 0.0
    assert k_dd(3.3, 3.3, hp) == pytest.approx(1.0 / 0.01, rel=1e-12)


def test_rq_tends_to_se_for_large_alpha():
    # the fit bounds alpha at 1e3, which smooth data reach; the closed-form SE
    # blocks here are the alpha -> infinity limit
    xs = np.linspace(2.8, 4.1, 25)
    d = xs[:, None] - xs[None, :]
    ell2 = HP.length_scale**2
    se_vv = HP.signal_std**2 * np.exp(-0.5 * d * d / ell2)
    se = {"VV": se_vv, "VD": se_vv * d / ell2, "DD": se_vv * (1.0 / ell2 - d * d / ell2**2)}
    rq = replace(HP, alpha=1e8)
    for block, se_m in se.items():
        rq_m = kernel_matrix(xs, xs, rq, block)
        assert np.allclose(rq_m, se_m, rtol=1e-6, atol=1e-9 * np.abs(se_m).max())


def test_kernel_matrix_shapes_and_entries():
    xs = np.array([3.0, 3.5, 4.0])
    xs2 = np.array([3.2, 3.8])
    m = kernel_matrix(xs, xs2, HP, "VD")
    assert m.shape == (3, 2)
    assert m[1, 0] == pytest.approx(k_cross(3.5, 3.2, HP))


def test_kernel_matrix_vv_symmetric_psd():
    xs = np.linspace(2.8, 4.1, 40)
    m = kernel_matrix(xs, xs, HP, "VV")
    assert np.allclose(m, m.T)
    w = np.linalg.eigvalsh(m)
    assert w.min() >= -1e-12 * w.max()


def test_log_param_grads_match_fd_of_kernel_matrix():
    # the Gram matrix is the VV block bit for bit, so the model conditioned
    # at the optimum reproduces the LML of the optimizer's last evaluation
    rng = np.random.default_rng(45)
    xs = np.linspace(-0.65, 0.65, 30)
    for _ in range(10):
        hp = _rand_rq_hp(rng)
        kv, d_ell, d_alpha = log_param_grads(xs, hp)
        assert np.array_equal(kv, kernel_matrix(xs, xs, hp, "VV"))
        for field, grad in (("length_scale", d_ell), ("alpha", d_alpha)):
            h = 1e-5
            value = getattr(hp, field)
            kp = kernel_matrix(xs, xs, replace(hp, **{field: value * np.exp(h)}), "VV")
            km = kernel_matrix(xs, xs, replace(hp, **{field: value * np.exp(-h)}), "VV")
            fd = (kp - km) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9 * hp.signal_std**2)


def test_kernel_matrix_rejects_unknown_block():
    with pytest.raises(ValueError, match="unknown block"):
        kernel_matrix([1.0], [1.0], HP, "DV")


@given(
    ell=st.floats(1e-3, 10.0),
    sf=st.floats(1e-4, 10.0),
    sn=st.floats(0.0, 1.0),
    alpha=st.floats(1e-2, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_hyperparams_roundtrip_and_jitter_floor(ell, sf, sn, alpha):
    hp = Hyperparams(ell, sf, sn, alpha)
    assert Hyperparams(**hp.to_dict()) == hp
    assert jitter_for(hp) >= 1e-10
    assert jitter_for(hp) >= 1e-12 * sf**2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length_scale": 0.0, "signal_std": 1.0, "noise_std": 0.0},
        {"length_scale": -1.0, "signal_std": 1.0, "noise_std": 0.0},
        {"length_scale": 1.0, "signal_std": 0.0, "noise_std": 0.0},
        {"length_scale": 1.0, "signal_std": 1.0, "noise_std": -1e-9},
        {"length_scale": np.nan, "signal_std": 1.0, "noise_std": 0.0},
        {"length_scale": 1.0, "signal_std": 1.0, "noise_std": 0.0, "alpha": 0.0},
        {"length_scale": 1.0, "signal_std": 1.0, "noise_std": 0.0, "alpha": np.inf},
    ],
)
def test_hyperparams_validation(kwargs):
    with pytest.raises(ValueError):
        Hyperparams(**kwargs)


def test_params_table_follows_hyperparams_field_order():
    assert [p.name for p in PARAMS] == [f.name for f in fields(Hyperparams)]
    for p in PARAMS:
        assert p.unit in ("V", "Ah", "")
        assert 0 < p.bounds[0] < p.bounds[1]
        assert all(p.bounds[0] <= start <= p.bounds[1] for start in p.starts)
