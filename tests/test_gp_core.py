"""GP conditioning and hyperparameter optimization.

The LML is cross-checked against a dense reimplementation using slogdet
and a direct solve, with no shared code path.
"""

import itertools
import tracemalloc
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import Bounds, minimize

from dqdv_gp import gp_core, kernel, pipeline, synth
from dqdv_gp.errors import AllStartsFailed, FactorizationFailure
from dqdv_gp.gp_core import (
    TrainingSet,
    default_inits,
    fit,
    log_marginal_likelihood,
    posterior_mean,
)
from dqdv_gp.kernel import Hyperparams, jitter_for, kernel_matrix
from dqdv_gp.pipeline import analyze_curve, log_to_curves


def _dense_lml(train, hp):
    """Independent oracle: standardized-data LML via slogdet + solve,
    shifted back to natural units."""
    s = max(float(np.std(train.ys)), 1e-12)
    hp_i = Hyperparams(hp.length_scale, hp.signal_std / s, hp.noise_std / s, hp.alpha)
    x = train.xs - train.xs.mean()
    y = (train.ys - train.ys.mean()) / s
    kn = kernel_matrix(x, x, hp_i, "VV") + (
        hp_i.noise_std**2 + jitter_for(hp_i)
    ) * np.eye(len(x))
    sign, logdet = np.linalg.slogdet(kn)
    assert sign > 0
    quad = float(y @ np.linalg.solve(kn, y))
    n = len(x)
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi) - n * np.log(s)


def _toy_train(n=40, seed=0, noise=1e-3):
    rng = np.random.default_rng(seed)
    xs = np.linspace(2.8, 4.1, n)
    ys = 0.03 * np.sin(3.0 * xs) + 0.01 * xs + rng.normal(0, noise, n)
    return TrainingSet(xs, ys)


def test_lml_matches_dense_oracle():
    train = _toy_train()
    for hp in [
        Hyperparams(0.1, 0.02, 1e-3),
        Hyperparams(0.5, 0.05, 1e-2),
        Hyperparams(0.03, 0.01, 1e-4),
        Hyperparams(0.1, 0.02, 1e-3, 0.05),
        Hyperparams(0.5, 0.05, 1e-2, 300.0),
    ]:
        val, _ = log_marginal_likelihood(train, hp)
        assert val == pytest.approx(_dense_lml(train, hp), rel=1e-9, abs=1e-9)


def _check_lml_gradient(train, theta, make_hp=Hyperparams, **kw):
    # the gradient in PARAMS order, (log l, log sigma_f, log sigma_n,
    # log alpha) for the RQ kernel, against central differences; ``kw``
    # passes profile=True to check the profiled LML instead
    grad = log_marginal_likelihood(train, make_hp(*theta), **kw)[1]
    assert grad.shape == (len(theta),)
    log_theta = np.log(theta)

    def central(j, h):
        tp, tm = log_theta.copy(), log_theta.copy()
        tp[j] += h
        tm[j] -= h
        fp = log_marginal_likelihood(train, make_hp(*np.exp(tp)), **kw)[0]
        fm = log_marginal_likelihood(train, make_hp(*np.exp(tm)), **kw)[0]
        return (fp - fm) / (2 * h)

    for j in range(len(theta)):
        # Richardson-extrapolated stencil: at large alpha the LML is nearly
        # flat in log alpha and a 1e-6 step drowns in cancellation
        h = 1e-3
        fd = (4.0 * central(j, h / 2) - central(j, h)) / 3.0
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_lml_gradient_matches_fd():
    # at the near-SE alpha 1e8
    rng = np.random.default_rng(42)
    train = _toy_train(30, seed=1)
    for _ in range(20):
        theta = np.array(
            [rng.uniform(0.02, 0.6), rng.uniform(0.005, 0.1), rng.uniform(1e-4, 1e-2), 1e8]
        )
        _check_lml_gradient(train, theta)


def test_rq_lml_gradient_matches_fd():
    rng = np.random.default_rng(43)
    train = _toy_train(30, seed=2)
    for _ in range(20):
        theta = np.array([
            rng.uniform(0.02, 0.6), rng.uniform(0.005, 0.1), rng.uniform(1e-4, 1e-2),
            np.exp(rng.uniform(np.log(1e-2), np.log(1e3))),
        ])
        _check_lml_gradient(train, theta)


def _check_profiled_lml(train, theta, make_hp=Hyperparams):
    # the profiled value is the LML at the peak it reports, and its gradient
    # matches central differences of the profiled value
    val, grad, hess, peak = log_marginal_likelihood(train, make_hp(*theta), profile=True)
    assert hess is None
    assert isinstance(peak, make_hp)
    assert peak.noise_std / peak.signal_std == pytest.approx(theta[2] / theta[1], rel=1e-12)
    assert val == pytest.approx(log_marginal_likelihood(train, peak)[0], rel=1e-9)
    assert grad[1] == -grad[2]
    _check_lml_gradient(train, theta, make_hp, profile=True)
    _check_profiled_hessian(train, theta, make_hp)
    return grad, peak


def _check_profiled_hessian(train, theta, make_hp):
    # the Hessian in PARAMS order against central differences of the
    # analytic profiled gradient, at the same value, gradient and peak as
    # the first-order evaluation; its sigma_f row and column are minus
    # sigma_n's, as the profile depends on them only through their ratio
    hp = make_hp(*theta)
    with pytest.raises(ValueError, match="profiled"):
        log_marginal_likelihood(train, hp, order=2)
    val, grad, hess, peak = log_marginal_likelihood(train, hp, profile=True, order=2)
    first = log_marginal_likelihood(train, hp, profile=True)
    assert (val, peak) == (first[0], first[3])
    assert np.array_equal(grad, first[1])
    assert hess.shape == (len(theta), len(theta))
    np.testing.assert_array_equal(hess, hess.T)
    np.testing.assert_array_equal(hess[1], -hess[2])
    log_theta, h = np.log(theta), 1e-5
    fd = np.empty_like(hess)
    for j in range(len(theta)):
        tp, tm = log_theta.copy(), log_theta.copy()
        tp[j] += h
        tm[j] -= h
        gp = log_marginal_likelihood(train, make_hp(*np.exp(tp)), profile=True)[1]
        gm = log_marginal_likelihood(train, make_hp(*np.exp(tm)), profile=True)[1]
        fd[:, j] = (gp - gm) / (2 * h)
    np.testing.assert_allclose(hess, fd, rtol=2e-4, atol=2e-4 * np.max(np.abs(fd)))


def test_profiled_lml_matches_the_lml_at_its_peak_and_fd():
    rng = np.random.default_rng(45)
    train = _toy_train(30, seed=2)
    for _ in range(20):
        theta = np.array([
            rng.uniform(0.02, 0.6), rng.uniform(0.005, 0.1), rng.uniform(1e-4, 1e-2),
            np.exp(rng.uniform(np.log(1e-2), np.log(1e3))),
        ])
        grad, peak = _check_profiled_lml(train, theta)
        # no bound holds here, so the gradient is the full one at the peak
        # (the envelope theorem)
        full = log_marginal_likelihood(train, peak)[1]
        np.testing.assert_allclose(grad, full, rtol=1e-5, atol=1e-6)
        # both factor the same C, so the l, sigma_n and alpha entries, which
        # share their traces, agree to rounding
        np.testing.assert_allclose(grad[[0, 2, 3]], full[[0, 2, 3]], rtol=0,
                                   atol=1e-14 * np.max(np.abs(full)))


@pytest.mark.parametrize("row, bounds, held", [
    ("signal_std", (1e-6, 0.5), 0.5),
    ("noise_std", (1e-1, 1.0), 1e-1),
])
def test_profiled_lml_holds_the_peak_inside_the_table_bounds(monkeypatch, row, bounds, held):
    # narrowed bounds put the unconstrained peak outside them: the peak
    # lands on the bound, and the value is still the LML there with the
    # gradient of the constrained profile
    params = tuple(p._replace(bounds=bounds) if p.name == row else p for p in kernel.PARAMS)
    monkeypatch.setattr(gp_core, "PARAMS", params)
    train = _toy_train(30, seed=2)
    theta = np.array([0.2, train.y_std, 1e-3 * train.y_std, 2.0])
    _, peak = _check_profiled_lml(train, theta)
    assert getattr(peak, row) == held * train.y_std


def _dense_lml_grad(train, hp):
    """Independent gradient oracle: 0.5 tr((a a^T - Kn^-1) dKn/dtheta) with a
    dense np.linalg.inv and closed-form dKn blocks.  Also returns cond(Kn)."""
    s = max(float(np.std(train.ys)), 1e-12)
    ell, sf, sn, alpha = hp.length_scale, hp.signal_std / s, hp.noise_std / s, hp.alpha
    x = train.xs - train.xs.mean()
    y = (train.ys - train.ys.mean()) / s
    d2 = np.subtract.outer(x, x) ** 2
    r = 1.0 + d2 / (2.0 * alpha * ell**2)
    kf = sf**2 * r**-alpha
    eye = np.eye(len(x))
    # the jitter is a fraction of sigma_f^2, so it moves with log sigma_f
    jitter = jitter_for(Hyperparams(ell, sf, sn, alpha))
    kn = kf + (sn**2 + jitter) * eye
    kinv = np.linalg.inv(kn)
    a = kinv @ y
    inner = np.outer(a, a) - kinv
    blocks = [
        kf * d2 / (ell**2 * r),                      # d / d log l
        2.0 * (kf + jitter * eye),                   # d / d log sigma_f
        2.0 * sn**2 * eye,                           # d / d log sigma_n
        kf * alpha * ((r - 1.0) / r - np.log(r)),    # d / d log alpha
    ]
    return np.array([0.5 * np.sum(inner * b) for b in blocks]), np.linalg.cond(kn)


def test_lml_gradient_matches_dense_inverse_at_scale():
    # n = 300, where the lower-triangle traces and the dpotri inverse carry
    # the product; the FD checks above run at n = 30
    train = _toy_train(300, seed=6)
    s = train.y_std
    h = float(np.diff(train.xs)[0])
    rng = np.random.default_rng(44)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    cases = [
        # alpha at both ends of the fit's bounds; noise at the jitter floor
        # (sigma_n^2 = 1e-10 in standardized units)
        Hyperparams(0.5 * h, s, 1e-5 * s, 1e-2),
        Hyperparams(0.5 * h, s, 1e-5 * s, 1e3),
        Hyperparams(1.5 * h, 2.0 * s, 1e-5 * s, 1.2e-2),
        Hyperparams(h, 0.5 * s, 2e-5 * s, 8e2),
    ]
    for _ in range(8):
        cases.append(Hyperparams(
            log_uniform(0.3 * h, 1.5 * h), log_uniform(0.3 * s, 3.0 * s),
            log_uniform(1e-5 * s, 1e-1 * s), log_uniform(1e-2, 1e3)))
    for _ in range(4):
        # fit-like: long length scale and small alpha, as on plating cycles
        cases.append(Hyperparams(
            log_uniform(0.02, 0.1), log_uniform(0.3 * s, 3.0 * s),
            log_uniform(1e-2 * s, 1e-1 * s), log_uniform(1e-2, 1e-1)))
    for hp in cases:
        ref, cond = _dense_lml_grad(train, hp)
        # the float64 reference inverse is itself good to about cond * eps
        assert cond < 1e6, hp
        _, grad = log_marginal_likelihood(train, hp)
        np.testing.assert_allclose(grad, ref, rtol=1e-8, err_msg=str(hp))


def test_indefinite_gram_raises_factorization_failure(monkeypatch):
    # raw dpotrf does no finiteness check, so both a negative and a NaN
    # diagonal must still surface as FactorizationFailure
    train = _toy_train(40, seed=1)
    hp = Hyperparams(0.1, 0.02, 1e-3)
    for jitter in (lambda hp_i: -2.0 * hp_i.signal_std**2, lambda hp_i: np.nan):
        monkeypatch.setattr(gp_core, "jitter_for", jitter)
        with pytest.raises(FactorizationFailure):
            log_marginal_likelihood(train, hp)
        # every start then scores the optimizer penalty
        with pytest.raises(AllStartsFailed):
            fit(train)


def test_fit_evaluates_through_module_lml(monkeypatch):
    # the benchmark counts LML calls per fit by patching this module attribute
    calls = []
    lml = gp_core.log_marginal_likelihood

    def counted(train, hp, *rest, **kw):
        calls.append(hp)
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    train = _toy_train(40, seed=3)
    fit(train)
    assert len(calls) >= len(default_inits(train)) + 1


def test_fit_optimizes_alpha():
    train = _toy_train(50, seed=4)
    (row,) = [p for p in kernel.PARAMS if p.name == "alpha"]
    (alpha0,) = row.starts
    assert all(hp0.alpha == alpha0 for hp0 in default_inits(train))
    alpha = fit(train).hp.alpha
    assert alpha != alpha0 and row.bounds[0] <= alpha <= row.bounds[1]


def test_lml_single_zero_observation():
    # quadratic term vanishes; only the 1x1 determinant and constant remain
    hp = Hyperparams(0.1, 0.02, 1e-3)
    val, _ = log_marginal_likelihood(TrainingSet(np.array([3.5]), np.array([0.0])), hp)
    expected = -0.5 * np.log(hp.signal_std**2 + hp.noise_std**2) - 0.5 * np.log(2 * np.pi)
    assert val == pytest.approx(expected, rel=1e-6)


def test_fit_constant_data_degenerates_gracefully():
    xs = np.linspace(2.8, 4.1, 30)
    model = fit(TrainingSet(xs, np.full(30, 0.0137)))
    mu = posterior_mean(model, np.array([3.0, 3.7]))
    assert np.max(np.abs(mu - 0.0137)) < 1e-6


def test_posterior_mean_reverts_to_training_mean_far_away():
    train = _toy_train(60, seed=8)
    model = fit(train)
    far = np.array([train.xs[-1] + 50 * model.hp.length_scale])
    assert posterior_mean(model, far)[0] == pytest.approx(train.ys.mean(), abs=1e-6)


def test_fit_never_worse_than_inits():
    train = _toy_train(50, seed=3)
    model = fit(train)
    for hp0 in default_inits(train):
        lml0, _ = log_marginal_likelihood(train, hp0)
        assert model.lml >= lml0 - 1e-9


def test_fit_recovers_noise_on_gp_draw():
    # data drawn from the model itself; sigma_n should come back near truth
    rng = np.random.default_rng(11)
    xs = np.linspace(2.8, 4.1, 200)
    hp_true = Hyperparams(0.15, 0.02, 5e-4)
    cov = kernel_matrix(xs, xs, hp_true, "VV") + 1e-12 * np.eye(len(xs))
    f = np.linalg.cholesky(cov) @ rng.standard_normal(len(xs))
    ys = f + rng.normal(0, hp_true.noise_std, len(xs))
    model = fit(TrainingSet(xs, ys))
    assert model.hp.noise_std == pytest.approx(hp_true.noise_std, rel=0.35)
    assert model.hp.length_scale == pytest.approx(hp_true.length_scale, rel=0.5)


def test_posterior_mean_interpolates_in_low_noise():
    train = _toy_train(60, seed=5, noise=1e-6)
    model = fit(train)
    mu = posterior_mean(model, train.xs)
    assert np.max(np.abs(mu - train.ys)) < 1e-4 * np.ptp(train.ys)


def test_trainingset_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        TrainingSet(np.array([1.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError, match="equal length"):
        TrainingSet(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError, match="finite"):
        TrainingSet(np.array([1.0, 2.0]), np.array([0.0, np.inf]))


def test_fit_requires_enough_points():
    with pytest.raises(ValueError, match="at least 4"):
        fit(TrainingSet(np.arange(3.0), np.zeros(3)))


def test_jitter_keeps_near_duplicates_factorizable():
    # zero noise with a tight input cluster is rank-deficient up to round-off;
    # the diagonal jitter must keep the factorization alive
    xs = np.array([3.0, 3.0 + 1e-13, 3.0 + 2e-13, 4.0])
    ys = np.array([0.0, 1.0, 0.0, 1.0])
    val, _ = log_marginal_likelihood(TrainingSet(xs, ys), Hyperparams(1.0, 1.0, 0.0))
    assert np.isfinite(val)


def test_fit_is_deterministic():
    train = _toy_train(45, seed=9)
    m1 = fit(train)
    m2 = fit(train)
    assert m1.hp == m2.hp
    assert m1.lml == m2.lml


def _synth_curve(make_spec, seed):
    # one 300-point cycle, cleaned as the pipeline cleans it
    spec = replace(make_spec(), seed=seed)
    log = synth.generate_cycle(spec, 1)
    return log_to_curves(
        log, vmin=spec.v_range[0], vmax=spec.v_range[1], capacity_ah=spec.capacity)[0]


def _tight_ascent(train, hp):
    """A much tighter L-BFGS-B ascent of the full LML from ``hp``: the -LML
    at ``hp`` and the lowest -LML the ascent visited, with its
    hyperparameters.  The lowest, because a line search that fails can hand
    back a trial point below its start."""
    seen = []

    def neg_lml(log_theta):
        val, grad = log_marginal_likelihood(train, Hyperparams(*np.exp(log_theta)))
        seen.append((-val, log_theta.copy()))
        return -val, -grad

    x0 = np.log([hp.length_scale, hp.signal_std, hp.noise_std, hp.alpha])
    start = neg_lml(x0)[0]
    minimize(neg_lml, x0, jac=True, method="L-BFGS-B",
             options={"maxiter": 1000, "ftol": 1e-12, "gtol": 1e-9})
    best, x = min(seen, key=lambda point: point[0])
    return start, best, Hyperparams(*np.exp(x))


def _counted_ascents(monkeypatch):
    # one entry per ascent: the benchmark counts ascents by patching this
    # module attribute
    ascents = []

    def counted(*args, **kwargs):
        ascents.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(gp_core, "minimize", counted)
    return ascents


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
@pytest.mark.parametrize("seed", range(4))
def test_fit_stops_within_1e5_nats_of_a_tight_ascent(make_spec, seed, monkeypatch):
    # the LML_TOL stop may leave at most 1e-5 nats for a much tighter
    # L-BFGS-B ascent to gain from the fitted optimum
    curve = _synth_curve(make_spec, seed)
    assert len(curve) == 300
    train = TrainingSet(curve.v, curve.q)
    ascents = _counted_ascents(monkeypatch)
    hp = fit(train).hp
    # the stop counts as converged: no fallback ascent from another start
    assert len(ascents) == 1
    start, best, _ = _tight_ascent(train, hp)
    assert start - best <= 1e-5


def _four_cycle_curves(make_spec, seed=0):
    # a 4-cycle log with fade, cut to 250 points per cycle as analyze's
    # --max-points 250 cuts fleet logs
    spec = make_spec(n_cycles=4, n_samples=3000, fade_rate=0.02, seed=seed)
    curves = log_to_curves(synth.generate_log(spec), vmin=spec.v_range[0],
                           vmax=spec.v_range[1], capacity_ah=spec.capacity,
                           max_points=250)
    assert len(curves) == 4 and all(len(curve) == 250 for curve in curves)
    return curves


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
@pytest.mark.parametrize("seed", range(4))
def test_warm_refits_stop_within_1e5_nats_of_a_tight_ascent(make_spec, seed, monkeypatch):
    # cycles 2-4 refitted from the previous cycle's optimum, as analyze
    # chains them: the stop may leave at most 1e-5 nats for a much tighter
    # ascent, as for a cold fit.  These seeds hold refits that a stop on
    # quiet iterations ends up to 5e-4 nats short, on the ridge in alpha
    curves = _four_cycle_curves(make_spec, seed)
    ascents = _counted_ascents(monkeypatch)
    start = fit(TrainingSet(curves[0].v, curves[0].q)).hp
    for curve in curves[1:]:
        train = TrainingSet(curve.v, curve.q)
        ascents.clear()
        model = fit(train, start=start)
        assert model.fit_start == "warm" and len(ascents) == 1, curve.cycle
        before, best, _ = _tight_ascent(train, model.hp)
        assert before - best <= 1e-5, curve.cycle
        start = model.hp


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
def test_fit_evaluation_budget(make_spec, monkeypatch):
    # LML evaluations per fit, a count that does not depend on the machine:
    # a cold fit scores the five default starts by value alone and ascends
    # in at most 16 evaluations; warm refits of cycles 2-4 average at most 6
    curves = _four_cycle_curves(make_spec)
    orders = []
    lml = gp_core.log_marginal_likelihood

    def counted(train, hp, *rest, **kw):
        orders.append(kw.get("order", 1))
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    start, warm = None, []
    for curve in curves:
        train = TrainingSet(curve.v, curve.q)
        orders.clear()
        cold = fit(train)
        assert cold.fit_start == "cold"
        assert orders[:5] == [0] * 5 and 0 not in orders[5:]
        assert len(orders) - 5 <= 16, curve.cycle
        if start is not None:
            orders.clear()
            model = fit(train, start=start)
            assert model.fit_start == "warm" and 0 not in orders
            warm.append(len(orders))
        start = (model if start is not None else cold).hp
    assert np.mean(warm) <= 6, warm


def test_cold_fit_budget_from_the_data_derived_starts(monkeypatch):
    # the default starts put sigma_n at the pseudo-residual estimate and
    # alpha at 0.1, near where a cold fit ends: over plating and no-plating
    # seeds 0-4, each cold fit scores exactly the five starts and then
    # evaluates the Hessian at most 8 times on average
    orders = []
    lml = gp_core.log_marginal_likelihood

    def counted(train, hp, *rest, **kw):
        orders.append(kw.get("order", 1))
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    hessians = []
    for make_spec in (synth.plating_spec, synth.baseline_spec):
        for seed in range(5):
            curve = _synth_curve(make_spec, seed)
            orders.clear()
            assert fit(TrainingSet(curve.v, curve.q)).fit_start == "cold"
            assert orders.count(0) == 5 and orders[:5] == [0] * 5
            hessians.append(orders.count(2))
    assert np.mean(hessians) <= 8, hessians


def _noise_start(train):
    (start,) = {hp.noise_std for hp in default_inits(train)}
    return start


def test_noise_start_vanishes_on_a_line_and_the_fit_holds_it_on_its_bound(monkeypatch):
    # the pseudo-residual weights interpolate linearly, so unevenly spaced
    # points on a line estimate no noise; the fit clips the zero start onto
    # sigma_n's lower bound, scores it there, and ends at that bound (up to
    # 10%: far below the jitter's sqrt(1e-10) sigma_f the LML barely moves
    # with sigma_n)
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(2.8, 4.1, 60))
    train = TrainingSet(xs, 0.035 * (xs - 2.8) + 0.002)
    assert _noise_start(train) <= 1e-14 * train.y_std
    (row,) = [p for p in kernel.PARAMS if p.name == "noise_std"]
    lower = row.bounds[0] * train.y_std
    scored = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest, **kw):
        out = lml(train, hp, *rest, **kw)
        scored.append(out[-1])
        return out

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    model = fit(train)
    assert scored[0].noise_std == pytest.approx(lower, rel=1e-12)
    assert model.fit_start == "cold" and lower <= model.hp.noise_std <= 1.1 * lower


def test_noise_start_scales_with_the_unit_of_q():
    train = _toy_train(80, seed=2)
    scaled = TrainingSet(train.xs, 1000.0 * train.ys)
    assert _noise_start(scaled) == pytest.approx(1000.0 * _noise_start(train), rel=1e-12)


@pytest.mark.parametrize("sigma", [1e-5, 1e-3])
def test_noise_start_estimates_the_noise_of_a_smooth_curve(sigma):
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(2.8, 4.1, 2000))
    ys = 0.03 * np.sin(3.0 * xs) + 0.01 * xs + rng.normal(0.0, sigma, len(xs))
    assert _noise_start(TrainingSet(xs, ys)) == pytest.approx(sigma, rel=0.1)


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
@pytest.mark.parametrize("seed", range(4))
def test_fit_meets_the_gate_against_a_tight_ascent(make_spec, seed, monkeypatch):
    # the fit ascends the profiled LML and stops at LML_TOL; the model at
    # the optimum of a much tighter ascent of the full LML must give the
    # same verdict, peaks, bands and means, within the gate
    curve = _synth_curve(make_spec, seed)
    fitted = analyze_curve(curve)
    train = TrainingSet(curve.v, curve.q)
    tight = gp_core._condition(train, _tight_ascent(train, fitted[0].hp)[2], "cold")
    monkeypatch.setattr(pipeline, "fit", lambda train, start=None: tight)
    assert _gate_failures(analyze_curve(curve), fitted) == []


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
def test_fit_does_not_depend_on_the_unit_of_q(make_spec):
    # Q x 1000 shifts the LML by -n log 1000 and nothing else, so the stop
    # must land on the same hyperparameters, up to rounding
    curve = _synth_curve(make_spec, 0)
    model, _, report = analyze_curve(curve)
    model_k, _, report_k = analyze_curve(replace(curve, q=1000.0 * curve.q))
    assert report_k.verdict == report.verdict
    assert [p.v_peak for p in report_k.peaks] == pytest.approx(
        [p.v_peak for p in report.peaks], abs=1e-6)
    assert model_k.lml == pytest.approx(model.lml - len(curve) * np.log(1000.0), abs=2e-5)


def _scale_cases(train):
    # alpha at both ends of the fit's bounds with the noise at the jitter
    # floor (sigma_n^2 = 1e-10 in standardized units), and a fit-like point
    s = train.y_std
    h = float(np.diff(train.xs)[0])
    return [
        Hyperparams(0.5 * h, s, 1e-5 * s, 1e-2),
        Hyperparams(0.5 * h, s, 1e-5 * s, 1e3),
        Hyperparams(0.05, 0.7 * s, 3e-2 * s, 3e-2),
    ]


def test_lml_into_buffers_is_bit_identical():
    # leftovers in the buffers, NaN or another evaluation's, must not leak
    # into the value or any gradient component
    train = _toy_train(300, seed=6)
    n = len(train)
    work = np.full_like(gp_core._workspace(n), np.nan)
    for hp in _scale_cases(train) * 2:
        val, grad = log_marginal_likelihood(train, hp)
        val_w, grad_w = log_marginal_likelihood(train, hp, work)
        assert val_w == val, hp
        assert np.array_equal(grad_w, grad), hp
        val, grad, hess, peak = log_marginal_likelihood(train, hp, profile=True, order=2)
        val_w, grad_w, hess_w, peak_w = log_marginal_likelihood(
            train, hp, work, profile=True, order=2)
        assert (val_w, peak_w) == (val, peak), hp
        assert np.array_equal(grad_w, grad), hp
        assert np.array_equal(hess_w, hess), hp


def test_lml_with_warm_buffers_allocates_no_n_by_n_array():
    # the Hessian's products and second-derivative blocks go into the
    # workspace, which holds one array per shape parameter more than the
    # gradient needs
    train = _toy_train(300, seed=6)
    n = len(train)
    work = gp_core._workspace(n)
    assert len(work) == len(kernel.PARAMS) + 1
    for hp, kw in itertools.product(_scale_cases(train), [{}, {"profile": True, "order": 2}]):
        log_marginal_likelihood(train, hp, work, **kw)
        tracemalloc.start()
        try:
            log_marginal_likelihood(train, hp, work, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, hp


def test_fit_scores_no_point_twice(monkeypatch):
    # no point is evaluated twice at the same derivative order: the cold
    # starts are scored by value alone, and the ascent evaluates the best of
    # them once more, with its Hessian, and every later point once
    curve = _synth_curve(synth.plating_spec, 0)
    train = TrainingSet(curve.v, curve.q)
    calls = []
    lml = gp_core.log_marginal_likelihood

    def counted(train, hp, *rest, **kw):
        calls.append((hp, kw.get("order", 1)))
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    fit(train)
    n_starts = len(default_inits(train))
    assert len(calls) > n_starts
    assert len(set(calls)) == len(calls)
    assert [order for _, order in calls[:n_starts]] == [0] * n_starts
    assert all(order == 2 for _, order in calls[n_starts:])
    assert calls[n_starts][0] in [hp for hp, _ in calls[:n_starts]]


def test_fit_frees_its_buffers_before_conditioning(monkeypatch):
    refs = []
    alive = []
    workspace, condition = gp_core._workspace, gp_core._condition

    def tracked(n):
        work = workspace(n)
        refs.append(weakref.ref(work))
        return work

    def checked(*args):
        alive.append(any(ref() is not None for ref in refs))
        return condition(*args)

    monkeypatch.setattr(gp_core, "_workspace", tracked)
    monkeypatch.setattr(gp_core, "_condition", checked)
    fit(_toy_train(40, seed=3))
    assert len(refs) == 1
    assert alive == [False]


@pytest.mark.parametrize("make_spec, seed", [
    (synth.plating_spec, 0),
    # cycles whose L-BFGS-B ascent ended at a point below the best it had
    # evaluated, after a failed line search or on a step that lost LML (2
    # OpenBLAS threads): 7 and 1 for the four-parameter ascent, 16 and 8 for
    # the profiled one
    (synth.baseline_spec, 7),
    (synth.baseline_spec, 1),
    (synth.baseline_spec, 16),
    (synth.baseline_spec, 8),
])
def test_fit_returns_the_best_point_it_evaluated(make_spec, seed, monkeypatch):
    curve = _synth_curve(make_spec, seed)
    train = TrainingSet(curve.v, curve.q)
    points = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest, **kw):
        # profiled: (value, grad, hess, the hyperparameters the value is at)
        result = lml(train, hp, *rest, **kw)
        points.append(result)
        return result

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    model = fit(train)
    best = max((p for p in points if np.isfinite(p[0])), key=lambda p: p[0])
    assert model.hp == best[3]
    # the model factors sigma_f^2 C where the fit factored C: at a 300-point
    # optimum each is a few 1e-6 nats from an 80-bit evaluation
    assert model.lml == pytest.approx(best[0], abs=1e-5)


def _quadratic(b, x_min):
    """f = (x - x_min)^T B (x - x_min) / 2 with its gradient and Hessian, for
    ``gp_core._trust_region_newton``, recording each point it evaluates."""
    b, x_min = np.asarray(b, dtype=float), np.asarray(x_min, dtype=float)
    points = []

    def fun(x):
        points.append(x.copy())
        d = x - x_min
        return 0.5 * d @ b @ d, b @ d, b

    return fun, points


def _newton(fun, x0, lo=-10.0, hi=10.0):
    x0 = np.asarray(x0, dtype=float)
    return gp_core._trust_region_newton(
        fun, x0, Bounds(np.full(len(x0), lo), np.full(len(x0), hi)), gp_core.MAX_ITER)


def test_newton_stops_where_the_newton_decrement_reaches_lml_tol():
    # on a quadratic the decrement g^T B^-1 g / 2 is the fall to the minimum;
    # a start whose decrement is at most LML_TOL stops there, one above it
    # takes the Newton step, which lands on the minimum and stops
    b = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1e-4]])
    for factor, nfev in ((0.99, 1), (1.01, 2)):
        d = np.array([0.3, -0.2, 0.5])
        d *= np.sqrt(factor * gp_core.LML_TOL / (0.5 * d @ b @ d))
        fun, points = _quadratic(b, np.zeros(3))
        res = _newton(fun, d)
        assert res.success and res.status == 0
        assert res.nfev == len(points) == nfev
        assert res.fun <= gp_core.LML_TOL
    # far from the minimum along the flat direction the gradient is small
    # (1e-4) but the decrement is not: the ascent does not stop there
    fun, points = _quadratic(b, np.zeros(3))
    res = _newton(fun, [0.0, 0.0, 1.0])
    assert res.success and len(points) > 1
    assert res.fun <= gp_core.LML_TOL


def test_newton_does_not_stop_where_the_hessian_is_not_positive_definite():
    # a stationary saddle has zero decrement, but f = x0^2 / 2 + cos(x1)
    # falls along x1: the ascent leaves it for the minimum at x1 = pi
    def fun(x):
        f = 0.5 * x[0] ** 2 + np.cos(x[1])
        return f, np.array([x[0], -np.sin(x[1])]), np.array([[1.0, 0.0], [0.0, -np.cos(x[1])]])

    res = _newton(fun, [0.0, 0.0])
    assert res.success
    assert abs(res.x[1]) == pytest.approx(np.pi, abs=1e-3)
    assert res.fun == pytest.approx(-1.0, abs=gp_core.LML_TOL)


def test_newton_holds_coordinates_whose_descent_leaves_the_box():
    # the minimum lies past the upper bound of x1: x1 ends on it, and the
    # decrement over x0 alone stops the ascent there
    fun, _ = _quadratic([[1.0, 0.3], [0.3, 1.0]], [0.2, 3.0])
    res = _newton(fun, [0.0, 0.0], lo=-1.0, hi=1.0)
    assert res.success
    assert res.x[1] == 1.0
    # the best x0 with x1 held at 1: 0.2 - 0.3 (1 - 3)
    assert res.x[0] == pytest.approx(0.8, abs=1e-3)


def test_newton_reports_a_start_it_cannot_evaluate_and_a_spent_budget():
    def failing(x):
        return gp_core._PENALTY, np.zeros(len(x)), np.zeros((len(x), len(x)))

    res = _newton(failing, [0.0, 0.0])
    assert not res.success and res.status == 2 and res.nfev == 1
    fun, _ = _quadratic(np.eye(2), [5.0, 5.0])
    res = gp_core._trust_region_newton(fun, np.zeros(2), Bounds([-10.0] * 2, [10.0] * 2), 2)
    assert not res.success and res.status == 1 and res.nit == 2


def _gate_failures(cold, warm):
    """What the analysis ``warm`` of a cycle, say a warm refit, breaks of the
    gate against the analysis ``cold`` of the same cycle, say its cold fit:
    verdict, peak count, peaks within 1e-6 V, half-widths within 1e-3
    relative, means within 1e-4 of their maximum."""
    (_, post_c, rep_c), (_, post_w, rep_w) = cold, warm
    fails = []
    if rep_w.verdict != rep_c.verdict:
        fails.append("verdict")
    peaks_c, peaks_w = [p.v_peak for p in rep_c.peaks], [p.v_peak for p in rep_w.peaks]
    if len(peaks_w) != len(peaks_c):
        fails.append("peak count")
    elif np.any(np.abs(np.subtract(peaks_w, peaks_c)) > 1e-6):
        fails.append("peaks")
    if np.max(np.abs(post_w.halfwidth - post_c.halfwidth) / post_c.halfwidth) > 1e-3:
        fails.append("half-widths")
    if np.max(np.abs(post_w.mean - post_c.mean)) > 1e-4 * np.max(np.abs(post_c.mean)):
        fails.append("means")
    return fails


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
def test_warm_refits_meet_the_gate_against_cold_fits(make_spec):
    # each later cycle is refitted from the previous cycle's optimum, as
    # analyze chains them, and compared with a fit that has no start
    spec = make_spec(n_cycles=3, n_samples=3000, fade_rate=0.02, seed=0)
    curves = log_to_curves(synth.generate_log(spec), vmin=spec.v_range[0],
                           vmax=spec.v_range[1], capacity_ah=spec.capacity,
                           max_points=250)
    assert len(curves) == 3 and all(len(curve) <= 250 for curve in curves)
    start = None
    for curve in curves:
        warm = analyze_curve(curve, start=start)
        if start is None:
            assert warm[0].fit_start == "cold"
        else:
            assert warm[0].fit_start == "warm"
            cold = analyze_curve(curve)
            assert cold[0].fit_start == "cold"
            assert _gate_failures(cold, warm) == [], curve.cycle
        start = warm[0].hp


def test_start_whose_lml_fails_gives_the_cold_fit(monkeypatch):
    train = _toy_train(50, seed=0)
    cold = fit(train)
    calls = []
    lml = gp_core.log_marginal_likelihood

    def failing_first(train, hp, *rest, **kw):
        # the start is the first point a fit with a start scores
        calls.append(hp)
        if len(calls) == 1:
            raise FactorizationFailure("start")
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", failing_first)
    start = Hyperparams(0.3, 2.0 * train.y_std, 0.05 * train.y_std, 3.0)
    model = fit(train, start=start)
    assert model.fit_start == "cold"
    assert model.hp == cold.hp
    assert model.lml == cold.lml
    assert np.array_equal(model.chol, cold.chol)
    assert np.array_equal(model.weights, cold.weights)


def test_start_that_ends_on_a_bound_is_the_answer(monkeypatch):
    # this toy set's optimum has alpha on its upper bound, 1e3 (the RQ
    # kernel's squared-exponential limit): an ascent that ends there is a
    # constrained maximum, so neither fit ascends a second start
    train = _toy_train(50, seed=3)
    ascents = _counted_ascents(monkeypatch)
    cold = fit(train)
    assert cold.hp.alpha == pytest.approx(1e3)
    assert len(ascents) == 1
    ascents.clear()
    model = fit(train, start=replace(cold.hp, alpha=1e3))
    assert model.fit_start == "warm"
    assert len(ascents) == 1
    assert model.lml == pytest.approx(cold.lml, abs=1e-6)


def _noise_free_sine():
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(2.8, 4.1, 60))
    return TrainingSet(xs, 0.03 * np.sin(3.0 * xs) + 0.01 * xs)


@pytest.mark.parametrize("train", [
    # sigma_n ends held on its lower bound, alpha on its upper one
    pytest.param(_noise_free_sine(), id="noise-free-sine"),
    pytest.param(TrainingSet(np.linspace(2.8, 4.1, 30), np.full(30, 0.0137)), id="constant"),
    # alpha ends on its upper bound
    *(pytest.param(_toy_train(50, seed), id=f"toy-{seed}") for seed in range(1, 10)),
])
def test_cold_fit_that_ends_on_a_bound_runs_one_ascent(train, monkeypatch):
    # a cold fit ascends the best-scored start once, and no second start
    # would have gained more than 1e-5 nats: each default start ascended
    # alone reaches at most that much above it
    ascents = _counted_ascents(monkeypatch)
    model = fit(train)
    assert len(ascents) == 1
    best_single = max(fit(train, start=hp0).lml for hp0 in default_inits(train))
    assert model.lml >= best_single - 1e-5


def test_ascent_that_spends_its_budget_moves_to_the_next_start(monkeypatch):
    # with a one-iteration budget every ascent fails: the warm one, then each
    # default start in the order of its value-only score, best first; the
    # model is the best point any of them evaluated
    monkeypatch.setattr(gp_core, "MAX_ITER", 1)
    train = _toy_train(50, seed=0)
    calls = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest, **kw):
        out = lml(train, hp, *rest, **kw)
        calls.append((hp, kw.get("order", 1), out))
        return out

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    firsts = []

    def counted(*args, **kwargs):
        # the first point an ascent evaluates is its start
        firsts.append(len(calls))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(gp_core, "minimize", counted)
    start = Hyperparams(0.3, 2.0 * train.y_std, 0.05 * train.y_std, 3.0)
    model = fit(train, start=start)
    assert model.fit_start == "cold"
    n_starts = len(default_inits(train))
    assert len(firsts) == 1 + n_starts
    scores = [(hp, out[0]) for hp, order, out in calls if order == 0]
    assert len(scores) == n_starts
    by_score = [hp for hp, _ in sorted(scores, key=lambda st: -st[1])]
    assert [calls[i][0] for i in firsts[1:]] == by_score
    best = max((out for _, _, out in calls), key=lambda out: out[0])
    assert model.hp == best[3]
    assert model.lml == pytest.approx(best[0], abs=1e-5)


@pytest.mark.filterwarnings("error")
def test_zero_noise_and_out_of_range_starts_clip_to_the_table_bounds(monkeypatch):
    # a zero noise has no logarithm: its start lands on the lower bound,
    # 1e-8 std(Q), and an alpha past 1e3 on the upper one, with no warning;
    # the profiled fit then reads the start's ratio sigma_n / sigma_f
    train = _toy_train(50, seed=0)
    s = train.y_std
    calls = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest, **kw):
        calls.append(hp)
        return lml(train, hp, *rest, **kw)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    fit(train, start=Hyperparams(0.1, s, 0.0, 1e6))
    first = calls[0]
    assert first.noise_std / first.signal_std == pytest.approx(1e-8 * s / s, rel=1e-12)
    assert first.alpha == np.exp(np.log(1e3))
    assert first.length_scale == np.exp(np.log(0.1))


@dataclass(frozen=True)
class _OffsetHyperparams:
    length_scale: float
    signal_std: float
    noise_std: float
    alpha: float
    offset: float


def _offset_rq(hp):
    """The RQ part of K = sigma_f^2 (r^-alpha + b^2), and sigma_f^2 b^2."""
    rq = Hyperparams(hp.length_scale, hp.signal_std, hp.noise_std, hp.alpha)
    return rq, hp.signal_std**2 * hp.offset**2


def _offset_log_param_grads(xs, hp, out=None):
    out = np.empty((4, len(xs), len(xs))) if out is None else out
    rq, c = _offset_rq(hp)
    kernel.log_param_grads(xs, rq, out=out[:3])
    out[0] += c
    out[3][...] = 2.0 * c       # dK / d log b
    return list(out)


def _offset_log_param_hessian(xs, hp, grads, out):
    # the offset's only non-zero second derivative is d2K / d log b^2 = 4 c
    rq, c = _offset_rq(hp)
    yield from kernel.log_param_hessian(xs, rq, grads[:2], out)
    out[0][...] = 4.0 * c
    yield 2, 2, out[0]


def _offset_kernel_matrix(xs, xs2, hp, block="VV"):
    assert block == "VV"
    rq, c = _offset_rq(hp)
    return kernel.kernel_matrix(xs, xs2, rq, block) + c


def test_a_fifth_parameter_fits_through_the_table(monkeypatch):
    # RQ plus a dimensionless offset b: a kernel with one more row in
    # PARAMS reaches the LML gradient and Hessian, the bounds and the starts
    # with no edit to fit
    params = kernel.PARAMS + (kernel.Param("offset", "", (1e-3, 10.0), (0.1,)),)
    monkeypatch.setattr(gp_core, "PARAMS", params)
    monkeypatch.setattr(gp_core, "Hyperparams", _OffsetHyperparams)
    monkeypatch.setattr(gp_core, "log_param_grads", _offset_log_param_grads)
    monkeypatch.setattr(gp_core, "log_param_hessian", _offset_log_param_hessian)
    monkeypatch.setattr(gp_core, "kernel_matrix", _offset_kernel_matrix)
    train = _toy_train(40, seed=5)
    # four for the gradient, and one per shape parameter for the Hessian
    assert len(gp_core._workspace(len(train))) == 7
    _check_lml_gradient(train, np.array([0.2, 0.02, 1e-3, 2.0, 0.3]), _OffsetHyperparams)
    _check_profiled_lml(train, np.array([0.2, 0.02, 1e-3, 2.0, 0.3]), _OffsetHyperparams)

    assert [hp.offset for hp in default_inits(train)] == [0.1] * 5
    model = fit(train)
    assert isinstance(model.hp, _OffsetHyperparams)
    scale = gp_core._scales(train)
    for p in params:
        lo, hi = np.multiply(p.bounds, scale[p.unit])
        assert lo * (1 - 1e-12) <= getattr(model.hp, p.name) <= hi * (1 + 1e-12), p.name
