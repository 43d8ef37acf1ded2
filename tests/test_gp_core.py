"""GP conditioning and hyperparameter optimization.

The LML is cross-checked against a dense reimplementation using slogdet
and a direct solve, with no shared code path.
"""

import tracemalloc
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from dqdv_gp import gp_core, kernel, synth
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


def _check_lml_gradient(train, theta, make_hp=Hyperparams):
    # the gradient in PARAMS order, (log l, log sigma_f, log sigma_n,
    # log alpha) for the RQ kernel, against central differences
    _, grad = log_marginal_likelihood(train, make_hp(*theta))
    assert grad.shape == (len(theta),)
    log_theta = np.log(theta)

    def central(j, h):
        tp, tm = log_theta.copy(), log_theta.copy()
        tp[j] += h
        tm[j] -= h
        fp, _ = log_marginal_likelihood(train, make_hp(*np.exp(tp)))
        fm, _ = log_marginal_likelihood(train, make_hp(*np.exp(tm)))
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
    kn = kf + (sn**2 + max(1e-10, 1e-12 * sf**2)) * eye
    kinv = np.linalg.inv(kn)
    a = kinv @ y
    inner = np.outer(a, a) - kinv
    blocks = [
        kf * d2 / (ell**2 * r),                      # d / d log l
        2.0 * kf,                                    # d / d log sigma_f
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

    def counted(train, hp, *rest):
        calls.append(hp)
        return lml(train, hp, *rest)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    train = _toy_train(40, seed=3)
    fit(train)
    assert len(calls) >= len(default_inits(train)) + 1


def test_fit_optimizes_alpha():
    train = _toy_train(50, seed=4)
    assert all(hp0.alpha == 1.0 for hp0 in default_inits(train))
    alpha = fit(train).hp.alpha
    assert alpha != 1.0 and 1e-2 <= alpha <= 1e3


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


@pytest.mark.parametrize("make_spec", [synth.plating_spec, synth.baseline_spec])
@pytest.mark.parametrize("seed", range(4))
def test_fit_stops_within_1e5_nats_of_a_tight_ascent(make_spec, seed, monkeypatch):
    # the LML_TOL stop may leave at most 1e-5 nats for a much tighter
    # L-BFGS-B ascent to gain from the fitted optimum
    curve = _synth_curve(make_spec, seed)
    assert len(curve) == 300
    train = TrainingSet(curve.v, curve.q)
    ascents = []

    def counted(*args, **kwargs):
        ascents.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(gp_core, "minimize", counted)
    hp = fit(train).hp
    # the stop counts as converged: no fallback ascent from another start
    assert len(ascents) == 1
    seen = []

    def neg_lml(log_theta):
        val, grad = log_marginal_likelihood(train, Hyperparams(*np.exp(log_theta)))
        seen.append(-val)
        return -val, -grad

    x0 = np.log([hp.length_scale, hp.signal_std, hp.noise_std, hp.alpha])
    start = neg_lml(x0)[0]
    minimize(neg_lml, x0, jac=True, method="L-BFGS-B",
             options={"maxiter": 1000, "ftol": 1e-12, "gtol": 1e-9})
    # the best LML the ascent visited: a line search that fails can hand
    # back a trial point below its start
    assert start - min(seen) <= 1e-5


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
    work = np.full((4, n, n), np.nan)
    for hp in _scale_cases(train) * 2:
        val, grad = log_marginal_likelihood(train, hp)
        val_w, grad_w = log_marginal_likelihood(train, hp, work)
        assert val_w == val, hp
        assert np.array_equal(grad_w, grad), hp


def test_lml_with_warm_buffers_allocates_no_n_by_n_array():
    train = _toy_train(300, seed=6)
    n = len(train)
    work = gp_core._workspace(n)
    for hp in _scale_cases(train):
        log_marginal_likelihood(train, hp, work)
        tracemalloc.start()
        try:
            log_marginal_likelihood(train, hp, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, hp


def test_fit_scores_no_point_twice(monkeypatch):
    # L-BFGS-B's first call repeats the start it ascends from, which fit has
    # already scored; fit answers it, and any other repeat, without a second
    # evaluation
    curve = _synth_curve(synth.plating_spec, 0)
    train = TrainingSet(curve.v, curve.q)
    calls = []
    lml = gp_core.log_marginal_likelihood

    def counted(train, hp, *rest):
        calls.append(hp)
        return lml(train, hp, *rest)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", counted)
    fit(train)
    assert len(calls) > len(default_inits(train))
    assert len(set(calls)) == len(calls)


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
    # an ascent that L-BFGS-B ends after a failed line search (status 2),
    # and one that the LML_TOL stop ends on a step that lost LML: both
    # returned a point below the best they had evaluated (2 OpenBLAS threads)
    (synth.baseline_spec, 7),
    (synth.baseline_spec, 1),
])
def test_fit_returns_the_best_point_it_evaluated(make_spec, seed, monkeypatch):
    curve = _synth_curve(make_spec, seed)
    train = TrainingSet(curve.v, curve.q)
    values = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest):
        val, grad = lml(train, hp, *rest)
        values.append(val)
        return val, grad

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    model = fit(train)
    assert model.lml >= max(v for v in values if np.isfinite(v))


def test_two_quiet_stop_waits_for_two_quiet_iterations_in_a_row():
    quiet_gain = 0.5 * gp_core.LML_TOL
    one, two = gp_core._stop_when_quiet(0.0, 1), gp_core._stop_when_quiet(0.0, 2)
    f = 0.0
    # a quiet iteration that follows a gain does not stop the two-quiet ascent
    for gain in (1.0, quiet_gain, 1e-3, quiet_gain):
        f -= gain
        two(SimpleNamespace(fun=f))
    with pytest.raises(StopIteration):
        two(SimpleNamespace(fun=f - quiet_gain))
    one(SimpleNamespace(fun=-1.0))
    with pytest.raises(StopIteration):
        one(SimpleNamespace(fun=-1.0 - quiet_gain))


def _gate_failures(cold, warm):
    """What a warm refit breaks of the gate against the cold fit of the same
    cycle: verdict, peak count, peaks within 1e-6 V, half-widths within 1e-3
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

    def failing_first(train, hp, *rest):
        # the start is the first point a fit with a start scores
        calls.append(hp)
        if len(calls) == 1:
            raise FactorizationFailure("start")
        return lml(train, hp, *rest)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", failing_first)
    start = Hyperparams(0.3, 2.0 * train.y_std, 0.05 * train.y_std, 3.0)
    model = fit(train, start=start)
    assert model.fit_start == "cold"
    assert model.hp == cold.hp
    assert model.lml == cold.lml
    assert np.array_equal(model.chol, cold.chol)
    assert np.array_equal(model.weights, cold.weights)


def test_start_that_stays_on_a_bound_falls_back_to_the_cold_starts(monkeypatch):
    # this toy set's optimum has alpha on its upper bound, 1e3
    train = _toy_train(50, seed=3)
    cold = fit(train)
    assert cold.hp.alpha == pytest.approx(1e3)
    ascents = []

    def counted(*args, **kwargs):
        ascents.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(gp_core, "minimize", counted)
    model = fit(train, start=replace(cold.hp, alpha=1e3))
    assert model.fit_start == "cold"
    assert len(ascents) >= 2    # the warm ascent, then the cold ones
    assert model.lml >= cold.lml



@pytest.mark.filterwarnings("error")
def test_zero_noise_and_out_of_range_starts_clip_to_the_table_bounds(monkeypatch):
    # a zero noise has no logarithm: its start lands on the lower bound,
    # 1e-8 std(Q), and an alpha past 1e3 on the upper one, with no warning
    train = _toy_train(50, seed=0)
    s = train.y_std
    calls = []
    lml = gp_core.log_marginal_likelihood

    def recorded(train, hp, *rest):
        calls.append(hp)
        return lml(train, hp, *rest)

    monkeypatch.setattr(gp_core, "log_marginal_likelihood", recorded)
    fit(train, start=Hyperparams(0.1, s, 0.0, 1e6))
    first = calls[0]
    assert first.noise_std == np.exp(np.log(1e-8 * s))
    assert first.alpha == np.exp(np.log(1e3))
    assert first.length_scale == np.exp(np.log(0.1))
    assert first.signal_std == np.exp(np.log(s))


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


def _offset_kernel_matrix(xs, xs2, hp, block="VV"):
    assert block == "VV"
    rq, c = _offset_rq(hp)
    return kernel.kernel_matrix(xs, xs2, rq, block) + c


def test_a_fifth_parameter_fits_through_the_table(monkeypatch):
    # RQ plus a dimensionless offset b: a kernel with one more row in
    # PARAMS reaches the LML gradient, the bounds and the starts with no
    # edit to fit
    params = kernel.PARAMS + (kernel.Param("offset", "", (1e-3, 10.0), (0.1,)),)
    monkeypatch.setattr(gp_core, "PARAMS", params)
    monkeypatch.setattr(gp_core, "Hyperparams", _OffsetHyperparams)
    monkeypatch.setattr(gp_core, "log_param_grads", _offset_log_param_grads)
    monkeypatch.setattr(gp_core, "kernel_matrix", _offset_kernel_matrix)
    train = _toy_train(40, seed=5)
    assert len(gp_core._workspace(len(train))) == 5
    _check_lml_gradient(train, np.array([0.2, 0.02, 1e-3, 2.0, 0.3]), _OffsetHyperparams)

    assert [hp.offset for hp in default_inits(train)] == [0.1] * 5
    model = fit(train)
    assert isinstance(model.hp, _OffsetHyperparams)
    scale = gp_core._scales(train)
    for p in params:
        lo, hi = np.multiply(p.bounds, scale[p.unit])
        assert lo * (1 - 1e-12) <= getattr(model.hp, p.name) <= hi * (1 + 1e-12), p.name
